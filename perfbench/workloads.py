"""The benchmark's workloads: how each is set up and what its clients send.

Every workload is a closed loop of ``N_SESSIONS`` dashboard sessions.  A
:class:`Clients` object yields one round at a time, holding the next
request of every session; the harness submits a round as one
``answer_many`` call.  Dataset and training seeds are fixed; the workload
seed drives only what the clients send (sessions, hot-view draws, widget
picks) and the rows a write appends.

Why each workload exists is written next to its class and in METRICS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.backends import backend_profile, create_backend
from repro.core import Maliva, TrainingConfig
from repro.db import BoundingBox
from repro.db.types import days
from repro.experiments.setups import (
    accurate_qte,
    clear_setup_cache,
    sampling_qte,
    taxi_setup,
    twitter_setup,
)
from repro.serving import ServiceConfig, VizRequest, build_service
from repro.viz import (
    TAXI_TRANSLATOR,
    TWITTER_TRANSLATOR,
    VisualizationKind,
    VisualizationRequest,
)
from repro.workloads import ExplorationSessionGenerator

#: Concurrent dashboard sessions in every closed loop.
N_SESSIONS = 8
#: Service-wide default deadline (requests may carry their own).
TAU_MS = 500.0
#: Fixed training recipe: the agent must not vary with the workload seed.
TRAINING = TrainingConfig(max_epochs=10, seed=5)
#: Rows per append, in the hot-ingest phase and in the write probe.
WRITE_ROWS = 500


@dataclass
class Setup:
    """One built serving stack plus what it cost to build."""

    maliva: Maliva
    service: object
    table: str
    backend: object | None = None
    #: Seconds per setup stage: datasets.build_s, core.train_s, backends.ingest_s.
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def database(self):
        return self.maliva.database

    def rows_per_table(self) -> dict[str, int]:
        return {
            name: self.database.table(name).n_rows
            for name in self.database.table_names
        }

    def close(self) -> None:
        self.service.close()
        if self.backend is not None:
            self.backend.close()


def resampled_rows(database, table_name: str, n_rows: int, rng) -> dict:
    """``n_rows`` rows drawn with replacement from the table's current rows."""
    table = database.table(table_name)
    picks = rng.integers(0, table.n_rows, size=n_rows)
    columns = {}
    for column in table.schema.columns:
        data = table.column(column.name)
        if isinstance(data, np.ndarray):
            columns[column.name] = data[picks]
        else:
            columns[column.name] = [data[int(i)] for i in picks]
    return columns


class Clients:
    """The request source of one timed phase (one per phase, from the seed)."""

    _sent = 0

    def next_round(self) -> list[VizRequest]:
        """The next request of every session, as one round."""
        requests = [
            VizRequest(
                payload=payload,
                session_id=f"client-{client}",
                request_id=self._sent + client,
            )
            for client, payload in enumerate(self.payloads())
        ]
        self._sent += len(requests)
        return requests

    def payloads(self) -> list[VisualizationRequest]:
        """One payload per session for the next round."""
        raise NotImplementedError


class Workload:
    """A named setup recipe plus its client model."""

    name = ""
    dataset = ""
    scale = ""
    #: Nominal rounds per second on a 2-CPU host; sizes a phase's fixed work.
    rounds_per_second = 10.0
    #: Rounds between writes inside the timed phase (None: no writes).
    write_every_rounds: int | None = None

    def prepare(self):
        """The experiment setup (dataset, action space, splits) a build
        starts from; its database alone serves as the twin."""
        raise NotImplementedError

    def build(self) -> Setup:
        raise NotImplementedError

    def clients(self, seed: int, setup: Setup) -> Clients:
        raise NotImplementedError

    def write_rng(self, seed: int):
        """Generator for appended rows; shared by the service and its twin."""
        return np.random.default_rng([seed, 0x57])


def _train(setup, qte) -> Maliva:
    maliva = Maliva(setup.database, setup.space, qte, TAU_MS, config=TRAINING)
    maliva.train(list(setup.split.train), list(setup.split.validation))
    return maliva


def _twitter_dataset(scale: str):
    setup = twitter_setup(scale, tau_ms=TAU_MS)
    clear_setup_cache()
    return setup


def _twitter_setup(scale: str, qte_kind: str) -> Setup:
    started = time.perf_counter()
    setup = _twitter_dataset(scale)
    built = time.perf_counter()
    qte = sampling_qte(setup) if qte_kind == "sampling" else accurate_qte(setup)
    maliva = _train(setup, qte)
    trained = time.perf_counter()
    service = build_service(maliva, ServiceConfig(translator=TWITTER_TRANSLATOR))
    return Setup(
        maliva=maliva,
        service=service,
        table="tweets",
        stages={
            "datasets.build_s": built - started,
            "core.train_s": trained - built,
            "backends.ingest_s": 0.0,
        },
    )


class ExploreCold(Workload):
    """Distinct pan/zoom sessions on twitter ``small`` with the sampling QTE.

    Caches barely help and the working set is far larger than any of them,
    so this measures the execute layer and the planning layer.
    """

    name = "explore-cold"
    dataset = "twitter"
    scale = "small"
    rounds_per_second = 38.0

    def prepare(self):
        return _twitter_dataset(self.scale)

    def build(self) -> Setup:
        return _twitter_setup(self.scale, "sampling")

    def clients(self, seed: int, setup: Setup) -> Clients:
        return _ExplorationClients(ExplorationSessionGenerator(setup.database, seed=seed))


class _ExplorationClients(Clients):
    """Each session runs consecutive generated sessions, one step per round.

    Sessions have 8 steps, but session ``i`` opens with a shorter one of
    ``i + 1`` steps, so from then on exactly one session per round starts
    over with a full-map search instead of all eight at once.
    """

    steps = 8

    def __init__(self, generator: ExplorationSessionGenerator) -> None:
        self._generator = generator
        self._queues: list[list] = [
            generator.generate(client + 1) for client in range(N_SESSIONS)
        ]

    def payloads(self) -> list[VisualizationRequest]:
        for queue in self._queues:
            if not queue:
                queue.extend(self._generator.generate(self.steps))
        return [queue.pop(0).request for queue in self._queues]


class HotIngest(Workload):
    """Zipf draws over ~16 dashboard views on twitter ``tiny``, with writes.

    The warm decision-cache and engine-cache path runs between writes; each
    write invalidates everything and rebuilds the indexes, and the accurate
    QTE then replans cold.  The working set fits every cache.
    """

    name = "hot-ingest"
    dataset = "twitter"
    scale = "tiny"
    rounds_per_second = 80.0
    #: 500 rows after every 512 reads.
    write_every_rounds = 512 // N_SESSIONS
    n_views = 16
    zipf_s = 1.1
    #: Fixed, so every seed draws from the same views.
    views_seed = 101

    def prepare(self):
        return _twitter_dataset(self.scale)

    def build(self) -> Setup:
        return _twitter_setup(self.scale, "accurate")

    def clients(self, seed: int, setup: Setup) -> Clients:
        generator = ExplorationSessionGenerator(setup.database, seed=self.views_seed)
        views: list[VisualizationRequest] = []
        while len(views) < self.n_views:
            for step in generator.generate(8):
                if step.request not in views and len(views) < self.n_views:
                    views.append(step.request)
        weights = 1.0 / np.arange(1, len(views) + 1) ** self.zipf_s
        return _ViewDrawClients(views, weights / weights.sum(), seed)


class _ViewDrawClients(Clients):
    """Every session draws its next view from a fixed weighted set."""

    def __init__(self, views, weights, seed: int) -> None:
        self._views = views
        self._weights = weights
        self._rng = np.random.default_rng([seed, 0xD4])

    def payloads(self) -> list[VisualizationRequest]:
        picks = self._rng.choice(len(self._views), size=N_SESSIONS, p=self._weights)
        return [self._views[int(pick)] for pick in picks]


#: The four widgets of the taxi operations dashboard (``serve --dataset taxi``).
_MANHATTAN = BoundingBox(-74.03, 40.70, -73.93, 40.82)
_JFK = BoundingBox(-73.83, 40.62, -73.74, 40.67)
_CITY = BoundingBox(-74.30, 40.45, -73.65, 41.00)
TAXI_WIDGETS = (
    VisualizationRequest(
        kind=VisualizationKind.HEATMAP,
        region=_CITY,
        time_range=(days(1_000), days(1_095)),
        heatmap_cell_degrees=0.01,
        tau_ms=2_000.0,
    ),
    VisualizationRequest(
        kind=VisualizationKind.HEATMAP,
        region=_MANHATTAN,
        time_range=(days(1_060), days(1_067)),
        heatmap_cell_degrees=0.005,
    ),
    VisualizationRequest(
        kind=VisualizationKind.SCATTERPLOT,
        region=_JFK,
        time_range=(days(1_030), days(1_060)),
        extra_ranges=(("trip_distance", (8.0, 60.0)),),
        tau_ms=600.0,
    ),
    VisualizationRequest(
        kind=VisualizationKind.SCATTERPLOT,
        region=_CITY,
        time_range=(days(1_093), days(1_095)),
        extra_ranges=(("trip_distance", (0.0, 2.0)),),
    ),
)


class TaxiSqlite(Workload):
    """The taxi dashboard widgets on taxi ``tiny`` served by SQLite.

    Planning is cached after the first round, so SQLite execution is nearly
    all of the wall.  The only workload that exercises the backends layer.
    """

    name = "taxi-sqlite"
    dataset = "taxi"
    #: ``tiny`` (30k trips), not ``small``: at 150k trips a round took
    #: ~55 ms, so a phase held ~150 rounds and its p99 rested on the two
    #: slowest of them.
    scale = "tiny"
    rounds_per_second = 44.0

    def prepare(self):
        setup = taxi_setup(self.scale, tau_ms=TAU_MS)
        clear_setup_cache()
        profile = backend_profile("sqlite")
        setup = replace(
            setup,
            space=profile.prune_space(setup.space, setup.database.table("trips").schema),
        )
        setup.database.profile = profile.sim_profile()
        return setup

    def build(self) -> Setup:
        started = time.perf_counter()
        setup = self.prepare()
        built = time.perf_counter()
        maliva = _train(setup, accurate_qte(setup))
        trained = time.perf_counter()
        backend = create_backend("sqlite")
        backend.ingest(setup.database)
        ingested = time.perf_counter()
        service = build_service(
            maliva, ServiceConfig(translator=TAXI_TRANSLATOR, backend=backend)
        )
        return Setup(
            maliva=maliva,
            service=service,
            table="trips",
            backend=backend,
            stages={
                "datasets.build_s": built - started,
                "core.train_s": trained - built,
                "backends.ingest_s": ingested - trained,
            },
        )

    def clients(self, seed: int, setup: Setup) -> Clients:
        return _WidgetClients(seed)


class _WidgetClients(Clients):
    """Every round carries each dashboard widget twice; the seed decides
    which session views which.

    Identical mixes keep round latencies comparable, so p50 and p99 reflect
    the engine rather than how many sessions happened to open the heaviest
    widget together.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0x7A])
        self._slots = np.repeat(
            np.arange(len(TAXI_WIDGETS)), N_SESSIONS // len(TAXI_WIDGETS)
        )

    def payloads(self) -> list[VisualizationRequest]:
        return [TAXI_WIDGETS[int(w)] for w in self._rng.permutation(self._slots)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (ExploreCold(), HotIngest(), TaxiSqlite())
}
