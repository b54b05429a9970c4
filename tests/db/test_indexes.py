"""Index correctness: every index must agree with the predicate's own mask.

Includes property-based tests over random data and query parameters, and
the append oracle: an index extended by appends must equal a fresh build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    BoundingBox,
    Column,
    ColumnKind,
    Database,
    EngineProfile,
    EqualsPredicate,
    GridIndex,
    InvertedIndex,
    KeywordPredicate,
    RangePredicate,
    SortedIndex,
    SpatialPredicate,
    Table,
    TableSchema,
)
from repro.errors import QueryError


def numeric_table(values) -> Table:
    schema = TableSchema("t", (Column("v", ColumnKind.FLOAT),))
    return Table(schema, {"v": np.asarray(values, dtype=float)})


def text_table(texts) -> Table:
    schema = TableSchema("t", (Column("txt", ColumnKind.TEXT),))
    return Table(schema, {"txt": list(texts)})


def point_table(points) -> Table:
    schema = TableSchema("t", (Column("p", ColumnKind.POINT),))
    return Table(schema, {"p": np.asarray(points, dtype=float)})


class TestSortedIndex:
    def test_range_matches_mask(self, small_table):
        index = SortedIndex(small_table, "value")
        predicate = RangePredicate("value", 20.0, 60.0)
        lookup = index.lookup(predicate)
        assert np.array_equal(lookup.row_ids, predicate.matching_ids(small_table))
        assert lookup.entries_scanned == lookup.count

    def test_equals_lookup(self, small_table):
        index = SortedIndex(small_table, "id")
        lookup = index.lookup(EqualsPredicate("id", 42))
        assert list(lookup.row_ids) == [42]

    def test_nan_keys_match_no_bound(self):
        table = numeric_table([1.0, np.nan, 3.0, np.nan])
        index = SortedIndex(table, "v")
        for predicate in (
            RangePredicate("v", 2.0, None),
            RangePredicate("v", None, 2.0),
            RangePredicate("v", np.nan, None),
            EqualsPredicate("v", np.nan),
        ):
            expected = predicate.matching_ids(table)
            assert np.array_equal(index.lookup(predicate).row_ids, expected)
            assert index.entries_for(predicate) == len(expected)

    def test_count_range(self):
        table = numeric_table([1.0, 2.0, 2.0, 3.0, 5.0])
        index = SortedIndex(table, "v")
        assert index.count_range(2.0, 3.0) == 3
        assert index.count_range(None, None) == 5
        assert index.count_range(10.0, 20.0) == 0

    def test_rejects_foreign_predicate(self, small_table):
        index = SortedIndex(small_table, "value")
        assert not index.supports(RangePredicate("stamp", 0.0, 1.0))
        with pytest.raises(QueryError):
            index.lookup(RangePredicate("stamp", 0.0, 1.0))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=80),
        st.floats(-1e3, 1e3),
        st.floats(0.0, 500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_range_agrees_with_mask(self, values, low, width):
        table = numeric_table(values)
        index = SortedIndex(table, "v")
        predicate = RangePredicate("v", low, low + width)
        assert np.array_equal(
            index.lookup(predicate).row_ids, predicate.matching_ids(table)
        )


class TestInvertedIndex:
    def test_lookup_matches_mask(self, small_table):
        index = InvertedIndex(small_table, "note")
        predicate = KeywordPredicate("note", "gamma")
        assert np.array_equal(
            index.lookup(predicate).row_ids, predicate.matching_ids(small_table)
        )

    def test_missing_token_empty(self):
        index = InvertedIndex(text_table(["a b", "b c"]), "txt")
        lookup = index.lookup(KeywordPredicate("txt", "zzz"))
        assert lookup.count == 0
        assert lookup.entries_scanned == 0

    def test_document_frequency(self):
        index = InvertedIndex(text_table(["a b", "b c", "b"]), "txt")
        assert index.document_frequency("b") == 3
        assert index.document_frequency("a") == 1
        assert index.document_frequency("nope") == 0

    def test_most_common_ordering(self):
        index = InvertedIndex(text_table(["a b", "b c", "b a"]), "txt")
        ranked = index.most_common(2)
        assert ranked[0] == ("b", 3)
        assert ranked[1] == ("a", 2)

    def test_duplicate_tokens_count_once_per_row(self):
        index = InvertedIndex(text_table(["dog dog dog"]), "txt")
        assert index.document_frequency("dog") == 1

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["red", "green", "blue", "cyan"]),
                min_size=0,
                max_size=5,
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(["red", "green", "blue", "cyan", "absent"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_postings_agree_with_mask(self, token_lists, keyword):
        table = text_table([" ".join(tokens) for tokens in token_lists])
        index = InvertedIndex(table, "txt")
        predicate = KeywordPredicate("txt", keyword)
        assert np.array_equal(
            index.lookup(predicate).row_ids, predicate.matching_ids(table)
        )


class TestGridIndex:
    def test_lookup_matches_mask(self, small_table):
        index = GridIndex(small_table, "spot", grid_size=8)
        predicate = SpatialPredicate("spot", BoundingBox(-3.0, -3.0, 4.0, 4.0))
        assert np.array_equal(
            index.lookup(predicate).row_ids, predicate.matching_ids(small_table)
        )

    def test_entries_scanned_at_least_matches(self, small_table):
        index = GridIndex(small_table, "spot", grid_size=8)
        predicate = SpatialPredicate("spot", BoundingBox(-3.0, -3.0, 4.0, 4.0))
        lookup = index.lookup(predicate)
        assert lookup.entries_scanned >= lookup.count

    def test_empty_table(self):
        index = GridIndex(point_table(np.zeros((0, 2))), "p")
        lookup = index.lookup(SpatialPredicate("p", BoundingBox(0, 0, 1, 1)))
        assert lookup.count == 0

    def test_single_point_degenerate_extent(self):
        index = GridIndex(point_table([[1.0, 1.0]]), "p")
        hit = index.lookup(SpatialPredicate("p", BoundingBox(0, 0, 2, 2)))
        assert list(hit.row_ids) == [0]
        miss = index.lookup(SpatialPredicate("p", BoundingBox(5, 5, 6, 6)))
        assert miss.count == 0

    def test_invalid_grid_size(self, small_table):
        with pytest.raises(ValueError):
            GridIndex(small_table, "spot", grid_size=0)

    @given(
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=1,
            max_size=60,
        ),
        st.floats(-60, 60),
        st.floats(-60, 60),
        st.floats(0.0, 80.0),
        st.floats(0.0, 80.0),
        st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_grid_agrees_with_mask(self, pts, x, y, w, h, grid):
        table = point_table(pts)
        index = GridIndex(table, "p", grid_size=grid)
        predicate = SpatialPredicate("p", BoundingBox(x, y, x + w, y + h))
        assert np.array_equal(
            index.lookup(predicate).row_ids, predicate.matching_ids(table)
        )


def test_token_sets_do_not_leak_between_text_columns():
    schema = TableSchema(
        "t", (Column("a", ColumnKind.TEXT), Column("b", ColumnKind.TEXT))
    )
    database = Database(profile=EngineProfile.deterministic())
    database.add_table(
        Table(schema, {"a": ["red apple", "green"], "b": ["blue sky", "red"]})
    )
    database.create_index("t", "a")
    database.create_index("t", "b")
    assert list(database.index_lookup("t", KeywordPredicate("b", "red")).row_ids) == [1]
    assert list(database.index_lookup("t", KeywordPredicate("a", "red")).row_ids) == [0]


# ----------------------------------------------------------------------
# Append oracle: an index extended in place equals a fresh build
# ----------------------------------------------------------------------
_COLUMNS = ("i", "f", "txt", "p")
_WORDS = ["red", "green", "blue", "cyan", "teal", "gold"]
_FLOATS = [-1.5, 0.0, 2.0, 7.25]
_COORDS = [-5.0, 0.0, 5.0]


def mixed_schema() -> TableSchema:
    return TableSchema(
        "t",
        (
            Column("i", ColumnKind.INT),
            Column("f", ColumnKind.FLOAT),
            Column("txt", ColumnKind.TEXT),
            Column("p", ColumnKind.POINT),
        ),
    )


@st.composite
def mixed_rows(draw) -> dict:
    """A batch of rows: tied ints, tied floats with NaNs, texts over a
    small vocabulary (so appends bring both new and existing tokens) and
    points on a small lattice or anywhere in a wider square (inside, on
    and outside the current extent)."""
    n = draw(st.integers(0, 6))
    sized = {"min_size": n, "max_size": n}
    floats = st.sampled_from(_FLOATS + [np.nan]) | st.floats(-10.0, 10.0)
    coords = st.sampled_from(_COORDS) | st.floats(-20.0, 20.0)
    words = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)
    return {
        "i": np.array(draw(st.lists(st.integers(-3, 3), **sized)), dtype=np.int64),
        "f": np.array(draw(st.lists(floats, **sized)), dtype=np.float64),
        "txt": draw(st.lists(words, **sized)),
        "p": np.array(
            draw(st.lists(st.tuples(coords, coords), **sized)), dtype=np.float64
        ).reshape(-1, 2),
    }


def _probes(column: str) -> list:
    if column == "i":
        return [EqualsPredicate("i", v) for v in range(-4, 5)] + [
            RangePredicate("i", -2, 1),
            RangePredicate("i", None, 0),
            RangePredicate("i", 1, None),
        ]
    if column == "f":
        return [EqualsPredicate("f", v) for v in _FLOATS] + [
            RangePredicate("f", -1.5, 2.0),
            RangePredicate("f", None, 0.0),
            RangePredicate("f", 0.0, None),
            RangePredicate("f", -100.0, 100.0),
        ]
    if column == "txt":
        return [KeywordPredicate("txt", w) for w in _WORDS + ["absent"]]
    return [
        SpatialPredicate("p", BoundingBox(*box))
        for box in [
            (-5.0, -5.0, 5.0, 5.0),
            (0.0, 0.0, 20.0, 20.0),
            (-20.0, -20.0, 0.0, 0.0),
            (-1.0, -1.0, 1.0, 1.0),
            (-30.0, -30.0, 30.0, 30.0),
        ]
    ]


def _assert_same_array(got: np.ndarray, expected: np.ndarray, name: str) -> None:
    assert got.dtype == expected.dtype, name
    assert got.shape == expected.shape, name
    assert got.tobytes() == expected.tobytes(), name


def assert_same_index_state(index, fresh) -> None:
    """Every attribute of ``index`` is bit-identical to ``fresh``'s."""
    state, expected = vars(index), vars(fresh)
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        got = state[name]
        if isinstance(value, np.ndarray):
            _assert_same_array(got, value, name)
        elif isinstance(value, dict):
            assert list(got) == list(value), name
            for key in value:
                _assert_same_array(got[key], value[key], f"{name}[{key!r}]")
        else:
            assert got == value, name


@given(mixed_rows(), st.lists(mixed_rows(), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_property_appended_indexes_equal_fresh_build(initial, appends):
    database = Database(profile=EngineProfile.deterministic())
    database.add_table(Table(mixed_schema(), initial), analyze=False)
    for column in _COLUMNS:
        database.create_index("t", column)
    indexes = {column: database.index("t", column) for column in _COLUMNS}
    for rows in appends:
        if database.table("t").n_rows + len(rows["i"]) == 0:
            continue  # statistics refuse an empty table; nothing to index
        database.append_rows("t", rows)
        table = database.table("t")
        # A copy re-tokenizes from scratch, so the oracle does not share
        # the appended table's token-set cache.
        copy = Table(table.schema, {c: table.column(c) for c in _COLUMNS})
        for column in _COLUMNS:
            index = database.index("t", column)
            assert index is indexes[column]
            assert_same_index_state(index, database._build_index(table, column))
            assert_same_index_state(index, database._build_index(copy, column))
            probes = _probes(column)
            for probe, lookup in zip(probes, index.lookup_batch(probes)):
                assert np.array_equal(lookup.row_ids, probe.matching_ids(copy))


def test_grid_append_inside_extent_buckets_only_new_points(monkeypatch):
    database = Database(profile=EngineProfile.deterministic())
    database.add_table(point_table([[0.0, 0.0], [10.0, 10.0], [3.0, 7.0]]))
    database.create_index("t", "p")
    index = database.index("t", "p")
    bucketed: list[int] = []
    cell_of = GridIndex._cell_of

    def counting_cell_of(self, pts):
        bucketed.append(len(pts))
        return cell_of(self, pts)

    monkeypatch.setattr(GridIndex, "_cell_of", counting_cell_of)
    # On and inside the extent: only the two new points are bucketed.
    database.append_rows("t", {"p": np.array([[10.0, 0.0], [5.0, 5.0]])})
    assert bucketed == [2]
    # Outside it: the cell mapping changes, so every point is re-bucketed.
    database.append_rows("t", {"p": np.array([[11.0, 5.0]])})
    assert bucketed == [2, 6]
    assert database.index("t", "p") is index
    assert_same_index_state(index, GridIndex(database.table("t"), "p"))
