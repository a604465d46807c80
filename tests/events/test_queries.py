"""Tests for RangeQuery: taxonomy, rewrite, matching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.event import Event
from repro.events.queries import FULL_RANGE, QueryKind, RangeQuery
from repro.exceptions import DimensionMismatchError, ValidationError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def queries(draw, dims=st.integers(min_value=1, max_value=5)):
    k = draw(dims)
    bounds = []
    for _ in range(k):
        lo = draw(unit)
        hi = draw(unit.filter(lambda v: True))
        lo, hi = min(lo, hi), max(lo, hi)
        bounds.append((lo, hi))
    return RangeQuery(tuple(bounds))


class TestConstruction:
    def test_of(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert q.bounds == ((0.1, 0.2), (0.3, 0.4))
        assert q.dimensions == 2

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            RangeQuery.of((0.5, 0.4))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValidationError):
            RangeQuery.of((0.0, 1.5))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            RangeQuery(())

    def test_point_constructor(self):
        q = RangeQuery.point(0.2, 0.7)
        assert q.bounds == ((0.2, 0.2), (0.7, 0.7))

    def test_partial_constructor_rewrites(self):
        # The paper's Q = <*, *, [0.8, 0.84]>.
        q = RangeQuery.partial(3, {2: (0.8, 0.84)})
        assert q.bounds == (FULL_RANGE, FULL_RANGE, (0.8, 0.84))

    def test_partial_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            RangeQuery.partial(3, {5: (0.1, 0.2)})

    def test_container_protocol(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert len(q) == 2
        assert q[0] == (0.1, 0.2)
        assert list(q) == [(0.1, 0.2), (0.3, 0.4)]


class TestTaxonomy:
    def test_exact_point(self):
        assert RangeQuery.point(0.1, 0.2, 0.3).kind() is QueryKind.EXACT_POINT

    def test_partial_point(self):
        q = RangeQuery.partial(3, {0: (0.5, 0.5)})
        assert q.kind() is QueryKind.PARTIAL_POINT

    def test_exact_range(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
        assert q.kind() is QueryKind.EXACT_RANGE

    def test_partial_range(self):
        q = RangeQuery.partial(3, {1: (0.3, 0.4)})
        assert q.kind() is QueryKind.PARTIAL_RANGE

    def test_all_unspecified_is_range(self):
        q = RangeQuery.partial(2, {})
        assert q.kind() is QueryKind.PARTIAL_RANGE

    def test_partial_degree(self):
        assert RangeQuery.partial(3, {1: (0.3, 0.4)}).partial_degree == 2
        assert RangeQuery.point(0.1, 0.2).partial_degree == 0

    def test_specified_and_unspecified(self):
        q = RangeQuery.partial(3, {1: (0.3, 0.4)})
        assert q.unspecified_dimensions() == (0, 2)
        assert q.specified_dimensions() == (1,)


class TestMatching:
    def test_basic_match(self):
        q = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
        assert q.matches(Event.of(0.25, 0.3, 0.22))
        assert not q.matches(Event.of(0.1, 0.3, 0.22))

    def test_bounds_are_closed(self):
        q = RangeQuery.of((0.2, 0.3))
        assert q.matches(Event.of(0.2))
        assert q.matches(Event.of(0.3))

    def test_matches_raw_sequence(self):
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert q.matches((0.1, 0.2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RangeQuery.of((0.0, 1.0)).matches(Event.of(0.1, 0.2))

    def test_filter(self):
        events = [Event.of(0.1, 0.1), Event.of(0.6, 0.6), Event.of(0.4, 0.4)]
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert q.filter(events) == [events[0], events[2]]

    @given(queries(), st.lists(unit, min_size=5, max_size=5))
    def test_rewritten_dimensions_always_match(self, query, values):
        event_values = tuple(values[: query.dimensions])
        event = Event(event_values)
        specified_ok = all(
            lo <= event_values[d] <= hi
            for d in query.specified_dimensions()
            for lo, hi in [query.bounds[d]]
        )
        assert query.matches(event) == specified_ok

    @given(queries())
    def test_volume_in_unit_interval(self, query):
        assert 0.0 <= query.volume <= 1.0


class TestProperties:
    def test_lowers_uppers(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert q.lowers == (0.1, 0.3)
        assert q.uppers == (0.2, 0.4)

    def test_volume(self):
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert q.volume == pytest.approx(0.25)

    def test_repr_shows_dont_care(self):
        q = RangeQuery.partial(2, {0: (0.1, 0.2)})
        assert "*" in repr(q)


#: Values that sit exactly on typical bounds, mixed with arbitrary ones.
edge_or_unit = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | unit


@st.composite
def bounds_of(draw, k):
    """A k-dimensional query mixing points, ranges and don't-cares."""
    bounds = []
    for _ in range(k):
        shape = draw(st.sampled_from(["full", "point", "range"]))
        if shape == "full":
            bounds.append(FULL_RANGE)
        elif shape == "point":
            value = draw(edge_or_unit)
            bounds.append((value, value))
        else:
            lo, hi = sorted((draw(edge_or_unit), draw(edge_or_unit)))
            bounds.append((lo, hi))
    return RangeQuery(tuple(bounds))


@st.composite
def query_and_bucket(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    query = draw(bounds_of(k))
    # Event values are drawn from the query's own bounds too, so many
    # events sit exactly on an ``lo`` or ``hi``.
    on_bounds = st.sampled_from([v for bound in query.bounds for v in bound])
    bucket = draw(
        st.lists(
            st.tuples(*[on_bounds | edge_or_unit for _ in range(k)]).map(Event),
            max_size=30,
        )
    )
    return query, bucket


class TestSelector:
    @given(query_and_bucket())
    @settings(max_examples=300)
    def test_equals_matches_in_bucket_order(self, case):
        query, bucket = case
        expected = [e for e in bucket if query.matches(e)]
        # Identity, not equality: equal-valued events must keep their order.
        assert list(map(id, query.selector()(bucket))) == list(map(id, expected))

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_all_full_range_keeps_everything(self, k, data):
        query = RangeQuery.partial(k, {})
        bucket = data.draw(
            st.lists(st.tuples(*[edge_or_unit] * k).map(Event), max_size=10)
        )
        kept = query.selector()(bucket)
        assert kept == bucket
        assert kept is not bucket

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_empty_bucket(self, k):
        assert RangeQuery.point(*[0.5] * k).selector()([]) == []

    def test_closed_bounds_at_zero_and_one(self):
        low_edge = Event.of(0.0, 1.0, 0.0)
        query = RangeQuery.of((0.0, 0.0), (1.0, 1.0), (0.0, 0.5))
        assert query.selector()([low_edge]) == [low_edge]
