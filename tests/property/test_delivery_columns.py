"""``NetworkStats.deliveries`` against the dict-of-dicts it replaces.

Each item's first deliveries are two columns (node ids in first-delivery
order, times indexed by node id with NaN for "not yet"), read through a
``Mapping``.  Every consumer — ``len``, ``set``, ``dict``, ``.get``,
``.values()`` and the float sums over them — must see what the reference
``defaultdict(dict)`` filled by ``setdefault`` shows: the same keys, values
and iteration order, under duplicates, sparse ids and ids past the end of a
column.
"""

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.stats import DeliveryTimes, NetworkStats

ITEMS = ["a", "b", ("rbc", 1), 7]

node_ids = st.one_of(
    st.integers(min_value=0, max_value=24),  # dense: duplicates are common
    st.integers(min_value=25, max_value=5_000),  # sparse, far past the column
)
deliveries = st.lists(
    st.tuples(
        st.sampled_from(ITEMS),
        node_ids,
        st.floats(min_value=-1e3, max_value=1e9, allow_nan=False),
    ),
    max_size=120,
)


def record(sequence):
    stats, reference = NetworkStats(), defaultdict(dict)
    for item, node, time_ms in sequence:
        stats.record_delivery(item, node, time_ms)
        reference[item].setdefault(node, time_ms)
    return stats, reference


class TestAgainstDictOfDicts:
    @given(sequence=deliveries)
    @settings(max_examples=150, deadline=None)
    def test_same_keys_values_and_order(self, sequence):
        stats, reference = record(sequence)
        assert list(stats.deliveries) == list(reference)
        for item, expected in reference.items():
            view = stats.deliveries[item]
            assert isinstance(view, DeliveryTimes)
            assert list(view) == list(expected)
            assert list(view.keys()) == list(expected.keys())
            assert list(view.values()) == list(expected.values())
            assert list(view.items()) == list(expected.items())
            assert len(view) == len(expected)
            assert dict(view) == expected and view == expected
            assert set(view) == set(expected)
            # A float sum in delivery order is bitwise the reference's.
            assert sum(view.values()) == sum(expected.values())

    @given(sequence=deliveries, probes=st.lists(node_ids, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_membership_and_lookup(self, sequence, probes):
        stats, reference = record(sequence)
        for item in ITEMS:
            view = stats.deliveries.get(item, {})
            expected = reference.get(item, {})
            for node in [*probes, *expected]:
                assert (node in view) == (node in expected)
                assert view.get(node) == expected.get(node)
                assert view.get(node, "absent") == expected.get(node, "absent")
                if node in expected:
                    assert view[node] == expected[node]
                else:
                    with pytest.raises(KeyError):
                        view[node]

    @given(sequence=deliveries)
    @settings(max_examples=60, deadline=None)
    def test_derived_metrics_match(self, sequence):
        stats, reference = record(sequence)
        for item in reference:
            stats.record_dissemination_start(item, 5.0)
            assert stats.delivery_latencies(item) == [
                max(0.0, t - 5.0) for t in reference[item].values()
            ]
            assert stats.coverage(item, range(30)) == len(
                set(range(30)) & set(reference[item])
            ) / 30


class TestEdges:
    def test_missing_item_reads_as_empty(self):
        stats = NetworkStats()
        assert len(stats.deliveries["never"]) == 0
        assert dict(stats.deliveries["never"]) == {}
        assert "other" not in stats.deliveries

    def test_keys_that_are_not_node_ids_are_absent(self):
        stats = NetworkStats()
        stats.record_delivery("tx", 3, 1.0)
        view = stats.deliveries["tx"]
        for key in ("3", None, -1, -4, 3.5, 10**30):
            assert key not in view
            assert view.get(key) is None
        assert True not in view  # bool(1) is node 1, as in a dict
        stats.record_delivery("tx", 1, 2.0)
        assert True in view and view[True] == 2.0

    def test_negative_node_ids_are_refused(self):
        stats = NetworkStats()
        stats.record_delivery("tx", 2, 1.0)
        with pytest.raises(ValueError):
            stats.record_delivery("tx", -1, 1.0)
        assert dict(stats.deliveries["tx"]) == {2: 1.0}

    def test_infinite_times_are_deliveries(self):
        stats = NetworkStats()
        stats.record_delivery("tx", 0, math.inf)
        stats.record_delivery("tx", 0, 1.0)
        assert dict(stats.deliveries["tx"]) == {0: math.inf}
