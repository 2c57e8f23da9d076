"""Unit tests: the cross-shard partition drill.  Its command-line form,
``sweep --figure drill``, is pinned in ``tests/unit/experiments/test_figure.py``."""

import pytest

from repro.chaos.scenario import get_scenario
from repro.sharding import run_cross_shard_partition


@pytest.fixture(scope="module")
def drill_report():
    return run_cross_shard_partition(2, 12, protocol="hermes", f=1, k=3, seed=0)


class TestCrossShardPartitionDrill:
    def test_builtin_scenario_registered(self):
        scenario = get_scenario("cross-shard-partition")
        assert any(e.kind == "committee-partition" for e in scenario.events)
        assert scenario.liveness_deadline_ms is not None

    def test_healthy_shards_keep_liveness(self, drill_report):
        assert drill_report.num_shards == 2
        assert drill_report.partitioned_shard == 0
        assert drill_report.healthy_shards_live
        flags = {entry.shard: entry.partitioned for entry in drill_report.per_shard}
        assert flags == {0: True, 1: False}
        for entry in drill_report.per_shard:
            assert entry.transactions > 0

    def test_report_json_shape(self, drill_report):
        doc = drill_report.to_json()
        assert doc["scenario"] == "cross-shard-partition"
        assert doc["healthy_shards_live"] == drill_report.healthy_shards_live
        assert len(doc["per_shard"]) == 2

    def test_bad_partition_target_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_cross_shard_partition(2, 12, partitioned_shard=5)

