"""Unit tests for the content-addressed result store."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    RECORD_SCHEMA,
    MemoryStore,
    ResultStore,
    RunRecord,
    RunSpec,
)


@pytest.fixture
def spec():
    return RunSpec(task="selftest.echo", params={"x": 1})


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


class TestRunRecord:
    def test_build_ok(self, spec):
        record = RunRecord.build(spec, result={"x": 1})
        assert record.ok
        assert record["schema"] == RECORD_SCHEMA
        assert record["spec_hash"] == spec.spec_hash
        assert record.result == {"x": 1}
        assert record.spec == spec

    def test_build_error(self, spec):
        record = RunRecord.build(spec, status="error", error="boom", attempts=3)
        assert not record.ok
        assert record["error"] == "boom"
        assert record["attempts"] == 3

    def test_is_a_plain_dict(self, spec):
        record = RunRecord.build(spec, result=1)
        assert json.loads(json.dumps(record)) == dict(record)


class TestResultStore:
    def test_save_and_load_round_trip(self, store, spec):
        record = RunRecord.build(spec, result={"v": [1.5, 2.5]})
        path = store.save(record)
        assert path.name == f"{spec.spec_hash}.json"
        loaded = store.load(spec)
        assert loaded == record
        assert loaded.ok

    def test_contains_by_spec_and_hash(self, store, spec):
        assert spec not in store
        store.save(RunRecord.build(spec, result=1))
        assert spec in store
        assert spec.spec_hash in store

    def test_missing_record_loads_as_none(self, store, spec):
        assert store.load(spec) is None

    def test_corrupt_record_treated_as_missing(self, store, spec):
        store.save(RunRecord.build(spec, result=1))
        store.path_for(spec).write_text('{"schema": "repro.runner/1", trunc')
        assert store.load(spec) is None
        assert spec.spec_hash not in store.completed_hashes()

    def test_wrong_schema_treated_as_missing(self, store, spec):
        path = store.path_for(spec)
        path.write_text(json.dumps({"schema": "other/9", "spec_hash": spec.spec_hash}))
        assert store.load(spec) is None

    def test_misfiled_record_treated_as_missing(self, store, spec):
        # A record copied (or renamed) onto another cell's address must be
        # recomputed, not served as that cell's result.
        other = RunSpec(task="selftest.echo", params={"x": 2})
        store.save(RunRecord.build(other, result={"x": 2}))
        store.path_for(spec).write_bytes(store.path_for(other).read_bytes())
        assert store.load(spec) is None
        assert store.load(other).result == {"x": 2}
        assert store.completed_hashes() == {other.spec_hash}
        assert [r["spec_hash"] for r in store.records()] == [other.spec_hash]

    def test_completed_hashes_excludes_failures(self, store):
        ok = RunSpec(task="t", params={"x": 1})
        bad = RunSpec(task="t", params={"x": 2})
        store.save(RunRecord.build(ok, result=1))
        store.save(RunRecord.build(bad, status="error", error="boom"))
        assert store.completed_hashes() == {ok.spec_hash}
        assert len(store) == 2

    def test_records_in_hash_order(self, store):
        specs = [RunSpec(task="t", params={"x": i}) for i in range(5)]
        for s in specs:
            store.save(RunRecord.build(s, result=s.params["x"]))
        hashes = [r["spec_hash"] for r in store.records()]
        assert hashes == sorted(s.spec_hash for s in specs)

    def test_rejects_foreign_schema_on_save(self, store, spec):
        record = dict(RunRecord.build(spec, result=1))
        record["schema"] = "not-ours"
        with pytest.raises(ConfigurationError):
            store.save(record)

    def test_rejects_record_without_hash(self, store, spec):
        record = dict(RunRecord.build(spec, result=1))
        del record["spec_hash"]
        with pytest.raises(ConfigurationError):
            store.save(record)

    def test_save_is_byte_deterministic(self, store, spec):
        record = RunRecord.build(spec, result={"b": 2, "a": 1})
        path = store.save(record)
        first = path.read_bytes()
        store.save(RunRecord.build(spec, result={"a": 1, "b": 2}))
        assert path.read_bytes() == first

    def test_no_temp_files_left_behind(self, store, spec):
        store.save(RunRecord.build(spec, result=1))
        leftovers = [p for p in os.listdir(store.root) if p.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_replaces_atomically(self, store, spec):
        store.save(RunRecord.build(spec, status="error", error="first try"))
        store.save(RunRecord.build(spec, result=42))
        loaded = store.load(spec)
        assert loaded.ok and loaded.result == 42
        assert len(store) == 1


class TestMemoryStore:
    def test_same_interface(self, spec):
        store = MemoryStore()
        assert spec not in store
        assert store.load(spec) is None
        store.save(RunRecord.build(spec, result=7))
        assert spec in store and spec.spec_hash in store
        assert store.load(spec).result == 7
        assert store.completed_hashes() == {spec.spec_hash}
        assert [r["spec_hash"] for r in store.records()] == [spec.spec_hash]
        assert len(store) == 1
