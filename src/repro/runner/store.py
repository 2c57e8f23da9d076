"""Content-addressed on-disk result storage.

One JSON record per run, stored at ``<root>/<spec_hash>.json``.  The record
schema (``repro.runner/1``) follows the :mod:`repro.obs` run-manifest
conventions — a ``schema`` tag, a free-form ``meta`` section, and only
deterministic content — so a stored cell can be byte-compared across serial
and parallel executions of the same seeded sweep::

    {
      "schema": "repro.runner/1",
      "spec": {"task": ..., "params": {...}},
      "spec_hash": "...",
      "status": "ok" | "error",
      "result": {...} | null,        # the task's JSON return value
      "error": null | "message",
      "attempts": n,
      "meta": {...}                  # caller-provided, manifest-style
    }

Records are written atomically (temp file + rename), so an interrupted sweep
never leaves a truncated record behind — a re-invocation either sees a
complete cell and skips it, or no cell and recomputes it.  That is the whole
resume mechanism: resumability falls out of content addressing.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..errors import ConfigurationError
from .spec import RunSpec, canonical_json

__all__ = ["RECORD_SCHEMA", "RunRecord", "ResultStore", "MemoryStore"]

RECORD_SCHEMA = "repro.runner/1"


class RunRecord(dict):
    """A stored run record (a plain dict with typed convenience accessors)."""

    @property
    def ok(self) -> bool:
        return self.get("status") == "ok"

    @property
    def spec(self) -> RunSpec:
        return RunSpec.from_json(self["spec"])

    @property
    def result(self) -> Any:
        return self.get("result")

    @classmethod
    def build(
        cls,
        spec: RunSpec,
        result: Any = None,
        *,
        status: str = "ok",
        error: str | None = None,
        attempts: int = 1,
        meta: Mapping[str, Any] | None = None,
    ) -> "RunRecord":
        return cls(
            schema=RECORD_SCHEMA,
            spec=spec.to_json(),
            spec_hash=spec.spec_hash,
            status=status,
            result=result,
            error=error,
            attempts=attempts,
            meta=dict(meta or {}),
        )


class ResultStore:
    """A directory of content-addressed run records.

    The store is safe for concurrent writers on one machine: each record is
    keyed by its spec hash and written atomically, and two workers computing
    the same cell write identical bytes (everything in a record is
    deterministic for a fixed spec).
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing ----------------------------------------------------

    def path_for(self, spec_or_hash: RunSpec | str) -> Path:
        digest = (
            spec_or_hash.spec_hash
            if isinstance(spec_or_hash, RunSpec)
            else spec_or_hash
        )
        return self.root / f"{digest}.json"

    # -- reads ---------------------------------------------------------

    def __contains__(self, spec_or_hash: RunSpec | str) -> bool:
        return self.path_for(spec_or_hash).exists()

    def load(self, spec_or_hash: RunSpec | str) -> RunRecord | None:
        """The stored record, or ``None`` if absent or unreadable.

        A corrupt record (truncated by an unclean shutdown predating atomic
        writes, say) is treated as missing so the run is simply recomputed —
        and so is a record filed under another cell's digest (a copied or
        renamed file): the name is the address, the content has to agree.
        """

        path = self.path_for(spec_or_hash)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != RECORD_SCHEMA:
            return None
        if doc.get("spec_hash") != path.stem:
            return None
        return RunRecord(doc)

    def completed_hashes(self) -> set[str]:
        """Hashes of every successfully completed run in the store."""

        return {
            record["spec_hash"]
            for record in self.records()
            if record.ok and "spec_hash" in record
        }

    def records(self) -> Iterator[RunRecord]:
        """Every readable record in the store, in deterministic (hash) order."""

        for path in sorted(self.root.glob("*.json")):
            record = self.load(path.stem)
            if record is not None:
                yield record

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    # -- writes --------------------------------------------------------

    def save(self, record: RunRecord | Mapping[str, Any]) -> Path:
        """Atomically persist *record*; returns the record path."""

        doc = dict(record)
        if doc.get("schema") != RECORD_SCHEMA:
            raise ConfigurationError(
                f"record schema must be {RECORD_SCHEMA!r}, got {doc.get('schema')!r}"
            )
        digest = doc.get("spec_hash")
        if not digest:
            raise ConfigurationError("record lacks a spec_hash")
        path = self.path_for(digest)
        payload = canonical_json(doc) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{digest[:12]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


class MemoryStore:
    """An in-process stand-in for :class:`ResultStore` (no persistence).

    Used when a sweep runs without ``--results-dir``: execution and
    aggregation still speak the store interface, there is just nothing to
    resume from afterwards.
    """

    def __init__(self) -> None:
        self._records: dict[str, RunRecord] = {}

    def __contains__(self, spec_or_hash: RunSpec | str) -> bool:
        digest = (
            spec_or_hash.spec_hash
            if isinstance(spec_or_hash, RunSpec)
            else spec_or_hash
        )
        return digest in self._records

    def load(self, spec_or_hash: RunSpec | str) -> RunRecord | None:
        digest = (
            spec_or_hash.spec_hash
            if isinstance(spec_or_hash, RunSpec)
            else spec_or_hash
        )
        return self._records.get(digest)

    def completed_hashes(self) -> set[str]:
        return {h for h, record in self._records.items() if record.ok}

    def records(self) -> Iterator[RunRecord]:
        for digest in sorted(self._records):
            yield self._records[digest]

    def __len__(self) -> int:
        return len(self._records)

    def save(self, record: RunRecord | Mapping[str, Any]) -> None:
        doc = RunRecord(record)
        self._records[doc["spec_hash"]] = doc
