"""Declarative run and sweep specifications.

A :class:`RunSpec` names one deterministic simulation cell: a registered task
(see :mod:`repro.runner.tasks`) plus its JSON-serializable parameters.  Its
:attr:`~RunSpec.spec_hash` is a content hash of exactly ``(task, params)`` in
canonical JSON form, so the same cell always maps to the same key no matter
which sweep, process or machine produced it — the property the
content-addressed :class:`~repro.runner.store.ResultStore` builds on.

A :class:`SweepSpec` is the cartesian product of a parameter grid over a base
configuration; :meth:`SweepSpec.expand` yields the individual
:class:`RunSpec` cells in a deterministic order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from ..utils.digest import sha256

__all__ = ["RunSpec", "SweepSpec", "canonical_json", "spec_hash"]


def canonical_json(value: Any) -> str:
    """Serialize *value* to a canonical JSON string.

    Keys are sorted and separators are fixed, so two equal values always
    produce the same bytes — the invariant both hashing and the store's
    byte-identical-records guarantee rely on.  Non-JSON types are rejected
    rather than coerced: a spec that cannot round-trip through JSON cannot be
    content-addressed.
    """

    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"spec is not canonical-JSON-serializable: {exc}")


def spec_hash(task: str, params: Mapping[str, Any]) -> str:
    """The content hash (hex SHA-256) of one ``(task, params)`` cell."""

    payload = canonical_json({"task": task, "params": dict(params)})
    return sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One deterministic run: a task name plus its parameters.

    Parameters must be JSON-serializable scalars/containers; the seed (and any
    other source of randomness) must be part of ``params`` so the hash fully
    determines the result.
    """

    task: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.task:
            raise ConfigurationError("RunSpec.task must be a non-empty name")
        # Freeze to a plain dict copy and validate serializability eagerly so
        # a bad spec fails at construction, not inside a worker process.
        object.__setattr__(self, "params", dict(self.params))
        canonical_json(self.params)

    @property
    def spec_hash(self) -> str:
        return spec_hash(self.task, self.params)

    def to_json(self) -> dict[str, Any]:
        return {"task": self.task, "params": dict(self.params)}

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "RunSpec":
        return cls(task=doc["task"], params=dict(doc.get("params", {})))

    def __hash__(self) -> int:  # params is a dict, so derive from content
        return hash(self.spec_hash)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.task == other.task and dict(self.params) == dict(other.params)


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian parameter grid over a base configuration.

    ``base`` holds the fixed parameters; ``grid`` maps parameter names to the
    sequence of values to sweep.  Grid keys override base keys.  Expansion
    order is deterministic: grid axes vary in insertion order, with the last
    axis fastest (like nested for-loops).
    """

    task: str
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "grid", {key: tuple(values) for key, values in self.grid.items()}
        )
        for key, values in self.grid.items():
            if not values:
                raise ConfigurationError(f"grid axis {key!r} has no values")

    def __len__(self) -> int:
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size

    def expand(self) -> list[RunSpec]:
        """All cells of the grid as individual :class:`RunSpec` runs."""

        return list(self)

    def __iter__(self) -> Iterator[RunSpec]:
        axes = list(self.grid.items())
        names = [name for name, _ in axes]
        for combo in itertools.product(*(values for _, values in axes)):
            params = dict(self.base)
            params.update(zip(names, combo))
            yield RunSpec(task=self.task, params=params)
