"""One declarative shape for every paper table and figure.

A figure is a grid of independent, fully seeded cells (Table I and Fig. 4
are one cell each).  Each figure module declares one :class:`Figure`: its
config class (whose defaults are the full-size figure, and whose fields
``sweep --figure NAME --set field=value`` sets through
:meth:`Figure.make_config`) plus the ``--quick`` overrides, the grid
(``cells``), the cell function (``run_cell``, the runner task ``task``), the
fold of the cells' results into the figure's result shape (``fold``) and the
table renderer (``format``).  :meth:`Figure.run` submits the grid to
:func:`repro.runner.run_sweep`, which gives every cell pristine id counters,
so a figure reads the same numbers at any ``jobs``, in any cell order, and
whatever the process ran before it.

The registry is :data:`repro.runner.tasks.FIGURES` (figure name → module,
task and ``--list-figures`` description); a new figure is one module plus
one entry there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError, SweepExecutionError

__all__ = ["Figure"]


def _like(default: Any, value: Any) -> Any:
    """*value*, made a float where *default* is one and *value* an int.

    JSON and the shell spell ``120000.0`` as ``120000``; without this the two
    would hash to different cells.  A bool is never converted.
    """

    if isinstance(default, float) and type(value) is int:
        return float(value)
    return value


@dataclass(frozen=True)
class Figure:
    name: str
    #: The runner task that executes one cell (``run_cell``).
    task: str
    config: type
    cells: Callable[[Any], list[dict[str, Any]]]
    run_cell: Callable[[Mapping[str, Any]], Any]
    fold: Callable[[Any, list[Any]], Any]
    format: Callable[[Any], str]
    #: Config overrides of the smaller ``--quick`` figure.
    quick: Mapping[str, Any] = field(default_factory=dict)

    def make_config(self, *, quick: bool = False, **overrides: Any):
        """The full-size (or ``--quick``) config with *overrides* applied last.

        Each override names a config field.  A tuple field takes a list (or
        tuple) of values; any other field takes exactly one value, bare or as a
        one-element list.  An int given for a float, or per element for a
        tuple of floats, becomes a float.  Raises
        :class:`~repro.errors.ConfigurationError` on an unknown field or on
        several values for a scalar one.
        """

        defaults = self.config()
        names = [spec.name for spec in fields(self.config)]
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ConfigurationError(
                f"{self.name} has no config field {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(names)}"
            )
        values = dict(self.quick) if quick else {}
        for name, value in overrides.items():
            default = getattr(defaults, name)
            items = list(value) if isinstance(value, (list, tuple)) else [value]
            if isinstance(default, tuple):
                element = default[0] if default else None
                values[name] = tuple(_like(element, item) for item in items)
            elif len(items) == 1:
                values[name] = _like(default, items[0])
            else:
                raise ConfigurationError(
                    f"{self.name} field {name!r} takes one value, got {len(items)}"
                )
        return self.config(**values)

    def run(
        self,
        config=None,
        *,
        jobs: int = 1,
        results_dir: str | None = None,
        resume: bool = True,
        timeout_s: float | None = None,
        retries: int = 2,
        telemetry=None,
    ):
        """Run the grid of *config* through the sweep runner.

        Returns ``(result, sweep_report)``; with *results_dir* set, completed
        cells are loaded instead of re-run (resume).  Raises
        :class:`~repro.errors.SweepExecutionError` if any cell failed: a
        figure folded from an incomplete grid would misreport the comparison.
        """

        from ..runner import ResultStore, RunSpec, run_sweep

        if config is None:
            config = self.config()
        report = run_sweep(
            [RunSpec(task=self.task, params=params) for params in self.cells(config)],
            store=ResultStore(results_dir) if results_dir is not None else None,
            jobs=jobs,
            resume=resume,
            timeout_s=timeout_s,
            retries=retries,
            telemetry=telemetry,
        )
        if report.failed:
            first = next(record for record in report.records if not record.ok)
            raise SweepExecutionError(
                f"{report.failed}/{report.total} cells of task {self.task!r} "
                f"failed; first error: {first.get('error')}"
            )
        return self.fold(config, report.results()), report
