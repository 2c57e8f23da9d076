"""One declarative shape for every sweep-shaped figure.

A figure is a repetition grid of independent, fully seeded cells.  Each
figure module declares one :class:`Figure`: its config class (whose defaults
are the full-size figure) plus the ``--quick`` overrides, the grid
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

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import SweepExecutionError

__all__ = ["Figure"]


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

    def make_config(self, *, quick: bool = False, seed: int = 0):
        """The full-size (or ``--quick``) config at *seed*."""

        return self.config(**(self.quick if quick else {}), seed=seed)

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
