"""Run every experiment and render one combined report.

``python -m repro.experiments.report`` prints the full paper-vs-measured
report (this is how the EXPERIMENTS.md numbers were produced); pass
``--quick`` for a smaller, faster configuration.  ``--trace out.jsonl``
additionally instruments the Fig. 3a latency runs with :mod:`repro.obs`:
the JSONL trace lands at the given path and the metrics + profile manifest
at ``out.manifest.json`` (see ``docs/observability.md`` for the schemas).
"""

from __future__ import annotations

import argparse
import os

from ..obs import Observability
from . import (
    fig2_overlays,
    fig3a_latency,
    fig3b_bandwidth,
    fig4_roles,
    fig5a_frontrunning,
    fig5b_robustness,
    table1,
)
from .harness import build_environment

__all__ = ["generate_report", "manifest_path_for"]


def manifest_path_for(trace_path: str) -> str:
    """``out.jsonl`` → ``out.manifest.json`` (suffix-agnostic)."""

    stem = trace_path[: -len(".jsonl")] if trace_path.endswith(".jsonl") else trace_path
    return stem + ".manifest.json"


def generate_report(
    quick: bool = False,
    seed: int = 0,
    obs: Observability | None = None,
    jobs: int = 1,
    results_dir: str | None = None,
    resume: bool = True,
) -> str:
    """Run all experiments and return the combined text report.

    The four sweep-shaped figures (3a, 3b, 5a, 5b) run their
    ``python -m repro sweep --figure`` grids (the ``--quick`` ones with
    *quick*) through ``FIGURE.run`` — across *jobs* worker processes and,
    with *results_dir*, resumable: a re-invocation loads completed cells from
    the store instead of re-running them.  *obs*, when given, instead
    instruments the Fig. 3a cells in this process (the headline
    measurement); the caller is responsible for exporting the artifacts.
    Every cell starts from fresh id counters either way, so the tables read
    the same numbers however they were computed.
    """

    if quick:
        n_main, n_attack = 80, 60
    else:
        n_main, n_attack = 200, 150

    def figure(module) -> str:
        config = module.FIGURE.make_config(quick=quick, seed=seed)
        if obs is not None and module is fig3a_latency:
            return module.format_result(module.run(config, obs=obs))
        store = None if results_dir is None else os.path.join(results_dir, module.FIGURE.name)
        result, _ = module.FIGURE.run(config, jobs=jobs, results_dir=store, resume=resume)
        return module.format_result(result)

    env_main = build_environment(num_nodes=n_main, f=1, k=10, seed=seed)

    sections = []
    sections.append(
        table1.format_result(
            table1.run(table1.Table1Config(num_nodes=min(n_attack, 60), seed=seed))
        )
    )
    sections.append(
        fig2_overlays.format_result(
            fig2_overlays.run(fig2_overlays.Fig2Config(num_nodes=n_main, seed=seed))
        )
    )
    sections.append(figure(fig3a_latency))
    sections.append(figure(fig3b_bandwidth))
    sections.append(
        fig4_roles.format_result(
            fig4_roles.run(
                fig4_roles.Fig4Config(num_nodes=n_main, seed=seed), env=env_main
            )
        )
    )
    sections.append(figure(fig5a_frontrunning))
    sections.append(figure(fig5b_robustness))
    header = (
        "HERMES reproduction — full experiment report\n"
        f"(environments: N={n_main} main, N={n_attack} attack sweeps; "
        f"overlay build {env_main.build_seconds:.1f}s)\n"
    )
    return header + "\n\n".join(sections) + "\n"


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI entry
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller, faster run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace",
        metavar="OUT.JSONL",
        help="instrument the Fig. 3a runs; write a JSONL trace here and the "
        "metrics/profile manifest next to it (.manifest.json)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run the sweep-shaped figures (3a/3b/5a/5b) across this many "
        "worker processes via repro.runner",
    )
    parser.add_argument(
        "--results-dir",
        metavar="DIR",
        help="content-addressed result store for the sweep-shaped figures; "
        "enables --resume across invocations",
    )
    parser.add_argument(
        "--no-resume",
        dest="resume",
        action="store_false",
        help="re-execute sweep cells even when the store already has them",
    )
    args = parser.parse_args(argv)
    obs = Observability.enabled(profile=True) if args.trace else None
    print(
        generate_report(
            quick=args.quick,
            seed=args.seed,
            obs=obs,
            jobs=args.jobs,
            results_dir=args.results_dir,
            resume=args.resume,
        )
    )
    if obs is not None:
        records = obs.write_trace(args.trace)
        manifest_path = manifest_path_for(args.trace)
        obs.write_manifest(
            manifest_path,
            meta={"experiment": "fig3a", "quick": args.quick, "seed": args.seed},
        )
        print(f"trace: {records} records -> {args.trace}")
        print(f"manifest: -> {manifest_path}")


if __name__ == "__main__":  # pragma: no cover
    main()
