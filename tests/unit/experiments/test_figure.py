"""The figure registry: pinned grids, an unchanged ``--list-figures``, the
``--set`` overrides of figure mode, the retired commands' translations, the
report (``all``) and ``--trace``."""

import hashlib
import json

import pytest

import repro.runner
from repro.__main__ import main as repro_main
from repro.chaos import ChaosReport
from repro.runner.cli import main
from repro.runner.spec import RunSpec, canonical_json
from repro.experiments.harness import PROTOCOL_NAMES
from repro.runner.tasks import FIGURES, get_figure

#: sha256 of the canonical JSON of each figure's grid, (full, --quick) at
#: seed 0 — the grids the per-module ``sweep --figure`` configs produced
#: before the registry existed (Table I, Figs. 2 and 4: the grids they joined
#: it with).  Every stored results directory and every ``--task`` grid
#: addresses cells by these parameters, so they must not move.
GRID_DIGESTS = {
    "table1": ("f81179a4ea1552c403e6094d05ecac0fed1e5e4beb1aa209e488ba4adb0960a2",
               "f81179a4ea1552c403e6094d05ecac0fed1e5e4beb1aa209e488ba4adb0960a2"),
    "fig2": ("6f9b6065a94a40aa9fb2e020dd98108677138a88931245eb924707e9c630bc0d",
             "154fe015ae6e8fb568a87ff6a3cb528edd87608599cd6fbda0150a9fb1e6b569"),
    "fig3a": ("09897fefb0bcefaf29aed17db2b453d118e74feb4e02fc50bc48e4a615774cb7",
              "316b0a97f6b7f04c460be8d520127ddd8eb41b9b61b82029dd8e3b0e81cb9cf2"),
    "fig3b": ("90486496811a9a5c0a5b83574d898ea688034abc4892a2beeb8bc538984a4942",
              "6b76b879c2837485e73883f942b69986d0ac594b2f40a749db17a9ec9bafb9b4"),
    "fig4": ("ba1c405380068a331d9787cf19da8d6a60fff0e51cdd2410246d217cc45ef40b",
             "239ae66d0a42152e52e1df96753c26df8c4ff1dbc857a4fba0dbffe4060b0286"),
    "fig5a": ("75a25fb8150804f5f8864ba53bd2857e2ec90293fbed2b980bb43adf929028c8",
              "3c3015e59f2c8391ed67c50bfd3c9de7cdae97d4f3fdd79c0ba80c0143bb45ac"),
    "fig5b": ("0976da3d20b0a964d27fa02a8eb4155ed3ab1eff9784cad81569e76666082726",
              "daa62422e236d8b820eda6da7bba09c1df39aaa8af26edbdddd65f4446b1bf38"),
    "fig6": ("f48e6d15afdcf49b385cad4c5997400dfbba3b37fc148d300ffa180efa936f1a",
             "0aaf11a6184a2172d47aa212f41a88d634a7f43657fb44a538294573c4d21955"),
    "fig7": ("1e993a8e891a1454fbdd0e8a72b1951deb402b0cd576f1843ac6769b2204ea7f",
             "6f3d5526b8215678397b19c698757ad1c38f24fd9d6f080543d1e0456974170a"),
    "fig8": ("7182244d59e48820a3d06fd152adb2406fcc239474743dd765f350d384f548a0",
             "492e03275d9fcfb8624235c93fd9ce64ef6dafb3bf1ccaec0c3b4a2215da6856"),
    "fig9": ("087b67ba546b4c064dc46f74e938c48630a4b0b05b8e92d4a6ce13eb9ed2fc2f",
             "ede475b87c5839e747abe371853453f549550a9197bd4267c08381560471abb7"),
    "chaos": ("ca85870908e0eea3f1d637eeb1224791bf6b450ca112e73095bc081de2d9761e",
              "506ebb0b378ab5d7391fb7009aaf250100317eb19619aecfff9fd70519059541"),
    "drill": ("fbaf08c5544188a5c10b9db26f6e02ce9cbe4de0edc1779c6b76a80512056b98",
              "0a8567f3ced2a728d1af0cd7ff321782c7a04e47751204381354b8cbe5900426"),
    # Four fixed cells and no option: --quick is the same grid.
    "ablations": ("e9888a59f45a68e157f066f614c568dcc4035d7875801ea95904910ade105454",
                  "e9888a59f45a68e157f066f614c568dcc4035d7875801ea95904910ade105454"),
}

LIST_FIGURES = """\
table1     measured comparison of dissemination approaches (paper Table I)
fig2       overlay-structure latency and load spread (paper Fig. 2)
fig3a      dissemination latency CDF across protocols (paper Fig. 3a)
fig3b      bandwidth overhead per protocol (paper Fig. 3b)
fig4       role (rank) distribution across the overlays (paper Fig. 4)
fig5a      front-running resistance vs adversary fraction (paper Fig. 5a)
fig5b      delivery robustness under censorship (paper Fig. 5b)
ablations  design-choice ablations: k, annealing, rank penalty, erasure batching (paper §IV, §V-B, §VIII-D)
fig6       offered-load saturation sweep under finite link capacity (extension)
fig7       strategy-zoo adversary grid: economics and fairness (extension)
fig8       sustained million-client population load with a fee market (extension)
fig9       sharding scaling grid: aggregate goodput and cross-shard fairness (extension)
chaos      fault-injection campaigns with online invariant checks (extension)
drill      cross-shard partition drill: one committee islanded, the rest stay live (extension)
all        the paper's evaluation in order: Table I, Figs. 2, 3a, 3b, 4, 5a, 5b
"""


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_grids_are_pinned(name):
    figure = get_figure(name)
    assert figure.name == name and figure.task == FIGURES[name].task
    for quick, expected in zip((False, True), GRID_DIGESTS[name]):
        cells = figure.cells(figure.make_config(quick=quick))
        assert hashlib.sha256(canonical_json(cells).encode()).hexdigest() == expected


def test_list_figures_is_unchanged(capsys):
    assert main(["--list-figures"]) == 0
    assert capsys.readouterr().out == LIST_FIGURES


#: ``sweep --figure`` translations of the retired ``load`` and ``population``
#: commands → (cells, sha256 of the grid those commands submitted).  Integers
#: stand where the old flags parsed floats: a float field must take them.
TRANSLATIONS = {
    "load": (
        ["--figure", "fig6"],
        24, "f48e6d15afdcf49b385cad4c5997400dfbba3b37fc148d300ffa180efa936f1a"),
    "load --rate 5 --rate 20 --rate 80 --pattern mmpp --protocol hermes --protocol lzero": (
        ["--figure", "fig6", "--set", "rates_tps=5,20,80", "--set", "pattern=mmpp",
         "--set", "protocols=hermes,lzero"],
        6, "e9dcc8f1a84cf24b6fd77a2643dcff73c9b6e6c1dc0fc7e76af3a1b0ba343b8f"),
    "load --no-capacity": (
        ["--figure", "fig6", "--set", "uplink_kb_per_s=1e9", "--set", "downlink_kb_per_s=4e9",
         "--set", "queue_bytes=1099511627776"],
        24, "df6f49f384975dc24b0d8565f1012f2be50dab0c58c3aedfe1368e5096b3e67a"),
    "population": (
        ["--figure", "fig8"],
        25, "7182244d59e48820a3d06fd152adb2406fcc239474743dd765f350d384f548a0"),
    "population --rate 5 --rate 20 --protocol hermes --protocol ingest": (
        ["--figure", "fig8", "--set", "rates_tps=5,20", "--set", "protocols=hermes,ingest"],
        4, "3cb0c0f58fed80d55d71f9edda9672418d4a5f475a5e446c3f887e1ea2c28b37"),
    "population --clients 1000000 --duration 120000 --mempool-cap 2000 --ttl 60000": (
        ["--figure", "fig8", "--set", "num_clients=1000000", "--set", "duration_ms=120000",
         "--set", "mempool_max_size=2000", "--set", "mempool_ttl_ms=60000"],
        25, "43fbff1c256630593f38ba0bcaa49ed78694b0eb76db74ae3d6d13f119faf087"),
}


def submitted_cells(argv, monkeypatch, command=main):
    """The cells ``sweep`` hands to ``run_sweep`` for *argv* (none run)."""

    class Stop(Exception):
        pass

    seen = []

    def fake_run_sweep(specs, **options):
        seen.extend(spec.params for spec in specs)
        raise Stop  # before any cell runs

    monkeypatch.setattr(repro.runner, "run_sweep", fake_run_sweep)
    with pytest.raises(Stop):
        command(argv)
    return seen


@pytest.mark.parametrize("old", sorted(TRANSLATIONS))
def test_set_translations_reproduce_the_retired_commands_grids(old, monkeypatch):
    argv, count, digest = TRANSLATIONS[old]
    cells = submitted_cells(argv, monkeypatch)
    assert len(cells) == count
    assert hashlib.sha256(canonical_json(cells).encode()).hexdigest() == digest


def sha256_of(value):
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


#: ``sweep --figure`` translations of the retired ``chaos`` and ``shard``
#: commands → (argv, how a cell's result is hashed, the hash of each
#: protocol's output of the old command).  The hashes were taken by running the old
#: command, ``--json``, before it was deleted: ``ChaosReport.content_hash()``
#: per protocol for ``chaos``, the sha256 of the canonical JSON of
#: ``result`` for ``shard run`` and of the whole report for ``shard drill``.
RESULT_TRANSLATIONS = {
    "chaos --num-nodes 24 --k 3 --json": (
        ["--figure", "chaos", "--set", "num_nodes=24", "--set", "k=3"],
        lambda doc: ChaosReport.from_json(doc).content_hash(),
        ["c7f83b57b4fbc6eddf9f5931f64036f025922d5e1bf0ec836bffa0c4e7dcdf36",
         "0be458693bdd3a369a01cd38ff6789b782fc731416f922f456b3de2477310ab4"]),
    "shard run --shards 4 --nodes 64 --rate 80 --k 4 --duration 4000 --drain 1500 --json": (
        ["--figure", "fig9", "--set", "strategies=none", "--set", "shard_counts=4",
         "--set", "total_nodes=64", "--set", "k=4", "--set", "duration_ms=4000",
         "--set", "drain_ms=1500"],
        lambda doc: sha256_of(doc["result"]),
        ["8079df840be8e062ad6b703f68274ff5e7670f5db5317ae2e8487332fc661ff9"]),
    "shard drill --shards 2 --shard-size 12 --k 3 --json": (
        ["--figure", "drill", "--set", "num_shards=2", "--set", "shard_size=12",
         "--set", "k=3"],
        sha256_of,
        ["154960af1cc55a6badc0fc06b5d4eefbd83f93204be9758ce50d7b303f1b5885"]),
}


@pytest.mark.parametrize("old", sorted(RESULT_TRANSLATIONS))
def test_set_translations_reproduce_the_retired_commands_results(old, monkeypatch):
    argv, digest, expected = RESULT_TRANSLATIONS[old]
    cells = submitted_cells(argv, monkeypatch)
    monkeypatch.undo()
    task = FIGURES[argv[1]].task
    report = repro.runner.run_sweep([RunSpec(task=task, params=params) for params in cells])
    assert [digest(doc) for doc in report.results()] == expected


def test_chaos_cells_keep_the_hashes_of_ad_hoc_chaos_run_cells(monkeypatch):
    # The records `sweep --task chaos.run` stored under these hashes before
    # the figure existed resume under `sweep --figure chaos --quick`.
    argv = ["--task", "chaos.run", "--set", "scenario=escalation",
            "--set", "protocol=hermes,lzero", "--set", "num_nodes=24", "--set", "f=1",
            "--set", "k=3", "--set", "seed=0"]
    ad_hoc = [RunSpec(task="chaos.run", params=p) for p in submitted_cells(argv, monkeypatch)]
    assert [spec.spec_hash for spec in ad_hoc] == [
        "20c1cf70f74cfffddf522768571f5a7ced031838f14e0e21160a454807227b16",
        "4f82a1075627bfb8957b9e760f1d5e079b0d014c142ef28054dbd696d6f714ad",
    ]
    chaos = get_figure("chaos")
    assert [spec.params for spec in ad_hoc] == chaos.cells(chaos.make_config(quick=True))


@pytest.mark.parametrize("argv, message", [
    (["--figure", "chaos", "--set", "scenario=bogus"], "bundled: ['censor-blackout'"),
    (["--figure", "chaos", "--set", "scenario=no/such/campaign.json"],
     "cannot read scenario 'no/such/campaign.json'"),
    (["--figure", "fig9", "--set", "shard_counts=2", "--set", "total_nodes=15"],
     "total_nodes (15) must divide evenly into 2 shards"),
])
def test_bad_input_exits_2_before_any_cell_runs(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(repro.runner, "run_sweep", pytest.fail)
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2 and message in capsys.readouterr().err


def test_set_applies_after_quick(monkeypatch):
    cells = submitted_cells(
        ["--figure", "fig6", "--quick", "--set", "protocols=hermes", "--set", "rates_tps=3",
         "--set", "seed=7"],
        monkeypatch,
    )
    quick = get_figure("fig6").make_config(quick=True)
    assert [(c["protocol"], c["rate_tps"], c["seed"]) for c in cells] == [("hermes", 3.0, 7)]
    assert cells[0]["num_nodes"] == quick.num_nodes


@pytest.mark.parametrize(
    "axis, message",
    [("bogus=1", "'bogus'"), ("num_nodes=4,8", "'num_nodes'")],
)
def test_a_bad_figure_override_exits_2_naming_the_field(axis, message, monkeypatch, capsys):
    monkeypatch.setattr(repro.runner, "run_sweep", pytest.fail)
    with pytest.raises(SystemExit) as exit:
        main(["--figure", "fig6", "--quick", "--set", axis])
    assert exit.value.code == 2
    assert message in capsys.readouterr().err


def test_make_config_converts_ints_only_where_the_default_is_a_float():
    figure = get_figure("fig8")
    config = figure.make_config(duration_ms=120000, rates_tps=[5, 20], num_clients=10, seed=3)
    assert type(config.duration_ms) is float and config.rates_tps == (5.0, 20.0)
    assert all(type(rate) is float for rate in config.rates_tps)
    assert type(config.num_clients) is int and config.seed == 3
    assert figure.make_config(zipf_s=True).zipf_s is True


def test_bare_repro_is_sweep_figure_all_starting_with_table1(monkeypatch):
    cells = submitted_cells(["--quick", "--set", "seed=1"], monkeypatch, command=repro_main)
    table1 = get_figure("table1")
    assert cells == table1.cells(table1.make_config(quick=True, seed=1))


@pytest.mark.parametrize("argv, message", [
    (["--figure", "all", "--set", "protocols=hermes"], "table1 has no config field"),
    (["--figure", "all", "--timeline", "t.jsonl"], "--timeline records one sweep"),
    (["--figure", "fig2", "--trace", "t.jsonl"], "--trace instruments Fig. 3a"),
])
def test_all_and_trace_refuse_what_they_cannot_do(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(repro.runner, "run_sweep", pytest.fail)
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2 and message in capsys.readouterr().err


def test_trace_histograms_equal_the_fig3a_table(tmp_path, capsys):
    argv = ["--figure", "fig3a", "--set", "num_nodes=16", "--set", "k=3"]
    assert main([*argv, "--trace", str(tmp_path / "t.jsonl")]) == 0
    traced = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    assert traced[:-2] == capsys.readouterr().out.splitlines()[1:]  # no summary line
    rows = {cells[0]: cells[1:4] for line in traced
            if (cells := [cell.strip() for cell in line.split("|")])[0] in PROTOCOL_NAMES}
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    histograms = [h for h in manifest["metrics"]["histograms"]
                  if h["name"] == "delivery.latency_ms"]
    assert len(histograms) == len(rows) == 4
    for h in histograms:
        row = [f"{h[key]:.2f}" for key in ("mean", "p5", "p95")]
        assert rows[h["labels"]["protocol"]] == row
