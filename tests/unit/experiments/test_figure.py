"""The figure registry: pinned grids and an unchanged ``--list-figures``."""

import hashlib

import pytest

from repro.runner.cli import main
from repro.runner.spec import canonical_json
from repro.runner.tasks import FIGURES, get_figure

#: sha256 of the canonical JSON of each figure's grid, (full, --quick) at
#: seed 0 — the grids the per-module ``sweep --figure`` configs produced
#: before the registry existed.  Every stored results directory and every
#: ``--task`` grid addresses cells by these parameters, so they must not move.
GRID_DIGESTS = {
    "fig3a": ("09897fefb0bcefaf29aed17db2b453d118e74feb4e02fc50bc48e4a615774cb7",
              "316b0a97f6b7f04c460be8d520127ddd8eb41b9b61b82029dd8e3b0e81cb9cf2"),
    "fig3b": ("90486496811a9a5c0a5b83574d898ea688034abc4892a2beeb8bc538984a4942",
              "6b76b879c2837485e73883f942b69986d0ac594b2f40a749db17a9ec9bafb9b4"),
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
}

LIST_FIGURES = """\
fig3a  dissemination latency CDF across protocols (paper Fig. 3a)
fig3b  bandwidth overhead per protocol (paper Fig. 3b)
fig5a  front-running resistance vs adversary fraction (paper Fig. 5a)
fig5b  delivery robustness under censorship (paper Fig. 5b)
fig6   offered-load saturation sweep under finite link capacity (extension)
fig7   strategy-zoo adversary grid: economics and fairness (extension)
fig8   sustained million-client population load with a fee market (extension)
fig9   sharding scaling grid: aggregate goodput and cross-shard fairness (extension)
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
