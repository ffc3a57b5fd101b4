"""Every checked-in table: time its runner once, save it, check its claims.

One test per entry of ``repro.bench.experiments.EXPERIMENTS``. Each run
rewrites ``benchmarks/results/<file>`` with the rendered table, so
``git diff benchmarks/results`` after a run shows any drift::

    pytest benchmarks/bench_experiments.py --benchmark-disable
    REPRO_PAPER_SCALE=1 pytest benchmarks/bench_experiments.py --benchmark-only
"""

import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.name)
def test_experiment(benchmark, experiment, capsys):
    table = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    text = table.render()
    (RESULTS_DIR / table.file_name).write_text(text + "\n")
    with capsys.disabled():
        print("\n" + text)
    experiment.claims(table)
