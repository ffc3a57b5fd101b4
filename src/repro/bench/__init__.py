"""Figure/table runners: one module per figure of the paper, one per
group of ablations.

Each ``run_*`` function computes a table's series and returns a
:class:`~repro.bench.reporting.FigureTable` whose ``render()`` prints the
same rows the paper plots. :data:`~repro.bench.experiments.EXPERIMENTS`
registers every checked-in table with its runner, claims and CLI flags;
the CLI and ``benchmarks/bench_experiments.py`` both read it.
"""

from repro.bench.adapter_cache import run_adapter_cache_ablation
from repro.bench.disagg_ablation import run_disagg_ablation
from repro.bench.experiments import EXPERIMENTS, Experiment
from repro.bench.faults_ablation import run_faults_ablation
from repro.bench.fig01_batching import run_fig01
from repro.bench.fig07_roofline import run_fig07
from repro.bench.fig08_lora_ops import run_fig08
from repro.bench.fig09_rank import run_fig09
from repro.bench.fig10_layer import run_fig10
from repro.bench.fig11_textgen import run_fig11
from repro.bench.fig12_tp70b import run_fig12
from repro.bench.fig13_cluster import run_fig13
from repro.bench.loader_bench import run_loader_bench
from repro.bench.reporting import FigureTable
from repro.bench.slo_ablation import run_slo_ablation
from repro.bench.spec_ablation import run_spec_ablation

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "FigureTable",
    "run_adapter_cache_ablation",
    "run_disagg_ablation",
    "run_faults_ablation",
    "run_fig01",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_loader_bench",
    "run_slo_ablation",
    "run_spec_ablation",
]
