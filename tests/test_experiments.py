"""The experiment registry against the checked-in tables.

Every file under ``benchmarks/results/`` belongs to exactly one registered
experiment, ``repro list`` names them all, and each experiment's runner
regenerates its file byte for byte with its claims holding. Figure 11 and
the faults ablation are the two slow runners; the CI ``results`` job
regenerates and checks them with the rest. The last tests hold the
properties of the ablations' simulations that their tables do not show.
"""

import pathlib

import pytest

from repro.bench.disagg_ablation import run_colocated, run_disaggregated
from repro.bench.experiments import EXPERIMENTS
from repro.bench.faults_ablation import run_faults_simulation
from repro.bench.slo_ablation import FLEETS, POLICY, run_cell
from repro.bench.spec_ablation import run_one
from repro.cli import main
from repro.cluster.control import ControlConfig
from repro.runtime.request import RequestState
from repro.runtime.spec import SpecConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"
SLOW = {"fig11", "faults"}


def test_every_result_file_has_exactly_one_experiment():
    files = sorted(path.name for path in RESULTS_DIR.glob("*.txt"))
    produced = sorted(experiment.file_name for experiment in EXPERIMENTS)
    assert produced == files
    assert len(set(produced)) == len(EXPERIMENTS) == 28
    assert len({experiment.name for experiment in EXPERIMENTS}) == 28


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [experiment.name for experiment in EXPERIMENTS]


@pytest.mark.parametrize(
    "experiment",
    [e for e in EXPERIMENTS if e.name not in SLOW],
    ids=lambda e: e.name,
)
def test_experiment_regenerates_its_table(experiment):
    table = experiment.run()
    assert table.file_name == experiment.file_name
    expected = (RESULTS_DIR / experiment.file_name).read_text(encoding="utf-8")
    assert table.render() + "\n" == expected
    experiment.claims(table)


def test_faults_crash_fires_and_sheds_nothing():
    _, crashed, injector = run_faults_simulation(seed=0)
    assert injector.injected and injector.injected[0].applied
    assert crashed.metrics.fault_count() == 1
    assert crashed.metrics.replacement_count() >= 1
    # Losing 1 of 4 GPUs must not shed anything: every request reaches
    # FINISHED with its full token count.
    assert crashed.failed_requests == 0
    for req in crashed.requests:
        assert req.state is RequestState.FINISHED
        assert req.num_generated == req.spec.response_len


def test_disagg_loses_nothing_and_hands_off_every_request():
    colo_result, _ = run_colocated(seed=0)
    dis_result, _, dis_sim = run_disaggregated(seed=0)
    for result in (colo_result, dis_result):
        for req in result.requests:
            assert req.state is RequestState.FINISHED
            assert req.num_generated == req.spec.response_len
    assert dis_sim.metrics.kv_transfer_count() >= dis_result.finished_requests
    # At this load the decode pool keeps up: no backpressure fallbacks.
    assert dis_sim.metrics.colocated_fallback_count() == 0


def test_spec_armed_run_finishes_every_request():
    result, _ = run_one(0, 8, SpecConfig(draft_len=4, acceptance_rate=0.8))
    for req in result.requests:
        assert req.state is RequestState.FINISHED
        assert req.num_generated == req.spec.response_len


def test_slo_cell_leaves_every_request_terminal():
    control = ControlConfig(default_policy=POLICY)
    result = run_cell(0, FLEETS["hetero H100+A100+4xL4"], "slo", control)
    for req in result.requests:
        assert req.state in (RequestState.FINISHED, RequestState.FAILED)
