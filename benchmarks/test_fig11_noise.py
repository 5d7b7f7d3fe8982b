"""Figure 11: added CNOTs and success rate of SABRE / NASSC / SABRE+HA / NASSC+HA under the
``ibmq_montreal`` noise model (synthetic calibration, see DESIGN.md)."""

import numpy as np
import pytest

from repro.benchlib import get_benchmark
from repro.evaluation import NOISE_METHODS, format_noise_experiment, run_noise_experiment
from repro.hardware import Target, fake_montreal_calibration, montreal_coupling_map
from repro.simulator import NoiseModel, NoisySimulator
from repro.core import transpile

from bench_config import NOISE_REALIZATIONS, NOISE_SHOTS, save_report


@pytest.fixture(scope="module")
def fig11_rows():
    rows = run_noise_experiment(shots=NOISE_SHOTS, realizations=NOISE_REALIZATIONS, seed=0)
    report = format_noise_experiment(rows)
    print("\n" + report)
    save_report("fig11_noise.txt", report)
    return rows


def test_fig11a_added_cnots(fig11_rows):
    """Figure 11a: NASSC adds the fewest (or tied-fewest) CNOTs in aggregate."""
    totals = {method: sum(row.added_cx[method] for row in fig11_rows) for method in NOISE_METHODS}
    assert totals["nassc"] <= totals["sabre"]
    assert totals["nassc"] <= min(totals.values()) + 10


def test_fig11b_success_rates(fig11_rows):
    """Figure 11b: success rates are meaningful (non-degenerate) and NASSC is competitive."""
    mean_rates = {
        method: float(np.mean([row.success_rate[method] for row in fig11_rows]))
        for method in NOISE_METHODS
    }
    assert all(0.0 < rate <= 1.0 for rate in mean_rates.values())
    # NASSC's mean success rate should be within a few points of the best method.
    assert mean_rates["nassc"] >= max(mean_rates.values()) - 0.15


@pytest.mark.benchmark(group="fig11-noise")
def test_noisy_simulation_speed(benchmark, fig11_rows):
    """Wall-clock of one noisy Monte-Carlo simulation (the dominant Fig. 11 cost)."""
    calibration = fake_montreal_calibration()
    circuit = get_benchmark("grover_n4")
    target = Target(coupling_map=montreal_coupling_map())
    routed = transpile(circuit, target, routing="nassc", seed=0).circuit
    simulator = NoisySimulator(
        NoiseModel.from_calibration(calibration), realizations=32, seed=0
    )
    rate = benchmark(lambda: simulator.success_rate(routed, shots=512))
    assert 0.0 <= rate <= 1.0
