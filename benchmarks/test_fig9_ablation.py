"""Figure 9: CNOT reduction of the best optimization combination vs enabling all three.

The paper evaluates all 8 enable/disable combinations of the two-qubit re-synthesis and the
two commutation optimizations on three coupling maps (Fig. 9a/9b/9c) and concludes that
enabling all three is close to the per-benchmark best, which justifies NASSC's default.
"""

import pytest

from repro.core import NASSCConfig, transpile
from repro.benchlib import get_benchmark
from repro.evaluation import format_ablation, run_optimization_ablation
from repro.hardware import Target, montreal_coupling_map

from bench_config import FULL, SEEDS, save_report, selected_ablation_cases

TOPOLOGIES = ["montreal", "linear", "grid"] if FULL else ["montreal", "linear"]


@pytest.fixture(scope="module", params=TOPOLOGIES)
def ablation(request):
    rows = run_optimization_ablation(
        request.param, cases=selected_ablation_cases(), seeds=(SEEDS[0],), num_device_qubits=25
    )
    report = format_ablation(rows, request.param)
    print("\n" + report)
    save_report(f"fig9_ablation_{request.param}.txt", report)
    return request.param, rows


def test_fig9_all_enabled_close_to_best(ablation):
    """Enabling all three optimizations is close to the best of the 8 combinations."""
    _, rows = ablation
    for row in rows:
        assert row.best_reduction >= row.all_enabled_reduction - 1e-9
        # "Close" in the paper's sense: within 15 percentage points of the per-benchmark best.
        assert row.all_enabled_reduction >= row.best_reduction - 15.0


def test_fig9_some_combination_beats_sabre(ablation):
    _, rows = ablation
    assert any(row.best_reduction > 0 for row in rows)


@pytest.mark.benchmark(group="fig9-ablation")
@pytest.mark.parametrize(
    "combo",
    [(False, False, False), (True, False, False), (False, True, True), (True, True, True)],
    ids=["none", "2q-only", "commute-only", "all"],
)
def test_single_combination_speed(benchmark, combo, ablation):
    config = NASSCConfig(*combo)
    circuit = get_benchmark("grover_n4")
    target = Target(coupling_map=montreal_coupling_map())
    result = benchmark(
        lambda: transpile(circuit, target, routing="nassc", seed=0, nassc_config=config)
    )
    assert result.cx_count > 0
