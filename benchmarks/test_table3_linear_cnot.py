"""Table III: additional CNOT gates of NASSC vs Qiskit+SABRE on the 25-qubit linear topology."""

import pytest

from repro.benchlib import get_benchmark
from repro.core import transpile
from repro.evaluation import format_cnot_table, run_table_experiment
from repro.hardware import Target, linear_coupling_map

from bench_config import SEEDS, save_report, selected_table_cases


@pytest.fixture(scope="module")
def table3():
    result = run_table_experiment(
        "linear", cases=selected_table_cases(), seeds=SEEDS, num_device_qubits=25
    )
    report = format_cnot_table(result)
    print("\n" + report)
    save_report("table3_linear_cnot.txt", report)
    return result


def test_table3_report(table3):
    """NASSC should reduce added CNOTs on the linear chain (paper: 34.65% geometric mean)."""
    assert table3.rows
    assert table3.geomean_delta_cx_added > 0


def test_table3_linear_needs_more_swaps_than_montreal(table3):
    """The linear chain has the worst connectivity, so routing overhead should be the largest
    of the three topologies for most benchmarks (paper Sec. VI-C)."""
    from repro.evaluation import run_table_experiment as run

    montreal = run("montreal", cases=selected_table_cases()[:3], seeds=(SEEDS[0],))
    by_name = {row.name: row for row in montreal.rows}
    worse = 0
    comparable = 0
    for row in table3.rows:
        if row.name in by_name:
            comparable += 1
            if row.sabre_added_cx >= 0.8 * by_name[row.name].sabre_added_cx:
                worse += 1
    assert comparable == 0 or worse >= comparable / 2


@pytest.mark.benchmark(group="table3-linear")
@pytest.mark.parametrize("routing", ["sabre", "nassc"])
def test_routing_speed_vqe_n8(benchmark, routing, table3):
    circuit = get_benchmark("vqe_n8")
    target = Target(coupling_map=linear_coupling_map(25))
    result = benchmark(lambda: transpile(circuit, target, routing=routing, seed=0))
    assert result.cx_count > 0
