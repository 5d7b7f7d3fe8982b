"""Table IV: additional CNOT gates of NASSC vs Qiskit+SABRE on the 5x5 grid topology."""

import pytest

from repro.benchlib import get_benchmark
from repro.core import transpile
from repro.evaluation import format_cnot_table, run_table_experiment
from repro.hardware import Target, grid_coupling_map

from bench_config import SEEDS, save_report, selected_table_cases


@pytest.fixture(scope="module")
def table4():
    result = run_table_experiment("grid", cases=selected_table_cases(), seeds=SEEDS)
    report = format_cnot_table(result)
    print("\n" + report)
    save_report("table4_grid_cnot.txt", report)
    return result


def test_table4_report(table4):
    """NASSC should reduce added CNOTs on the 5x5 grid (paper: 28.10% geometric mean)."""
    assert table4.rows
    assert table4.geomean_delta_cx_added > 0
    wins = sum(1 for row in table4.rows if row.nassc_added_cx <= row.sabre_added_cx)
    assert wins >= len(table4.rows) / 2


@pytest.mark.benchmark(group="table4-grid")
@pytest.mark.parametrize("routing", ["sabre", "nassc"])
def test_routing_speed_adder_n10(benchmark, routing, table4):
    circuit = get_benchmark("adder_n10")
    target = Target(coupling_map=grid_coupling_map(5, 5))
    result = benchmark(lambda: transpile(circuit, target, routing=routing, seed=0))
    assert result.cx_count > 0
