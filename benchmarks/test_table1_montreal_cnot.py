"""Table I: additional CNOT gates of NASSC vs Qiskit+SABRE on ``ibmq_montreal``."""

import pytest

from repro.benchlib import get_benchmark
from repro.core import transpile
from repro.evaluation import format_cnot_table, run_table_experiment
from repro.hardware import Target, montreal_coupling_map

from bench_config import SEEDS, save_report, selected_table_cases


@pytest.fixture(scope="module")
def table1():
    result = run_table_experiment("montreal", cases=selected_table_cases(), seeds=SEEDS)
    report = format_cnot_table(result)
    print("\n" + report)
    save_report("table1_montreal_cnot.txt", report)
    from repro.evaluation import cnot_table_to_csv

    save_report("table1_montreal_cnot.csv", cnot_table_to_csv(result))
    return result


def test_table1_report(table1):
    """Regenerate the Table I rows and check the paper's headline shape.

    NASSC should add fewer CNOTs than SABRE in aggregate (the paper reports a 21.30%
    geometric-mean reduction in added CNOTs on this topology).
    """
    assert table1.rows
    assert table1.geomean_delta_cx_added > 0
    wins = sum(1 for row in table1.rows if row.nassc_added_cx <= row.sabre_added_cx)
    assert wins >= len(table1.rows) / 2


def test_table1_transpile_time_ratio(table1):
    """NASSC's transpile time should stay within a small factor of SABRE (paper: ~1.0-1.7x)."""
    assert table1.geomean_time_ratio < 6.0


@pytest.mark.benchmark(group="table1-montreal")
@pytest.mark.parametrize("routing", ["sabre", "nassc"])
def test_routing_speed_grover_n6(benchmark, routing, table1):
    """Wall-clock comparison of the two routing pipelines on one medium benchmark."""
    circuit = get_benchmark("grover_n6")
    target = Target(coupling_map=montreal_coupling_map())
    result = benchmark(lambda: transpile(circuit, target, routing=routing, seed=0))
    assert result.cx_count > 0
