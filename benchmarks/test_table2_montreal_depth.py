"""Table II: circuit depth of NASSC vs Qiskit+SABRE on ``ibmq_montreal``."""

import pytest

from repro.benchlib import get_benchmark
from repro.core import transpile
from repro.evaluation import format_depth_table, run_table_experiment
from repro.hardware import Target, montreal_coupling_map

from bench_config import SEEDS, save_report, selected_table_cases


@pytest.fixture(scope="module")
def table2():
    result = run_table_experiment("montreal", cases=selected_table_cases(), seeds=SEEDS)
    report = format_depth_table(result)
    print("\n" + report)
    save_report("table2_montreal_depth.txt", report)
    from repro.evaluation import depth_table_to_csv

    save_report("table2_montreal_depth.csv", depth_table_to_csv(result))
    return result


def test_table2_report(table2):
    """Regenerate the Table II rows.

    The paper reports a modest average depth reduction (6.05% total / 7.61% added) with a few
    benchmarks regressing because re-synthesis adds single-qubit gates; we therefore only
    require that NASSC does not blow depth up across the board.
    """
    assert table2.rows
    better_or_close = sum(
        1 for row in table2.rows if row.nassc_depth <= 1.3 * row.sabre_depth
    )
    assert better_or_close >= 0.6 * len(table2.rows)


def test_table2_depths_exceed_original(table2):
    for row in table2.rows:
        assert row.sabre_depth >= row.original_depth * 0.9
        assert row.nassc_depth >= row.original_depth * 0.9


@pytest.mark.benchmark(group="table2-depth")
def test_depth_measurement_speed(benchmark, table2):
    """Micro-benchmark of the depth metric itself on a routed circuit."""
    circuit = get_benchmark("qft_n15")
    target = Target(coupling_map=montreal_coupling_map())
    routed = transpile(circuit, target, routing="nassc", seed=0).circuit
    depth = benchmark(routed.depth)
    assert depth > 0
