"""Regenerate the pinned output hashes used by the determinism regression tests.

Two files are written:

* ``tests/transpiler/golden_o1_hashes.json``: every registered built-in routing method
  over the quick table suite on the linear-25 and Montreal devices at level O1 / seed 0;
* ``tests/transpiler/golden_config_hashes.json``: the configurations that grid leaves
  out: a non-default lookahead (``extended_set_size``/``extended_set_weight``) for sabre
  and nassc at ``best_of`` 1 and 3, O3 on the calibrated Montreal device, nanosecond
  routing costs (``route_cost="ns"``) and a streamed compile.  Each case stores its own
  spec, which ``tests/transpiler/golden_configs.py`` compiles for this script and for
  ``tests/transpiler/test_golden_configs.py``.

Each entry pins the sha256 of the emitted OpenQASM text (plus the headline metrics).
The pinned hashes are the mechanical bit-identity check for hot-path refactors: any
change that alters compiled output — gate order, SWAP choice, rotation angles, labels —
changes a hash.  Only regenerate (``python benchmarks/gen_golden_hashes.py``) when an
output change is *intended*, and say so in the commit message.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import Target, TranspileOptions, transpile  # noqa: E402
from repro.benchlib import table_benchmarks  # noqa: E402
from repro.circuit import qasm  # noqa: E402
from repro.hardware import evaluation_devices  # noqa: E402
from tests.transpiler.golden_configs import compile_spec  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "tests", "transpiler")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "golden_o1_hashes.json")
CONFIG_PATH = os.path.join(GOLDEN_DIR, "golden_config_hashes.json")

BENCHMARK_NAMES = [
    "grover_n4", "grover_n6", "vqe_n8", "bv_n19", "qft_n15", "qpe_n9", "adder_n10",
]
METHODS = ("none", "sabre", "nassc")
SEED = 0


def devices():
    return evaluation_devices()


def golden_cases():
    """(case key, circuit factory, target, options) for every pinned case."""
    cases = []
    benches = {case.name: case for case in table_benchmarks(names=BENCHMARK_NAMES)}
    for device_name, coupling in devices().items():
        target = Target(coupling_map=coupling, name=device_name)
        for bench_name in BENCHMARK_NAMES:
            for method in METHODS:
                key = f"{device_name}|{bench_name}|{method}"
                options = TranspileOptions(routing=method, seed=SEED, level="O1")
                cases.append((key, benches[bench_name], target, options))
    return cases


def compute_entry(case, target, options):
    result = transpile(case.build(), target, options)
    text = qasm.dumps(result.circuit)
    return {
        "qasm_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "cx_count": result.cx_count,
        "depth": result.depth,
        "num_swaps": result.num_swaps,
    }


#: A lookahead other than the paper's (20, 0.5).
LOOKAHEAD = {"extended_set_size": 7, "extended_set_weight": 0.8}
CALIBRATED_MONTREAL = {"topology": "montreal", "num_qubits": 27, "calibrated": True}


def config_specs():
    """Case key -> spec (benchmark, target, options, optional stream window)."""
    linear = {"topology": "linear", "num_qubits": 25, "calibrated": False}
    grid = {"topology": "grid", "num_qubits": 25, "calibrated": False}
    specs = {}
    for method in ("sabre", "nassc"):
        for best_of in (1, 3):
            options = TranspileOptions(routing=method, seed=3, best_of=best_of, **LOOKAHEAD)
            specs[f"lookahead|linear_25|vqe_n8|{method}|best_of={best_of}"] = {
                "benchmark": "vqe_n8", "target": linear, "options": options.to_dict(),
            }
        options = TranspileOptions(routing=method, seed=3, level="O3", schedule="asap")
        specs[f"o3|montreal_calibrated|adder_n10|{method}"] = {
            "benchmark": "adder_n10", "target": CALIBRATED_MONTREAL,
            "options": options.to_dict(),
        }
    options = TranspileOptions(routing="nassc", seed=3, route_cost="ns")
    specs["ns|montreal_calibrated|grover_n6|nassc"] = {
        "benchmark": "grover_n6", "target": CALIBRATED_MONTREAL, "options": options.to_dict(),
    }
    options = TranspileOptions(
        routing="nassc", seed=3, level="O0", layout_iterations=0,
        extended_set_size=5, extended_set_weight=0.25,
    )
    specs["stream|grid_25|qft_n15|nassc"] = {
        "benchmark": "qft_n15", "target": grid, "options": options.to_dict(),
        "stream_window_gates": 64,
    }
    return specs


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['cases'])} cases to {os.path.normpath(path)}")


def main():
    entries = {}
    for key, case, target, options in golden_cases():
        entries[key] = compute_entry(case, target, options)
        print(f"{key:40s} {entries[key]['qasm_sha256'][:16]}  cx={entries[key]['cx_count']}")
    payload = {
        "description": "sha256 of qasm.dumps for O1 output; regenerate only when output "
                       "changes are intended (benchmarks/gen_golden_hashes.py)",
        "seed": SEED,
        "level": "O1",
        "benchmarks": BENCHMARK_NAMES,
        "methods": list(METHODS),
        "devices": list(devices()),
        "cases": entries,
    }
    write_json(GOLDEN_PATH, payload)

    configs = {}
    for key, spec in config_specs().items():
        text, cx_count, depth, num_swaps = compile_spec(spec)
        configs[key] = dict(
            spec,
            qasm_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            cx_count=cx_count,
            depth=depth,
            num_swaps=num_swaps,
        )
        print(f"{key:48s} {configs[key]['qasm_sha256'][:16]}  cx={cx_count}")
    write_json(CONFIG_PATH, {
        "description": "sha256 of the emitted QASM for configurations the O1 grid "
                       "leaves out; regenerate only when output changes are intended "
                       "(benchmarks/gen_golden_hashes.py)",
        "cases": configs,
    })


if __name__ == "__main__":
    main()
