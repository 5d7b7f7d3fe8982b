"""Determinism regression: O1 output is bit-identical to the pinned golden hashes.

The golden file (``golden_o1_hashes.json``) pins the sha256 of the emitted OpenQASM text
for every device x benchmark x routing-method case at level O1 / seed 0, recorded on the
*pre-vectorization* hot path.  Any hot-path change that alters compiled output — SWAP
choice, tie-breaking, rotation angles, gate order, labels — flips a hash and fails here.

Regenerate with ``python benchmarks/gen_golden_hashes.py`` only when an output change is
intended.
"""

import hashlib
import json
import os

import pytest

from repro import Target, TranspileOptions, transpile
from repro.benchlib import table_benchmarks
from repro.circuit import qasm
from repro.hardware import evaluation_devices
from repro.transpiler.registry import available_routings

from ..circuit.reference_qasm import assert_matches_reference

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_o1_hashes.json")

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.fixture(scope="module")
def targets():
    devices = evaluation_devices()
    assert set(GOLDEN["devices"]) == set(devices), (
        "the shared evaluation grid changed; regenerate the goldens "
        "(python benchmarks/gen_golden_hashes.py)"
    )
    return {
        name: Target(coupling_map=devices[name], name=name)
        for name in GOLDEN["devices"]
    }


@pytest.fixture(scope="module")
def circuits():
    return {
        case.name: case.build()
        for case in table_benchmarks(names=GOLDEN["benchmarks"])
    }


def test_golden_file_covers_all_registered_builtin_methods():
    """Every built-in routing method is pinned; new methods must be added to the goldens."""
    assert set(GOLDEN["methods"]) == {
        m for m in available_routings(load_plugins=False) if m in ("none", "sabre", "nassc")
    }
    expected = len(GOLDEN["devices"]) * len(GOLDEN["benchmarks"]) * len(GOLDEN["methods"])
    assert len(GOLDEN["cases"]) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN["cases"]))
def test_o1_output_matches_golden_hash(key, targets, circuits):
    device_name, bench_name, method = key.split("|")
    expected = GOLDEN["cases"][key]
    result = transpile(
        circuits[bench_name],
        targets[device_name],
        TranspileOptions(routing=method, seed=GOLDEN["seed"], level=GOLDEN["level"]),
    )
    text = qasm.dumps(result.circuit)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == expected["qasm_sha256"], (
        f"{key}: O1 output drifted from the pinned golden hash "
        f"(cx {result.cx_count} vs {expected['cx_count']}, "
        f"swaps {result.num_swaps} vs {expected['num_swaps']})"
    )
    assert result.cx_count == expected["cx_count"]
    assert result.depth == expected["depth"]
    assert result.num_swaps == expected["num_swaps"]
    # The served-result decode path: both QASM readers parse the output back exactly as
    # the pre-rewrite reference parser does.
    assert_matches_reference(text)
