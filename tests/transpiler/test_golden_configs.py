"""Determinism regression for the configurations the golden O1 grid leaves out.

``golden_config_hashes.json`` pins the sha256 of the emitted OpenQASM text for a
non-default lookahead (sabre and nassc, ``best_of`` 1 and 3), O3 on the calibrated
Montreal device, nanosecond routing costs and a streamed compile.  Each case carries its
own spec (benchmark, target, options, stream window), which ``golden_configs.py``
compiles for both this test and the generator, ``python benchmarks/gen_golden_hashes.py``;
regenerate only when an output change is intended.

Layout sweeps route with the router's default lookahead whatever the options say; the
lookahead pins record that behaviour as it is.

The second half pins the pass names of the timing log, which the perf ledger
(``BENCH_transpile.json``) and the repo benchmark key their per-pass rows on.
"""

import hashlib
import json
import os

import pytest

from repro import Target, TranspileOptions, transpile
from repro.benchlib import get_benchmark

from .golden_configs import compile_spec

PINS_PATH = os.path.join(os.path.dirname(__file__), "golden_config_hashes.json")

with open(PINS_PATH, encoding="utf-8") as _handle:
    PINS = json.load(_handle)["cases"]


def test_pins_cover_every_configuration_kind():
    kinds = {key.split("|")[0] for key in PINS}
    assert kinds == {"lookahead", "o3", "ns", "stream"}
    lookahead = {
        (spec["options"]["routing"], spec["options"]["best_of"])
        for key, spec in PINS.items() if key.startswith("lookahead|")
    }
    assert lookahead == {(m, b) for m in ("sabre", "nassc") for b in (1, 3)}


@pytest.mark.parametrize("key", sorted(PINS))
def test_output_matches_pinned_hash(key):
    expected = PINS[key]
    text, cx_count, depth, num_swaps = compile_spec(expected)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == expected["qasm_sha256"], (
        f"{key}: output drifted from the pinned hash "
        f"(cx {cx_count} vs {expected['cx_count']}, swaps {num_swaps} vs "
        f"{expected['num_swaps']})"
    )
    assert (cx_count, depth, num_swaps) == (
        expected["cx_count"], expected["depth"], expected["num_swaps"]
    )


INIT = [
    "Decompose", "Optimize1qGates", "UnitarySynthesis", "CommutativeCancellation",
    "Optimize1qGates", "RemoveIdentities", "CheckRoutable",
]
#: SWAP lowering, the post-routing loop (two iterations on this circuit), cleanup, check.
POST = [
    "SwapLowering", "UnitarySynthesis", "CommutativeCancellation", "UnitarySynthesis",
    "CommutativeCancellation", "Optimize1qGates", "RemoveIdentities", "CheckMap",
]


@pytest.mark.parametrize(
    "overrides,routing_names",
    [
        ({"routing": "sabre"}, ["SabreLayoutSelection", "SabreRouting"]),
        (
            {"routing": "nassc"},
            ["SabreLayoutSelection", "NASSCRouting", "CommuteSingleQubitsThroughSwap"],
        ),
        ({"routing": "sabre", "best_of": 3}, ["EnsembleRouting"]),
        ({"routing": "nassc", "best_of": 3}, ["EnsembleRouting", "CommuteSingleQubitsThroughSwap"]),
    ],
    ids=["sabre", "nassc", "sabre-best-of", "nassc-best-of"],
)
def test_timing_log_pass_names(overrides, routing_names):
    result = transpile(
        get_benchmark("grover_n4"), Target.from_topology("linear", 25),
        TranspileOptions(seed=0, **overrides),
    )
    assert [name for name, _ in result.pass_timing_log] == INIT + routing_names + POST
