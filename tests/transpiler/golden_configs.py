"""How a pinned configuration case compiles, shared by its generator and its test.

A case of ``golden_config_hashes.json`` is a spec: a benchmark name, a topology target
(``topology``, ``num_qubits``, ``calibrated``), ``TranspileOptions.to_dict()`` output and,
for a streamed case, ``stream_window_gates``.  ``benchmarks/gen_golden_hashes.py`` pins
what :func:`compile_spec` emits; ``test_golden_configs.py`` replays it.
"""

import io

from repro import Target, TranspileOptions, stream_to, transpile, transpile_stream
from repro.benchlib import get_benchmark
from repro.circuit import qasm


def compile_spec(spec):
    """(emitted OpenQASM text, cx count, depth, swap count) of one pinned case.

    A streamed case reads the benchmark back through the streaming QASM reader, as a
    served stream does.
    """
    target = Target.from_topology(
        spec["target"]["topology"], spec["target"]["num_qubits"],
        calibrated=spec["target"]["calibrated"],
    )
    options = TranspileOptions.from_dict(spec["options"])
    circuit = get_benchmark(spec["benchmark"])
    window = spec.get("stream_window_gates")
    if window is None:
        result = transpile(circuit, target, options)
        return qasm.dumps(result.circuit), result.cx_count, result.depth, result.num_swaps
    sink = io.StringIO()
    reader = qasm.loads_stream(qasm.dumps(circuit))
    summary = stream_to(transpile_stream(reader, target, options, window_gates=window), sink)
    return sink.getvalue(), summary["cx_count"], summary["depth"], summary["num_swaps"]
