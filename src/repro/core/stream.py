"""Streaming transpilation: compile unbounded instruction streams in O(window) memory.

:func:`transpile_stream` is the generator twin of :func:`repro.core.pipeline.transpile`
for the million-gate workload class: instructions are pulled lazily from the source (a
:class:`~repro.circuit.qasm.QASMStreamReader`, an in-memory circuit, or any instruction
iterable), decomposed gate by gate, routed over a bounded
:class:`~repro.circuit.dag.StreamingDAG` window, and emitted as routed OpenQASM 2.0 text
chunks the moment they are placed — the full circuit, its DAG, and the routed result are
never materialised at once.

The routing loop is the in-memory path's own
(:meth:`~repro.transpiler.passes.sabre.SabreSwapRouter.route_steps` over a
:class:`~repro.circuit.dag.StreamingDAG`; in-memory routing merely admits the whole
circuit at once), so a window that covers the whole circuit produces output
byte-identical to ``qasm.dumps(transpile(...).circuit)`` at the equivalent configuration
(level ``O0``, ``layout_iterations=0``).

Streaming constraints (checked up front, with guidance in the error):

* ``level`` must be ``"O0"`` — the higher presets' optimization passes are whole-DAG
  fixed-point loops and cannot run over a window;
* ``layout_iterations`` must be ``0`` — reverse-traversal layout refinement routes the
  entire circuit forward and backward before compilation proper starts;
* ``best_of`` / ``schedule`` are unsupported, and the routing method must route
  (``"none"`` builds no router).

``noise_aware`` and ``route_cost="ns"`` work exactly as in :func:`transpile`: they only
change the distance matrix the router scores against.

One documented divergence: routing methods whose plan carries whole-DAG post-routing
passes (NASSC's ``CommuteSingleQubitsThroughSwap``) skip those in streaming mode — the
routing decisions and orientation-labelled SWAP lowering are identical, but that final
single-qubit-motion cleanup needs the materialised DAG.  The byte-identity guarantee
above therefore applies to plans without such passes (``sabre``); for ``nassc`` the
streamed output matches the routed-and-lowered circuit before that cleanup.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..circuit.circuit import Instruction, QuantumCircuit
from ..circuit.dag import StreamingDAG
from ..circuit.qasm import QASMStreamReader, header_lines, instruction_line
from ..exceptions import TranspilerError
from ..hardware.target import Target
from ..obs.counters import COUNTERS
from ..transpiler.builder import PipelineBuilder
from ..transpiler.passes.basis import _DIRECTIVES, _ROUTABLE_1Q, _ROUTABLE_2Q, Decompose
from ..transpiler.passes.layout import Layout
from ..transpiler.passes.swap_lowering import lower_swap, swap_orientation
from .nassc import NASSCConfig
from .options import TranspileOptions
from .pipeline import _resolve_options, resolve_target

#: Default live-window size (gates) of the streaming frontier.
DEFAULT_WINDOW_GATES = 4096

#: Default emission granularity: a chunk is yielded once it holds this many lines.
DEFAULT_CHUNK_GATES = 1024


class _StreamMetrics:
    """Incremental mirror of the whole-circuit metrics (`size`/`cx_count`/`depth`).

    Replays :meth:`QuantumCircuit.depth`'s wire-level critical-path recurrence op by op,
    so the summary reports the same numbers a materialised routed circuit would — the
    streaming property tests pin this against a parsed re-load of the emitted QASM.
    """

    def __init__(self, num_qubits: int, num_clbits: int) -> None:
        self._qubit_level = [0] * num_qubits
        self._clbit_level = [0] * num_clbits
        self.depth = 0
        self.gate_count = 0
        self.cx_count = 0

    def record(self, name: str, qubits, clbits) -> None:
        start = 0
        for q in qubits:
            if self._qubit_level[q] > start:
                start = self._qubit_level[q]
        for c in clbits:
            if self._clbit_level[c] > start:
                start = self._clbit_level[c]
        if name != "barrier":
            start += 1
            self.gate_count += 1
            if name == "cx":
                self.cx_count += 1
        for q in qubits:
            self._qubit_level[q] = start
        for c in clbits:
            self._clbit_level[c] = start
        if start > self.depth:
            self.depth = start


def _check_routable(inst: Instruction) -> None:
    """Per-gate equivalent of the :class:`CheckRoutable` whole-DAG sweep."""
    name = inst.name
    if name in _DIRECTIVES:
        return
    if len(inst.qubits) == 1 and (name in _ROUTABLE_1Q or name == "unitary"):
        return
    if len(inst.qubits) == 2 and name in _ROUTABLE_2Q:
        return
    raise TranspilerError(
        f"gate '{name}' on {inst.qubits} is not routable; run Decompose first"
    )


def _prepared_instructions(
    instructions: Iterable[Instruction], num_qubits: int
) -> Iterator[Instruction]:
    """Lazily decompose and validate the source stream (the O0 ``init`` stage, per gate).

    ``Decompose`` is a pure per-instruction map, so applying it gate by gate yields
    exactly the instruction sequence the whole-DAG pass emits.
    """
    decompose = Decompose(keep_swaps=True)
    for inst in instructions:
        for q in inst.qubits:
            if not 0 <= q < num_qubits:
                raise TranspilerError(
                    f"qubit {q} out of range for a {num_qubits}-qubit source"
                )
        for lowered in decompose._decompose_instruction(inst):
            _check_routable(lowered)
            yield lowered


def _resolve_source(source, num_qubits, num_clbits):
    """Normalise the source argument to ``(instruction_iterable, num_qubits, num_clbits)``."""
    if isinstance(source, QuantumCircuit):
        return iter(source.data), source.num_qubits, source.num_clbits
    if isinstance(source, QASMStreamReader):
        # Accessing the register sizes parses the stream prefix up to the first operation.
        return source.instructions(), source.num_qubits, source.num_clbits
    if num_qubits is None:
        raise TranspilerError(
            "streaming from a bare instruction iterable requires num_qubits= "
            "(pass a QuantumCircuit or QASMStreamReader to infer it)"
        )
    return iter(source), int(num_qubits), int(num_clbits or 0)


def _validate_stream_options(options: TranspileOptions, plan) -> None:
    if options.level != "O0":
        raise TranspilerError(
            f"streaming transpilation supports level='O0' only (got {options.level!r}): "
            "the higher presets run whole-DAG optimization loops; "
            "use transpile() for in-memory compilation"
        )
    if options.layout_iterations != 0:
        raise TranspilerError(
            "streaming transpilation requires layout_iterations=0: reverse-traversal "
            "layout refinement routes the whole circuit before compilation starts"
        )
    if options.effective_best_of > 1:
        raise TranspilerError("best_of ensemble routing cannot run over a stream")
    if options.schedule is not None:
        raise TranspilerError("schedule lowering cannot run over a stream")
    if plan is None:
        raise TranspilerError(
            f"routing method {options.routing!r} does not support streaming (no router)"
        )


def transpile_stream(
    source: Union[QuantumCircuit, QASMStreamReader, Iterable[Instruction]],
    target: Optional[Target] = None,
    options: Optional[TranspileOptions] = None,
    *,
    window_gates: int = DEFAULT_WINDOW_GATES,
    chunk_gates: int = DEFAULT_CHUNK_GATES,
    num_qubits: Optional[int] = None,
    num_clbits: Optional[int] = None,
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    nassc_config: Optional[NASSCConfig] = None,
    noise_aware: Optional[bool] = None,
    extended_set_size: Optional[int] = None,
    extended_set_weight: Optional[float] = None,
    check: Optional[bool] = None,
    route_cost: Optional[str] = None,
):
    """Route an instruction stream onto a device, yielding routed QASM text chunks.

    Generator: yields ``str`` chunks of the routed OpenQASM 2.0 output (the first chunk
    carries the header) and *returns* a summary dict as its ``StopIteration`` value —
    capture it with :func:`stream_to` or a manual drive loop::

        chunks = transpile_stream(reader, target, window_gates=4096)
        summary = None
        while True:
            try:
                chunk = next(chunks)
            except StopIteration as stop:
                summary = stop.value
                break
            sink.write(chunk)

    ``options`` defaults to the streamable configuration
    ``TranspileOptions(level="O0", layout_iterations=0)``; explicitly provided options
    must satisfy the streaming constraints (see the module docstring).  Peak memory is
    O(``window_gates`` + device wires) regardless of stream length.
    """
    if window_gates < 1:
        raise TranspilerError(f"window_gates must be >= 1, got {window_gates}")
    if chunk_gates < 1:
        raise TranspilerError(f"chunk_gates must be >= 1, got {chunk_gates}")

    resolved_target = resolve_target(target)
    base = options if options is not None else TranspileOptions(level="O0", layout_iterations=0)
    resolved = _resolve_options(
        base,
        {
            "routing": routing,
            "seed": seed,
            "nassc_config": nassc_config,
            "noise_aware": noise_aware,
            "extended_set_size": extended_set_size,
            "extended_set_weight": extended_set_weight,
            "check": check,
            "route_cost": route_cost,
        },
    )

    # The builder checks the target against the options and configures the router
    # exactly as transpile() does.
    builder = PipelineBuilder(resolved_target, resolved)
    plan = builder.plan
    _validate_stream_options(resolved, plan)

    coupling = resolved_target.coupling_map
    instructions, src_qubits, src_clbits = _resolve_source(source, num_qubits, num_clbits)
    if src_qubits > coupling.num_qubits:
        raise TranspilerError(
            f"circuit needs {src_qubits} qubits but the device has {coupling.num_qubits}"
        )

    router = builder.make_router(resolved.seed)
    # Same seed layout SabreLayoutSelection starts from; with layout_iterations=0 the
    # in-memory pipeline uses it unrefined, so the two paths start identically.
    layout = Layout.random(src_qubits, coupling.num_qubits, seed=resolved.seed)

    frontier = StreamingDAG(
        _prepared_instructions(instructions, src_qubits),
        src_qubits,
        src_clbits,
        window_gates=window_gates,
    )

    metrics = _StreamMetrics(coupling.num_qubits, src_clbits)
    use_labels = plan.use_swap_labels
    adj = coupling.adjacency_matrix()
    do_check = resolved.check
    buffer: List[str] = list(header_lines(coupling.num_qubits, src_clbits))

    def emit_op(name: str, op) -> None:
        if do_check and len(op.qubits) == 2 and name != "barrier" and op.gate.is_unitary:
            a, b = op.qubits
            if not adj[a, b]:
                raise TranspilerError(
                    f"routed gate {name} on {op.qubits} violates the coupling map"
                )
        buffer.append(instruction_line(op))
        metrics.record(name, op.qubits, op.clbits)

    def emit(position: int, op) -> None:
        if op.name == "swap":
            # Per-gate SWAP lowering (the O0 post_routing stage), honouring the
            # router's optimization-aware orientation labels when the plan asks.
            control = swap_orientation(op.gate.label if use_labels else None, op.qubits)
            for lowered in lower_swap(op.qubits[0], op.qubits[1], control):
                emit_op("cx", lowered)
        else:
            emit_op(op.name, op)

    steps = router.route_steps(frontier, layout, emit=emit)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            result = stop.value
            break
        # Scoring points are the natural flush boundaries: the emission buffer only
        # grows between them by the gates executed since the previous score.
        while len(buffer) >= chunk_gates:
            chunk = buffer[:chunk_gates]
            del buffer[:chunk_gates]
            yield "\n".join(chunk) + "\n"

    if buffer:
        yield "\n".join(buffer) + "\n"

    COUNTERS.inc("streaming.transpiles")
    COUNTERS.inc("streaming.gates_emitted", metrics.gate_count)
    return {
        "routing": resolved.routing,
        "level": resolved.level,
        "window_gates": int(window_gates),
        "num_qubits": int(coupling.num_qubits),
        "num_clbits": int(src_clbits),
        "source_gates": int(frontier.admitted),
        "emitted_gates": int(metrics.gate_count),
        "cx_count": int(metrics.cx_count),
        "depth": int(metrics.depth),
        "num_swaps": int(result.num_swaps),
        "initial_layout": result.initial_layout.to_pairs(),
        "final_layout": result.final_layout.to_pairs(),
    }


def stream_to(chunks, sink) -> Dict:
    """Drive a :func:`transpile_stream` generator into ``sink.write``; returns the summary.

    ``sink`` is anything with a ``write(str)`` method (file, socket wrapper, response
    body).  Chunks are written as they are produced, so the sink sees routed prefixes
    while the tail of the stream is still compiling.
    """
    while True:
        try:
            chunk = next(chunks)
        except StopIteration as stop:
            return stop.value
        sink.write(chunk)
