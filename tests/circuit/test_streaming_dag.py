"""Tests for :class:`repro.circuit.StreamingDAG` — the routers' dependency frontier.

The contract: walked with the same resolve sequence, a window of W gates must be
step-for-step identical to the whole-window frontier in-memory routing walks (front
content *and order*, lookahead content and order), while keeping the live node count
bounded by the window and its spill allowance.  The reference admits the whole circuit
up front, so its lookahead-spill and pre-retirement fill branches never run.
"""

import pytest

from repro.circuit import StreamingDAG, random_circuit
from repro.circuit.random import random_circuit_stream
from repro.exceptions import CircuitError
from repro.transpiler.passes.sabre import whole_frontier


def frontier_pair(circuit, window_gates):
    full = whole_frontier(circuit.data, circuit.num_qubits, circuit.num_clbits)
    streamed = StreamingDAG(
        iter(circuit.data), circuit.num_qubits, circuit.num_clbits,
        window_gates=window_gates,
    )
    return full, streamed


def walk_both(full, streamed, lookahead_size=20):
    """Resolve front-first in lockstep, asserting equality at every step."""
    steps = 0
    while not full.is_done():
        assert not streamed.is_done()
        full_front = full.front
        stream_front = streamed.front
        assert [n.node_id for n in stream_front] == [n.node_id for n in full_front]
        assert [n.node_id for n in streamed.lookahead(lookahead_size)] == [
            n.node_id for n in full.lookahead(lookahead_size)
        ]
        # resolve a rotating choice of front node so the walk isn't purely FIFO
        pick = steps % len(full_front)
        new_full = full.resolve(full_front[pick])
        new_stream = streamed.resolve(stream_front[pick])
        assert [n.node_id for n in new_stream] == [n.node_id for n in new_full]
        steps += 1
    assert streamed.is_done()
    return steps


@pytest.mark.parametrize("window", [64, 512, 10**6])
@pytest.mark.parametrize("num_qubits,depth,seed", [(5, 12, 0), (8, 10, 3), (4, 20, 7)])
def test_lockstep_with_execution_frontier(num_qubits, depth, seed, window):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    circuit.measure_all()
    full, streamed = frontier_pair(circuit, window)
    steps = walk_both(full, streamed)
    assert steps == len(circuit.data)
    assert streamed.retired == len(circuit.data)


def test_live_window_stays_bounded():
    window = 32
    streamed = StreamingDAG(
        random_circuit_stream(6, 5000, seed=0), 6, window_gates=window
    )
    peak = 0
    while not streamed.is_done():
        streamed.lookahead(20)
        peak = max(peak, streamed.num_remaining())
        for node in list(streamed.front):
            streamed.resolve(node)
            peak = max(peak, streamed.num_remaining())
    assert streamed.retired == 5000
    # resolve/lookahead may spill past the window, but never past the allowance
    assert peak <= streamed.max_live_gates
    assert peak < 5000


def test_resolve_rejects_non_front_nodes():
    circuit = random_circuit(4, 6, seed=1)
    streamed = StreamingDAG(iter(circuit.data), 4, window_gates=8)
    front = streamed.front
    blocked = next(
        node for node in streamed.nodes.values()
        if node.node_id not in {f.node_id for f in front}
    )
    with pytest.raises(CircuitError, match="not currently executable"):
        streamed.resolve(blocked)


def test_out_of_range_qubit_rejected():
    circuit = random_circuit(5, 4, seed=2)
    with pytest.raises(CircuitError, match="out of range"):
        StreamingDAG(iter(circuit.data), 3, window_gates=1024).is_done()


def test_version_bumps_on_resolve():
    circuit = random_circuit(4, 6, seed=3)
    streamed = StreamingDAG(iter(circuit.data), 4, window_gates=1024)
    before = streamed.version
    streamed.resolve(streamed.front[0])
    assert streamed.version == before + 1


def test_copy_walks_independently():
    circuit = random_circuit(5, 12, seed=4)
    circuit.measure_all()
    original = whole_frontier(circuit.data, circuit.num_qubits, circuit.num_clbits)
    first = original.copy()
    steps = walk_both(first, whole_frontier(circuit.data, 5, circuit.num_clbits))
    assert steps == len(circuit.data)
    # Walking a copy to exhaustion leaves the original at its initial state.
    assert original.num_remaining() == len(circuit.data)
    assert walk_both(original.copy(), original) == steps


def test_copy_requires_an_exhausted_source():
    streamed = StreamingDAG(random_circuit_stream(4, 100, seed=0), 4, window_gates=16)
    with pytest.raises(CircuitError, match="fully admitted"):
        streamed.copy()
