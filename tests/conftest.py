"""Shared fixtures and helpers for the test suite."""

import contextvars
import json

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import grid_coupling_map, linear_coupling_map, montreal_coupling_map
from repro.synthesis import allclose_up_to_global_phase


@pytest.fixture
def linear5():
    return linear_coupling_map(5)


@pytest.fixture
def linear10():
    return linear_coupling_map(10)


@pytest.fixture
def grid9():
    return grid_coupling_map(3, 3)


@pytest.fixture
def montreal():
    return montreal_coupling_map()


def assert_unitary_equiv(circuit_a: QuantumCircuit, circuit_b: QuantumCircuit, tol: float = 1e-6):
    """Assert two circuits implement the same unitary up to a global phase."""
    mat_a = circuit_a.without_directives().to_matrix()
    mat_b = circuit_b.without_directives().to_matrix()
    assert allclose_up_to_global_phase(mat_a, mat_b, tol), "circuits are not equivalent"


def bell_pair() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def json_bodies(monkeypatch):
    """Every JSON response body any server writes during the test, paired with the
    ``indent=2`` text the servers used to send for the same payload."""
    from repro.server.http import AsyncHTTPServer

    pairs = []
    write_json = AsyncHTTPServer._write_json
    write_response = AsyncHTTPServer._write_response
    indented = contextvars.ContextVar("indented", default=None)

    async def recording_write_json(self, writer, status, payload, **kwargs):
        token = indented.set(json.dumps(payload, indent=2))
        try:
            await write_json(self, writer, status, payload, **kwargs)
        finally:
            indented.reset(token)

    async def recording_write_response(self, writer, status, body, **kwargs):
        if indented.get() is not None:
            pairs.append((indented.get(), body))
        await write_response(self, writer, status, body, **kwargs)

    monkeypatch.setattr(AsyncHTTPServer, "_write_json", recording_write_json)
    monkeypatch.setattr(AsyncHTTPServer, "_write_response", recording_write_response)
    return pairs


def assert_compact_json_bodies(pairs, at_least: int) -> None:
    """Each body is one line of JSON that decodes to what the indented text decodes to."""
    assert len(pairs) >= at_least
    for indented, body in pairs:
        assert body.endswith(b"\n") and body.count(b"\n") == 1, body[:200]
        assert json.loads(body) == json.loads(indented)
