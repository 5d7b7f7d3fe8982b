"""Noise-aware distance matrices (the HA heuristic of Niu et al., paper Eq. 3).

Both SABRE and NASSC can be made noise-aware by replacing the hop-count distance matrix
``D`` with a weighted combination of CNOT error rate, SWAP execution time and hop count::

    D_noise[i][j] = alpha1 * eps[i][j] + alpha2 * T[i][j] + alpha3 * D[i][j]

The per-edge terms are normalised over the device and accumulated along shortest paths so
that the matrix remains a metric usable by the routing heuristics.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import List

import numpy as np

from .calibration import DeviceCalibration
from .coupling import CouplingMap


def hop_distance_matrix(coupling_map: CouplingMap) -> np.ndarray:
    """Plain shortest-path hop-count distance matrix."""
    return coupling_map.distance_matrix().copy()


def noise_aware_distance_matrix(
    calibration: DeviceCalibration,
    alpha1: float = 0.5,
    alpha2: float = 0.0,
    alpha3: float = 0.5,
) -> np.ndarray:
    """HA-style distance matrix combining error rate, gate time and hop count.

    The paper uses ``alpha1 = 0.5, alpha2 = 0.0, alpha3 = 0.5`` (Sec. IV-G).  Each per-edge
    quantity is normalised by its device-wide maximum before being combined, then the
    resulting edge weights are accumulated with an all-pairs shortest path.
    """
    coupling = calibration.coupling_map
    errors = np.array([calibration.cx_error[edge] for edge in coupling.edges])
    durations = np.array([calibration.cx_duration[edge] for edge in coupling.edges])
    max_error = float(errors.max()) if errors.size else 1.0
    max_duration = float(durations.max()) if durations.size else 1.0

    weights = alpha1 * (errors / max_error) + alpha2 * (durations / max_duration) + alpha3
    if not np.all(weights >= 0.0):
        raise ValueError(f"alphas {(alpha1, alpha2, alpha3)} give a negative or NaN edge weight")
    return _shortest_path_lengths(coupling, weights.tolist())


def _shortest_path_lengths(coupling: CouplingMap, weights: List[float]) -> np.ndarray:
    """All-pairs Dijkstra lengths over non-negative edge weights (``inf``: unreachable).

    Adjacency in edge order, ``(dist, counter, node)`` heap entries, the source at integer
    ``0``, strict relaxation and sources in node order fix the order of every float sum;
    the digests in ``tests/hardware/test_noise_distance.py`` pin the resulting matrices.
    """
    num = coupling.num_qubits
    adjacency = [{} for _ in range(num)]
    for (a, b), weight in zip(coupling.edges, weights):
        adjacency[a][b] = adjacency[b][a] = weight
    matrix = np.full((num, num), np.inf)
    for source in range(num):
        lengths = {}
        best = {source: 0}
        tie = count()
        fringe = [(0, next(tie), source)]
        while fringe:
            dist, _, node = heapq.heappop(fringe)
            if node in lengths:
                continue
            lengths[node] = dist
            for neighbor, weight in adjacency[node].items():
                candidate = dist + weight
                if neighbor not in best or candidate < best[neighbor]:
                    best[neighbor] = candidate
                    heapq.heappush(fringe, (candidate, next(tie), neighbor))
        matrix[source, list(lengths)] = list(lengths.values())
    return matrix


def swap_error_on_edge(calibration: DeviceCalibration, a: int, b: int) -> float:
    """Approximate error of a SWAP on a link (three CNOTs)."""
    eps = calibration.cx_error_rate(a, b)
    return 1.0 - (1.0 - eps) ** 3


def swap_duration_on_edge(calibration: DeviceCalibration, a: int, b: int) -> float:
    """Duration (seconds) of a SWAP on a link: three back-to-back CNOTs."""
    return 3.0 * calibration.cx_gate_time(a, b)


def duration_distance_matrix(
    calibration: DeviceCalibration, alpha_duration: float = 0.7
) -> np.ndarray:
    """Duration-aware routing distance: the nanosecond extension of the HA matrix.

    Routing on this matrix scores SWAP candidates by the *time* the inserted SWAPs cost
    on their specific links rather than by unit hop count — the paper's "not all SWAPs
    have the same cost" argument applied to latency instead of error rate.  Each edge is
    weighted by its normalised CNOT duration blended with the unit hop term
    (``alpha_duration`` on the duration, the remainder on hops, mirroring Eq. 3 with
    ``alpha1 = 0``), so slow links are avoided without abandoning shortest-hop routing.

    The default weight comes from a sweep over the tracked evaluation grid
    (``linear_25 + montreal`` x the quick table suite, sabre / O1 / seed 0): weights
    below ~0.6 track hop routing too closely to exploit fast links, while 0.7 shortens
    the ASAP critical path on 9 of the 14 grid cases with the smallest total-duration
    regression on the rest (see ``duration_cost_summary`` in the benchmark report).
    """
    return noise_aware_distance_matrix(
        calibration, alpha1=0.0, alpha2=alpha_duration, alpha3=1.0 - alpha_duration
    )
