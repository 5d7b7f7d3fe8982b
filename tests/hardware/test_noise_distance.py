"""Edge cases for the distance-matrix builders and calibration completeness checks."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import CalibrationError
from repro.hardware import (
    CouplingMap,
    fake_montreal_calibration,
    grid_coupling_map,
    hop_distance_matrix,
    linear_coupling_map,
    montreal_coupling_map,
    noise_aware_distance_matrix,
    swap_duration_on_edge,
    synthetic_calibration,
)
from repro.hardware.calibration import DEFAULT_MEASURE_DURATION, DeviceCalibration
from repro.hardware.noise_distance import duration_distance_matrix


class TestEdgeCases:
    def test_empty_calibration_no_edges(self):
        """A device with qubits but no links: only the diagonal is reachable."""
        coupling = CouplingMap([], num_qubits=3)
        calibration = DeviceCalibration(coupling_map=coupling)
        matrix = noise_aware_distance_matrix(calibration)
        assert matrix.shape == (3, 3)
        assert np.all(np.diag(matrix) == 0.0)
        off_diagonal = matrix[~np.eye(3, dtype=bool)]
        assert np.all(np.isinf(off_diagonal))

    def test_single_edge_coupling(self):
        coupling = CouplingMap([(0, 1)])
        calibration = synthetic_calibration(coupling, seed=5)
        matrix = noise_aware_distance_matrix(calibration)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == matrix[1, 1] == 0.0
        # With a single edge both normalised terms are 1, so the weight is alpha1+alpha3.
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[0, 1] == matrix[1, 0]

    def test_disconnected_coupling_map(self):
        """Two components: cross-component distances stay infinite, not garbage."""
        coupling = CouplingMap([(0, 1), (2, 3)], num_qubits=4)
        calibration = synthetic_calibration(coupling, seed=5)
        matrix = noise_aware_distance_matrix(calibration)
        assert np.isfinite(matrix[0, 1]) and np.isfinite(matrix[2, 3])
        for a in (0, 1):
            for b in (2, 3):
                assert np.isinf(matrix[a, b])
                assert np.isinf(matrix[b, a])

    def test_negative_edge_weight_rejected(self):
        """The noisiest link weighs 0.5 - 1 < 0, where Dijkstra is undefined."""
        coupling = linear_coupling_map(4)
        calibration = synthetic_calibration(coupling, seed=5)
        with pytest.raises(ValueError, match="negative or NaN edge weight"):
            noise_aware_distance_matrix(calibration, alpha1=-1.0, alpha2=0.0, alpha3=0.5)

    def test_hop_matrix_copy_is_private(self):
        coupling = linear_coupling_map(4)
        matrix = hop_distance_matrix(coupling)
        matrix[0, 1] = 99.0
        assert hop_distance_matrix(coupling)[0, 1] == 1.0


@pytest.mark.parametrize(
    "make_calibration, digests",
    [
        (lambda: synthetic_calibration(linear_coupling_map(25)),
         ("43ef5d1d9220eb9e", "36fcddb2a0cc585f")),
        (lambda: synthetic_calibration(montreal_coupling_map()),
         ("e5b3263439eb1a65", "a213318531ef4abc")),
        (lambda: synthetic_calibration(grid_coupling_map(5, 5)),
         ("45deb1c9f8498986", "e6f10c08f193d927")),
        (fake_montreal_calibration, ("2a900031bb77f77a", "af229df681114f0f")),
    ],
    ids=["linear_25", "montreal", "grid_5x5", "fake_montreal"],
)
def test_matrices_bit_identical_to_networkx(make_calibration, digests):
    """sha256 prefixes of the HA / duration matrix bytes, recorded when networkx's
    ``all_pairs_dijkstra_path_length`` built them: every float sum forms in its order."""
    calibration = make_calibration()
    assert digests == tuple(
        hashlib.sha256(matrix.tobytes()).hexdigest()[:16]
        for matrix in (
            noise_aware_distance_matrix(calibration),
            duration_distance_matrix(calibration),
        )
    )


def networkx_reference(nx, calibration, alpha1, alpha2, alpha3):
    """The HA matrix as it was built with networkx (the reference where it is installed)."""
    coupling = calibration.coupling_map
    errors = np.array([calibration.cx_error[edge] for edge in coupling.edges])
    durations = np.array([calibration.cx_duration[edge] for edge in coupling.edges])
    max_error = float(errors.max()) if errors.size else 1.0
    max_duration = float(durations.max()) if durations.size else 1.0
    graph = nx.Graph()
    graph.add_nodes_from(range(coupling.num_qubits))
    for (a, b), err, dur in zip(coupling.edges, errors, durations):
        weight = alpha1 * (err / max_error) + alpha2 * (dur / max_duration) + alpha3 * 1.0
        graph.add_edge(a, b, weight=float(weight))
    matrix = np.full((coupling.num_qubits,) * 2, np.inf)
    for src, targets in nx.all_pairs_dijkstra_path_length(graph, weight="weight"):
        for dst, value in targets.items():
            matrix[src, dst] = value
    return matrix


@pytest.mark.parametrize("alphas", [(0.5, 0.0, 0.5), (0.0, 0.7, 0.3), (0.2, 0.3, 0.5), (0, 0, 0)])
@pytest.mark.parametrize(
    "coupling",
    [
        linear_coupling_map(6),
        grid_coupling_map(3, 4),
        montreal_coupling_map(),
        CouplingMap([(0, 1), (1, 2), (3, 4)], num_qubits=6),
    ],
    ids=["linear_6", "grid_3x4", "montreal", "disconnected"],
)
def test_matches_networkx_reference(coupling, alphas):
    nx = pytest.importorskip("networkx")
    for seed in (0, 7):
        calibration = synthetic_calibration(coupling, seed=seed)
        expected = networkx_reference(nx, calibration, *alphas)
        assert noise_aware_distance_matrix(calibration, *alphas).tobytes() == expected.tobytes()


class TestDurationDistance:
    def test_reduces_to_hops_when_alpha_zero(self):
        coupling = linear_coupling_map(6)
        calibration = synthetic_calibration(coupling, seed=2)
        matrix = duration_distance_matrix(calibration, alpha_duration=0.0)
        np.testing.assert_allclose(matrix, hop_distance_matrix(coupling))

    def test_slow_link_costs_more(self):
        coupling = linear_coupling_map(3)
        calibration = synthetic_calibration(coupling, seed=2)
        calibration.cx_duration[(0, 1)] = 1.0e-6
        calibration.cx_duration[(1, 2)] = 2.0e-7
        matrix = duration_distance_matrix(calibration, alpha_duration=0.5)
        assert matrix[0, 1] > matrix[1, 2]

    def test_symmetric_and_metric(self):
        coupling = linear_coupling_map(8)
        calibration = synthetic_calibration(coupling, seed=9)
        matrix = duration_distance_matrix(calibration)
        np.testing.assert_allclose(matrix, matrix.T)
        num = coupling.num_qubits
        for i in range(num):
            for j in range(num):
                for k in range(num):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-12

    def test_swap_duration_is_three_cx(self):
        coupling = linear_coupling_map(3)
        calibration = synthetic_calibration(coupling, seed=1)
        assert swap_duration_on_edge(calibration, 1, 0) == pytest.approx(
            3.0 * calibration.cx_gate_time(0, 1)
        )


class TestValidateFor:
    def test_complete_calibration_passes(self):
        coupling = linear_coupling_map(5)
        synthetic_calibration(coupling, seed=0).validate_for(coupling)

    def test_missing_edge_listed(self):
        coupling = linear_coupling_map(5)
        calibration = synthetic_calibration(coupling, seed=0)
        del calibration.cx_duration[(2, 3)]
        with pytest.raises(CalibrationError, match=r"\(2, 3\)"):
            calibration.validate_for(coupling)

    def test_missing_qubit_listed(self):
        coupling = linear_coupling_map(5)
        calibration = synthetic_calibration(coupling, seed=0)
        del calibration.single_qubit_duration[4]
        with pytest.raises(CalibrationError, match="single_qubit_duration"):
            calibration.validate_for(coupling)

    def test_all_problems_reported_at_once(self):
        coupling = linear_coupling_map(4)
        calibration = DeviceCalibration(coupling_map=coupling)
        with pytest.raises(CalibrationError) as excinfo:
            calibration.validate_for(coupling)
        message = str(excinfo.value)
        assert "cx_duration" in message and "single_qubit_duration" in message

    def test_measure_duration_defaults(self):
        coupling = linear_coupling_map(3)
        calibration = DeviceCalibration(coupling_map=coupling)
        assert calibration.measure_duration_for(0) == DEFAULT_MEASURE_DURATION
        calibration.measure_duration[0] = 1.5e-6
        assert calibration.measure_duration_for(0) == 1.5e-6
        assert calibration.measure_duration_for(1) == DEFAULT_MEASURE_DURATION
