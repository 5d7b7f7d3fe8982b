"""Two-qubit unitary analysis and synthesis (Weyl/KAK decomposition).

This module provides the machinery behind the paper's *two-qubit block re-synthesis*
optimization (Sec. III and IV-D):

* :func:`weyl_coordinates` — fast canonical (Weyl-chamber) coordinates of a 4x4 unitary.
* :func:`cnot_count` — the minimal number of CNOTs needed to implement a 4x4 unitary
  (0, 1, 2 or 3), which is what the NASSC cost function's ``C2q`` term is built on.
* :func:`weyl_decompose` — full KAK decomposition ``U = phase * K1 . A(a,b,c) . K2`` with
  explicit single-qubit local factors.
* :class:`TwoQubitSynthesizer` — re-synthesis of an arbitrary two-qubit unitary into a
  circuit with the minimal number of CNOTs plus single-qubit gates, used by the
  ``UnitarySynthesis`` transpiler pass.

The synthesizer is self-validating: every produced circuit is checked against the target
unitary (up to global phase) before being returned, and a guaranteed-correct (but possibly
4-CNOT) fallback is used if the optimal template cannot be matched numerically.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..exceptions import SynthesisError
from .linalg import (
    MAGIC_BASIS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    allclose,
    is_unitary,
    kron2,
    kron_factor_4x4,
)
from .one_qubit import u_params_from_matrix

_B = MAGIC_BASIS
_BD = MAGIC_BASIS.conj().T
_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_CLASS_ATOL = 1e-6

# Diagonal representations of XX, YY, ZZ in the magic basis; the columns of _F.
_PAULI_PAIRS = [np.kron(PAULI_X, PAULI_X), np.kron(PAULI_Y, PAULI_Y), np.kron(PAULI_Z, PAULI_Z)]
_F = np.column_stack([np.real(np.diag(_BD @ pp @ _B)) for pp in _PAULI_PAIRS])
_F_PINV = np.linalg.pinv(_F)

#: Seed of the retry weights in :func:`_orthogonal_diagonalize`, fresh per call.
_RETRY_SEED = 20220521


def canonical_matrix(a: float, b: float, c: float) -> np.ndarray:
    """The canonical two-qubit interaction ``A(a,b,c) = exp(i(a XX + b YY + c ZZ))``."""
    mat = np.eye(4, dtype=complex)
    for coeff, pauli_pair in zip((a, b, c), _PAULI_PAIRS):
        mat = (math.cos(coeff) * np.eye(4) + 1j * math.sin(coeff) * pauli_pair) @ mat
    return mat


# ---------------------------------------------------------------------------
# Coordinates and CNOT counting
# ---------------------------------------------------------------------------

def _det_normalize(unitary: np.ndarray) -> Tuple[np.ndarray, float]:
    """Scale a U(4) matrix into SU(4); returns the matrix and the removed phase."""
    det = np.linalg.det(unitary)
    phase = cmath.phase(det) / 4.0
    return unitary * cmath.exp(-1j * phase), phase


def _raw_coordinates_from_phases(d: np.ndarray) -> Tuple[float, float, float]:
    """Solve ``F x = d`` for the (non-canonical) interaction coefficients."""
    x = _F_PINV @ d
    return float(x[0]), float(x[1]), float(x[2])


def _mod_half_pi(value: float) -> float:
    value = math.fmod(value, _HALF_PI)
    if value < 0:
        value += _HALF_PI
    if _HALF_PI - value < 1e-9:
        value = 0.0
    return value


def canonicalize_coordinates(coords: Sequence[float]) -> Tuple[float, float, float]:
    """Reduce interaction coefficients into the Weyl chamber.

    The reduction uses only class-preserving moves: shifting any coordinate by pi/2,
    flipping the signs of any two coordinates, and permuting the coordinates.  The canonical
    region is ``x >= y >= z >= 0``, ``x + y <= pi/2`` and (``x <= pi/4`` when ``z ~ 0``).
    """
    x, y, z = (_mod_half_pi(v) for v in coords)
    for _ in range(32):
        x, y, z = sorted((_mod_half_pi(x), _mod_half_pi(y), _mod_half_pi(z)), reverse=True)
        if x + y > _HALF_PI + 1e-9:
            x, y = _HALF_PI - y, _HALF_PI - x
            continue
        if z < _CLASS_ATOL and x > _QUARTER_PI + 1e-9:
            x = _HALF_PI - x
            continue
        break
    x, y, z = sorted((x, y, z), reverse=True)
    return float(x), float(y), float(z)


def weyl_coordinates(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Canonical Weyl-chamber coordinates of a two-qubit unitary (fast, eigenvalues only)."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4) or not is_unitary(unitary, tol=1e-6):
        raise SynthesisError("weyl_coordinates expects a 4x4 unitary")
    su4, _ = _det_normalize(unitary)
    up = _BD @ su4 @ _B
    m2 = up.T @ up
    try:
        eigvals = np.linalg.eigvals(m2)
    except np.linalg.LinAlgError:
        # LAPACK's general eigensolver can fail to converge when M2 carries tiny
        # (~1e-34) off-diagonal residue; M2 is complex symmetric and unitary, so the
        # real-orthogonal diagonalisation yields the same spectrum.
        eigvals = _orthogonal_diagonalize(m2)[1]
    d = np.angle(eigvals) / 2.0
    total = float(np.sum(d))
    d[0] -= math.pi * round(total / math.pi)
    coords = _raw_coordinates_from_phases(d)
    return canonicalize_coordinates(coords)


def cnot_count_from_coordinates(coords: Sequence[float], atol: float = _CLASS_ATOL) -> int:
    """Minimal CNOT count for a unitary whose canonical coordinates are ``coords``."""
    x, y, z = canonicalize_coordinates(coords)
    if x < atol and y < atol and z < atol:
        return 0
    if abs(x - _QUARTER_PI) < atol and y < atol and z < atol:
        return 1
    if z < atol:
        return 2
    return 3


def cnot_count(unitary: np.ndarray, atol: float = _CLASS_ATOL) -> int:
    """Minimal number of CNOT gates required to implement a two-qubit unitary."""
    return cnot_count_from_coordinates(weyl_coordinates(unitary), atol)


# ---------------------------------------------------------------------------
# Full KAK decomposition
# ---------------------------------------------------------------------------

@dataclass
class WeylDecomposition:
    """``U = exp(i*phase) * k1 @ A(a,b,c) @ k2`` with ``k1 = kron(k1_q1, k1_q0)`` and
    ``k2 = kron(k2_q1, k2_q0)``, formed once at construction."""

    coords: Tuple[float, float, float]
    k1_q0: np.ndarray
    k1_q1: np.ndarray
    k2_q0: np.ndarray
    k2_q1: np.ndarray
    phase: float
    k1: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.k1 = kron2(self.k1_q1, self.k1_q0)
        self.k2 = kron2(self.k2_q1, self.k2_q0)

    def matrix(self) -> np.ndarray:
        return cmath.exp(1j * self.phase) * (
            self.k1 @ canonical_matrix(*self.coords) @ self.k2
        )

    def cnot_count(self) -> int:
        return cnot_count_from_coordinates(self.coords)


def _orthogonal_diagonalize(m2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonalise a complex symmetric unitary ``M2 = P D P^T`` with real orthogonal ``P``.

    Tries the real part, then the imaginary part, then random real combinations.  The
    random weights come from a generator seeded afresh on every call, so ``P`` is a
    function of ``M2`` alone, not of what ran earlier in the process.
    """
    rng = None
    for attempt in range(64):
        if attempt == 0:
            weights = (1.0, 0.0)
        elif attempt == 1:
            weights = (0.0, 1.0)
        else:
            if rng is None:
                rng = np.random.default_rng(_RETRY_SEED)
            weights = tuple(rng.normal(size=2))
        combo = weights[0] * m2.real + weights[1] * m2.imag
        combo = (combo + combo.T) / 2.0
        _, p = np.linalg.eigh(combo)
        diag = p.T @ m2 @ p
        if allclose(diag - np.diag(np.diag(diag)), 0.0, 1e-9):
            if np.linalg.det(p) < 0:
                p = p.copy()
                p[:, 0] = -p[:, 0]
                diag = p.T @ m2 @ p
            return p, np.diag(diag)
    raise SynthesisError("failed to orthogonally diagonalise M2")


def weyl_decompose(unitary: np.ndarray) -> WeylDecomposition:
    """Full KAK/Weyl decomposition of a two-qubit unitary with explicit local factors."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4) or not is_unitary(unitary, tol=1e-6):
        raise SynthesisError("weyl_decompose expects a 4x4 unitary")
    su4, phase = _det_normalize(unitary)
    up = _BD @ su4 @ _B
    m2 = up.T @ up
    p, eigvals = _orthogonal_diagonalize(m2)
    d = np.angle(eigvals) / 2.0
    total = float(np.sum(d))
    d[0] -= math.pi * round(total / math.pi)
    coords = list(_raw_coordinates_from_phases(d))

    ap = np.diag(np.exp(1j * d))
    o2 = p.T
    o1 = up @ p @ np.diag(np.exp(-1j * d))
    if np.max(np.abs(o1.imag)) > 1e-6:
        raise SynthesisError("KAK decomposition produced a non-real left orthogonal factor")
    o1 = o1.real

    k1 = _B @ o1 @ _BD
    k2 = _B @ o2 @ _BD

    # Sanity: reconstruct before canonicalisation.
    a_mat = _B @ ap @ _BD
    recon = cmath.exp(1j * phase) * (k1 @ a_mat @ k2)
    if not allclose(recon, unitary, 1e-6):
        raise SynthesisError("KAK decomposition failed verification")

    k1, k2, coords, phase = _canonicalize_decomposition(k1, k2, coords, phase)

    g1, k1_q1, k1_q0 = kron_factor_4x4(k1)
    g2, k2_q1, k2_q0 = kron_factor_4x4(k2)
    phase = phase + cmath.phase(g1) + cmath.phase(g2)

    decomposition = WeylDecomposition(
        coords=(float(coords[0]), float(coords[1]), float(coords[2])),
        k1_q0=k1_q0,
        k1_q1=k1_q1,
        k2_q0=k2_q0,
        k2_q1=k2_q1,
        phase=float(phase),
    )
    if not allclose(decomposition.matrix(), unitary, 1e-6):
        raise SynthesisError("canonicalised KAK decomposition failed verification")
    return decomposition


_SINGLE_QUBIT_CLIFFORDS = {
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "rx+": np.array(
        [[math.cos(_QUARTER_PI), -1j * math.sin(_QUARTER_PI)],
         [-1j * math.sin(_QUARTER_PI), math.cos(_QUARTER_PI)]], dtype=complex
    ),
    "rx-": np.array(
        [[math.cos(_QUARTER_PI), 1j * math.sin(_QUARTER_PI)],
         [1j * math.sin(_QUARTER_PI), math.cos(_QUARTER_PI)]], dtype=complex
    ),
}


def _canonicalize_decomposition(
    k1: np.ndarray, k2: np.ndarray, coords: List[float], phase: float
) -> Tuple[np.ndarray, np.ndarray, List[float], float]:
    """Move the interaction coefficients into the Weyl chamber, updating the local factors."""
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]

    def shift_mod(index: int) -> None:
        nonlocal phase
        k = math.floor(coords[index] / _HALF_PI + 1e-12)
        remainder = coords[index] - k * _HALF_PI
        if remainder >= _HALF_PI - 1e-12:
            k += 1
            remainder -= _HALF_PI
        if k == 0:
            return
        coords[index] = max(remainder, 0.0) if abs(remainder) < 1e-12 else remainder
        pauli = paulis[index]
        if k % 2 == 1:
            local = kron2(pauli, pauli)
            nonlocal_update(local, None)
        phase += k * _HALF_PI  # exp(i*k*pi/2 * PP) = (i)^k (PP)^k contributes to the phase

    def nonlocal_update(left: Optional[np.ndarray], right: Optional[np.ndarray]) -> None:
        nonlocal k1, k2
        if left is not None:
            k1 = k1 @ left
        if right is not None:
            k2 = right @ k2

    def swap_coords(i: int, j: int) -> None:
        # Conjugating local that permutes the Pauli pair i <-> j while fixing the third.
        nonlocal k1, k2
        if {i, j} == {0, 1}:
            conj = _SINGLE_QUBIT_CLIFFORDS["s"]
            conj_dg = _SINGLE_QUBIT_CLIFFORDS["sdg"]
            # A(a,b,c) = (Sdg x Sdg) A(b,a,c) (S x S)
            k1 = k1 @ kron2(conj_dg, conj_dg)
            k2 = kron2(conj, conj) @ k2
        elif {i, j} == {1, 2}:
            v = _SINGLE_QUBIT_CLIFFORDS["rx+"]
            v_dg = _SINGLE_QUBIT_CLIFFORDS["rx-"]
            # A(a,b,c) = (V x V) A(a,c,b) (Vdg x Vdg)
            k1 = k1 @ kron2(v, v)
            k2 = kron2(v_dg, v_dg) @ k2
        elif {i, j} == {0, 2}:
            h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
            # A(a,b,c) = (H x H) A(c,b,a) (H x H)
            hh = kron2(h, h)
            k1 = k1 @ hh
            k2 = hh @ k2
        coords[i], coords[j] = coords[j], coords[i]

    def flip_pair(i: int, j: int) -> None:
        # Conjugation by the Pauli that anticommutes with pair i and pair j (the third Pauli).
        nonlocal k1, k2
        third = 3 - i - j
        pauli = paulis[third]
        local = kron2(PAULI_I, pauli)
        k1 = k1 @ local
        k2 = local @ k2
        coords[i] = -coords[i]
        coords[j] = -coords[j]

    def sort_desc() -> None:
        for i in range(3):
            for j in range(i + 1, 3):
                if coords[j] > coords[i] + 1e-12:
                    swap_coords(i, j)

    for _ in range(32):
        for idx in range(3):
            if coords[idx] < -1e-12 or coords[idx] >= _HALF_PI - 1e-12:
                # Shift into [0, pi/2) by multiples of pi/2.
                shift_mod(idx)
        sort_desc()
        if coords[0] + coords[1] > _HALF_PI + 1e-9:
            flip_pair(0, 1)
            continue
        if coords[2] < _CLASS_ATOL and coords[0] > _QUARTER_PI + 1e-9:
            flip_pair(0, 2)
            continue
        break
    sort_desc()
    for idx in range(3):
        if abs(coords[idx]) < 1e-9:
            coords[idx] = 0.0
    return k1, k2, coords, phase


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _core_identity(coords: Tuple[float, float, float]) -> List[QuantumCircuit]:
    return [QuantumCircuit(2, name="core0")]


def _core_single_cx(coords: Tuple[float, float, float]) -> List[QuantumCircuit]:
    circ = QuantumCircuit(2, name="core1")
    circ.cx(0, 1)
    return [circ]


def _core_two_cx(coords: Tuple[float, float, float]) -> Iterator[QuantumCircuit]:
    # Built one at a time: the first of the eight nearly always matches.
    x, y, _ = coords
    for first, second in ((x, y), (y, x)):
        for s1, s2 in itertools.product((-1.0, 1.0), repeat=2):
            circ = QuantumCircuit(2, name="core2")
            circ.cx(0, 1)
            circ.rx(s1 * 2.0 * first, 0)
            circ.rz(s2 * 2.0 * second, 1)
            circ.cx(0, 1)
            yield circ


class _ThreeCXTemplate:
    """Vatan-Williams style three-CNOT template with a cached angle convention.

    The template structure is fixed; the exact affine relation between the canonical
    coordinates and the three middle rotation angles is discovered numerically on first use
    (by matching the template's own canonical coordinates against a probe target) and cached.
    """

    _cached_variant: Optional[Tuple[int, Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]] = None

    @staticmethod
    def _build(structure: int, angles: Tuple[float, float, float]) -> QuantumCircuit:
        t1, t2, t3 = angles
        circ = QuantumCircuit(2, name="core3")
        if structure == 0:
            circ.cx(1, 0)
            circ.rz(t1, 0)
            circ.ry(t2, 1)
            circ.cx(0, 1)
            circ.ry(t3, 1)
            circ.cx(1, 0)
        else:
            circ.cx(0, 1)
            circ.rz(t1, 1)
            circ.ry(t2, 0)
            circ.cx(1, 0)
            circ.ry(t3, 0)
            circ.cx(0, 1)
        return circ

    @classmethod
    def _variants(cls):
        perms = list(itertools.permutations(range(3)))
        signs = list(itertools.product((1.0, -1.0), repeat=3))
        offsets = list(itertools.product((_HALF_PI, -_HALF_PI), repeat=3))
        for structure in (0, 1):
            for perm in perms:
                for sign in signs:
                    for offset in offsets:
                        yield structure, perm, sign, offset

    @classmethod
    def _angles_for(cls, coords, perm, sign, offset) -> Tuple[float, float, float]:
        picked = [coords[perm[0]], coords[perm[1]], coords[perm[2]]]
        return tuple(s * 2.0 * v + o for s, v, o in zip(sign, picked, offset))

    @classmethod
    def candidates(cls, coords: Tuple[float, float, float]) -> List[QuantumCircuit]:
        """Template circuits to try for the given target coordinates (cached variant first)."""
        results: List[QuantumCircuit] = []
        if cls._cached_variant is not None:
            structure, perm, sign, offset = cls._cached_variant
            results.append(cls._build(structure, cls._angles_for(coords, perm, sign, offset)))
            return results
        # First use: search for a variant that reproduces two generic probe classes, cache it.
        probes = [(0.31, 0.23, 0.11), (0.52, 0.17, 0.05)]
        for structure, perm, sign, offset in cls._variants():
            matched = True
            for probe in probes:
                circ = cls._build(structure, cls._angles_for(probe, perm, sign, offset))
                try:
                    found = weyl_coordinates(circ.to_matrix())
                except SynthesisError:
                    matched = False
                    break
                if not np.allclose(found, canonicalize_coordinates(probe), atol=1e-6):
                    matched = False
                    break
            if matched:
                cls._cached_variant = (structure, perm, sign, offset)
                return cls.candidates(coords)
        return results


def _core_three_cx(coords: Tuple[float, float, float]) -> Iterator[QuantumCircuit]:
    """The 3-CNOT template's candidates, built only once every earlier core failed."""
    yield from _ThreeCXTemplate.candidates(coords)


def _core_fallback(coords: Tuple[float, float, float]) -> Iterator[QuantumCircuit]:
    """Exact construction of ``A(x,y,z)`` with 4 CNOTs — always correct, used as a fallback.

    A generator, so the circuit is built only when every candidate core failed.
    """
    x, y, z = coords
    circ = QuantumCircuit(2, name="core_fallback")
    # exp(i(x XX + z ZZ)) = CX (Rx(-2x) on q0)(Rz(-2z) on q1) CX
    circ.cx(0, 1)
    circ.rx(-2.0 * x, 0)
    circ.rz(-2.0 * z, 1)
    circ.cx(0, 1)
    # exp(i y YY) = (S x S) . CX (Rx(-2y) on q0) CX . (Sdg x Sdg)
    circ.sdg(0)
    circ.sdg(1)
    circ.cx(0, 1)
    circ.rx(-2.0 * y, 0)
    circ.cx(0, 1)
    circ.s(0)
    circ.s(1)
    yield circ


@dataclass
class SynthesisResult:
    """Outcome of two-qubit synthesis."""

    circuit: QuantumCircuit
    cnot_count: int
    optimal: bool
    global_phase: float


#: Op count of the shortest candidate core for each target CNOT count 0..3.  A synthesis
#: for count ``T`` holds ``T`` CNOTs or more (for ``T = 2`` the 3-CNOT template follows the
#: 2-CNOT cores, and the fallback holds 4), and a synthesised circuit holds at least its
#: core, so this bounds from below the length of any synthesis with exactly ``T`` CNOTs.
SHORTEST_CORE_OPS = (0, 1, 4, 6)


class TwoQubitSynthesizer:
    """Re-synthesise arbitrary two-qubit unitaries into CNOT + single-qubit gates."""

    # -- public API ---------------------------------------------------------

    def synthesize(
        self, unitary: np.ndarray, decomposition: Optional[WeylDecomposition] = None
    ) -> SynthesisResult:
        """Return a two-qubit circuit implementing ``unitary`` up to global phase.

        ``decomposition`` is ``weyl_decompose(unitary)``, for a caller that already has it.
        """
        unitary = np.asarray(unitary, dtype=complex)
        if decomposition is None:
            decomposition = weyl_decompose(unitary)
        target_count = decomposition.cnot_count()
        coords = decomposition.coords

        if target_count == 0:
            candidate_cores = _core_identity(coords)
        elif target_count == 1:
            candidate_cores = _core_single_cx(coords)
        elif target_count == 2:
            # Coordinates just off the canonical chamber (``random_su4(807)`` reads
            # (0.376, -6.0e-7, -0.953)) can defeat all eight 2-CNOT pairings; the 3-CNOT
            # template still assembles such a unitary, within the 3-CNOT bound.
            candidate_cores = itertools.chain(_core_two_cx(coords), _core_three_cx(coords))
        else:
            candidate_cores = _core_three_cx(coords)

        # The guaranteed fallback comes last: A(a,b,c) exactly, sandwiched with the locals.
        for core in itertools.chain(candidate_cores, _core_fallback(coords)):
            built = self._assemble(unitary, core, decomposition)
            if built is not None:
                return SynthesisResult(
                    circuit=built[0],
                    cnot_count=core.cx_count(),
                    optimal=core.cx_count() == target_count,
                    global_phase=built[1],
                )
        raise SynthesisError("two-qubit synthesis fallback failed verification")

    # -- internals ----------------------------------------------------------

    def _assemble(
        self, target: np.ndarray, core: QuantumCircuit, dec_target: WeylDecomposition
    ) -> Optional[Tuple[QuantumCircuit, float]]:
        """Wrap ``core`` with single-qubit locals so the result implements ``target``."""
        try:
            core_matrix = core.to_matrix()
            dec_core = weyl_decompose(core_matrix)
        except SynthesisError:
            return None
        if not allclose(np.array(dec_target.coords), np.array(dec_core.coords), 1e-5):
            return None

        left = dec_target.k1 @ dec_core.k1.conj().T
        right = dec_core.k2.conj().T @ dec_target.k2
        phase = dec_target.phase - dec_core.phase
        candidate = cmath.exp(1j * phase) * (left @ core_matrix @ right)
        if not allclose(candidate, target, 5e-6):
            return None

        try:
            g_l, left_q1, left_q0 = kron_factor_4x4(left)
            g_r, right_q1, right_q0 = kron_factor_4x4(right)
        except SynthesisError:
            return None
        phase += cmath.phase(g_l) + cmath.phase(g_r)

        circuit = QuantumCircuit(2, name="synth2q")
        self._append_1q(circuit, right_q0, 0)
        self._append_1q(circuit, right_q1, 1)
        for inst in core.data:
            circuit.append(inst.gate, inst.qubits)
        self._append_1q(circuit, left_q0, 0)
        self._append_1q(circuit, left_q1, 1)

        # Final verification of the emitted circuit (up to global phase).
        emitted = circuit.to_matrix()
        overlap = np.trace(emitted.conj().T @ target) / 4.0
        if abs(abs(overlap) - 1.0) > 1e-5:
            return None
        return circuit, float(phase)

    @staticmethod
    def _append_1q(circuit: QuantumCircuit, matrix: np.ndarray, qubit: int) -> None:
        theta, phi, lam, _ = u_params_from_matrix(matrix)
        if abs(theta) < 1e-9 and abs(phi + lam) < 1e-9:
            return
        circuit.u(theta, phi, lam, qubit)


def synthesize_two_qubit(unitary: np.ndarray) -> QuantumCircuit:
    """Convenience wrapper returning only the synthesised circuit."""
    return TwoQubitSynthesizer().synthesize(unitary).circuit
