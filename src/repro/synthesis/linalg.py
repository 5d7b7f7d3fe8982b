"""Linear-algebra helpers shared by the synthesis routines."""

from __future__ import annotations

import cmath
import math
from typing import Optional, Tuple

import numpy as np

from ..exceptions import SynthesisError

#: Magic (Bell) basis transformation used by the Weyl/KAK decomposition.
MAGIC_BASIS = (1.0 / math.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_I = np.eye(2, dtype=complex)


#: Default relative tolerance of :func:`numpy.allclose`.  Every fast path that replicates
#: an ``allclose`` predicate (here and in ``optimize_1q``) imports this single constant so
#: the tolerance contract cannot silently diverge.
ALLCLOSE_RTOL = 1.0e-5


def allclose(a: np.ndarray, b, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)`` without the argument dispatch that dominates on 4x4.

    numpy's own ``isclose`` predicate, ``(|a - b| <= atol + rtol*|b|) & isfinite(b) |
    (a == b)``, with the default ``rtol``, so every verdict is the one ``np.allclose``
    gives.  ``a`` is an array; ``b`` an inexact array or a Python float.  numpy silences
    the invalid-value warning that non-finite input raises; this does not.
    """
    return bool(((abs(a - b) <= atol + ALLCLOSE_RTOL * abs(b)) & np.isfinite(b) | (a == b)).all())


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices, without its generic shape handling.

    Every entry is the same single product ``a[i, j] * b[k, l]`` that ``np.kron`` forms,
    broadcast the same way, so the result is bitwise equal.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def is_unitary(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """True if the matrix is unitary within tolerance."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if matrix.shape == (2, 2):
        # Scalar 2x2 path (the single-qubit synthesis hot loop): same product, same
        # ``allclose`` predicate (|x - y| <= atol + rtol*|y| against the identity),
        # without the ~50us ufunc dispatch of the array route.
        a, b = complex(matrix[0, 0]), complex(matrix[0, 1])
        c, d = complex(matrix[1, 0]), complex(matrix[1, 1])
        p00 = a * a.conjugate() + b * b.conjugate()
        p01 = a * c.conjugate() + b * d.conjugate()
        p11 = c * c.conjugate() + d * d.conjugate()
        diag_tol = tol + ALLCLOSE_RTOL
        # The (1, 0) product entry is exactly conj(p01), so |p01| covers both.
        return (
            abs(p00 - 1.0) <= diag_tol
            and abs(p11 - 1.0) <= diag_tol
            and abs(p01) <= tol
        )
    return allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]), tol)


def global_phase_between(target: np.ndarray, candidate: np.ndarray) -> Optional[float]:
    """Phase ``gamma`` such that ``target ~= exp(i*gamma) * candidate``, or None."""
    target = np.asarray(target, dtype=complex)
    candidate = np.asarray(candidate, dtype=complex)
    if target.shape != candidate.shape:
        return None
    # Use the largest-magnitude entry of candidate to estimate the relative phase.
    idx = np.unravel_index(np.argmax(np.abs(candidate)), candidate.shape)
    if abs(candidate[idx]) < 1e-12:
        return None
    phase = target[idx] / candidate[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return None
    return float(np.angle(phase))


def allclose_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    """True if ``a`` equals ``b`` up to a global phase."""
    phase = global_phase_between(a, b)
    if phase is None:
        return False
    return bool(np.allclose(a, np.exp(1j * phase) * b, atol=tol))


def closest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Project a nearly-unitary matrix onto the unitary group (polar decomposition)."""
    v, _, wh = np.linalg.svd(matrix)
    return v @ wh


def kron_factor_4x4(matrix: np.ndarray, tol: float = 1e-6) -> Tuple[complex, np.ndarray, np.ndarray]:
    """Factor a 4x4 matrix as ``g * kron(A, B)``.

    In the little-endian convention used by this package, a product operator acting with
    ``B`` on qubit 0 and ``A`` on qubit 1 has matrix ``kron(A, B)``.  Raises
    :class:`SynthesisError` if the matrix is not (close to) a product operator.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise SynthesisError("kron_factor_4x4 expects a 4x4 matrix")
    # Rearrange M[2*i1+i0, 2*j1+j0] -> R[(i1,j1), (i0,j0)] and find the best rank-1 factor.
    reshaped = matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(reshaped)
    if s[1] > tol * max(s[0], 1.0):
        raise SynthesisError("matrix is not a tensor product of single-qubit operators")
    a = u[:, 0].reshape(2, 2) * math.sqrt(s[0])
    b = vh[0, :].reshape(2, 2) * math.sqrt(s[0])
    # Normalise so that A and B are unitary and the residual scale goes to the global factor.
    norm_a = np.sqrt(abs(np.linalg.det(a)))
    norm_b = np.sqrt(abs(np.linalg.det(b)))
    if norm_a < 1e-12 or norm_b < 1e-12:
        raise SynthesisError("degenerate tensor factor")
    a_unit = a / norm_a
    b_unit = b / norm_b
    g = complex(norm_a * norm_b)
    # Absorb any residual phase mismatch into g.
    product = kron2(a_unit, b_unit)
    phase = global_phase_between(matrix, g * product)
    if phase is None:
        raise SynthesisError("tensor factorisation failed")
    g *= cmath.exp(1j * phase)
    if not allclose(matrix, g * product, 1e-6):
        raise SynthesisError("tensor factorisation verification failed")
    return g, a_unit, b_unit


def fidelity_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance ``1 - |tr(A^dag B)| / dim`` (0 when equal up to global phase)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0]
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / dim)
