"""Gate definitions and unitary matrices.

Conventions
-----------
* Qubit ordering is little-endian (the Qiskit convention): for an instruction applied to
  qubits ``(q0, q1)``, the matrix acts on basis states indexed ``2*b(q1) + b(q0)``.
  Consequently ``CX`` with control ``q0`` and target ``q1`` has the matrix
  ``[[1,0,0,0],[0,0,0,1],[0,0,1,0],[0,1,0,0]]``.
* All rotation gates use the physics convention ``R_P(theta) = exp(-i * theta / 2 * P)``.
* The hardware basis set used throughout the evaluation is ``{id, rz, sx, x, cx}``
  (the IBM Q basis cited by the paper).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError
from ..obs.counters import COUNTERS

#: Gates natively supported by the simulated hardware backend.
HARDWARE_BASIS: Tuple[str, ...] = ("id", "rz", "sx", "x", "cx")

#: Self-inverse gates recognised by commutative cancellation (paper Sec. III).
#: ``ch``/``cswap`` are self-inverse too (controls of self-inverse bases) and are listed
#: so :meth:`Gate.inverse` covers every named gate.
SELF_INVERSE_GATES: Tuple[str, ...] = (
    "h", "x", "y", "z", "cx", "cy", "cz", "ch", "swap", "cswap", "ccx", "id",
)

_SQ2 = 1.0 / math.sqrt(2.0)


def _u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Matrix of the generic single-qubit gate U(theta, phi, lambda)."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def _controlled(base: np.ndarray) -> np.ndarray:
    """Controlled version of a single-qubit matrix, control = first qubit (little-endian)."""
    out = np.eye(4, dtype=complex)
    # Control qubit is the first argument -> bit 0.  The |control=1> subspace is indices 1, 3.
    out[1, 1] = base[0, 0]
    out[1, 3] = base[0, 1]
    out[3, 1] = base[1, 0]
    out[3, 3] = base[1, 1]
    return out


# ---------------------------------------------------------------------------
# Static matrices
# ---------------------------------------------------------------------------

_ID = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)

_CX = _controlled(_X)
_CY = _controlled(_Y)
_CZ = _controlled(_Z)
_CH = _controlled(_H)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_DCX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex
)


def _ccx_matrix() -> np.ndarray:
    """Toffoli: controls are qubits 0 and 1, target is qubit 2 (little-endian)."""
    mat = np.eye(8, dtype=complex)
    # Indices where bit0 = bit1 = 1: 3 (011) and 7 (111); the gate flips bit 2 between them.
    mat[3, 3] = 0.0
    mat[7, 7] = 0.0
    mat[3, 7] = 1.0
    mat[7, 3] = 1.0
    return mat


def _cswap_matrix() -> np.ndarray:
    """Fredkin: control is qubit 0, swapped qubits are 1 and 2 (little-endian)."""
    mat = np.eye(8, dtype=complex)
    # Control bit0 = 1 and bits (1,2) differ: indices 3 (011) and 5 (101) are exchanged.
    mat[3, 3] = 0.0
    mat[5, 5] = 0.0
    mat[3, 5] = 1.0
    mat[5, 3] = 1.0
    return mat


_CCX = _ccx_matrix()
_CSWAP = _cswap_matrix()


# ---------------------------------------------------------------------------
# Parameterised matrices
# ---------------------------------------------------------------------------

def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2.0), 0], [0, cmath.exp(1j * theta / 2.0)]], dtype=complex
    )


def _p(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    mat = np.eye(4, dtype=complex) * c
    mat[0, 3] = mat[3, 0] = mat[1, 2] = mat[2, 1] = -1j * s
    return mat


def _ryy(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    mat = np.eye(4, dtype=complex) * c
    mat[0, 3] = mat[3, 0] = 1j * s
    mat[1, 2] = mat[2, 1] = -1j * s
    return mat


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2.0)
    e_p = cmath.exp(1j * theta / 2.0)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


# ---------------------------------------------------------------------------
# Gate specification table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Static description of a named gate type."""

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Optional[Callable[..., np.ndarray]]
    is_directive: bool = False

    def matrix(self, params: Sequence[float]) -> np.ndarray:
        if self.matrix_fn is None:
            raise CircuitError(f"gate '{self.name}' has no unitary matrix")
        if len(params) != self.num_params:
            raise CircuitError(
                f"gate '{self.name}' expects {self.num_params} parameter(s), got {len(params)}"
            )
        return self.matrix_fn(*params)


GATE_SPECS: Dict[str, GateSpec] = {
    "id": GateSpec("id", 1, 0, lambda: _ID.copy()),
    "x": GateSpec("x", 1, 0, lambda: _X.copy()),
    "y": GateSpec("y", 1, 0, lambda: _Y.copy()),
    "z": GateSpec("z", 1, 0, lambda: _Z.copy()),
    "h": GateSpec("h", 1, 0, lambda: _H.copy()),
    "s": GateSpec("s", 1, 0, lambda: _S.copy()),
    "sdg": GateSpec("sdg", 1, 0, lambda: _SDG.copy()),
    "t": GateSpec("t", 1, 0, lambda: _T.copy()),
    "tdg": GateSpec("tdg", 1, 0, lambda: _TDG.copy()),
    "sx": GateSpec("sx", 1, 0, lambda: _SX.copy()),
    "sxdg": GateSpec("sxdg", 1, 0, lambda: _SXDG.copy()),
    "rx": GateSpec("rx", 1, 1, _rx),
    "ry": GateSpec("ry", 1, 1, _ry),
    "rz": GateSpec("rz", 1, 1, _rz),
    "p": GateSpec("p", 1, 1, _p),
    "u1": GateSpec("u1", 1, 1, _p),
    "u2": GateSpec("u2", 1, 2, lambda phi, lam: _u_matrix(math.pi / 2.0, phi, lam)),
    "u3": GateSpec("u3", 1, 3, _u_matrix),
    "u": GateSpec("u", 1, 3, _u_matrix),
    "cx": GateSpec("cx", 2, 0, lambda: _CX.copy()),
    "cy": GateSpec("cy", 2, 0, lambda: _CY.copy()),
    "cz": GateSpec("cz", 2, 0, lambda: _CZ.copy()),
    "ch": GateSpec("ch", 2, 0, lambda: _CH.copy()),
    "swap": GateSpec("swap", 2, 0, lambda: _SWAP.copy()),
    "iswap": GateSpec("iswap", 2, 0, lambda: _ISWAP.copy()),
    "dcx": GateSpec("dcx", 2, 0, lambda: _DCX.copy()),
    "cp": GateSpec("cp", 2, 1, lambda theta: _controlled(_p(theta))),
    "cu1": GateSpec("cu1", 2, 1, lambda theta: _controlled(_p(theta))),
    "crx": GateSpec("crx", 2, 1, lambda theta: _controlled(_rx(theta))),
    "cry": GateSpec("cry", 2, 1, lambda theta: _controlled(_ry(theta))),
    "crz": GateSpec("crz", 2, 1, lambda theta: _controlled(_rz(theta))),
    "rxx": GateSpec("rxx", 2, 1, _rxx),
    "ryy": GateSpec("ryy", 2, 1, _ryy),
    "rzz": GateSpec("rzz", 2, 1, _rzz),
    "ccx": GateSpec("ccx", 3, 0, lambda: _CCX.copy()),
    "cswap": GateSpec("cswap", 3, 0, lambda: _CSWAP.copy()),
    "measure": GateSpec("measure", 1, 0, None, is_directive=True),
    "reset": GateSpec("reset", 1, 0, None, is_directive=True),
    "barrier": GateSpec("barrier", 0, 0, None, is_directive=True),
    # A gate defined only by its explicit unitary matrix (used by synthesis passes).
    "unitary": GateSpec("unitary", 0, 0, None),
}

#: Names of the non-unitary directive pseudo-gates (hot-path set lookup for
#: :attr:`Gate.is_unitary`, which the routers and estimators query per gate per step).
_DIRECTIVE_NAMES = frozenset(
    name for name, spec in GATE_SPECS.items() if spec.is_directive
)

_INVERSE_NAME: Dict[str, str] = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
}

_NEGATE_PARAM_INVERSE = {
    "rx", "ry", "rz", "p", "u1", "cp", "cu1", "crx", "cry", "crz", "rxx", "ryy", "rzz",
}


@lru_cache(maxsize=4096)
def _shared_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Shared per-``(name, params)`` matrix cache (read-only arrays).

    Every :meth:`Gate.matrix` call for a named gate is served from here, so synthesis,
    commutation checks and the simulator stop re-allocating identical 2x2/4x4 arrays.
    The arrays are marked non-writeable: callers that need a private mutable copy must
    take one explicitly.
    """
    matrix = GATE_SPECS[name].matrix(params)
    matrix.flags.writeable = False
    return matrix


def _matrix_cache_counters() -> Dict[str, int]:
    info = _shared_matrix.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


COUNTERS.register_provider("cache.gate_matrix", _matrix_cache_counters)


#: Writes a field of a :class:`Gate`, whose own ``__setattr__`` refuses every write.
#: Setting the fields in one order (rather than through ``__dict__``) keeps the
#: interpreter's compact shared-key layout for gate instances.
_set_field = object.__setattr__


@dataclass(init=False)
class Gate:
    """A concrete gate: a named operation with bound parameters.

    ``matrix`` is available for every unitary gate.  Gates named ``unitary`` carry an
    explicit matrix (produced by the synthesis passes) instead of a formula.

    Every gate is immutable: attribute assignment raises once it is constructed, and an
    explicit matrix is held as a private read-only array.  One instance can therefore be
    shared by any number of instructions, DAG nodes and circuits: :meth:`copy` returns
    the gate itself, and :meth:`with_label` builds a fresh gate carrying another label.
    Parameterless standard gates built through :func:`gate` are *interned flyweights*:
    ``gate("x") is gate("x")``.
    """

    name: str
    params: Tuple[float, ...] = ()
    _matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    label: Optional[str] = None

    def __init__(
        self,
        name: str,
        params: Sequence[float] = (),
        matrix: Optional[np.ndarray] = None,
        label: Optional[str] = None,
    ) -> None:
        spec = GATE_SPECS.get(name)
        if spec is None:
            raise CircuitError(f"unknown gate '{name}'")
        params = tuple(float(p) for p in params)
        if name == "unitary":
            if matrix is None:
                raise CircuitError("a 'unitary' gate requires an explicit matrix")
            matrix = np.array(matrix, dtype=complex)
            dim = matrix.shape[0]
            if matrix.shape != (dim, dim) or dim & (dim - 1):
                raise CircuitError("unitary gate matrix must be square with power-of-two size")
            matrix.flags.writeable = False
        elif not spec.is_directive and len(params) != spec.num_params:
            raise CircuitError(
                f"gate '{name}' expects {spec.num_params} parameter(s), got {len(params)}"
            )
        _set_field(self, "name", name)
        _set_field(self, "params", params)
        _set_field(self, "_matrix", matrix)
        _set_field(self, "label", label)

    def __setattr__(self, key: str, value) -> None:
        raise CircuitError(f"gate '{self.name}' is immutable; build a fresh Gate instead")

    def __delattr__(self, key: str) -> None:
        raise CircuitError(f"gate '{self.name}' is immutable; build a fresh Gate instead")

    @classmethod
    def trusted(cls, name: str, params: Tuple[float, ...]) -> "Gate":
        """Validation-free constructor for a named gate the caller has already checked.

        Used by the QASM reader, which checks the name and the parameter count itself;
        ``params`` must already be a tuple of floats.  The result equals
        ``Gate(name, params)``: a fresh, non-interned instance.
        """
        instance = object.__new__(cls)
        _set_field(instance, "name", name)
        _set_field(instance, "params", params)
        _set_field(instance, "_matrix", None)
        _set_field(instance, "label", None)
        return instance

    # -- basic properties ---------------------------------------------------

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        if self.name == "unitary":
            return int(round(math.log2(self._matrix.shape[0])))
        if self.name == "barrier":
            raise CircuitError("barrier has no fixed qubit count")
        return self.spec.num_qubits

    @property
    def is_directive(self) -> bool:
        return self.name in _DIRECTIVE_NAMES

    @property
    def is_unitary(self) -> bool:
        return self.name not in _DIRECTIVE_NAMES

    @property
    def cache_token(self) -> Tuple[str, Tuple[float, ...]]:
        """Stable identity key for memoisation tables keyed on gate content.

        Computed once per instance (and once *ever* for interned flyweights); callers
        that used to rebuild ``(name, rounded params)`` tuples per lookup should key on
        this instead.  Explicit-matrix ``unitary`` gates have no content token and raise.
        """
        token = self.__dict__.get("_token")
        if token is None:
            if self.name == "unitary":
                raise CircuitError("explicit-matrix 'unitary' gates have no cache token")
            token = (self.name, self.params)
            _set_field(self, "_token", token)
        return token

    # -- matrices and inverses ----------------------------------------------

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (little-endian qubit ordering).

        Named gates are served from the shared per-``(name, params)`` cache and are
        **read-only**; take ``.copy()`` for a private mutable array.
        """
        if self.name == "unitary":
            return self._matrix.copy()
        return _shared_matrix(self.name, self.params)

    def inverse(self) -> "Gate":
        """Return a gate implementing the inverse unitary."""
        if self.is_directive:
            raise CircuitError(f"cannot invert directive '{self.name}'")
        if self.name == "unitary":
            return Gate("unitary", (), self._matrix.conj().T)
        if self.name in SELF_INVERSE_GATES:
            return gate(self.name, *self.params)
        if self.name in _INVERSE_NAME:
            return gate(_INVERSE_NAME[self.name])
        if self.name in _NEGATE_PARAM_INVERSE:
            return Gate(self.name, tuple(-p for p in self.params))
        if self.name in ("u", "u3"):
            theta, phi, lam = self.params
            return Gate(self.name, (-theta, -lam, -phi))
        if self.name == "u2":
            phi, lam = self.params
            return Gate("u3", (-math.pi / 2.0, -lam, -phi))
        if self.name in ("iswap", "dcx"):
            return Gate("unitary", (), self.matrix().conj().T)
        raise CircuitError(f"no inverse rule for gate '{self.name}'")

    def copy(self) -> "Gate":
        """The gate itself: gates are immutable, so sharing one is always safe."""
        return self

    def with_label(self, label: Optional[str]) -> "Gate":
        """A fresh (non-interned) instance of this gate carrying ``label``."""
        return Gate(self.name, self.params, self._matrix, label)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.params:
            args = ", ".join(f"{p:.4g}" for p in self.params)
            return f"Gate({self.name}({args}))"
        return f"Gate({self.name})"


# Convenience constructors -----------------------------------------------------------------

#: Interned flyweight instances of the parameterless standard gates, keyed by name.
_INTERNED_GATES: Dict[str, Gate] = {}


def _intern(name: str) -> Gate:
    instance = _INTERNED_GATES.get(name)
    if instance is None:
        instance = Gate(name, ())
        instance.cache_token  # materialise the memo key once for every user
        _INTERNED_GATES[name] = instance
    return instance


def gate(name: str, *params: float) -> Gate:
    """Build a standard gate by name, e.g. ``gate('rz', 0.5)``.

    Parameterless gates are interned: ``gate('x') is gate('x')``; use
    :meth:`Gate.with_label` for a labelled instance.
    """
    if not params and name != "unitary" and name in GATE_SPECS:
        return _intern(name)
    return Gate(name, tuple(params))


def unitary_gate(matrix: np.ndarray, label: Optional[str] = None) -> Gate:
    """Build an explicit-matrix gate (used by the re-synthesis passes)."""
    return Gate("unitary", (), matrix, label)
