"""The :class:`Target`: one immutable description of the device being compiled for.

A single JSON-round-trippable object, mirroring Qiskit's device-target design: one place
that answers "what device am I compiling for?" for the pipeline builder, the routing
plugins, the batch service's content-addressed cache, and the CLI.

A target is immutable after construction; derived data (the noise-aware distance matrix)
is built lazily and memoised, so passing one target through a whole batch of compiles
never recomputes device analysis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..exceptions import ReproError
from .calibration import DeviceCalibration, synthetic_calibration
from .coupling import CouplingMap
from .noise_distance import duration_distance_matrix, noise_aware_distance_matrix
from .topologies import get_topology


@dataclass(frozen=True, eq=False)
class Target:
    """Immutable, serialisable description of a compilation target.

    Parameters
    ----------
    coupling_map:
        Device connectivity.  ``None`` describes an abstract all-to-all target (no
        routing constraint; only ``routing="none"`` pipelines accept it).
    calibration:
        Optional per-qubit/per-link calibration data.  Required for noise-aware routing;
        its presence is what lets optimization level ``O3`` switch on noise-aware layout.
    final_basis:
        Single-qubit basis of the compiled output (``"zsx"`` or ``"u"``).
    name:
        Display name; defaults to the coupling map's name.
    """

    coupling_map: Optional[CouplingMap] = None
    calibration: Optional[DeviceCalibration] = None
    final_basis: str = "zsx"
    name: str = ""
    _noise_distance: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _duration_distance: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.coupling_map is None and self.calibration is not None:
            object.__setattr__(self, "coupling_map", self.calibration.coupling_map)
        if not self.name:
            derived = self.coupling_map.name if self.coupling_map is not None else "abstract"
            object.__setattr__(self, "name", derived)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_topology(
        cls,
        topology: str,
        num_qubits: int = 25,
        *,
        calibrated: bool = False,
        calibration_seed: Optional[int] = 1234,
        final_basis: str = "zsx",
    ) -> "Target":
        """Build a target for one of the named evaluation topologies.

        ``calibrated=True`` attaches the deterministic synthetic calibration (the same
        data the noise-aware CLI path has always used).
        """
        coupling = get_topology(topology, num_qubits)
        calibration = synthetic_calibration(coupling, seed=calibration_seed) if calibrated else None
        return cls(coupling_map=coupling, calibration=calibration, final_basis=final_basis)

    # -- basic queries -------------------------------------------------------

    @property
    def num_qubits(self) -> Optional[int]:
        return self.coupling_map.num_qubits if self.coupling_map is not None else None

    @property
    def has_coupling(self) -> bool:
        return self.coupling_map is not None

    @property
    def has_calibration(self) -> bool:
        return self.calibration is not None

    def distance_matrix(self) -> np.ndarray:
        """Hop-count all-pairs distance matrix of the device (cached by the coupling map)."""
        if self.coupling_map is None:
            raise ReproError("target has no coupling map")
        return self.coupling_map.distance_matrix()

    def noise_distance_matrix(self) -> np.ndarray:
        """The HA noise-aware distance matrix, built lazily from the calibration and memoised."""
        if self.calibration is None:
            raise ReproError(f"target {self.name!r} has no calibration data")
        if self._noise_distance is None:
            object.__setattr__(
                self, "_noise_distance", noise_aware_distance_matrix(self.calibration)
            )
        return self._noise_distance

    def duration_distance_matrix(self) -> np.ndarray:
        """The nanosecond-cost routing distance matrix, built lazily and memoised.

        Used by ``TranspileOptions(route_cost="ns")`` pipelines: SWAP candidates are
        scored by the duration-weighted distance of the links they would cross.
        """
        if self.calibration is None:
            raise ReproError(f"target {self.name!r} has no calibration data")
        if self._duration_distance is None:
            object.__setattr__(
                self, "_duration_distance", duration_distance_matrix(self.calibration)
            )
        return self._duration_distance

    # -- serialization and content addressing --------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe representation; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "final_basis": self.final_basis,
            "coupling_map": self.coupling_map.to_dict() if self.coupling_map else None,
            "calibration": self.calibration.to_dict() if self.calibration else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Target":
        """Rebuild a target from :meth:`to_dict` output; an unknown key raises."""
        unknown = set(data) - {"name", "final_basis", "coupling_map", "calibration"}
        if unknown:
            raise ReproError(f"unknown Target key(s): {', '.join(sorted(unknown))}")
        coupling = data.get("coupling_map")
        calibration = data.get("calibration")
        return cls(
            coupling_map=CouplingMap.from_dict(coupling) if coupling else None,
            calibration=DeviceCalibration.from_dict(calibration) if calibration else None,
            final_basis=data.get("final_basis", "zsx"),
            name=data.get("name", ""),
        )

    def content_dict(self) -> Dict:
        """Canonical content of the target (everything that can influence compiled output).

        The display-only ``name`` is excluded: two targets describing the same device
        compare equal and fingerprint identically whatever they are called.
        """
        data = self.to_dict()
        del data["name"]
        return data

    def fingerprint(self) -> str:
        """Deterministic sha256 content hash (stable across processes and machines)."""
        canonical = json.dumps(self.content_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Target):
            return NotImplemented
        return self.content_dict() == other.content_dict()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        qubits = self.num_qubits if self.num_qubits is not None else "?"
        calibrated = "calibrated" if self.has_calibration else "uncalibrated"
        return f"Target(name={self.name!r}, qubits={qubits}, {calibrated}, basis={self.final_basis!r})"
