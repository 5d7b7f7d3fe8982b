"""Job specifications for the batch transpilation service.

A :class:`TranspileJob` is a fully self-contained, JSON-serialisable description of one
``transpile()`` call: the circuit (as OpenQASM 2.0 text), one device
:class:`~repro.hardware.target.Target` and one
:class:`~repro.core.options.TranspileOptions`.  Its :meth:`~TranspileJob.to_dict` form
``{"qasm", "target", "options", "name"}`` is the one wire format of a job: the body of
``POST /v1/jobs``, the entries of ``/v1/batch``, what the fleet coordinator forwards and
what both process pools ship to their workers.  Because the spec is pure data it is also
content-addressed: :meth:`TranspileJob.fingerprint` hashes the canonical JSON form built
from the target's and the options' ``content_dict()``, so two jobs that would produce
byte-identical results share one fingerprint regardless of where or when they were
built.  The fingerprint is the key of the service's result cache.

The job's routing method is validated against the routing registry at construction, so a
typo'd or unregistered method fails before any work is scheduled; third-party methods
registered via ``register_routing`` (or the ``REPRO_ROUTING_PLUGINS`` module path) pass
the same validation and run through the same executor and cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..circuit import qasm
from ..circuit.circuit import QuantumCircuit
from ..core.options import TranspileOptions
from ..core.pipeline import PIPELINE_VERSION, TranspileResult, resolve_target, transpile
from ..exceptions import TranspilerError
from ..hardware.target import Target
from ..transpiler.registry import get_routing

#: Bump when the job *schema* changes in a way that invalidates cached results.  Version 3
#: switched the canonical content to the Target/TranspileOptions ``content_dict()`` forms;
#: version 4 added the schedule mode and routing cost model to the options content.
#: The fingerprint additionally folds in :data:`repro.core.pipeline.PIPELINE_VERSION`, so
#: pipeline refactors invalidate the cache without touching the service layer.
FINGERPRINT_VERSION = 4


@dataclass(frozen=True)
class TranspileJob:
    """One unit of work for the batch transpiler (a single ``transpile()`` call).

    ``device`` and ``settings`` are the compile's :class:`Target` and
    :class:`TranspileOptions`, read through :meth:`target` and :meth:`options`; a
    ``None`` device is the abstract all-to-all target.  ``name`` is a display label only
    and does not enter the fingerprint, so identically-configured jobs share cache
    entries whatever they are called.
    """

    qasm: str
    device: Target = field(default_factory=Target)
    settings: TranspileOptions = field(default_factory=TranspileOptions)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "device", resolve_target(self.device))
        if not isinstance(self.settings, TranspileOptions):
            raise TranspilerError(
                f"options must be a TranspileOptions, got {type(self.settings).__name__}"
            )
        get_routing(self.settings.routing)  # validate against the registry; raises TranspilerError

    @classmethod
    def from_circuit(
        cls,
        circuit: QuantumCircuit,
        target: Optional[Target] = None,
        options: Optional[TranspileOptions] = None,
        *,
        name: Optional[str] = None,
        **overrides,
    ) -> "TranspileJob":
        """Build a job spec from live objects (mirrors ``transpile()``'s signature).

        Keyword ``overrides`` replace the corresponding ``options`` fields.
        """
        settings = options if options is not None else TranspileOptions()
        if overrides:
            settings = settings.replace(**overrides)
        label = name if name is not None else (circuit.name or "")
        return cls(qasm.dumps(circuit), target, settings, label)

    def target(self) -> Target:
        """The compilation target."""
        return self.device

    def options(self) -> TranspileOptions:
        """The compilation options."""
        return self.settings

    # -- content addressing -------------------------------------------------

    def content_dict(self) -> Dict:
        """The canonical content of the job (everything that influences the result).

        The target's and the options' canonical dicts are the fingerprint input, so any
        change to a device property (coupling map, calibration, output basis) or to a
        compile option (method, level, seed, heuristic knobs) produces a new cache key.
        """
        return {
            "version": FINGERPRINT_VERSION,
            "pipeline_version": PIPELINE_VERSION,
            "qasm": self.qasm,
            "target": self.device.content_dict(),
            "options": self.settings.content_dict(),
        }

    def fingerprint(self) -> str:
        """Deterministic content hash of the job (sha256 over canonical JSON).

        Stable across processes and machines: the hash covers only the canonical JSON
        serialisation, never object identities, and ``name`` is excluded.  Recomputed on
        every call (it folds in the module-level pipeline version); hot paths such as
        the server's admission flow compute it once and pass it along explicitly.
        """
        canonical = json.dumps(self.content_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """The job's wire form ``{"qasm", "target", "options", "name"}`` (see module docstring)."""
        return {
            "qasm": self.qasm,
            "target": self.device.to_dict(),
            "options": self.settings.to_dict(),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TranspileJob":
        """Rebuild a job from :meth:`to_dict` output."""
        return cls(
            data["qasm"],
            Target.from_dict(data["target"]),
            TranspileOptions.from_dict(data["options"]),
            data.get("name", ""),
        )

    # -- execution ----------------------------------------------------------

    def build_circuit(self) -> QuantumCircuit:
        circuit = qasm.loads(self.qasm)
        if self.name:
            circuit.name = self.name
        return circuit

    def run(self) -> TranspileResult:
        """Execute the job in the current process and return the live result."""
        return transpile(self.build_circuit(), self.device, self.settings)


@dataclass(frozen=True)
class JobError:
    """Structured record of a job that raised instead of producing a result."""

    fingerprint: str
    job_name: str
    exc_type: str
    message: str
    traceback: str = ""

    def to_dict(self) -> Dict:
        return {
            "fingerprint": self.fingerprint,
            "job_name": self.job_name,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobError":
        return cls(
            fingerprint=data["fingerprint"],
            job_name=data.get("job_name", ""),
            exc_type=data.get("exc_type", "Exception"),
            message=data.get("message", ""),
            traceback=data.get("traceback", ""),
        )

    def __str__(self) -> str:
        label = self.job_name or self.fingerprint[:12]
        return f"{label}: {self.exc_type}: {self.message}"


@dataclass
class JobOutcome:
    """The terminal state of one submitted job: a result, or a structured error."""

    job: TranspileJob
    fingerprint: str
    result: Optional[TranspileResult] = None
    error: Optional[JobError] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> TranspileResult:
        """The result, raising a ``RuntimeError`` if the job failed."""
        if self.error is not None:
            raise RuntimeError(f"transpile job failed -- {self.error}")
        assert self.result is not None
        return self.result

