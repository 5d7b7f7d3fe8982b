"""Compilation options: the :class:`TranspileOptions` frozen dataclass.

``TranspileOptions`` is one immutable value object that

* selects the preset optimization level (``O0``-``O3``) and the routing method (by
  registry name, so third-party routers plug in without touching this module),
* carries every knob that influences compiled output, and
* serialises canonically — its :meth:`content_dict` is the fingerprint input of the
  batch service's content-addressed result cache.

Device-side configuration (coupling map, calibration, output basis) lives on the
:class:`~repro.hardware.target.Target`, not here: options say *how* to compile, the
target says *for what*.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..exceptions import ScheduleError, TranspilerError
from ..schedule.modes import normalize_schedule_mode
from .nassc import NASSCConfig

#: Preset optimization levels, lowest to highest effort.
OPTIMIZATION_LEVELS: Tuple[str, ...] = ("O0", "O1", "O2", "O3")

LEVEL_DESCRIPTIONS: Dict[str, str] = {
    "O0": "decompose and route only — no optimization passes",
    "O1": "the paper's Fig. 2 pipeline (pre-routing cleanup + post-routing re-synthesis loop)",
    "O2": "O1 with a deeper post-routing fixed-point optimization loop",
    "O3": "O2 plus noise-aware layout/routing whenever the target carries calibration data",
}

#: Trials ``O3`` runs by default when ``best_of`` is left unset (the highest preset
#: buys the best circuit the seed space offers; trials that fall behind are pruned).
O3_DEFAULT_BEST_OF = 4

#: Supported routing cost models: unit hop count, or nanoseconds of inserted SWAP time.
ROUTE_COSTS: Tuple[str, ...] = ("hops", "ns")


def normalize_level(level: Union[str, int]) -> str:
    """Canonicalise a level spelling (``1``, ``"1"``, ``"o1"`` → ``"O1"``)."""
    if isinstance(level, int):
        candidate = f"O{level}"
    else:
        text = str(level).strip().upper()
        candidate = text if text.startswith("O") else f"O{text}"
    if candidate not in OPTIMIZATION_LEVELS:
        raise TranspilerError(
            f"unknown optimization level {level!r}; expected one of {OPTIMIZATION_LEVELS}"
        )
    return candidate


@dataclass(frozen=True)
class TranspileOptions:
    """How to compile: routing method, preset level, seed and heuristic knobs.

    All fields are immutable; derive variants with :meth:`replace`.  ``routing`` names a
    method in :mod:`repro.transpiler.registry`; it is resolved when a pipeline is built,
    so options may be created before a third-party method is registered.
    """

    routing: str = "sabre"
    level: str = "O1"
    seed: Optional[int] = None
    nassc_config: Optional[NASSCConfig] = None
    noise_aware: bool = False
    extended_set_size: int = 20
    extended_set_weight: float = 0.5
    layout_iterations: int = 2
    check: bool = True
    #: Route this many independent seeds and keep the best circuit.  ``None`` means
    #: "preset default": 1 everywhere except ``O3``, which runs
    #: :data:`O3_DEFAULT_BEST_OF` trials.  Methods that opt out (``none``) ignore it.
    best_of: Optional[int] = None
    #: Lower the compiled circuit to a timed schedule: ``"asap"``, ``"alap"``, or
    #: ``None`` (default — no schedule stage runs and compiled output is untouched).
    #: Requires a calibrated target.
    schedule: Optional[str] = None
    #: SWAP-candidate cost model for routing: ``"hops"`` (unit cost, the default) or
    #: ``"ns"`` (candidates scored by the nanoseconds of inserted SWAP time on their
    #: specific links; requires a calibrated target).
    route_cost: str = "hops"

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", normalize_level(self.level))
        if self.nassc_config is not None and not isinstance(self.nassc_config, NASSCConfig):
            object.__setattr__(self, "nassc_config", NASSCConfig(*self.nassc_config))
        if self.best_of is not None:
            if not isinstance(self.best_of, int) or isinstance(self.best_of, bool):
                raise TranspilerError(f"best_of must be an integer, got {self.best_of!r}")
            if self.best_of < 1:
                raise TranspilerError(f"best_of must be >= 1, got {self.best_of}")
        if self.schedule is not None:
            try:
                object.__setattr__(self, "schedule", normalize_schedule_mode(self.schedule))
            except ScheduleError as exc:
                raise TranspilerError(str(exc)) from exc
        if self.route_cost not in ROUTE_COSTS:
            raise TranspilerError(
                f"unknown route_cost {self.route_cost!r}; expected one of {ROUTE_COSTS}"
            )
        if self.route_cost == "ns" and self.noise_aware:
            raise TranspilerError(
                "route_cost='ns' and noise_aware=True are mutually exclusive: both "
                "replace the routing distance matrix; pick one cost model"
            )

    @property
    def effective_best_of(self) -> int:
        """The trial count actually run: explicit ``best_of``, else the preset default."""
        if self.best_of is not None:
            return self.best_of
        return O3_DEFAULT_BEST_OF if self.level == "O3" else 1

    def replace(self, **changes) -> "TranspileOptions":
        """A copy with the given fields replaced (options are immutable)."""
        return dataclasses.replace(self, **changes)

    # -- serialization and content addressing --------------------------------

    def content_dict(self) -> Dict:
        """Canonical JSON-safe content (the cache-fingerprint contribution of the options)."""
        return {
            "routing": self.routing,
            "level": self.level,
            "seed": self.seed,
            "nassc_config": list(self.nassc_config.as_tuple()) if self.nassc_config else None,
            "noise_aware": bool(self.noise_aware),
            "extended_set_size": int(self.extended_set_size),
            "extended_set_weight": float(self.extended_set_weight),
            "layout_iterations": int(self.layout_iterations),
            "check": bool(self.check),
            # The *effective* value: explicit best_of and the preset default that
            # resolves to the same trial count must hit the same cache entry.
            "best_of": int(self.effective_best_of),
            "schedule": self.schedule,
            "route_cost": self.route_cost,
        }

    def to_dict(self) -> Dict:
        """JSON-safe representation; round-trips through :meth:`from_dict`.

        Unlike :meth:`content_dict` (which canonicalises ``best_of`` to the effective
        trial count so equal-behaviour options share a cache fingerprint), this keeps
        the raw field so ``from_dict(to_dict(o)) == o`` exactly.
        """
        data = self.content_dict()
        data["best_of"] = self.best_of
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "TranspileOptions":
        """Rebuild options from :meth:`to_dict` output; absent keys take their defaults.

        An unknown key raises instead of being ignored, so a misspelt knob in a
        submission fails loudly rather than compiling with the default.
        """
        unknown = set(data) - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise TranspilerError(f"unknown TranspileOptions key(s): {', '.join(sorted(unknown))}")
        return cls(**data)
