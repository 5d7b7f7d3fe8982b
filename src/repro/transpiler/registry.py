"""Routing-method plugin registry.

Routing used to be a hard-coded three-way string dispatch inside ``transpile()``.  The
registry turns each method into a named plugin: a factory that, given the compilation
:class:`~repro.hardware.target.Target` and :class:`~repro.core.options.TranspileOptions`,
returns the :class:`RoutingPlan` the staged pipeline builder splices into its ``layout``
and ``routing`` stages.  A routing method is one router class, a
:class:`~repro.transpiler.passes.sabre.SabreSwapRouter` subclass (NASSC is SABRE with an
optimization-aware cost and SWAP labels).  The builder, the CLI's ``--routing`` choices,
and ``TranspileJob`` validation all consult the registry, so registering a new router
makes it usable by name through every entry point at once::

    from repro.transpiler.registry import RoutingPlan, register_routing

    def my_factory(target, options):
        return RoutingPlan(MyRouter)

    register_routing("mymethod", my_factory, description="my custom router")

Third-party entry path
----------------------
Set ``REPRO_ROUTING_PLUGINS=pkg.module[,pkg2.module2]`` to have those modules imported
(once) before registry lookups; a module registers its methods at import time.  Because
the environment variable is inherited by worker processes, plugin methods work through
the batch service's process pool as well as in-process.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import TranspilerError
from .passmanager import TranspilerPass

#: Environment variable naming plugin modules to import before registry lookups.
PLUGINS_ENV = "REPRO_ROUTING_PLUGINS"


@dataclass
class RoutingPlan:
    """What one routing method contributes to a staged pipeline.

    ``router_cls`` is the method's router class;
    :meth:`~repro.transpiler.builder.PipelineBuilder.make_router` builds every router a
    compile uses from it, adding the seed, distance matrix and lookahead to
    ``router_kwargs`` (only the method's own arguments, such as NASSC's ``config``).
    ``post_routing`` passes run immediately after routing (before SWAP lowering), and
    ``use_swap_labels`` tells SWAP lowering to honour orientation labels the router
    attached (the NASSC optimization-aware decomposition).
    """

    router_cls: type
    router_kwargs: Dict = field(default_factory=dict)
    post_routing: List[TranspilerPass] = field(default_factory=list)
    use_swap_labels: bool = False


#: ``factory(target, options) -> Optional[RoutingPlan]``.  Returning ``None`` means "no
#: routing" (the connectivity-free pipeline); a factory returns a plan exactly when its
#: method is registered with ``requires_coupling=True``, which the builder checks.
RoutingFactory = Callable[..., Optional[RoutingPlan]]


@dataclass(frozen=True)
class RoutingMethod:
    """A named routing method: the factory plus registry metadata."""

    name: str
    factory: RoutingFactory
    description: str = ""
    requires_coupling: bool = True
    builtin: bool = False

    @property
    def supports_best_of(self) -> bool:
        """Whether ``TranspileOptions.best_of > 1`` runs this method under the ensemble
        engine: every method that routes (and so needs a coupling map) does."""
        return self.requires_coupling


_REGISTRY: Dict[str, RoutingMethod] = {}
_LOADED_PLUGIN_MODULES: set = set()


def register_routing(
    name: str,
    factory: RoutingFactory,
    *,
    description: str = "",
    requires_coupling: bool = True,
    replace: bool = False,
    builtin: bool = False,
) -> RoutingMethod:
    """Register a routing method under ``name`` (see the module docstring for the contract)."""
    key = str(name).lower()
    if not key:
        raise TranspilerError("routing method name must be non-empty")
    if key in _REGISTRY and not replace:
        raise TranspilerError(
            f"routing method {key!r} is already registered; pass replace=True to override"
        )
    method = RoutingMethod(
        name=key,
        factory=factory,
        description=description,
        requires_coupling=requires_coupling,
        builtin=builtin,
    )
    _REGISTRY[key] = method
    return method


def unregister_routing(name: str) -> None:
    """Remove a registered method (built-ins cannot be removed)."""
    key = str(name).lower()
    method = _REGISTRY.get(key)
    if method is None:
        raise TranspilerError(f"routing method {key!r} is not registered")
    if method.builtin:
        raise TranspilerError(f"built-in routing method {key!r} cannot be unregistered")
    del _REGISTRY[key]


def routing_registered(name: str) -> bool:
    """True if ``name`` resolves to a registered method (loading env plugins if needed)."""
    key = str(name).lower()
    if key not in _REGISTRY:
        load_plugin_modules()
    return key in _REGISTRY


def get_routing(name: str) -> RoutingMethod:
    """Look up a routing method by name, importing env-declared plugin modules on a miss."""
    key = str(name).lower()
    if key not in _REGISTRY:
        load_plugin_modules()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise TranspilerError(
            f"unknown routing method {name!r}; expected one of {available_routings()}"
        ) from None


def available_routings(*, load_plugins: bool = True) -> Tuple[str, ...]:
    """Registered method names, built-ins first, in registration order.

    ``load_plugins=False`` skips importing ``REPRO_ROUTING_PLUGINS`` modules first —
    needed by callers that run during ``import repro`` itself, where importing a plugin
    (which typically imports ``repro`` back) would deadlock on partial initialisation.
    """
    if load_plugins:
        load_plugin_modules()
    return tuple(_REGISTRY)


def registered_methods() -> Tuple[RoutingMethod, ...]:
    """All registered methods (for listings such as the CLI's ``methods`` subcommand)."""
    load_plugin_modules()
    return tuple(_REGISTRY.values())


def load_plugin_modules() -> List[str]:
    """Import the modules named in ``REPRO_ROUTING_PLUGINS`` (each at most once).

    Returns the module names imported by this call.  Import errors propagate: a broken
    plugin should fail loudly, not silently shrink the method list.
    """
    spec = os.environ.get(PLUGINS_ENV, "")
    loaded = []
    for module_name in (part.strip() for part in spec.split(",")):
        if module_name and module_name not in _LOADED_PLUGIN_MODULES:
            importlib.import_module(module_name)
            _LOADED_PLUGIN_MODULES.add(module_name)
            loaded.append(module_name)
    return loaded


# ---------------------------------------------------------------------------
# Built-in methods.  Factories import their routers lazily so the registry stays free of
# import cycles (the NASSC router lives in repro.core, which itself imports this package).
# ---------------------------------------------------------------------------

def _none_factory(target, options):
    return None


def _sabre_factory(target, options):
    from .passes.sabre import SabreSwapRouter

    return RoutingPlan(SabreSwapRouter)


def _nassc_factory(target, options):
    from ..core.nassc import NASSCSwapRouter
    from ..core.single_qubit_motion import CommuteSingleQubitsThroughSwap

    return RoutingPlan(
        NASSCSwapRouter,
        router_kwargs={"config": options.nassc_config},
        post_routing=[CommuteSingleQubitsThroughSwap()],
        use_swap_labels=True,
    )


register_routing(
    "none", _none_factory, builtin=True, requires_coupling=False,
    description="no routing — optimize the logical circuit only (the Tables' baseline column)",
)
register_routing(
    "sabre", _sabre_factory, builtin=True,
    description="SABRE lookahead routing (Li et al., ASPLOS 2019) — the paper's baseline",
)
register_routing(
    "nassc", _nassc_factory, builtin=True,
    description="NASSC optimization-aware routing (the paper's contribution)",
)
