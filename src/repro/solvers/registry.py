"""Decorator-based registry of solvers.

Every algorithm family of the paper (PostOrder and its child-ordering rules,
Liu's exact algorithm, the MinMem/Explore pair, and the MinIO eviction
heuristics) is registered here under a canonical lowercase name, together
with optional aliases (``"PostOrder"``, ``"Liu"``, ``"MinMem"`` keep the
historical spellings used by :mod:`repro.analysis.experiments` and the CLI).

A *solver* is any callable ``(tree, **options) -> SolveReport``; the
:class:`Solver` protocol documents the shape.  Third-party code can plug its
own algorithms into :func:`repro.solvers.solve` by decorating a function with
:func:`register_solver`::

    from repro.solvers import register_solver, SolveReport

    @register_solver("my_alg", family="minmemory", summary="my traversal")
    def my_alg(tree, **options) -> SolveReport:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

try:  # Protocol is 3.8+; keep a soft fallback for exotic interpreters.
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from ..core.tree import Tree

__all__ = [
    "Solver",
    "SolverSpec",
    "UnknownSolverError",
    "UnknownOptionError",
    "register_solver",
    "get_solver",
    "list_solvers",
    "solver_table",
]


class UnknownSolverError(ValueError):
    """Raised when an algorithm name does not resolve to a registered solver."""


class UnknownOptionError(TypeError):
    """Raised when no requested solver takes a keyword option."""


class Solver(Protocol):
    """Callable computing a :class:`~repro.solvers.report.SolveReport`."""

    def __call__(self, tree: Tree, **options):  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry: a solver callable plus its metadata.

    Attributes
    ----------
    name:
        Canonical (lowercase) registry name.
    func:
        The solver callable ``(tree, **options) -> SolveReport``.
    family:
        Algorithm family (``"postorder"``, ``"exact"``, ``"explore"``,
        ``"minio"``, ...); used to group solvers in listings.
    summary:
        One-line human description.
    aliases:
        Alternative names accepted by :func:`get_solver` (case-insensitive).
    """

    name: str
    func: Solver
    family: str
    summary: str
    aliases: Tuple[str, ...] = ()

    def __call__(self, tree: Tree, **options):
        return self.func(tree, **options)


_REGISTRY: Dict[str, SolverSpec] = {}
_LOOKUP: Dict[str, str] = {}  # normalized name or alias -> canonical name


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def register_solver(
    name: str,
    *,
    family: str,
    summary: str = "",
    aliases: Tuple[str, ...] = (),
) -> Callable[[Solver], Solver]:
    """Class/function decorator adding a solver to the global registry.

    Re-registering an existing canonical name replaces the previous entry
    (aliases of the old entry are dropped first), so modules can be reloaded
    safely.
    """

    def decorator(func: Solver) -> Solver:
        canonical = _normalize(name)
        doc = (func.__doc__ or "").strip().splitlines()
        spec = SolverSpec(
            name=canonical,
            func=func,
            family=family,
            summary=summary or (doc[0] if doc else canonical),
            aliases=tuple(aliases),
        )
        # validate every key before touching the registry, so a conflicting
        # registration fails atomically and leaves the existing entries usable
        new_keys = {_normalize(key) for key in (canonical, *spec.aliases)}
        for key in (canonical, *spec.aliases):
            owner = _LOOKUP.get(_normalize(key))
            if owner is not None and owner != canonical:
                raise ValueError(
                    f"solver name {key!r} already registered for {owner!r}"
                )
        old = _REGISTRY.get(canonical)
        if old is not None:
            for key in (old.name, *old.aliases):
                if _normalize(key) not in new_keys:
                    _LOOKUP.pop(_normalize(key), None)
        for key in new_keys:
            _LOOKUP[key] = canonical
        _REGISTRY[canonical] = spec
        return func

    return decorator


def get_solver(name: str) -> SolverSpec:
    """Resolve an algorithm name (or alias, case-insensitive) to its spec."""
    if not isinstance(name, str):
        raise UnknownSolverError(f"algorithm name must be a string, got {name!r}")
    canonical = _LOOKUP.get(_normalize(name))
    if canonical is None:
        raise UnknownSolverError(
            f"unknown algorithm {name!r}; expected one of {list_solvers()}"
        )
    return _REGISTRY[canonical]


def list_solvers(family: Optional[str] = None) -> List[str]:
    """Sorted canonical names of the registered solvers (optionally filtered)."""
    return sorted(
        spec.name
        for spec in _REGISTRY.values()
        if family is None or spec.family == family
    )


def solver_table() -> List[SolverSpec]:
    """All registered specs, sorted by (family, name) for display purposes."""
    return sorted(_REGISTRY.values(), key=lambda s: (s.family, s.name))
