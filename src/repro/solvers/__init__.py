"""Unified solver API: registry, :class:`SolveReport`, and the facade.

This package turns the five differently-shaped algorithm families of
:mod:`repro.core` into interchangeable *solvers* sharing one result type::

    from repro import solve, solve_many, compare, list_solvers

    report = solve(tree, "minmem")            # SolveReport
    report = solve(tree, "minio", memory=32)  # out-of-core, first_fit
    batch  = solve_many(trees, ["postorder", "liu"], workers=4)
    ranked = compare(tree)                    # postorder vs liu vs minmem

See :mod:`repro.solvers.registry` for registering custom algorithms and
:mod:`repro.solvers.adapters` for the built-in ones.
"""

from .registry import (
    Solver,
    SolverSpec,
    UnknownOptionError,
    UnknownSolverError,
    get_solver,
    list_solvers,
    register_solver,
    solver_table,
)
from .report import SolveReport, report_from_dict, report_to_dict

# importing the adapters populates the registry with the built-in solvers;
# it must happen before the facade is usable
from .adapters import DEFAULT_ALGORITHM, MINMEMORY_SOLVERS  # noqa: E402
from . import portfolio  # noqa: E402,F401  (registers the "auto" solver)
from .engine import (  # noqa: E402
    EngineStoppedError,
    ExecutorBackend,
    SolveEngine,
    get_engine,
    shutdown_engine,
)
from .facade import (  # noqa: E402
    DEFAULT_COMPARE_ALGORITHMS,
    Comparison,
    compare,
    solve,
    solve_many,
)

__all__ = [
    "Solver",
    "SolverSpec",
    "SolveReport",
    "UnknownSolverError",
    "UnknownOptionError",
    "register_solver",
    "get_solver",
    "list_solvers",
    "solver_table",
    "report_to_dict",
    "report_from_dict",
    "solve",
    "solve_many",
    "compare",
    "Comparison",
    "DEFAULT_ALGORITHM",
    "DEFAULT_COMPARE_ALGORITHMS",
    "MINMEMORY_SOLVERS",
    "EngineStoppedError",
    "ExecutorBackend",
    "SolveEngine",
    "get_engine",
    "shutdown_engine",
]
