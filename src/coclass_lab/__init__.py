"""Exact-arithmetic lab for commuting automorphisms of nilpotent Lie algebras."""

from .algebra import LieAlgebra, NonNilpotentError, NotSubalgebraError
from .constructions import (
    CatalogEntry,
    CatalogError,
    abelian,
    builtin,
    default_catalog,
    dim5_example,
    direct_sum,
    filiform,
    heisenberg,
    load_catalog,
    save_catalog,
)
from .fields import FieldError, FieldSpec
from .harness import (
    dim5_witness,
    heisenberg_witness,
    predict,
    profile,
    run_suite,
    structural_suite,
    verify,
)
from .linalg import Matrix, Subspace
from .maps import (
    DefectReport,
    LinearMap,
    commuting_defect,
    compose,
    inverse,
    is_automorphism,
    is_central,
    is_commuting,
    is_homomorphism,
)
from .search import (
    AbelianShortCircuit,
    AutomorphismSet,
    BudgetExceededError,
    closure_check,
    enumerate_central,
    enumerate_commuting,
    sets_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianShortCircuit",
    "AutomorphismSet",
    "BudgetExceededError",
    "CatalogEntry",
    "CatalogError",
    "DefectReport",
    "FieldError",
    "FieldSpec",
    "LieAlgebra",
    "LinearMap",
    "Matrix",
    "NonNilpotentError",
    "NotSubalgebraError",
    "Subspace",
    "__version__",
    "abelian",
    "builtin",
    "closure_check",
    "commuting_defect",
    "compose",
    "default_catalog",
    "dim5_example",
    "dim5_witness",
    "direct_sum",
    "enumerate_central",
    "enumerate_commuting",
    "filiform",
    "heisenberg",
    "heisenberg_witness",
    "inverse",
    "is_automorphism",
    "is_central",
    "is_commuting",
    "is_homomorphism",
    "load_catalog",
    "predict",
    "profile",
    "run_suite",
    "save_catalog",
    "sets_equal",
    "structural_suite",
    "verify",
]
