"""Explicit solution of a three-phase melting problem on a half line.

A semi-infinite material, initially solid below both of its change
temperatures, is heated at the surface by a condition whose strength decays
as 1/sqrt(t): convective exchange, an imposed temperature, or an imposed
flux.  When the datum is strong enough two phase fronts advance as
coefficient * sqrt(t), and the temperature field is an explicit
error-function profile in each phase.

The package solves all three problems, classifies the regime against the
critical data, maps any of the three data onto the other two kinds so they
generate the identical field, and verifies solutions by independent
residual checks.  The mapping (``equivalence``) and verification
(``verify``) names load on first use.
"""

from importlib import import_module

from .errors import *
from .model import *
from .transcendental import *
from .solver import *

# Loaded on first use: the first touch of either submodule, or of any name
# it exports, imports it and binds all of those names here, so later reads
# are plain attribute hits.
_LAZY = {
    "equivalence": (
        "AutoSatisfaction", "CorollaryCheck", "EquivalenceReport",
        "HypothesisCheck", "auto_satisfaction", "bulk_floor",
        "corollary_checks", "dirichlet_to_neumann", "dirichlet_to_robin",
        "h2_star", "mapping", "neumann_to_dirichlet", "neumann_to_robin",
        "robin_to_dirichlet", "robin_to_neumann",
    ),
    "verify": (
        "ResidualReport", "boundary_residual", "far_field_residual",
        "full_report", "heat_residual", "interface_residual",
        "stefan_residual",
    ),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = import_module(f".{module}", __name__)
            globals().update({n: getattr(mod, n) for n in names})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})


__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__ or in _LAZY.
# The star imports above also bound each of their submodules here by name.
__all__ = sorted([
    *errors.__all__, *model.__all__, *transcendental.__all__, *solver.__all__,
    *(name for names in _LAZY.values() for name in names),
])
