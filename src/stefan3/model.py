"""Material data, boundary data, and input validation.

Units are SI throughout: W/(m K) for conductivities, J/(kg K) for specific
heats, kg/m^3 for density, J/kg for latent heats, K for temperatures,
W/(m^2 K) for the convective coefficient, and W s^(1/2)/m^2 for the flux
coefficient of the time-decaying surface flux q0/sqrt(t).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple, Optional, Union

from .errors import DiffusivityWarning, RootFailure, ValidationError

__all__ = ["BoundarySpec", "Dirichlet", "MaterialProperties", "Neumann",
           "PhaseTemps", "Robin", "StefanNumbers", "Violation",
           "config_from_dict", "config_to_dict", "diffusivities", "load_config",
           "stefan_numbers", "validate"]

# Phase numbering runs from the far solid inward: 1 = solid, 2 = intermediate
# liquid between the fronts, 3 = surface liquid.


class _Frozen:
    """Base of the records that keep derived values in their instance dict.

    A subclass sets its fields, named in ``_fields``, and any derived
    values through ``vars(self)``; assigning or deleting an attribute then
    raises FrozenInstanceError.  Equality, hashing and repr read the fields
    alone, as a frozen dataclass's do.
    """

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class MaterialProperties(NamedTuple):
    """Per-phase thermal constants of the one material.

    Attributes:
        k1, k2, k3: Thermal conductivities of phases 1..3.
        c1, c2, c3: Specific heat capacities of phases 1..3.
        rho: Common mass density.
        l1: Latent heat absorbed at the solid-side front.
        l2: Latent heat absorbed at the inner front.
    """

    k1: float
    k2: float
    k3: float
    c1: float
    c2: float
    c3: float
    rho: float
    l1: float
    l2: float


class PhaseTemps(NamedTuple):
    """Characteristic temperatures: two change temperatures and the initial one.

    B is the upper change temperature (fronts 2), C the lower one (front 1),
    D the uniform initial temperature of the solid.  A valid problem has
    B > C > D.
    """

    B: float
    C: float
    D: float


# The boundary data stay frozen dataclasses: callers read them with asdict.
# Their members that are not fields hold all that sets a kind apart: law(ctx)
# is its (theta, n) in the surface law theta*s + (1 - theta)*(T(0) - B) = n
# on a context's material, with s the phase-3 amplitude (T(0) - B =
# s*erf(coef2*sigma3)); bounds names the datum and the Thresholds fields
# bounding its regimes (None: every admissible datum melts both ways); and
# checks, in report order, are (code, message, fails(datum, temps)) on
# finite values.
@dataclass(frozen=True)
class Robin:
    """Convective surface exchange with a bulk at A_inf, coefficient h0/sqrt(t)."""

    h0: float
    A_inf: float

    kind = "robin"
    bounds = ("h0", "h1", "h2")
    checks = (
        ("ROBIN_H0_NOT_POSITIVE", "h0 must be > 0", lambda d, t: d.h0 <= 0.0),
        ("ROBIN_BULK_NOT_ABOVE_B", "A_inf must exceed B", lambda d, t: d.A_inf <= t.B),
    )

    def law(self, ctx) -> tuple[float, float]:
        # h0*(A_inf - T(0)) = k3*s/sqrt(pi alpha3), that is A_inf - T(0) = k*s
        g = self.h0 * math.sqrt(math.pi * ctx.alpha3)
        if not g > 0.0:
            raise RootFailure("unresolved", f"h0*sqrt(pi*alpha3) underflows to {g!r}")
        k = ctx.props.k3 / g
        return k / (1.0 + k), (self.A_inf - ctx.temps.B) / (1.0 + k)


@dataclass(frozen=True)
class Dirichlet:
    """Imposed surface temperature A."""

    A: float

    kind = "dirichlet"
    bounds = None
    checks = (
        ("DIRICHLET_A_NOT_ABOVE_B", "A must exceed B", lambda d, t: d.A <= t.B),
    )

    def law(self, ctx) -> tuple[float, float]:
        return 0.0, self.A - ctx.temps.B


@dataclass(frozen=True)
class Neumann:
    """Imposed incoming surface flux q0/sqrt(t)."""

    q0: float

    kind = "neumann"
    bounds = ("q0", "q1", "q2")
    checks = (
        ("NEUMANN_Q0_NOT_POSITIVE", "q0 must be > 0", lambda d, t: d.q0 <= 0.0),
    )

    def law(self, ctx) -> tuple[float, float]:
        return 1.0, self.q0 * math.sqrt(math.pi * ctx.alpha3) / ctx.props.k3


BoundarySpec = Union[Robin, Dirichlet, Neumann]


class StefanNumbers(NamedTuple):
    """Dimensionless sensible-to-latent heat ratios of the two transitions."""

    ste1: float
    ste2: float


class Violation(NamedTuple):
    """One validation failure, with a stable machine-readable code."""

    code: str
    message: str


def diffusivities(props: MaterialProperties) -> tuple[float, float, float]:
    """Thermal diffusivities (alpha1, alpha2, alpha3) = k_i/(rho*c_i)."""
    return (
        props.k1 / (props.rho * props.c1),
        props.k2 / (props.rho * props.c2),
        props.k3 / (props.rho * props.c3),
    )


def stefan_numbers(props: MaterialProperties, temps: PhaseTemps) -> StefanNumbers:
    """Ste1 = c1*(C - D)/l1 and Ste2 = c2*(B - C)/l2."""
    return StefanNumbers(  # positional: keywords make it twice as slow
        props.c1 * (temps.C - temps.D) / props.l1,
        props.c2 * (temps.B - temps.C) / props.l2,
    )


_SQRT_PI = math.sqrt(math.pi)


def material_constants(props: MaterialProperties, temps: PhaseTemps) -> Optional[dict]:
    """The constants a ProblemContext derives from the material, or None.

    They are the diffusivities ``alphas`` (also ``alpha1``..``alpha3``),
    the Stefan numbers ``ste1`` and ``ste2``, ``sigma2`` =
    sqrt(alpha1/alpha2), which rescales an outer-front coefficient into
    phase 2's similarity variable, ``sigma3`` = sqrt(alpha1/alpha3) and
    ``_h_offset_coef``, the coefficient c of the term h subtracts.  None
    when one of them, or a product rho*c_i, is not finite and positive in
    floating point; each divisor is checked before it divides.  The data
    must be finite and positive, with B > C > D.
    """
    # chained comparisons, which a NaN fails, and no helper calls: validate
    # runs this once per context, which keeps what it returns
    p, inf = props, math.inf
    if not (0.0 < p.rho * p.c1 < inf and 0.0 < p.rho * p.c2 < inf
            and 0.0 < p.rho * p.c3 < inf and 0.0 < p.k1 * p.c2 < inf):
        return None
    a1, a2, a3 = alphas = diffusivities(p)
    if not (0.0 < a1 < inf and 0.0 < a2 < inf and 0.0 < a3 < inf):
        return None
    ste1, ste2 = stefan_numbers(p, temps)
    sigma2, sigma3 = math.sqrt(a1 / a2), math.sqrt(a1 / a3)
    offset = (ste2 / _SQRT_PI * (p.l2 / p.l1)
              * math.sqrt(p.k2 * p.c1 / (p.k1 * p.c2)))
    if not (0.0 < ste1 < inf and 0.0 < ste2 < inf and 0.0 < sigma2 < inf
            and 0.0 < sigma3 < inf and 0.0 < offset < inf):
        return None
    return {"alphas": alphas, "alpha1": a1, "alpha2": a2, "alpha3": a3,
            "ste1": ste1, "ste2": ste2, "sigma2": sigma2, "sigma3": sigma3,
            "_h_offset_coef": offset}


# record class -> its field names, which are also its JSON keys
_FIELD_NAMES = {
    MaterialProperties: MaterialProperties._fields,
    PhaseTemps: PhaseTemps._fields,
    **{cls: tuple(f.name for f in dataclasses.fields(cls))
       for cls in (Robin, Dirichlet, Neumann)},
}

_NOT_FINITE = Violation("NOT_FINITE", "all inputs must be finite numbers")
_MATERIAL_RANGE = Violation(
    "MATERIAL_RANGE", "the material's derived constants must be finite and > 0")

def datum_violations(temps: PhaseTemps, bc: Optional[BoundarySpec]) -> list[Violation]:
    """The violations validate reports that the boundary datum alone decides."""
    if bc is None:
        return []
    if not all(math.isfinite(getattr(bc, f)) for f in _FIELD_NAMES[type(bc)]):
        return [_NOT_FINITE]
    return [Violation(code, message)
            for code, message, fails in bc.checks if fails(bc, temps)]


def validate(
    props: MaterialProperties,
    temps: PhaseTemps,
    bc: Optional[BoundarySpec] = None,
    into: Optional[dict] = None,
) -> list[Violation]:
    """Check every model invariant and return the violations found.

    An empty list means the data describes a well-posed problem.  When the
    two liquid diffusivities are exactly equal the data is still accepted,
    but a DiffusivityWarning is emitted, attributed to the first caller
    outside this package, because the solvability theory requires alpha2
    >= alpha3 with strict inequality.

    Args:
        props: Material constants.
        temps: Characteristic temperatures.
        bc: Optional boundary datum; when given, its own constraints are
            checked too (see datum_violations).
        into: Optional dict that receives the material_constants the check
            derives, once the material passes (ProblemContext passes its
            instance dict, and so keeps them).

    Returns:
        List of Violation records, empty when valid.
    """
    datum = datum_violations(temps, bc)
    # any non-finite input, the datum's included, is the one violation
    if not all(map(math.isfinite, [*props, *temps])) or _NOT_FINITE in datum:
        return [_NOT_FINITE]

    out = [] if min(props) > 0.0 else [
        Violation("PROPS_NOT_POSITIVE", f"{f} must be > 0")
        for f, value in zip(props._fields, props) if value <= 0.0]

    if not temps.B > temps.C > temps.D:
        out.append(
            Violation("TEMPS_NOT_STRICT", "temperatures must satisfy B > C > D")
        )

    if not out:
        constants = material_constants(props, temps)
        if constants is None:
            out.append(_MATERIAL_RANGE)
        elif constants["alpha2"] < constants["alpha3"]:
            out.append(
                Violation(
                    "DIFFUSIVITY_ORDER",
                    "liquid diffusivities must satisfy alpha2 >= alpha3",
                )
            )
        elif constants["alpha2"] == constants["alpha3"]:
            warnings.warn(
                "alpha2 == alpha3: solvability is only established for "
                "alpha2 > alpha3",
                DiffusivityWarning,
                stacklevel=_outside_level(),
            )
        if constants is not None and into is not None:
            into.update(constants)

    return out + datum


def _outside_level() -> int:
    # warnings.warn's stacklevel, for the function calling this, that names
    # the first frame outside this package: the line that built a context
    frame, level = sys._getframe(2), 2
    while frame.f_back and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def require_bulk(a_inf: float, floor: float, code: str, message: str) -> None:
    """Raise ValidationError unless a bulk temperature is finite and above floor."""
    if not math.isfinite(a_inf):
        raise ValidationError(
            [Violation("NOT_FINITE", "A_inf must be a finite number")]
        )
    if a_inf <= floor:
        raise ValidationError([Violation(code, message)])


def _as_number(obj: dict, key: str) -> float:
    try:
        value = obj[key]
    except KeyError:
        raise ValidationError(
            [Violation("MISSING_FIELD", f"config field {key!r} is required")]
        ) from None
    if type(value) is float:  # as json.loads gives every non-integer
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            [Violation("BAD_FIELD_TYPE", f"config field {key!r} must be a number")]
        )
    try:
        return float(value)
    except OverflowError:  # an int past the float range, which validate rejects
        return math.inf if value > 0 else -math.inf


# boundary kind -> its datum class, whose fields are the JSON keys
_BOUNDARY_KINDS = {cls.kind: cls for cls in (Robin, Dirichlet, Neumann)}


def _from_fields(cls, obj: dict):
    # an instance of the record class cls, each field read from obj as a number
    return cls(*[_as_number(obj, name) for name in _FIELD_NAMES[cls]])


def boundary_from_dict(obj: dict) -> BoundarySpec:
    """Build a BoundarySpec from its JSON object form."""
    if not isinstance(obj, dict):
        raise ValidationError(
            [Violation("BAD_FIELD_TYPE", "'boundary' must be an object")]
        )
    kind = obj.get("type")
    cls = _BOUNDARY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        kinds = ", ".join(map(repr, _BOUNDARY_KINDS))
        raise ValidationError(
            [Violation("BAD_BOUNDARY_TYPE", f"boundary type must be one of {kinds}")]
        )
    return _from_fields(cls, obj)


def boundary_to_dict(bc: BoundarySpec) -> dict:
    """JSON object form of a BoundarySpec, inverse of boundary_from_dict."""
    return {"type": bc.kind, **{f: getattr(bc, f) for f in _FIELD_NAMES[type(bc)]}}


def config_from_dict(
    obj: dict,
) -> tuple[MaterialProperties, PhaseTemps, Optional[BoundarySpec]]:
    """Parse a config mapping into typed pieces.

    The boundary section is optional so that threshold-only configs work.
    Schema problems raise ValidationError; physical invariants are not
    checked here (call validate for that).
    """
    if not isinstance(obj, dict):
        raise ValidationError(
            [Violation("BAD_CONFIG", "config root must be a JSON object")]
        )
    props = _from_fields(MaterialProperties, obj)
    temps = _from_fields(PhaseTemps, obj)
    bc = boundary_from_dict(obj["boundary"]) if "boundary" in obj else None
    return props, temps, bc


def config_to_dict(
    props: MaterialProperties,
    temps: PhaseTemps,
    bc: Optional[BoundarySpec] = None,
) -> dict:
    """Serialize typed pieces back to the JSON config mapping."""
    out = {**props._asdict(), **temps._asdict()}
    if bc is not None:
        out["boundary"] = boundary_to_dict(bc)
    return out


def load_config(
    path: str,
) -> tuple[MaterialProperties, PhaseTemps, Optional[BoundarySpec]]:
    """Read and parse a JSON config file.

    I/O problems propagate as OSError; text that is not UTF-8, malformed
    JSON or a bad schema raise ValidationError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.loads(fh.read())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                [Violation("BAD_JSON", f"config is not valid JSON: {exc}")]
            ) from exc
    return config_from_dict(obj)
