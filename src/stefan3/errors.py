"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = ["DiffusivityWarning", "HypothesisError", "MissingBoundaryDatum",
           "RegimeError", "RootFailure", "ValidationError"]


class ValidationError(Exception):
    """Input data violates one or more model invariants.

    Carries the machine-readable violation list produced by
    :func:`stefan3.model.validate`.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(lines or "invalid input")


class MissingBoundaryDatum(Exception):
    """An operation needs a boundary parameter the input does not carry."""


class RegimeError(Exception):
    """The boundary datum puts the problem outside the three-phase regime."""

    def __init__(self, regime, message: str):
        self.regime = regime
        super().__init__(message)


class RootFailure(Exception):
    """Bracketed root search could not produce a root.

    ``reason`` is ``"no_sign_change"`` when doubling the upper bracket never
    produced opposite signs, ``"non_finite"`` when the residual returned
    NaN or infinity inside the bracket, or ``"unresolved"`` when floating
    point leaves 0 where the problem needs a positive quantity: a
    convective law's h0*sqrt(pi*alpha3), the threshold q2's
    sqrt(pi*alpha2)*erf(z0*sigma2), coef2*sigma3 after a solve, phase 2's
    span erf(coef1*sigma2) - erf(coef2*sigma2) when the field is first
    evaluated, or the width of the heat check's phase-1 window [coef1,
    coef1 + 3].
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class HypothesisError(Exception):
    """A named inequality required by a parameter mapping does not hold."""

    def __init__(self, name: str, lhs: float, rhs: float):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"hypothesis {name} failed: {lhs!r} <= {rhs!r}")


class DiffusivityWarning(UserWarning):
    """Emitted when the two outer diffusivities are exactly equal."""
