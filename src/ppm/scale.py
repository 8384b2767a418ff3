"""Scale of a linear automorphism of Q_p^n, computed two independent ways.

The scale s(alpha) is the minimal index [alpha(U) : U ^ alpha(U)] over
compact open subgroups U, always a power of p here. The certified exponent
is -min v_p(c_i) over the char poly's coefficients, the lowest point of its
Newton polygon. The tidying iteration must reach it, or the operation fails
loudly; it yields a minimizing lattice as a procedural witness. A tidying
step reads its index as [L + alpha(L) : L], one Hermite form on a sum, and
intersects L with alpha(L) only when the iteration goes on.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dynamics import BOUNDED, UNBOUNDED, GeneratorSet, bounded_group
from .errors import CapExceeded, InternalInvariantViolation, Singular
from .linalg import Lattice, QMatrix, apply, char_poly, grow, lattice_intersect
from .qpcore import PContext, vp_frac


def _valuations(a: QMatrix, ctx: PContext) -> list:
    poly = char_poly(a)
    if poly[-1] == 0:  # the constant term is +-det(a)
        raise Singular("scale is only defined for invertible maps")
    return [vp_frac(c, ctx.p) for c in poly]


def scale_newton(a: QMatrix, ctx: PContext) -> int:
    """Exponent m with s(alpha) = p^m: the sum of -v over eigenvalue valuations
    v < 0, which is the fall of the Newton polygon from (n, 0) to its lowest
    point, so m = -min v_p(c_i)."""
    return -min(_valuations(a, ctx))


def default_iteration_cap(valuations, n: int) -> int:
    """Generous over-approximation of the tidying length, from the char poly's
    coefficient valuations, leading first. A segment of the Newton polygon
    rises at most s(alpha) = -min v_p(c_i) or falls at most s(alpha^-1) =
    s(alpha) + v(det); the cap is n * (1 + the larger) * 4 steps."""
    return n * (1 - min(valuations) + max(0, valuations[-1])) * 4


@dataclass(frozen=True)
class ScaleReport:
    """Result of the tidying iteration.

    scale_exponent: s(alpha) = p^scale_exponent, equal to the Newton value.
    minimizing_lattice: lattice U with [alpha(U) : U ^ alpha(U)] = p^m.
    iteration_trace: (step, index exponent) pairs, non-increasing.
    method_agreement: tidying terminated exactly at the Newton value.
    """

    scale_exponent: int
    minimizing_lattice: Lattice
    iteration_trace: tuple
    method_agreement: bool


def scale_tidy(a: QMatrix, ctx: PContext, cap: int | None = None) -> ScaleReport:
    """Iterate L_k = L_{k-1} ^ alpha(L_{k-1}) from the standard lattice
    until the index exponent reaches the Newton value; that lattice is a
    minimizer (tidy for alpha).

    Each step's index is read off one sum, [alpha(L) : L ^ alpha(L)] =
    [L + alpha(L) : L] (the second isomorphism theorem), so the
    intersection runs only when the iteration continues.
    """
    vals = _valuations(a, ctx)
    target = -min(vals)
    if cap is None:
        cap = default_iteration_cap(vals, a.n)
    elif cap < 0:
        raise ValueError("cap must be non-negative")
    lat = Lattice.standard(ctx, a.n)
    trace = []
    for k in range(cap + 1):
        e = lat.det_valuation() - grow(lat, [a]).det_valuation()
        trace.append((k, e))
        if e < target:
            raise InternalInvariantViolation(
                f"index exponent {e} fell below the Newton value {target}")
        if len(trace) >= 2 and trace[-2][1] < e:
            raise InternalInvariantViolation("tidying index increased")
        if e == target:
            return ScaleReport(target, lat, tuple(trace), True)
        lat = lattice_intersect(apply(a, lat), lat)
    raise CapExceeded(
        f"tidying did not certify the scale within {cap} steps", tuple(trace))


def invariant_lattice(a: QMatrix, ctx: PContext) -> Lattice | None:
    """A lattice L with alpha(L) = L, or None when no such lattice exists.

    Exists exactly when s(alpha) = s(alpha^{-1}) = 1, i.e. alpha is type
    R. dynamics.bounded_group decides that first and returns a certified
    UNBOUNDED, hence None, when it fails; otherwise it saturates the
    standard lattice under alpha and its inverse within 8n growth rounds.
    """
    cap = 8 * a.n
    res = bounded_group(GeneratorSet.of(ctx, [a]), rounds_cap=cap + 1)  # + the confirming round
    if res.verdict == UNBOUNDED:
        return None
    if res.verdict != BOUNDED:
        raise CapExceeded(f"invariant-lattice saturation ran past {cap} rounds",
                          res.divisor_trace)
    return res.invariant
