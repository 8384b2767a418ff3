"""Scale of a linear automorphism of Q_p^n, computed two independent ways.

The scale s(alpha) is the minimal index [alpha(U) : U ^ alpha(U)] over
compact open subgroups U, always a power of p here. The Newton-polygon
formula gives the certified exponent; the tidying iteration produces a
minimizing lattice as a procedural witness. The two must agree or the
operation fails loudly. A tidying step reads its index as [L + alpha(L) : L],
one Hermite form on a sum, and intersects L with alpha(L) only when the
iteration goes on.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dynamics import BOUNDED, UNBOUNDED, GeneratorSet, bounded_group
from .errors import CapExceeded, InternalInvariantViolation, Singular
from .linalg import Lattice, NewtonPolygon, QMatrix, apply, char_poly, grow, \
    lattice_intersect, newton_polygon
from .qpcore import PContext


def _polygon(a: QMatrix, ctx: PContext) -> NewtonPolygon:
    poly = char_poly(a)
    if poly[-1] == 0:  # the constant term is +-det(a)
        raise Singular("scale is only defined for invertible maps")
    return newton_polygon(poly, ctx)


def scale_newton(a: QMatrix, ctx: PContext) -> int:
    """Exponent m with s(alpha) = p^m: total expansion of the eigenvalues.

    m is the sum of -v over eigenvalue valuations v < 0, equivalently
    the product of |lambda| over eigenvalues with |lambda| > 1, in
    exponent form.
    """
    return _polygon(a, ctx).negative_exponent()


def default_iteration_cap(polygon: NewtonPolygon, n: int) -> int:
    """Generous over-approximation of the tidying length.

    Reads the maximal vertical excursion off the Newton polygon of an
    n x n map: the iteration needs at most about n * excursion steps to
    decouple the expanding and contracting directions.
    """
    excursion = 0
    for val, mult in polygon.slopes:
        rise = abs(val * mult)
        assert rise.denominator == 1
        excursion = max(excursion, int(rise))
    return n * (1 + excursion) * 4


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
    polygon = _polygon(a, ctx)
    target = polygon.negative_exponent()
    if cap is None:
        cap = default_iteration_cap(polygon, a.n)
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
