"""Scale of a linear automorphism of Q_p^n, computed two independent ways.

The scale s(alpha) is the minimal index [alpha(U) : U ^ alpha(U)] over
compact open subgroups U, always a power of p here. The certified exponent
is -min v_p(c_i) over the char poly's coefficients, the lowest point of its
Newton polygon, read off its integer coefficients
(``linalg.char_poly_valuations``); no Fraction polynomial is built. The
tidying iteration must reach it, or the operation fails loudly; it yields
a minimizing lattice as a procedural witness. The iteration is the sum
chain F + alpha(F) from Z_p^n, where each step triangularises the sum and
reads the step's index off its diagonal (``linalg.sum_chain``); the sum is
reduced to the next lattice only when the iteration goes on, and no
lattice is intersected. ``invariant_lattice`` runs the same chain until
its index is 0. ``type_r`` holds the type-R rule that
``invariant_lattice`` and ``dynamics`` decide by.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InternalInvariantViolation, Singular
from .linalg import Lattice, QMatrix, char_poly_valuations, sum_chain
from .qpcore import INFINITY, PContext, vp_frac, vp_int


def _valuations(a: QMatrix, ctx: PContext) -> list:
    vals = char_poly_valuations(a, ctx.p)
    if vals[-1] is INFINITY:  # the constant term is +-det(a)
        raise Singular("scale is only defined for invertible maps")
    return vals


def type_r(a: QMatrix, v: int, ctx: PContext) -> bool:
    """Whether every eigenvalue of a, invertible with v_p(det a) = v, is a
    p-adic unit: the char poly's Newton polygon is flat at height 0, every
    coefficient p-integral and the constant term +-det a a unit. A nonzero
    v decides it (no), and so does a p-integral a (yes), or a trace that is
    not p-integral (no: c_1 = -tr). Only the rest need the char poly."""
    if v:
        return False
    d, p = a.denominator, ctx.p
    if d % p:
        return True
    if vp_int(sum(row[i] for i, row in enumerate(a.numerators)), p) < vp_int(d, p):
        return False
    return min(char_poly_valuations(a, p)) == 0


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
    minimizing_lattice: lattice U with [alpha(U) : U ^ alpha(U)] = p^m; it
        contains Z_p^n, as the sum chain it ends only grows.
    iteration_trace: (step, index exponent) pairs, non-increasing.
    method_agreement: tidying terminated exactly at the Newton value.
    """

    scale_exponent: int
    minimizing_lattice: Lattice
    iteration_trace: tuple
    method_agreement: bool


def scale_tidy(a: QMatrix, ctx: PContext, cap: int | None = None) -> ScaleReport:
    """Run the tidying iteration F_0 = Z_p^n, F_{k+1} = F_k + alpha(F_k)
    until the index exponent reaches the Newton value; that F_k is a
    minimizer (tidy for alpha).

    Step k's index is p^e_k = [F_{k+1} : F_k], e_k = v(det F_k) -
    v(det F_{k+1}) read off the triangular form of the sum; F_{k+1} is
    reduced to a canonical lattice only when the iteration goes on
    (linalg.sum_chain). Two facts:

    - e_k = [F_k + alpha(F_k) : F_k] = [alpha(F_k) : F_k ^ alpha(F_k)], so
      the index is measured on the returned lattice, not inferred.
    - The chain ends: dualising swaps sum and intersection, so the F_k are
      the duals of the intersection chain L_{k+1} = L_k ^ beta(L_k) for
      beta = alpha^-T, which reaches a lattice tidy for beta; a lattice
      tidy for beta is tidy for beta^-1 (Willis 1994, cited from memory),
      and e_k is the index of L_k under beta^-1 = alpha^T, whose scale is
      alpha's.
    """
    vals = _valuations(a, ctx)
    target = -min(vals)
    if cap is None:
        cap = default_iteration_cap(vals, a.n)
    elif cap < 0:
        raise ValueError("cap must be non-negative")
    chain = sum_chain(Lattice.standard(ctx, a.n), [a])
    trace = []
    # range comes first: zip stops at the cap without asking for F_(cap+1)
    for k, (cur, e) in zip(range(cap + 1), chain):  # cur is F_k
        trace.append((k, e))
        if e < target:
            raise InternalInvariantViolation(
                f"index exponent {e} fell below the Newton value {target}")
        if len(trace) >= 2 and trace[-2][1] < e:
            raise InternalInvariantViolation("tidying index increased")
        if e == target:
            return ScaleReport(target, cur, tuple(trace), True)
    raise CapExceeded(
        f"tidying did not certify the scale within {cap} steps", tuple(trace))


def invariant_lattice(a: QMatrix, ctx: PContext) -> Lattice | None:
    """A lattice L with alpha(L) = L, or None when none exists. One exists iff
    alpha is type R (``type_r``). Then the char poly is p-integral with a
    unit constant term, so alpha^-1 and alpha^n lie in the Z_p-span of
    1, ..., alpha^(n-1) (Cayley-Hamilton), and L_{k+1} = L_k + alpha(L_k)
    from Z_p^n is sum_{k<n} alpha^k Z_p^n by k = n - 1. The chain
    (linalg.sum_chain) stops at the first index [L_{k+1} : L_k] = p^0: then
    L_{k+1} = L_k, so alpha(L_k) <= L_k, which with the unit det is
    alpha(L_k) = L_k. No cap applies; nothing is inverted."""
    det = a.det()
    if det == 0:
        raise Singular("matrix is singular")
    if not type_r(a, vp_frac(det, ctx.p), ctx):
        return None
    for _, (lat, e) in zip(range(a.n), sum_chain(Lattice.standard(ctx, a.n), [a])):
        if e == 0:
            return lat
    raise InternalInvariantViolation(f"the chain found no invariant lattice in {a.n} rounds")
