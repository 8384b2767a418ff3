"""Exact matrices over Q, Newton polygons, and Z_p-lattice arithmetic.

Every Gaussian elimination over Q goes through one fraction-free integer
kernel, ``eliminate``, on integer rows: determinants, inverses and
nullspaces (``dynamics.common_fixed_space``) run it on QMatrix integer
views and read exact results off its rows, pivot columns and determinant.
Its rows up to the rank are the reduced row echelon form times the last
pivot, which is unique, and so are their results. Characteristic
polynomials run on the integer view too (``_berkowitz``), and
``char_poly_valuations`` reads their coefficients' valuations with no
Fraction built.

A Lattice is a full-rank Z_p-lattice in Q_p^n, i.e. a compact open
subgroup of the additive group, held as p^-s times an integer Hermite
basis, canonical so that equality is a structural comparison. Over Z_(p)
the Hermite form (``_hermite``: ``_triangular``, then ``_reduce``) and the
Smith form (``_local_snf``) both run in integers and clear a row or
column y against the pivot x = u p^e by one step,
y <- (u y - (y_t / p^e) x) / g with g = gcd(u, y_t / p^e);
the Smith form records its row operations in an identity block, from
which ``elementary_divisors_with_directions`` reads its directions.
``sum_chain`` is the one loop that grows a lattice: L + a_1(L) + ... +
a_m(L), repeated, reading each step's index off the triangular form and
reducing a sum only when the chain goes on; tidying, invariant lattices
and saturation run on it. ``maps_into`` tests a(L) <= L off L's integer
adjugate, with no Hermite form; as [L : a(L)] = p^v_p(det a), with a unit
det that is a(L) = L.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import NotNested, Singular
from .qpcore import PContext, as_fraction, format_scalar, vp_frac, vp_int


def _cleared(vec):
    """(d, d * vec) for a vector of exact scalars, d its least common denominator."""
    vec = [as_fraction(x) for x in vec]
    d = lcm(*(x.denominator for x in vec))
    return d, [x.numerator * (d // x.denominator) for x in vec]


def eliminate(m, width, det_only=False):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 1968) on integer
    rows m, in place. Pivots are sought in the first width columns, top
    down; later columns are carried along, as for augmented systems. The
    pivot P_k in row r turns every other row x into (P_k x - x_c top) /
    P_(k-1); entries stay minors of the input, so the division is exact,
    and every pivot row ends with the last pivot P at its pivot. Returns
    (pivot columns, order, det): order[i] is the input row now at i; det,
    for a square block, is P signed by the row swaps, or 0 without a full
    rank. det_only clears below each pivot only and stops at the first
    column without a pivot.
    """
    order = list(range(len(m)))
    pivots, prev, sign, r = [], 1, 1, 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            if det_only:
                return pivots, order, 0
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            order[r], order[piv] = order[piv], order[r]
            sign = -sign
        top, pc = m[r], m[r][c]
        for i in range(r + 1 if det_only else 0, len(m)):
            if i != r:  # left of c, only the rows above hold nonzero entries
                row, f, lo = m[i], m[i][c], 0 if i < r else c
                row[lo:] = [(pc * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
        pivots.append(c)
        prev, r = pc, r + 1
        if r == len(m):
            break
    return pivots, order, sign * prev if len(pivots) == width else 0


def _lowest_terms(d: int, nums) -> tuple:
    """QMatrix's integer view (d' > 0, entries...) of nums / d, in lowest terms."""
    g = d  # row by row: from n = 8 on, an argument tuple of n^2 entries is too
    for row in nums:  # big for Python's small-object allocator and fragments the heap
        g = gcd(g, *row)
    g = g if d > 0 else -g
    return (d // g, *(x // g for row in nums for x in row))


class QMatrix:
    """Immutable square matrix with exact rational entries.

    Stored once, as the integer view (d, N = d * self), d > 0 the least
    common denominator, which equality and hashing compare and all
    arithmetic runs on; ``rows``, as Fractions, is built on first read."""

    __slots__ = ("n", "_ints", "_rows")

    def __init__(self, rows):
        rows = [_cleared(row) for row in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for _, r in rows):
            raise ValueError("matrix must be square and non-empty")
        d = lcm(*(s for s, _ in rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_ints", (d, *(x * (d // s) for s, r in rows for x in r)))

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def _from_ints(cls, d: int, nums) -> "QMatrix":
        """The matrix nums / d (square integer rows, d != 0), in lowest terms."""
        return cls._from_view(len(nums), _lowest_terms(d, nums))

    @classmethod
    def _from_view(cls, n: int, ints: tuple) -> "QMatrix":
        """The n x n matrix whose integer view is ints, already in lowest terms."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "_ints", ints)
        return out

    def _int_view(self):
        """(d, N) as row tuples, kept flat in _ints as (d, entries...): a
        tuple per row would cost more memory than the entries themselves."""
        flat, n = self._ints, self.n
        return flat[0], [flat[1 + i * n:1 + (i + 1) * n] for i in range(n)]

    @property
    def rows(self):
        """The entries as Fraction row tuples, built on first use."""
        try:
            return self._rows
        except AttributeError:
            d, m = self._int_view()
            object.__setattr__(self, "_rows", tuple(tuple(Fraction(x, d) for x in row)
                                                    for row in m))
            return self._rows

    @property
    def denominator(self) -> int:
        """The least common denominator d > 0 of the entries."""
        return self._ints[0]

    @property
    def numerators(self):
        """The integer rows of denominator * self, as tuples."""
        return self._int_view()[1]

    def block(self, lo: int, hi: int) -> "QMatrix":
        """The diagonal block of rows and columns lo, ..., hi - 1."""
        return QMatrix._from_ints(self.denominator, [r[lo:hi] for r in self.numerators[lo:hi]])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._from_ints(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "QMatrix":
        return cls([[x if i == j else 0 for j in range(len(entries))]
                    for i, x in enumerate(entries)])

    @classmethod
    def from_columns(cls, cols) -> "QMatrix":
        return cls(list(zip(*cols)))

    def column(self, j: int):
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in row) for row in self.rows)
        return f"QMatrix[{body}]"

    def __add__(self, other, sign=1):
        self._check(other)
        (da, a), (db, b) = self._int_view(), other._int_view()
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return QMatrix._from_ints(d, [[x * fa + y * fb for x, y in zip(r, s)]
                                      for r, s in zip(a, b)])

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            self._check(other)
            da, a = self._int_view()
            b, n = other._ints, other.n
            cols = [b[1 + j::n] for j in range(n)]  # read by stride off the flat view
            return QMatrix._from_ints(da * b[0], [[sum(map(mul, row, col)) for col in cols]
                                                  for row in a])
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            d, a = self._int_view()
            return QMatrix._from_ints(d * c.denominator,
                                      [[c.numerator * x for x in row] for row in a])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int) -> "QMatrix":
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return QMatrix.identity(self.n)
        out = self
        for bit in bin(e)[3:]:  # left-to-right square-and-multiply
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def det(self) -> Fraction:
        """det(N) / d^n, det(N) read off the forward pass of the kernel."""
        d, m = self._int_view()
        return Fraction(eliminate(list(map(list, m)), self.n, det_only=True)[2], d ** self.n)

    def inverse(self) -> "QMatrix":
        """Inverse, read off the reduced form of [N | d * 1]: its right
        block is P * N^-1 * d = P * self^-1, P the last pivot."""
        n = self.n
        d, m = self._int_view()
        aug = [[*row, *(d if i == j else 0 for j in range(n))] for i, row in enumerate(m)]
        pivots, _, _ = eliminate(aug, n)
        if len(pivots) < n:
            raise Singular("matrix is singular")
        return QMatrix._from_ints(aug[0][0], [row[n:] for row in aug])


def _berkowitz(a: QMatrix):
    """(d, C): a = N / d, and C the integer coefficients of N's
    characteristic polynomial, leading-first, by Berkowitz's division-free
    recursion on leading principal minors. a's coefficient of x^(n-i) is
    C_i / d^i."""
    d, m = a._int_view()
    poly = [1]  # char poly of the empty matrix
    for k in range(1, a.n + 1):
        row = m[k - 1][: k - 1]
        cur = [m[i][k - 1] for i in range(k - 1)]
        minor = [m[i][: k - 1] for i in range(k - 1)]
        # Toeplitz column (1, -a_kk, -R C, -R M C, ..., -R M^{k-2} C)
        toep = [1, -m[k - 1][k - 1]]
        for step in range(k - 1):
            toep.append(-sum(map(mul, row, cur)))
            if step < k - 2:
                cur = [sum(map(mul, m_row, cur)) for m_row in minor]
        poly = [sum(toep[i - j] * poly[j] for j in range(max(0, i - k), min(i, k - 1) + 1))
                for i in range(k + 1)]
    return d, poly


def char_poly(a: QMatrix):
    """Monic characteristic polynomial of a, coefficients leading-first, as
    Fractions C_i / d^i over _berkowitz's integer coefficients. The solvers
    read only valuations, through char_poly_valuations."""
    d, coeffs = _berkowitz(a)
    return tuple(Fraction(c, d ** i) for i, c in enumerate(coeffs))


def char_poly_valuations(a: QMatrix, p: int) -> list:
    """v_p of the coefficients of a's characteristic polynomial, leading
    first, INFINITY for a zero one: v_p(C_i) - i v_p(d) off _berkowitz's
    integer coefficients, with no Fraction built."""
    d, coeffs = _berkowitz(a)
    step = -vp_int(d, p)
    return [vp_int(c, p) + i * step for i, c in enumerate(coeffs)]


@dataclass(frozen=True)
class NewtonPolygon:
    """Root valuations of a polynomial, read off its lower convex hull.

    slopes: (valuation, multiplicity) pairs, valuations non-decreasing,
    already negated from the hull slopes so the values *are* the p-adic
    valuations of the roots. infinite_count counts zero roots.
    """

    slopes: tuple
    infinite_count: int = 0

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.slopes) + self.infinite_count


def newton_polygon(poly, ctx: PContext) -> NewtonPolygon:
    """Newton polygon of a monic polynomial, coefficients leading-first."""
    coeffs = [as_fraction(c) for c in poly]
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    deg = len(coeffs) - 1
    # trailing zero coefficients are zero roots, reported separately
    infinite = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        infinite += 1
    # integer points (i, v(c_i)) with i the power of x
    pts = [(i, vp_frac(c, ctx.p)) for i, c in enumerate(reversed(coeffs)) if c != 0]
    # lower convex hull, left to right (pts already sorted by abscissa)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop middle point if it lies on or above the new chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = sorted((Fraction(y1 - y2, x2 - x1), x2 - x1)
                    for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    result = NewtonPolygon(tuple(slopes), infinite)
    assert result.total_multiplicity() == deg
    return result


class _Span(NamedTuple):
    """The Z_p-span of integer columns, scaled by p^-shift."""

    shift: int
    cols: Sequence[Sequence[int]]


def _integer_span(p: int, cols) -> _Span:
    """Rational generator columns as a _Span of the same lattice: each
    column is cleared of its denominator's part prime to p (a unit of
    Z_(p)) and of its power of p, which the shift then restores."""
    if not cols:
        raise ValueError("no generators")
    n = len(cols[0])
    cleared = [_cleared(col) for col in cols]
    if any(len(col) != n for _, col in cleared):
        raise ValueError("ragged generator columns")
    shifts = [vp_int(d, p) for d, _ in cleared]
    shift = max(shifts)
    return _Span(shift, [[x * p ** (shift - t) for x in col]
                         for (_, col), t in zip(cleared, shifts)])


class _Triangle(NamedTuple):
    """The lattice p^-shift * span_Zp(cols), cols triangular: cols[i] is
    zero below row i, and its diagonal entry is units[i] * p^exps[i] with
    units[i] prime to p. _reduce makes it canonical."""

    shift: int
    cols: list
    exps: list
    units: list

    def det_valuation(self) -> int:
        """v_p(det) of the lattice, as Lattice.det_valuation reads it off the
        canonical form: _reduce takes a content p^c out of the columns and
        out of the shift alike, and n c cancels."""
        return sum(self.exps) - len(self.exps) * self.shift


def _triangular(p: int, span: _Span) -> _Triangle:
    """Triangularise the span's columns bottom-up, the pivot of least
    valuation first: a column y is replaced by a y - b x for the pivot
    column x and coprime a, b with a prime to p, so the span over Z_(p) is
    kept and no fraction appears."""
    shift, cols = span
    n = len(cols[0])
    if n == 0:
        raise ValueError("generators span no space")
    work = [list(col) for col in cols]
    basis, exps, units = [None] * n, [0] * n, [1] * n
    for i in range(n - 1, -1, -1):
        best = None
        for k, col in enumerate(work):
            # a candidate beats the running best p^bestv exactly when that
            # power does not divide it; only then is its valuation taken
            if col[i] and (best is None or col[i] % pe):
                best, bestv = k, vp_int(col[i], p)
                pe = p ** bestv
                if bestv == 0:
                    break
        if best is None:
            raise ValueError("generators do not span a full-rank lattice")
        piv = work.pop(best)
        u = piv[i] // pe
        for col in work:
            y = col[i]
            if y:
                g = gcd(u, y // pe)  # u y - (y / p^e) x, divided by g
                a, b = u // g, y // pe // g
                for r in range(i):
                    col[r] = a * col[r] - b * piv[r]
                col[i] = 0
        basis[i], exps[i], units[i] = piv, bestv, u
    return _Triangle(shift, basis, exps, units)


def _reduce(p: int, tri: _Triangle):
    """The canonical (shift, H, exps) of a triangular lattice, its columns
    reduced in place. p^N Z_p^n lies in the lattice for N = sum(e_i) + 1,
    so this runs mod p^N: HNF modulo a determinant (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, 2.4.2). The pivots become
    p^e_i, each entry (i, j) is reduced into [0, p^e_i), and the content
    of H is moved into the shift."""
    shift, basis, exps, units = tri
    mod = p ** (sum(exps) + 1)
    pows = [p ** e for e in exps]
    for i, col in enumerate(basis):  # unit pivots: the diagonal becomes p^e_i
        w = pow(units[i], -1, mod)
        col[:i] = [x * w % mod for x in col[:i]]
        col[i] = pows[i]
    for j, col in enumerate(basis):
        for i in range(j - 1, -1, -1):
            q, col[i] = divmod(col[i], pows[i])
            if q:
                above = basis[i]
                for r in range(i):
                    col[r] = (col[r] - q * above[r]) % mod
    content = min(exps)  # the largest p^c dividing H
    for j, col in enumerate(basis):
        for x in col[:j]:
            if content and x % p ** content:  # only an x that p^content misses lowers it
                content = vp_int(x, p)
    if content:
        scale = p ** content
        basis = [[x // scale for x in col] for col in basis]
        exps = [e - content for e in exps]
    return shift - content, tuple(map(tuple, basis)), tuple(exps)


def _hermite(p: int, span: _Span):
    """Canonical (shift, H, exps) of the lattice p^-shift * span_Zp(cols).

    H is given by its columns: integer, upper triangular, diagonal p^exps[i],
    entry (i, j) reduced into [0, p^exps[i]), and shift is the least that
    makes H integral. It is _triangular's form, finished by _reduce.
    """
    return _reduce(p, _triangular(p, span))


class Lattice:
    """Full-rank Z_p-lattice p^-shift * span(H) in Q_p^n (see _hermite):
    the pair (shift, H) is canonical, so equality is a structural
    comparison. ``basis`` is the same lattice basis in Fraction entries."""

    __slots__ = ("ctx", "n", "_shift", "_cols", "_exps", "_basis", "_adj")

    def __init__(self, ctx: PContext, generators):
        """generators: QMatrix or iterable of column vectors spanning the
        lattice (inside this module also a _Span, or a _Triangle, which is
        only reduced)."""
        p = ctx.p
        if isinstance(generators, _Triangle):
            self._set(ctx, *_reduce(p, generators))
            return
        if isinstance(generators, _Span):
            span = generators
        elif isinstance(generators, QMatrix):
            d, nums = generators._int_view()  # the unit part of d spans nothing new
            span = _Span(vp_int(d, p), list(zip(*nums)))
        else:
            span = _integer_span(p, [tuple(col) for col in generators])
        self._set(ctx, *_hermite(p, span))

    def _set(self, ctx: PContext, shift: int, cols: tuple, exps: tuple):
        for name, value in (("ctx", ctx), ("n", len(cols)), ("_shift", shift),
                            ("_cols", cols), ("_exps", exps)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def standard(cls, ctx: PContext, n: int) -> "Lattice":
        """Z_p^n, built in its canonical form: shift 0, identity columns."""
        if n < 1:
            raise ValueError("generators span no space")
        out = cls.__new__(cls)
        out._set(ctx, 0, tuple(tuple(int(i == j) for i in range(n)) for j in range(n)), (0,) * n)
        return out

    @classmethod
    def from_diagonal_exponents(cls, ctx: PContext, exps) -> "Lattice":
        p = Fraction(ctx.p)
        return cls(ctx, QMatrix.diagonal([p ** e for e in exps]))

    @property
    def basis(self) -> QMatrix:
        """The canonical basis as columns of a Fraction matrix, built on first use."""
        try:
            return self._basis
        except AttributeError:
            s, p = self._shift, self.ctx.p
            up = p ** max(-s, 0)
            object.__setattr__(self, "_basis", QMatrix._from_ints(
                p ** max(s, 0), [[x * up for x in row] for row in zip(*self._cols)]))
            return self._basis

    def det_valuation(self) -> int:
        return sum(self._exps) - self.n * self._shift

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.ctx.p == other.ctx.p
                and self._shift == other._shift and self._cols == other._cols)

    def __hash__(self):
        return hash((self.ctx.p, self._shift, self._cols))

    def __repr__(self):
        return f"Lattice(p={self.ctx.p}, basis={self.basis!r})"

    def _span(self) -> _Span:
        return _Span(self._shift, self._cols)

    def _adjugate(self):
        """Rows of adj(H) = p^sum(exps) * H^-1, whose columns are found by
        integer back substitution; computed on first use."""
        try:
            return self._adj
        except AttributeError:
            n, h, p, exps = self.n, self._cols, self.ctx.p, self._exps
            total = sum(exps)
            pows = [p ** e for e in exps]
            adj = []
            for j in range(n):
                x = [0] * n
                x[j] = p ** (total - exps[j])
                for i in range(j - 1, -1, -1):
                    acc = sum(h[k][i] * x[k] for k in range(i + 1, j + 1))
                    x[i] = -acc // pows[i]
                adj.append(x)
            object.__setattr__(self, "_adj", tuple(zip(*adj)))
            return self._adj

    def _covers(self, span: _Span) -> bool:
        """Whether span lies in L: adj(H) col = 0 mod p^(sum(exps) + its shift - shift)."""
        k = sum(self._exps) + span.shift - self._shift
        if k <= 0:
            return True
        mod = self.ctx.p ** k
        rows = self._adjugate()
        return all(sum(map(mul, row, col)) % mod == 0 for col in span.cols for row in rows)

    def contains_vector(self, vec) -> bool:
        d, ints = _cleared(vec)
        if len(ints) != self.n:
            raise ValueError(f"vector of length {len(ints)} in a lattice of rank {self.n}")
        return self._covers(_Span(vp_int(d, self.ctx.p), [ints]))

    def __contains__(self, vec) -> bool:
        return self.contains_vector(vec)

    def contains_lattice(self, other: "Lattice") -> bool:
        self._check(other)
        return self._covers(other._span())

    def dual(self) -> "Lattice":
        """Dual lattice under the standard pairing."""
        return Lattice(self.ctx, _dual_span(self))

    def _check(self, other: "Lattice"):
        if self.ctx.p != other.ctx.p or self.n != other.n:
            raise ValueError("lattices live in different spaces")


def _dual_span(lat: Lattice) -> _Span:
    """The dual p^(shift - sum(exps)) * adj(H)^T, uncanonicalised."""
    return _Span(sum(lat._exps) - lat._shift, lat._adjugate())


def _joined(p: int, *spans: _Span) -> _Span:
    """All the spans' columns, brought to the largest shift."""
    shift = max(s for s, _ in spans)
    return _Span(shift, [[x * p ** (shift - s) for x in col]
                         for s, cols in spans for col in cols])


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both."""
    l1._check(l2)
    return Lattice(l1.ctx, _joined(l1.ctx.p, l1._span(), l2._span()))


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Largest lattice inside both, (L1* + L2*)*, with each dual read off
    an integer adjugate: no rational inversion."""
    l1._check(l2)
    ctx = l1.ctx
    return Lattice(ctx, _dual_span(Lattice(ctx, _joined(ctx.p, _dual_span(l1), _dual_span(l2)))))


def lattice_index(big: Lattice, small: Lattice) -> int:
    """Exponent e with [big : small] = p^e. Containment is verified."""
    big._check(small)
    if not big.contains_lattice(small):
        raise NotNested("second lattice is not contained in the first")
    return small.det_valuation() - big.det_valuation()


def _image_span(p: int, a: QMatrix, span: _Span) -> _Span:
    """The image of a span under a, uncanonicalised: a = N / d maps the
    columns to N col, and the power of p in d joins the shift."""
    d, m = a._int_view()
    shift, cols = span
    if a.n != len(cols[0]):
        raise ValueError("dimension mismatch")
    return _Span(shift + vp_int(d, p), [[sum(map(mul, row, col)) for row in m] for col in cols])


def apply(a: QMatrix, lat: Lattice) -> Lattice:
    """Image lattice a(L), canonicalized; it has full rank iff a is invertible."""
    try:
        return Lattice(lat.ctx, _image_span(lat.ctx.p, a, lat._span()))
    except ValueError as exc:
        raise Singular("cannot apply a singular matrix to a lattice") from exc


def maps_into(a: QMatrix, lat: Lattice) -> bool:
    """Whether a(L) <= L, off L's integer adjugate (no Hermite form)."""
    return lat._covers(_image_span(lat.ctx.p, a, lat._span()))


def sum_chain(lat: Lattice, mats):
    """The chain F_0 = L, F_{k+1} = F_k + a_1(F_k) + ... + a_m(F_k), as the
    endless pairs (F_k, e_k) with [F_{k+1} : F_k] = p^e_k. Each step
    triangularises the joined spans of F_k and its images, uncanonicalised,
    and reads e_k off the diagonal; F_{k+1} is reduced to its canonical
    Lattice only when the next pair is asked for, so a caller that stops at
    step k pays no reduction for F_{k+1}. F_{k+1} has full rank whatever the
    a_i, since it contains F_k, and e_k = 0 is F_{k+1} = F_k: every a_i maps
    F_k into itself."""
    p = lat.ctx.p
    while True:
        span = lat._span()
        tri = _triangular(p, _joined(p, span, *(_image_span(p, a, span) for a in mats)))
        yield lat, lat.det_valuation() - tri.det_valuation()
        lat = Lattice(lat.ctx, tri)


def _local_snf(p: int, a):
    """Smith form over Z_(p) of the square integer matrix a (rows), run in
    integers on [a | 1]. Step t takes the entry of least valuation in rows
    and columns t.. (the first in row-major order) to (t, t) by a row swap
    and a swap of columns in the left block, then clears each row y below
    the pivot row x = u p^e at t with _triangular's step
    y <- (u y - (y_t / p^e) x) / g, g = gcd(u, y_t / p^e), which keeps y a
    unit multiple of itself over Z_(p). Returns the exponents (ascending),
    the right block R and the pivots' units u: diag(u)^-1 R is the product
    of the row operations that reduce a over Q with pivots p^e, so
    a = (diag(u)^-1 R)^-1 * diag(p^e) * (unimodular)."""
    n = len(a)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    exps, units = [], []
    for t in range(n):
        found = [(vp_int(m[i][j], p), i, j) for i in range(t, n) for j in range(t, n) if m[i][j]]
        if not found:
            raise Singular("matrix is singular in Smith reduction")
        e, bi, bj = min(found)
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        x, pe = m[t], p ** e
        u = x[t] // pe
        for y in m[t + 1:]:
            if y[t]:
                g = gcd(u, y[t] // pe)
                c, d = u // g, y[t] // pe // g
                y[t:] = [c * yy - d * xx for yy, xx in zip(y[t:], x[t:])]
        exps.append(e)
        units.append(u)
    assert all(x <= y for x, y in zip(exps, exps[1:]))
    return tuple(exps), [row[n:] for row in m], units


def _relative(ref: Lattice, lat: Lattice):
    """(c, M) with ref.basis^-1 * lat.basis = p^c * M, M = adj(H_ref) * H_lat."""
    ref._check(lat)
    m = [[sum(map(mul, row, col)) for col in lat._cols] for row in ref._adjugate()]
    return ref._shift - lat._shift - sum(ref._exps), m


def elementary_divisors(ref: Lattice, lat: Lattice):
    """Exponents e_1 <= ... <= e_n aligning lat with diag(p^e) * ref."""
    c, m = _relative(ref, lat)
    exps, _, _ = _local_snf(ref.ctx.p, m)
    return tuple(e + c for e in exps)


def elementary_divisors_with_directions(ref: Lattice, lat: Lattice):
    """Divisors plus aligned directions: columns w_i of the returned
    matrix satisfy  lat = span_Zp { p^{e_i} w_i }  and  ref = span { w_i }."""
    c, m = _relative(ref, lat)
    exps, rops, units = _local_snf(ref.ctx.p, m)  # a scalar p^c leaves the operations alone
    exps = tuple(e + c for e in exps)
    directions = ref.basis * QMatrix([[Fraction(x, u) for x in row]
                                      for row, u in zip(rops, units)]).inverse()
    check = Lattice(ref.ctx, directions * QMatrix.diagonal(
        [Fraction(ref.ctx.p) ** e for e in exps]))
    if check != lat:
        raise AssertionError("Smith transform failed verification")
    return exps, directions
