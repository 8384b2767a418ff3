"""Exact matrices over Q, Newton polygons, and Z_p-lattice arithmetic.

Every Gaussian elimination over Q goes through one kernel, ``rref``: it
returns the reduced row echelon form, the pivot columns and the
determinant, all exact. Determinants, inverses, ranks and nullspaces
(``dynamics.common_fixed_space``) are read off it; since the reduced
form is unique, so are their results.

A Lattice is a full-rank Z_p-lattice in Q_p^n, i.e. a compact open
subgroup of the additive group, held in a canonical Hermite basis over
the local ring Z_(p) so that equality is a structural comparison. All
entries are exact rationals whose denominators are powers of p.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotNested, Singular
from .qpcore import PContext, as_fraction, format_scalar, vp_frac, vp_int

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows, width=None, det_only=False):
    """Gauss-Jordan elimination over Q on a copy of rows.

    Pivots are sought in the first width columns (default: all), top
    down; columns past width are carried along, as for augmented
    systems. Returns (reduced rows, pivot columns, det), where det is
    the determinant of the first width columns when they form a square
    block. det_only clears below each pivot only, leaving the rows in
    echelon form, and stops at the first column without a pivot (det 0).
    """
    m = [list(row) for row in rows]
    width = len(m[0]) if width is None else width
    pivots, det, r = [], _ONE, 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            if det_only:
                return m, pivots, _ZERO
            det = _ZERO
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        top = m[r]
        det *= top[c]
        inv = 1 / top[c]
        if not det_only:  # a determinant needs no unit pivots
            top[c:] = [x * inv for x in top[c:]]
        for i in range(r + 1 if det_only else 0, len(m)):
            row = m[i]
            if row[c] != 0 and i != r:
                f = row[c] * inv if det_only else row[c]
                row[c:] = [x - f * y for x, y in zip(row[c:], top[c:])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, det


class QMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "QMatrix":
        entries = [as_fraction(x) for x in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "QMatrix":
        return cls(list(zip(*cols)))

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.n))

    def columns(self):
        return [self.column(j) for j in range(self.n)]

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.rows)))

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in row) for row in self.rows)
        return f"QMatrix[{body}]"

    def __add__(self, other):
        self._check(other)
        return QMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return QMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            self._check(other)
            cols = other.transpose().rows
            return QMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                            for row in self.rows])
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return QMatrix([[c * x for x in row] for row in self.rows])
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
        """Determinant, read off the forward pass of the kernel."""
        return rref(self.rows, det_only=True)[2]

    def inverse(self) -> "QMatrix":
        """Inverse, read off the reduced form of [self | 1]."""
        n = self.n
        m, pivots, _ = rref([row + tuple(_ONE if i == j else _ZERO for j in range(n))
                             for i, row in enumerate(self.rows)], width=n)
        if len(pivots) < n:
            raise Singular("matrix is singular")
        return QMatrix([row[n:] for row in m])


def char_poly(a: QMatrix):
    """Monic characteristic polynomial of a, coefficients leading-first.

    Berkowitz's division-free recursion on leading principal minors, so
    no intermediate denominators appear beyond the entries themselves.
    """
    n = a.n
    poly = [_ONE]  # char poly of the empty matrix
    for k in range(1, n + 1):
        akk = a.rows[k - 1][k - 1]
        row = a.rows[k - 1][: k - 1]
        col = [a.rows[i][k - 1] for i in range(k - 1)]
        minor = [a.rows[i][: k - 1] for i in range(k - 1)]
        # Toeplitz column (1, -a_kk, -R C, -R M C, ..., -R M^{k-2} C)
        toep = [_ONE, -akk]
        cur = col
        for _ in range(k - 1):
            toep.append(-sum(r * c for r, c in zip(row, cur)))
            cur = [sum(mr * c for mr, c in zip(m_row, cur)) for m_row in minor]
        new = [_ZERO] * (k + 1)
        for i in range(k + 1):
            for j in range(len(poly)):
                if 0 <= i - j < len(toep):
                    new[i] += toep[i - j] * poly[j]
        poly = new
    return tuple(poly)


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

    def all_zero(self) -> bool:
        return self.infinite_count == 0 and all(s == 0 for s, _ in self.slopes)

    def negative_exponent(self) -> int:
        """Sum of -v over roots with v < 0. Always an integer."""
        total = sum(-s * m for s, m in self.slopes if s < 0)
        assert total.denominator == 1
        return int(total)

    def expanded(self):
        out = []
        for s, m in self.slopes:
            out.extend([s] * m)
        return out


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
    # points (i, v(c_i)) with i the power of x
    pts = []
    d = len(coeffs) - 1
    for i in range(d + 1):
        c = coeffs[d - i]
        if c != 0:
            pts.append((i, Fraction(vp_frac(c, ctx.p))))
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
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        run = int(x2 - x1)
        val = -(y2 - y1) / run
        slopes.append((val, run))
    slopes.sort(key=lambda t: t[0])
    result = NewtonPolygon(tuple(slopes), infinite)
    assert result.total_multiplicity() == deg
    return result


def _canonical_rep(x: Fraction, e: int, p: int) -> Fraction:
    """Canonical representative of x modulo p^e Z_(p).

    The representative is m / p^t in [0, p^e) with m an integer; unit
    parts of the denominator are cleared by modular inversion.
    """
    if vp_frac(x, p) >= e:  # zero too: its valuation is INFINITY
        return _ZERO
    t = vp_int(x.denominator, p)
    mod = p ** (e + t)
    unit = x.denominator // p ** t
    m = x.numerator * pow(unit, -1, mod) % mod
    return Fraction(m, p ** t)


def _canonical_columns(ctx: PContext, cols):
    """Hermite-canonicalize generator columns over Z_(p).

    Returns the n canonical basis columns: upper triangular, diagonal
    entries exact powers of p, entry (i, j) for i < j reduced to its
    canonical representative mod p^{e_i}.
    """
    p = ctx.p
    n = len(cols[0])
    work = [[as_fraction(x) for x in col] for col in cols]
    if any(len(col) != n for col in work):
        raise ValueError("ragged generator columns")
    unassigned = list(range(len(work)))
    assigned = [None] * n
    for i in range(n - 1, -1, -1):
        best, bestv = None, None
        for j in unassigned:
            x = work[j][i]
            if x != 0:
                v = vp_frac(x, p)
                if bestv is None or v < bestv:
                    best, bestv = j, v
        if best is None:
            raise ValueError("generators do not span a full-rank lattice")
        piv = work[best]
        unassigned.remove(best)
        scale = 1 / (piv[i] / Fraction(p) ** bestv)
        for r in range(i + 1):
            piv[r] *= scale
        for j in unassigned:
            x = work[j][i]
            if x != 0:
                q = x / piv[i]
                for r in range(i + 1):
                    work[j][r] -= q * piv[r]
                work[j][i] = _ZERO
        assigned[i] = piv
    exps = [vp_frac(assigned[i][i], p) for i in range(n)]
    for j in range(n):
        col = assigned[j]
        for i in range(j - 1, -1, -1):
            rep = _canonical_rep(col[i], exps[i], p)
            q = (col[i] - rep) / assigned[i][i]
            if q != 0:
                for r in range(i + 1):
                    col[r] -= q * assigned[i][r]
            col[i] = rep
    return assigned


class Lattice:
    """Full-rank Z_p-lattice in canonical Hermite basis (columns)."""

    __slots__ = ("ctx", "n", "basis", "_basis_inverse")

    def __init__(self, ctx: PContext, generators):
        """generators: QMatrix or iterable of column vectors spanning the lattice."""
        if isinstance(generators, QMatrix):
            cols = generators.columns()
        else:
            cols = [tuple(col) for col in generators]
        if not cols:
            raise ValueError("no generators")
        canon = _canonical_columns(ctx, cols)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", len(canon))
        object.__setattr__(self, "basis", QMatrix.from_columns(canon))

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def standard(cls, ctx: PContext, n: int) -> "Lattice":
        return cls(ctx, QMatrix.identity(n))

    @classmethod
    def from_diagonal_exponents(cls, ctx: PContext, exps) -> "Lattice":
        p = Fraction(ctx.p)
        return cls(ctx, QMatrix.diagonal([p ** e for e in exps]))

    def diagonal_exponents(self):
        p = self.ctx.p
        return tuple(vp_frac(self.basis.rows[i][i], p) for i in range(self.n))

    def det_valuation(self) -> int:
        return sum(self.diagonal_exponents())

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.ctx.p == other.ctx.p
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ctx.p, self.basis))

    def __repr__(self):
        return f"Lattice(p={self.ctx.p}, basis={self.basis!r})"

    def coefficients_of(self, vec):
        """Solve basis * c = vec by back substitution."""
        vec = [as_fraction(x) for x in vec]
        n = self.n
        rows = self.basis.rows
        coeff = [_ZERO] * n
        for i in range(n - 1, -1, -1):
            acc = vec[i]
            for j in range(i + 1, n):
                acc -= rows[i][j] * coeff[j]
            coeff[i] = acc / rows[i][i]
        return tuple(coeff)

    def contains_vector(self, vec) -> bool:
        p = self.ctx.p
        return all(c.denominator % p != 0 for c in self.coefficients_of(vec))

    def __contains__(self, vec) -> bool:
        return self.contains_vector(vec)

    def contains_lattice(self, other: "Lattice") -> bool:
        self._check(other)
        return all(self.contains_vector(col) for col in other.basis.columns())

    def basis_inverse(self) -> QMatrix:
        """basis^-1, computed on first use: a lattice that serves as the
        reference of many comparisons is inverted once."""
        try:
            return self._basis_inverse
        except AttributeError:
            object.__setattr__(self, "_basis_inverse", self.basis.inverse())
            return self._basis_inverse

    def dual(self) -> "Lattice":
        """Dual lattice under the standard pairing."""
        return Lattice(self.ctx, self.basis.transpose().inverse())

    def _check(self, other: "Lattice"):
        if self.ctx.p != other.ctx.p or self.n != other.n:
            raise ValueError("lattices live in different spaces")


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both."""
    l1._check(l2)
    return Lattice(l1.ctx, l1.basis.columns() + l2.basis.columns())


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Largest lattice inside both, via duality: (L1 ^ L2)* = L1* + L2*."""
    l1._check(l2)
    return lattice_sum(l1.dual(), l2.dual()).dual()


def lattice_index(big: Lattice, small: Lattice) -> int:
    """Exponent e with [big : small] = p^e. Containment is verified."""
    big._check(small)
    if not big.contains_lattice(small):
        raise NotNested("second lattice is not contained in the first")
    return small.det_valuation() - big.det_valuation()


def apply(a: QMatrix, lat: Lattice) -> Lattice:
    """Image lattice a(L), canonicalized; it has full rank iff a is invertible."""
    image = a * lat.basis
    try:
        return Lattice(lat.ctx, image)
    except ValueError as exc:
        raise Singular("cannot apply a singular matrix to a lattice") from exc


def _local_snf(ctx: PContext, m: QMatrix, want_transform: bool):
    """Smith form over Z_(p): returns exponents (ascending) and, when
    requested, U with  m = U * diag(p^e) * (unimodular)."""
    p = ctx.p
    n = m.n
    a = [list(row) for row in m.rows]
    u = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)] if want_transform else None
    exps = []
    for t in range(n):
        best, bestv = None, None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] != 0:
                    v = vp_frac(a[i][j], p)
                    if bestv is None or v < bestv:
                        best, bestv = (i, j), v
        if best is None:
            raise Singular("matrix is singular in Smith reduction")
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            if u is not None:
                for r in range(n):  # U <- U * swap
                    u[r][t], u[r][bi] = u[r][bi], u[r][t]
        if bj != t:
            for r in range(n):
                a[r][t], a[r][bj] = a[r][bj], a[r][t]
        piv = a[t][t]
        unit = piv / Fraction(p) ** bestv
        inv_unit = 1 / unit
        for j in range(t, n):  # scale row to make pivot an exact power of p
            a[t][j] *= inv_unit
        if u is not None:
            for r in range(n):  # inverse op: scale column t of U by the unit
                u[r][t] *= unit
        piv = a[t][t]
        for i in range(t + 1, n):
            if a[i][t] != 0:
                q = a[i][t] / piv
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
                if u is not None:
                    for r in range(n):  # U <- U * (I + q E_{i,t})
                        u[r][t] += q * u[r][i]
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = a[t][j] / piv
                for i in range(t, n):
                    a[i][j] -= q * a[i][t]
        exps.append(bestv)
    assert all(x <= y for x, y in zip(exps, exps[1:]))
    return tuple(exps), (QMatrix(u) if want_transform else None)


def elementary_divisors(ref: Lattice, lat: Lattice):
    """Exponents e_1 <= ... <= e_n aligning lat with diag(p^e) * ref."""
    ref._check(lat)
    m = ref.basis_inverse() * lat.basis
    exps, _ = _local_snf(ref.ctx, m, want_transform=False)
    return exps


def elementary_divisors_with_directions(ref: Lattice, lat: Lattice):
    """Divisors plus aligned directions: columns w_i of the returned
    matrix satisfy  lat = span_Zp { p^{e_i} w_i }  and  ref = span { w_i }."""
    ref._check(lat)
    m = ref.basis_inverse() * lat.basis
    exps, u = _local_snf(ref.ctx, m, want_transform=True)
    directions = ref.basis * u
    check = Lattice(ref.ctx, directions * QMatrix.diagonal(
        [Fraction(ref.ctx.p) ** e for e in exps]))
    if check != lat:
        raise AssertionError("Smith transform failed verification")
    return exps, directions
