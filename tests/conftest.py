"""Inputs, counters and references shared by several test modules."""
from fractions import Fraction as F

import pytest

import ppm.linalg
from ppm.linalg import QMatrix


@pytest.fixture
def hermite_calls(monkeypatch):
    """Calls of linalg's _triangular, _reduce and _hermite, counted while
    the test runs; calls.update(dict.fromkeys(calls, 0)) resets them."""
    calls = dict.fromkeys(("triangular", "reduce", "hermite"), 0)

    def counting(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    for name in calls:
        monkeypatch.setattr(ppm.linalg, f"_{name}", counting(name, getattr(ppm.linalg, f"_{name}")))
    return calls


@pytest.fixture
def eight_cycle():
    """g = c^-1 R c for the 8-cycle permutation matrix R and
    c = diag(3^(-10 min(i, 8 - i))). g^8 = 1, so g is type R at p = 3, yet
    each of the first saturation rounds grows the lattice by a factor 3^10."""
    exps = [-10 * min(i, 8 - i) for i in range(8)]
    return QMatrix([[F(3) ** (exps[j] - exps[i]) if j == (i + 1) % 8 else 0
                     for j in range(8)] for i in range(8)])


@pytest.fixture
def steep_symmetric():
    """(n, c) -> generators of S_n, the n-cycle and the transposition
    (0 1) as permutation matrices, conjugated by diag(3^(c min(i, n - i)))."""
    def gens(n, c):
        exps = [c * min(i, n - i) for i in range(n)]
        perms = ([(i + 1) % n for i in range(n)], [1, 0, *range(2, n)])
        return [QMatrix([[F(3) ** (exps[j] - exps[i]) if perm[i] == j else 0
                          for j in range(n)] for i in range(n)]) for perm in perms]
    return gens


def reference_rref(rows, width=None):
    """Gauss-Jordan in Fractions, each pivot row scaled to a unit pivot:
    an independent reference for the fraction-free kernel."""
    m = [[F(x) for x in row] for row in rows]
    width = len(m[0]) if width is None else width
    pivots, det, r = [], F(1), 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            det = F(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        top = m[r]
        det *= top[c]
        top[c:] = [x / top[c] for x in top[c:]]
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                f = row[c]
                row[c:] = [x - f * y for x, y in zip(row[c:], top[c:])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, det
