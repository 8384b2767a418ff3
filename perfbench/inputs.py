"""Seeded query sets for the four workloads and the two that merge them.

`generate(workload, seed)` returns one pass: a list of JSON-ready query
specs. The layout of a pass is fixed per workload: which families, sizes,
primes and k-classes appear, and how often. The seed draws only what
leaves a query's cost alone: basis signs, conjugates of the oracle
subgroups, congruence and ax+b targets, and k values of the same bit
length and popcount. What would change the cost is fixed per slot of a
cell. Different seeds thus give different matrices but passes of the
same shape and cost, which keeps the figures steady across seeds.
Rationals travel as "a/b" strings. Nothing here imports ppm: ppm sees
only these generated inputs.
"""
from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("fg_analyze", "lattice_tidy", "finite_oracle", "residue_roots")
# the workloads BENCHMARK.json gates: two of the above in each pass, one per
# kind of arithmetic (Fraction linear algebra, matrices mod p^m)
MERGED = {"rational": ("fg_analyze", "lattice_tidy"),
          "modular": ("finite_oracle", "residue_roots")}
NAMES = WORKLOADS + tuple(MERGED)


def generate(workload: str, seed: int) -> list:
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    queries = []
    for part in MERGED.get(workload, (workload,)):
        queries += _BUILDERS[part](random.Random(f"{part}:{seed}"))
    # interleave the cells; the order is part of the seed
    random.Random(f"{workload}:{seed}").shuffle(queries)
    return queries


def _enc(mat):
    return [[str(Fraction(x)) for x in row] for row in mat]


def _ks(rng, count, lo, hi, popcount, keep=lambda k: True):
    """count distinct k in [lo, hi) with the given popcount: powering by any
    of them costs the same number of multiplications."""
    pool = [k for k in range(lo, hi) if bin(k).count("1") == popcount and keep(k)]
    return sorted(rng.sample(pool, count))


def _elementary_product(rng, n, steps):
    """A random integral matrix of determinant 1."""
    m = ref.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = ref.identity(n)
        e[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
        m = ref.matmul(m, e)
    return m


def _permutation_matrix(perm):
    n = len(perm)
    return [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]


def _conjugate(mat, c):
    return ref.matmul(ref.matmul(ref.inverse(c), mat), c)


def _random_gl(rng, n, p, level):
    """A random matrix mod p^level that is invertible mod p."""
    mod = p ** level
    while True:
        a = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        if ref.char_poly([[Fraction(x % p) for x in row] for row in a])[-1] % p:
            return a


def _mod_conjugate(g, c, p, level):
    """c g c^-1 mod p^level, c^-1 by Gauss-Jordan over Z/p^level; conjugates
    share the group order and root structure of g."""
    n, mod = len(c), p ** level
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(c)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] % p)
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, mod)
        m[col] = [x * inv % mod for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % mod for x, y in zip(m[r], m[col])]
    c_inv = [row[n:] for row in m]
    return ref.mod_matmul(ref.mod_matmul(c, g, mod), c_inv, mod)


# ---- fg_analyze -----------------------------------------------------------

# fixed generator pairs; a query draws a random conjugate of one of them
_FREE_PAIRS = {  # integral, determinant 1, no short relations
    2: ([[1, 2], [0, 1]], [[1, 0], [2, 1]]),
    3: ([[1, 2, 0], [0, 1, 2], [0, 0, 1]], [[1, 0, 0], [2, 1, 0], [0, 2, 1]]),
}
_UNIPOTENT_NUMERATORS = {2: ((1,), (3,), (2,)), 3: ((1, 2, 1), (2, -1, 3), (-1, 1, 2))}


def _unimodular(rng, n, ngens, p):
    """U^-1 g U for a fixed free pair g (plus their product as a third
    generator) and a random unimodular U: bounded, every word type R."""
    a, b = ([[Fraction(x) for x in row] for row in m] for m in _FREE_PAIRS[n])
    gens = [a, b] + ([ref.matmul(a, b)] if ngens == 3 else [])
    u = _elementary_product(rng, n, n + 1)
    return [_conjugate(g, u) for g in gens]


def _unipotent(rng, n, ngens, p):
    """Upper unitriangular generators with entries (fixed numerator) / p^2,
    conjugated by diag(units) times a random integral unitriangular matrix."""
    gens = []
    for numerators in _UNIPOTENT_NUMERATORS[n][:ngens]:
        m = ref.identity(n)
        above = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), num in zip(above, numerators):
            m[i][j] = Fraction(num, p ** 2)
        gens.append(m)
    c = ref.identity(n)
    for i in range(n):
        c[i][i] = Fraction(rng.choice([u for u in (1, -1, 2, -2, 4) if u % p]))
        for j in range(i + 1, n):
            c[i][j] = Fraction(rng.randint(-2, 2))
    return [_conjugate(g, c) for g in gens]


def _generic(rng, n, ngens, p):
    """g1 = U diag(p^a, 1, ..) V with U, V unimodular and a != 0, so det g1
    is not a unit and the one-letter word g1 is a witness; the other
    generators are random invertible rationals."""
    d = ref.identity(n)
    d[0][0] = Fraction(p) ** rng.choice((-2, -1, 1, 2))
    gens = [ref.matmul(ref.matmul(_elementary_product(rng, n, n), d),
                       _elementary_product(rng, n, n))]
    while len(gens) < ngens:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
             for _ in range(n)]
        if ref.char_poly(m)[-1] != 0:
            gens.append(m)
    return gens


# exponent profiles of the diagonal conjugator c, per dimension
_PERM_EXPS = {2: (0, 4), 3: (-3, 0, 3), 4: (-4, -1, 2, 5)}


def _perm_conj(rng, n, ngens, p):
    """c^-1 R_i c with c = diag(p^e) and R_i generating a fixed finite group
    (an n-cycle and a transposition, so S_n; -1 as third generator), all
    relabelled by a random permutation: every word is type R, and lattice
    saturation takes several rounds."""
    cycle = [(i + 1) % n for i in range(n)]
    swap = [1, 0] + list(range(2, n))
    mats = [_permutation_matrix(cycle), _permutation_matrix(swap)]
    if n == 2:
        mats[1] = [[Fraction(-1) if i == j else Fraction(0) for j in range(n)]
                   for i in range(n)]
    if ngens == 3:
        mats.append([[Fraction(-1) if i == j else Fraction(0) for j in range(n)]
                     for i in range(n)])
    relabel = list(range(n))
    rng.shuffle(relabel)
    exps = list(_PERM_EXPS[n])
    rng.shuffle(exps)
    c = [[Fraction(p) ** exps[i] if relabel[i] == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    return [_conjugate(m, c) for m in mats]


def _eight_cycle():
    """The 8-cycle conjugated by diag(3^(-10 min(i, 8 - i))): g^8 = 1, yet
    bounded_group reports UNBOUNDED and ku_flag gives up (flag-unresolved)."""
    n = 8
    exps = [-10 * min(i, n - i) for i in range(n)]
    return [[[Fraction(3) ** (exps[j] - exps[i]) if j == (i + 1) % n else Fraction(0)
              for j in range(n)] for i in range(n)]]


# (family, n, generator count, queries per prime); primes are 2, 3 and 5
_FG_CELLS = (
    ("generic", 2, 2, 4), ("generic", 3, 2, 3), ("generic", 3, 3, 2), ("generic", 4, 2, 3),
    ("perm_conj", 2, 2, 3), ("perm_conj", 2, 3, 3), ("perm_conj", 3, 2, 3),
    ("perm_conj", 3, 3, 1), ("perm_conj", 4, 2, 1),
    ("unipotent", 2, 2, 3), ("unipotent", 2, 3, 1), ("unipotent", 3, 2, 1),
    ("unimodular", 2, 2, 4), ("unimodular", 3, 2, 1),
)
_FG_FAMILIES = {"generic": _generic, "perm_conj": _perm_conj, "unipotent": _unipotent,
                "unimodular": _unimodular}


def _sign_relabel(rng, gens):
    """D^-1 g D for a random diagonal D of signs: the same group with some
    basis vectors negated. A permutation of the basis would change the cost
    of the Hermite forms behind the flags; signs do not."""
    signs = [rng.choice((1, -1)) for _ in gens[0]]
    return [[[x * signs[i] * signs[j] for j, x in enumerate(row)] for i, row in enumerate(g)]
            for g in gens]


def _fg_analyze(rng):
    out = []
    for family, n, ngens, count in _FG_CELLS:
        for p in (2, 3, 5):
            for i in range(count):
                # the generators are fixed per slot of the cell, so the cost of
                # a pass does not depend on the seed; the seed only relabels
                fixed = random.Random(f"fg_analyze:{family}:{n}:{ngens}:{p}:{i}")
                gens = _sign_relabel(rng, _FG_FAMILIES[family](fixed, n, ngens, p))
                out.append({"kind": "fg_analyze", "family": family, "p": p, "n": n,
                            "k": rng.randint(2, 12), "gens": [_enc(g) for g in gens]})
    out.append({"kind": "fg_analyze", "family": "eight_cycle", "p": 3, "n": 8,
                "k": rng.randint(2, 12), "gens": [_enc(g) for g in _eight_cycle()]})
    return out


# ---- lattice_tidy ---------------------------------------------------------

# eigenvalue valuation profiles e (a = c^-1 diag(u_i p^e_i) c), per dimension
_TIDY_EXPS = {4: (-5, -2, 1, 6), 5: (-4, -2, 0, 3, 5), 6: (-6, -3, -1, 2, 4, 6),
              7: (-5, -3, -1, 0, 1, 3, 5), 8: (-6, -4, -2, -1, 1, 2, 4, 6)}
# (n, hyperbolic queries per prime, elliptic queries per prime)
_TIDY_CELLS = ((4, 9, 3), (5, 7, 3), (6, 4, 2), (7, 3, 0), (8, 3, 0))


def _tidy_query(rng, n, p, elliptic, slot):
    """a = D (cS)^-1 diag(u_i p^e_i) (cS) D. c = U diag(1, .., 1, p, p^2) V is
    fixed per (n, p), with U, V unimodular, so the standard lattice is two
    steps from c's. The signed permutation S, the order of the exponents
    e_i and the units u_i are fixed per slot of the cell, because they
    change the cost of the Hermite forms; the seed draws only the diagonal
    of signs D, which does not."""
    fixed = random.Random(f"lattice_tidy:{n}:{p}:{elliptic}:{slot}")
    exps = [0] * n if elliptic else list(_TIDY_EXPS[n])
    fixed.shuffle(exps)
    units = [fixed.choice([u for u in (1, -1, 2, -2, 3, 4, 6, 7) if u % p]) for _ in range(n)]
    d = [[Fraction(units[i]) * Fraction(p) ** exps[i] if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    shift = ref.identity(n)
    shift[n - 2][n - 2], shift[n - 1][n - 1] = Fraction(p), Fraction(p * p)
    fixed_c = random.Random(f"lattice_tidy:c:{n}:{p}")
    c = ref.matmul(ref.matmul(_elementary_product(fixed_c, n, n), shift),
                   _elementary_product(fixed_c, n, n))
    perm = list(range(n))
    fixed.shuffle(perm)
    signed = [[Fraction(fixed.choice((1, -1))) if perm[i] == j else Fraction(0)
               for j in range(n)] for i in range(n)]
    a = _sign_relabel(rng, [_conjugate(d, ref.matmul(c, signed))])[0]
    return {"kind": "lattice_tidy", "p": p, "n": n, "exps": exps, "a": _enc(a)}


def _lattice_tidy(rng):
    out = []
    for n, hyperbolic, elliptic in _TIDY_CELLS:
        for p in (2, 3, 5):
            out += [_tidy_query(rng, n, p, False, slot) for slot in range(hyperbolic)]
            out += [_tidy_query(rng, n, p, True, slot) for slot in range(elliptic)]
    return out


# ---- finite_oracle --------------------------------------------------------

# full GL(2, Z/p^m): (p, m, number of k values, queries); large tables get few k
_GL_TABLES = ((2, 1, 30, 10), (2, 2, 8, 6), (3, 1, 15, 8), (5, 1, 3, 3), (7, 1, 1, 1),
              (2, 3, 1, 1), (3, 2, 1, 1))
# (Z/p^m)^* as 1x1 matrices: (p, m, number of k values, queries)
_UNIT_TABLES = ((3, 5, 6, 5), (5, 3, 6, 5), (2, 7, 6, 5), (7, 3, 4, 5), (3, 6, 3, 5),
                (11, 2, 6, 5), (13, 2, 5, 5), (2, 9, 4, 5))
# 2-generator subgroups of GL(2, Z/p^m), drawn as random conjugates of fixed
# generator pairs: (p, m, generators, order, number of k values)
_SUB_TABLES = (
    (2, 2, (((1, 3), (1, 0)), ((0, 3), (3, 1))), 48, 6),
    (2, 2, (((2, 1), (3, 1)), ((3, 3), (0, 1))), 24, 6),
    (3, 1, (((1, 1), (2, 0)), ((2, 1), (2, 0))), 24, 6),
    (3, 1, (((1, 0), (1, 2)), ((2, 1), (1, 0))), 16, 6),
    (5, 1, (((3, 1), (0, 2)), ((0, 2), (2, 3))), 120, 4),
    (5, 1, (((4, 4), (0, 3)), ((2, 2), (4, 2))), 96, 4),
    (2, 3, (((4, 5), (7, 4)), ((5, 7), (3, 2))), 192, 3),
    (7, 1, (((1, 0), (4, 3)), ((3, 0), (6, 3))), 252, 2),
    (3, 2, (((8, 3), (7, 2)), ((7, 3), (3, 1))), 162, 2),
)
_SUB_QUERIES = 4  # conjugates per subgroup


def _oracle_ks(rng, count):
    return _ks(rng, count, 128, 256, 4)


def _finite_oracle(rng):
    out = []
    for p, m, nk, count in _GL_TABLES:
        out += [{"kind": "finite_oracle", "table": "gl", "p": p, "m": m, "n": 2,
                 "ks": _oracle_ks(rng, nk)} for _ in range(count)]
    for p, m, nk, count in _UNIT_TABLES:
        out += [{"kind": "finite_oracle", "table": "units", "p": p, "m": m, "n": 1,
                 "ks": _oracle_ks(rng, nk)} for _ in range(count)]
    for p, m, gens, order, nk in _SUB_TABLES:
        for _ in range(_SUB_QUERIES):
            c = _random_gl(rng, 2, p, m)
            out.append({"kind": "finite_oracle", "table": "sub", "p": p, "m": m, "n": 2,
                        "gens": [_mod_conjugate(g, c, p, m) for g in gens],
                        "order": order, "ks": _oracle_ks(rng, nk)})
    return out


# ---- residue_roots --------------------------------------------------------

def _fixed_gl(n, p, level, tag):
    """A fixed invertible matrix mod p^level, the same for every seed."""
    rng = random.Random(f"residue_roots:template:{tag}")
    return _random_gl(rng, n, p, level)


def _congruence_query(rng, n, level, p):
    base = 4 if p == 2 else p
    mod = p ** level
    a = [[(int(i == j) + base * rng.randrange(mod)) % mod for j in range(n)]
         for i in range(n)]
    k = _ks(rng, 1, 16, 32, 3, keep=lambda k: k % p)[0]
    return {"kind": "congruence_root", "p": p, "n": n, "level": level, "k": k, "a": a}


def _finite_query(n, p, level, k, copy=0, power_of_template=False):
    """A fixed target per slot, with no seeded part: finite_root stops at the
    first seed that lifts, so where the roots fall among the candidates, and
    with it the cost, changes with any change of the target."""
    template = _fixed_gl(n, p, level, f"{n}:{p}:{level}:{k}")
    if power_of_template:  # T = X^k, so a root exists
        template = ref.mod_matpow(template, k, p ** level)
    conjugator = _fixed_gl(n, p, level, f"conjugator:{n}:{p}:{level}:{k}:{copy}")
    return {"kind": "finite_root", "p": p, "n": n, "level": level, "k": k,
            "root_exists": power_of_template,
            "a": _mod_conjugate(template, conjugator, p, level)}


def _axb_query(rng, p):
    level = rng.randint(10, 20)
    mod = p ** level
    a = rng.randrange(1, mod)
    while a % p == 0:
        a = rng.randrange(1, mod)
    return {"kind": "axb_root", "p": p, "level": level, "k": rng.randint(2, 12),
            "a": a, "b": rng.randrange(mod)}


# catalog analyze cells: (variant, n, p, spot checks, level, onto)
_CATALOG_CELLS = (
    ("GL_Zp", 2, 3, 2, 6, True), ("GL_Zp", 2, 5, 2, 6, True), ("GL_Zp", 2, 3, 2, 6, False),
    ("GL_Zp", 2, 7, 2, 6, False),
    ("UnitsZp", 1, 3, 3, 8, True), ("UnitsZp", 1, 5, 3, 8, True), ("UnitsZp", 1, 7, 3, 8, True),
    ("UnitsZp", 1, 5, 3, 8, False),
    ("AxB_ZpUnits", 1, 3, 3, 10, True), ("AxB_ZpUnits", 1, 7, 3, 10, True),
    ("AxB_ZpUnits", 1, 5, 3, 10, False),
)


def _catalog_query(variant, n, p, spots, level, onto, copy):
    """k is fixed per slot: the spot roots cost more for some k than others."""
    pool = [k for k in range(2, 40) if ref.catalog_surjective(variant, n, p, k) == onto]
    fixed = random.Random(f"residue_roots:catalog:{variant}:{n}:{p}:{onto}:{copy}")
    return {"kind": "catalog", "variant": variant, "n": n, "p": p, "level": level,
            "k": fixed.choice(pool), "spot_checks": spots}


def _residue_roots(rng):
    out = []
    for n in (1, 2, 3, 4):
        for level in (20, 60, 100):
            out += [_congruence_query(rng, n, level, p) for p in (2, 3, 5, 7)]
    # two draws per p = 7 cell, so the 90th percentile falls inside that block
    for p, copies in ((3, 1), (5, 1), (7, 2)):
        for level in (4, 7, 10):
            for k in (2, 3, 5):
                out += [_finite_query(2, p, level, k, copy) for copy in range(copies)]
    # the seed search walks all 3^9 candidates
    out.append(_finite_query(3, 3, 4, 2, power_of_template=True))
    # GL(3, F_5) exceeds the enumeration cap: ValueError today (a known defect)
    out.append(_finite_query(3, 5, 4, 2))
    for p in (3, 5, 7):
        out += [_axb_query(rng, p) for _ in range(5)]
    for cell in _CATALOG_CELLS:
        out += [_catalog_query(*cell, copy) for copy in range(2)]
    return out


_BUILDERS = {"fg_analyze": _fg_analyze, "lattice_tidy": _lattice_tidy,
             "finite_oracle": _finite_oracle, "residue_roots": _residue_roots}
