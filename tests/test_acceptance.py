"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything randomized runs from the fixed seed below; all comparisons are
exact (zero tolerance) unless a runtime budget is stated.
"""
import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from ppm import modmat
from ppm.analyzer import ADDITIVE_QP, ADDITIVE_ZP, AXB_ZP_UNITS, BOREL_QP, GL_QP, GL_ZP, \
    NOT_DENSE, SURJECTIVE_AND_DENSE, UNITS_ZP, UPPER_UNIPOTENT_QP, GroupSpec, analyze
from ppm.dynamics import BOUNDED, GeneratorSet, bounded_group, ku_flag
from ppm.linalg import Lattice, QMatrix, apply, lattice_index, lattice_intersect
from ppm.oracle import enumerate_group, full_gl_generators, power_surjective, \
    unit_group_generators, validate_f1
from ppm.qpcore import PContext, vp
from ppm.roots import FOUND, PadicApproxMatrix, axb_root, congruence_root, finite_root, \
    unipotent_root
from ppm.scale import scale_newton, scale_tidy
from ppm.steinitz import general_linear_order

SEED = 20260810


def _announce(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


class _Criterion:
    def __init__(self, name):
        self.name = name
        self.ok = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *rest):
        self.ok = exc_type is None
        _announce(self.name, self.ok)
        return False


def _random_invertible(rng, n, bound=50):
    while True:
        m = QMatrix([[F(rng.randint(-bound, bound), rng.randint(1, bound))
                      for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


@pytest.fixture(scope="module")
def scale_sample():
    rng = random.Random(SEED)
    sample = []
    for p in (2, 3, 5):
        ctx = PContext(p)
        for n in (2, 3):
            for _ in range(34):
                sample.append((ctx, _random_invertible(rng, n)))
    return sample


def test_scale_agreement_on_random_sample(scale_sample):
    with _Criterion("scale-agreement (tidy vs Newton, 204 matrices, exact)"):
        start = time.monotonic()
        assert len(scale_sample) >= 200
        for ctx, mat in scale_sample:
            report = scale_tidy(mat, ctx)
            assert report.scale_exponent == scale_newton(mat, ctx)
            assert report.method_agreement
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_scale_tidy_in_dimension_eight():
    """a = c^-1 diag(u_i p^e_i) c on Q_3^8, with c = E diag(1, .., 1, 9, 27) E'
    for products E, E' of integer elementary matrices: the standard lattice
    is several tidying steps from the diagonal one. Both scales are known
    from the construction: the sums of the negative and of the positive e_i."""
    with _Criterion("scale-tidy-8x8 (both scales, tidy vs Newton, exact)"):
        p, n = 3, 8
        exps = [4, -1, 0, 5, -3, 1, 0, -5]
        units = [1, 2, -1, 4, 5, -2, 7, 1]
        rng = random.Random(SEED)

        def elementary_product():
            m = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                for r in range(n):
                    m[r][j] += c * m[r][i]
            return QMatrix(m)

        c = elementary_product() * QMatrix.diagonal([1] * (n - 2) + [p ** 2, p ** 3]) \
            * elementary_product()
        a = c.inverse() * QMatrix.diagonal([F(u) * F(p) ** e for u, e in zip(units, exps)]) * c
        ctx = PContext(p)
        fwd, back = scale_tidy(a, ctx), scale_tidy(a.inverse(), ctx)
        assert fwd.scale_exponent == sum(-e for e in exps if e < 0) == scale_newton(a, ctx)
        assert back.scale_exponent == sum(e for e in exps if e > 0)
        assert fwd.method_agreement and back.method_agreement
        for m, report in ((a, fwd), (a.inverse(), back)):
            # Z_p^n is not tidy, so the run iterates; the returned lattice's
            # index, measured directly, is the scale
            assert report.iteration_trace[0][1] > report.scale_exponent
            lat = report.minimizing_lattice
            img = apply(m, lat)
            assert lattice_index(img, lattice_intersect(img, lat)) == report.scale_exponent


def test_scale_laws_on_the_same_sample(scale_sample):
    with _Criterion("scale-laws (power law n<=5 and determinant relation, exact)"):
        for ctx, mat in scale_sample:
            base = scale_newton(mat, ctx)
            for n in range(1, 6):
                assert scale_newton(mat ** n, ctx) == n * base
            assert base - scale_newton(mat.inverse(), ctx) == -vp(mat.det(), ctx)


def test_coprimality_criterion_vs_brute_force():
    with _Criterion("finite-oracle-coprimality (units and GL tables, k <= 30)"):
        start = time.monotonic()
        tables = []
        for p in (2, 3, 5):
            ctx = PContext(p)
            for m in (1, 2, 3):
                tables.append(enumerate_group(unit_group_generators(p, m), ctx, m))
        tables.append(enumerate_group(full_gl_generators(2, 2, 1), PContext(2), 1))
        tables.append(enumerate_group(full_gl_generators(2, 2, 2), PContext(2), 2))
        tables.append(enumerate_group(full_gl_generators(2, 3, 1), PContext(3), 1))
        tables.append(enumerate_group(full_gl_generators(2, 3, 2), PContext(3), 2))
        orders = sorted(t.order for t in tables)
        assert 96 in orders and 48 in orders and 3888 in orders
        for table in tables:
            for k in range(1, 31):
                assert validate_f1(table, k).agree
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_unipotent_divisibility():
    with _Criterion("unipotent-divisibility (100 exact k-th roots, n <= 5, k <= 12)"):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 5])
            k = rng.randint(1, 12)
            rows = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = F(rng.randint(-9, 9), rng.randint(1, 9))
            u = QMatrix(rows)
            result = unipotent_root(u, k)
            assert result.status == FOUND
            assert result.root ** k == u


def test_congruence_roots_at_level_twenty():
    with _Criterion("congruence-roots (100 per prime, verified mod p^20)"):
        rng = random.Random(SEED + 2)
        level = 20
        for p in (2, 3, 5):
            ctx = PContext(p, level)
            base = 4 if p == 2 else p
            mod = p ** level
            for _ in range(100):
                n = rng.choice([1, 2, 3])
                while True:
                    k = rng.randint(1, 12)
                    if gcd(k, p) == 1:
                        break
                entries = tuple(tuple(((1 if i == j else 0) + base * rng.randrange(mod // base))
                                      % mod for j in range(n)) for i in range(n))
                a = PadicApproxMatrix(ctx, level, entries)
                result = congruence_root(a, k)
                assert result.status == FOUND
                assert modmat.mat_pow(result.root.entries, k, mod) == a.entries


def test_ku_flag_worked_example():
    with _Criterion("ku-flag-worked-example (two-step certified flag at p = 3)"):
        ctx = PContext(3)
        gens = GeneratorSet.of(ctx, [QMatrix([[1, 1], [0, 1]]),
                                     QMatrix([[1, F(1, 3)], [0, 1]])])
        flag = ku_flag(gens)
        assert flag is not None
        assert flag.dims == (0, 1, 2)
        first = flag.flag_basis.column(0)
        assert first[1] == 0 and first[0] != 0  # V_1 = span(e_1)
        std1 = Lattice.standard(ctx, 1)
        assert flag.quotient_lattices == (std1, std1)
        inv = flag.flag_basis.inverse()
        for g in gens.gens:
            conj = inv * g * flag.flag_basis
            assert conj.rows[1][0] == 0
            for i in range(2):
                assert apply(flag.block(conj, i), flag.quotient_lattices[i]) \
                    == flag.quotient_lattices[i]


def test_introductory_examples_reproduced():
    with _Criterion("introductory-examples (Z_p fails at k = p; Q_p divisible)"):
        for p in (2, 3, 5):
            ctx = PContext(p)
            assert analyze(GroupSpec(ADDITIVE_ZP, ctx), p).conclusion == NOT_DENSE
            for k in range(1, 61):
                assert analyze(GroupSpec(ADDITIVE_QP, ctx, 1), k).conclusion \
                    == SURJECTIVE_AND_DENSE


def _expected_conclusion(variant, p, k):
    if k == 1 or variant == UPPER_UNIPOTENT_QP:
        return SURJECTIVE_AND_DENSE
    if variant in (GL_QP, BOREL_QP):
        return NOT_DENSE
    if variant == GL_ZP:
        ok = gcd(k, general_linear_order(2, p)) == 1 and k % p
    else:  # UnitsZp and the semidirect product over it
        ok = gcd(k, (p - 1) * p) == 1 if p != 2 else k % 2 == 1
    return SURJECTIVE_AND_DENSE if ok else NOT_DENSE


def test_catalog_truth_table():
    with _Criterion("catalog-truth-table (six groups x k in {2,3,5,6,7,p} x p in {2,3,5})"):
        for p in (2, 3, 5):
            ctx = PContext(p)
            groups = {
                GL_ZP: GroupSpec(GL_ZP, ctx, 2),
                UNITS_ZP: GroupSpec(UNITS_ZP, ctx),
                AXB_ZP_UNITS: GroupSpec(AXB_ZP_UNITS, ctx),
                GL_QP: GroupSpec(GL_QP, ctx, 2),
                BOREL_QP: GroupSpec(BOREL_QP, ctx, 2),
                UPPER_UNIPOTENT_QP: GroupSpec(UPPER_UNIPOTENT_QP, ctx, 3),
            }
            for variant, spec in groups.items():
                for k in sorted({2, 3, 5, 6, 7, p}):
                    assert analyze(spec, k).conclusion == _expected_conclusion(variant, p, k), \
                        (variant, p, k)
        # oracle confirmation at enumerable finite levels
        confirmations = [
            (GL_ZP, 2, enumerate_group(full_gl_generators(2, 2, 2), PContext(2), 2)),
            (GL_ZP, 3, enumerate_group(full_gl_generators(2, 3, 2), PContext(3), 2)),
            (GL_ZP, 5, enumerate_group(full_gl_generators(2, 5, 1), PContext(5), 1)),
            (UNITS_ZP, 2, enumerate_group(unit_group_generators(2, 3), PContext(2), 3)),
            (UNITS_ZP, 3, enumerate_group(unit_group_generators(3, 2), PContext(3), 2)),
            (UNITS_ZP, 5, enumerate_group(unit_group_generators(5, 2), PContext(5), 2)),
        ]
        for variant, p, table in confirmations:
            for k in sorted({2, 3, 5, 6, 7, p}):
                finite_ok = power_surjective(table, k).surjective
                assert finite_ok == (_expected_conclusion(variant, p, k)
                                     == SURJECTIVE_AND_DENSE), (variant, p, k)


def test_internal_invariant_sweep():
    with _Criterion("invariant-sweep (all certificates re-verified, fixed seed)"):
        rng = random.Random(SEED + 3)
        violations = 0

        # roots: every Found result must re-verify by powering
        ctx = PContext(3, 6)
        mod = 3 ** 6
        for _ in range(40):
            a = tuple(tuple(rng.randrange(mod) for _ in range(2)) for _ in range(2))
            if not modmat.invertible_mod(a, 3):
                continue
            k = rng.randint(1, 10)
            result = finite_root(PadicApproxMatrix(ctx, 6, a), k)
            if result.status == FOUND:
                if modmat.mat_pow(result.root.entries, k, mod) != a:
                    violations += 1
        for _ in range(40):
            p = rng.choice([3, 5])
            cctx = PContext(p, 12)
            pmod = p ** 12
            n = rng.choice([1, 2])
            entries = tuple(tuple(((1 if i == j else 0) + p * rng.randrange(pmod // p)) % pmod
                                  for j in range(n)) for i in range(n))
            k = rng.choice([x for x in range(1, 12) if gcd(x, p) == 1])
            result = congruence_root(PadicApproxMatrix(cctx, 12, entries), k)
            if result.status != FOUND or \
                    modmat.mat_pow(result.root.entries, k, pmod) != entries:
                violations += 1
        for _ in range(20):
            actx = PContext(5, 8)
            a = rng.randrange(1, 5 ** 8)
            while a % 5 == 0:
                a = rng.randrange(1, 5 ** 8)
            b = rng.randrange(5 ** 8)
            k = rng.randint(1, 8)
            result = axb_root((a, b), k, actx)
            if result.status == FOUND:
                alpha, beta = result.root
                lvl_mod = 5 ** alpha.level
                geo = sum(pow(alpha.value, i, lvl_mod) for i in range(k)) % lvl_mod
                if pow(alpha.value, k, lvl_mod) != a % lvl_mod \
                        or geo * beta.value % lvl_mod != b % lvl_mod:
                    violations += 1

        # boundedness: every BOUNDED verdict carries an exactly invariant lattice
        flags = 0
        for _ in range(12):
            mats = []
            while len(mats) < 2:
                rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                m = QMatrix(rows)
                if abs(m.det()) == 1:
                    mats.append(m)
            group = GeneratorSet.of(PContext(3), mats)
            res = bounded_group(group)
            if res.verdict == BOUNDED:
                for g in group.gens:
                    if apply(g, res.invariant) != res.invariant:
                        violations += 1
                flag = ku_flag(group)
                if flag is None:
                    violations += 1
                else:
                    flags += 1
                    inv = flag.flag_basis.inverse()
                    for g in group.gens:
                        conj = inv * g * flag.flag_basis
                        for i in range(len(flag.dims) - 1):
                            hi = flag.dims[i + 1]
                            for r in range(hi, group.n):
                                for c in range(flag.dims[i], hi):
                                    if conj.rows[r][c] != 0:
                                        violations += 1
                            if apply(flag.block(conj, i), flag.quotient_lattices[i]) \
                                    != flag.quotient_lattices[i]:
                                violations += 1

        # tidying: traces are monotone and certified
        for _ in range(20):
            ctx_s = PContext(rng.choice([2, 3, 5]))
            mat = _random_invertible(rng, 2, bound=20)
            report = scale_tidy(mat, ctx_s)
            exps = [e for _, e in report.iteration_trace]
            if not all(x >= y for x, y in zip(exps, exps[1:])):
                violations += 1
            img = apply(mat, report.minimizing_lattice)
            if lattice_index(img, lattice_intersect(img, report.minimizing_lattice)) \
                    != report.scale_exponent:
                violations += 1

        assert flags >= 6
        assert violations == 0
