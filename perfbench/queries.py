"""Turn query specs into ppm calls and check every answer.

`build(spec)` runs at set-up: it makes the ppm input objects through
ppm's public constructors (PContext, QMatrix, GeneratorSet, GroupSpec,
PadicApproxMatrix). The returned Query's `run` is the timed call; `check`
judges the answer with reference.py only, never with ppm's own checks.
ppm functions are looked up on their modules at call time, so a tracer
that patches those modules sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import ppm
import ppm.analyzer
import ppm.oracle
from ppm.errors import CapExceeded, PrecisionExhausted

import reference as ref

OK = "ok"
INCONCLUSIVE = "inconclusive"
WRONG = "wrong"
ERROR = "error"

# exceptions that mean "ran out of a cap or of precision", not a failure
INCONCLUSIVE_ERRORS = (CapExceeded, PrecisionExhausted)


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


def build(spec: dict) -> Query:
    return _BUILDERS[spec["kind"]](spec)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _verdict(ok: bool) -> str:
    return OK if ok else WRONG


# ---- fg_analyze -----------------------------------------------------------

def _fg_analyze(spec):
    p, n, k = spec["p"], spec["n"], spec["k"]
    gens = [_frac_rows(g) for g in spec["gens"]]
    ctx = ppm.PContext(p)
    group = ppm.GeneratorSet.of(ctx, [ppm.QMatrix(g) for g in gens])
    gspec = ppm.GroupSpec(ppm.analyzer.FINITELY_GENERATED, ctx, n, group)
    has_short_witness = spec["family"] == "generic"

    def run():
        return ppm.analyze(gspec, k)

    def check(verdict):
        steps = [name for name, _ in verdict.justification]
        if verdict.conclusion == ppm.analyzer.NOT_DENSE:
            word = verdict.certificate["witness_word"]
            return _verdict(not ref.is_type_r(ref.word_matrix(gens, word), p))
        if verdict.conclusion != ppm.analyzer.INCONCLUSIVE or has_short_witness:
            # the one-letter word g1 of a generic query is a witness
            return WRONG
        if "flag-certified" in steps:
            dims = verdict.certificate["flag_dims"]
            return _verdict(dims[0] == 0 and dims[-1] == n
                            and all(a < b for a, b in zip(dims, dims[1:])))
        return INCONCLUSIVE if "flag-unresolved" in steps else WRONG

    return Query("fg_analyze", run, check)


# ---- lattice_tidy ---------------------------------------------------------

def _lattice_tidy(spec):
    p, exps = spec["p"], spec["exps"]
    a_rows = _frac_rows(spec["a"])
    ctx = ppm.PContext(p)
    a = ppm.QMatrix(a_rows)
    # the construction a = c^-1 diag(u_i p^e_i) c fixes the truth
    want_scale = sum(max(0, -e) for e in exps)
    want_inverse_scale = sum(max(0, e) for e in exps)
    want_invariant = all(e == 0 for e in exps)

    def run():
        fwd = ppm.scale_tidy(a, ctx)
        back = ppm.scale_tidy(a.inverse(), ctx)
        return fwd, back, ppm.invariant_lattice(a, ctx)

    def check(answer):
        fwd, back, lattice = answer
        if (fwd.scale_exponent, back.scale_exponent) != (want_scale, want_inverse_scale):
            return WRONG
        if not (fwd.method_agreement and back.method_agreement):
            return WRONG
        if (lattice is not None) != want_invariant:
            return WRONG
        if lattice is None:
            return OK
        basis = [list(row) for row in lattice.basis.rows]
        conj = ref.matmul(ref.matmul(ref.inverse(basis), a_rows), basis)
        return _verdict(ref.in_gl_zp(conj, p))

    return Query("lattice_tidy", run, check)


# ---- finite_oracle --------------------------------------------------------

def _finite_oracle(spec):
    p, m, n, ks = spec["p"], spec["m"], spec["n"], spec["ks"]
    ctx = ppm.PContext(p)
    table_kind = spec["table"]
    if table_kind == "gl":
        gens = ppm.oracle.full_gl_generators(n, p, m)
    elif table_kind == "units":
        gens = ppm.oracle.unit_group_generators(p, m)
    else:
        gens = [tuple(tuple(row) for row in g) for g in spec["gens"]]

    def run():
        table = ppm.enumerate_group(gens, ctx, m)
        return table.order, [(k, ppm.validate_f1(table, k)) for k in ks]

    def check(answer):
        order, results = answer
        if table_kind == "gl":
            ok = order == ref.gl_order(n, p, m)
        elif table_kind == "units":
            ok = order == ref.units_order(p, m)
        else:  # a conjugate of a subgroup of known order
            ok = order == spec["order"]
        for k, res in results:
            onto = ref.coprime(k, order)
            ok = ok and res.order == order and res.agree and res.surjective == onto \
                and (res.image_size == order) == onto
        return _verdict(ok)

    return Query("finite_oracle", run, check)


# ---- residue_roots --------------------------------------------------------

def _reduced(rows, mod):
    return [[x % mod for x in row] for row in rows]


def _congruence_root(spec):
    p, level, k = spec["p"], spec["level"], spec["k"]
    mod, base = p ** level, (4 if p == 2 else p)
    want = _reduced(spec["a"], mod)
    target = ppm.PadicApproxMatrix(ppm.PContext(p), level, spec["a"])

    def run():
        return ppm.congruence_root(target, k)

    def check(res):
        # k is prime to p, so a root exists in the pro-p congruence subgroup
        if res.status != "found":
            return WRONG
        x = [list(row) for row in res.root.entries]
        in_domain = all((x[i][j] - (i == j)) % base == 0
                        for i in range(len(x)) for j in range(len(x)))
        return _verdict(in_domain and ref.mod_matpow(x, k, mod) == want)

    return Query("congruence_root", run, check)


def _finite_root(spec):
    p, n, level, k = spec["p"], spec["n"], spec["level"], spec["k"]
    mod = p ** level
    want = _reduced(spec["a"], mod)
    target = ppm.PadicApproxMatrix(ppm.PContext(p), level, spec["a"])
    # a root exists when the target was built as a k-th power, and whenever
    # x -> x^k is a bijection of GL(n, Z/p^level): k prime to its order
    must_exist = spec["root_exists"] or ref.coprime(k, ref.gl_order(n, p, level))

    def run():
        return ppm.finite_root(target, k)

    def check(res):
        if res.status == "found":
            x = [list(row) for row in res.root.entries]
            return _verdict(ref.mod_matpow(x, k, mod) == want)
        return _verdict(res.status == "no_root" and not must_exist)

    return Query("finite_root", run, check)


def _axb_root(spec):
    p, level, k, a, b = spec["p"], spec["level"], spec["k"], spec["a"], spec["b"]
    ctx = ppm.PContext(p)
    # Z_p^* x Z_p has pro-order (p - 1) p^inf: k prime to it means a root exists
    must_exist = ref.coprime(k, (p - 1) * p)

    def run():
        return ppm.axb_root((a, b), k, ctx, level)

    def check(res):
        if res.status == "found":
            alpha, beta = res.root
            mod = p ** alpha.level
            return _verdict(beta.level == alpha.level
                            and ref.axb_power(alpha.value, beta.value, k, mod)
                            == (a % mod, b % mod))
        return _verdict(not must_exist)

    return Query("axb_root", run, check)


def _catalog(spec):
    variant, n, p, k, spots = spec["variant"], spec["n"], spec["p"], spec["k"], \
        spec["spot_checks"]
    gspec = ppm.GroupSpec(variant, ppm.PContext(p, spec["level"]), n)
    onto = ref.catalog_surjective(variant, n, p, k)

    def run():
        return ppm.analyze(gspec, k, spot_checks=spots)

    def check(verdict):
        if not onto:
            return _verdict(verdict.conclusion == ppm.analyzer.NOT_DENSE)
        return _verdict(verdict.conclusion == ppm.analyzer.SURJECTIVE_AND_DENSE
                        and verdict.certificate.get("spot_roots") == spots)

    return Query("catalog", run, check)


_BUILDERS = {
    "fg_analyze": _fg_analyze,
    "lattice_tidy": _lattice_tidy,
    "finite_oracle": _finite_oracle,
    "congruence_root": _congruence_root,
    "finite_root": _finite_root,
    "axb_root": _axb_root,
    "catalog": _catalog,
}
