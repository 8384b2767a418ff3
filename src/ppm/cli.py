"""Command line interface.

    ppm <subcommand> [flags] <input>

Subcommands: scale | tidy | typer | flag | order | root | oracle | analyze.
Global flags: -p <prime>, --precision <N>, --json, --seed <int>.
Exit codes: 0 success, 2 inconclusive, 3 input error, 4 internal
invariant violation. An inconclusive run under --json also prints
{"inconclusive": <message>, "trace": <the cap's trace, or null>}.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import matio
from .analyzer import INCONCLUSIVE, GroupSpec, analyze, analyze_subgroup, is_catalog_name, \
    parse_group, FINITELY_GENERATED
from .dynamics import GeneratorSet, ku_flag, type_r_witness_search
from .errors import CapExceeded, InputError, InternalInvariantViolation, NotTypeR, \
    PpmError, PrecisionExhausted
from .qpcore import PContext, reduce_mod
from .roots import FOUND, NO_ROOT, PadicApproxMatrix, axb_root, congruence_root, \
    finite_root, unipotent_root
from .oracle import enumerate_group, validate_f1
from .scale import ScaleReport, invariant_lattice, scale_newton, scale_tidy
from .steinitz import CATALOG_ORDERS, ord_catalog

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INVARIANT = 4


def _parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", type=int, default=argparse.SUPPRESS,
                        help="prime (overrides/validates files)")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="residue working precision")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized spot checks")

    top = argparse.ArgumentParser(prog="ppm", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("-p", type=int, default=None, help="prime (overrides/validates files)")
    top.add_argument("--precision", type=int, default=20, help="residue working precision")
    top.add_argument("--json", action="store_true", help="machine readable output")
    top.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    sub = top.add_subparsers(dest="command", required=True)

    s = sub.add_parser("scale", parents=[common],
                       help="scale exponent of a linear map (Newton formula)")
    s.add_argument("matrix", help="matrix JSON file")

    s = sub.add_parser("tidy", parents=[common],
                       help="scale with a minimizing-lattice certificate")
    s.add_argument("matrix", help="matrix JSON file")
    s.add_argument("--cap", type=int, default=None, help="iteration bound")

    s = sub.add_parser("typer", parents=[common],
                       help="type-R word sampler on a generator set")
    s.add_argument("gens", help="generator JSON file")
    s.add_argument("--word-len", type=int, default=4)

    s = sub.add_parser("flag", parents=[common],
                       help="flag decomposition with bounded quotient actions")
    s.add_argument("gens", help="generator JSON file")

    s = sub.add_parser("order", parents=[common], help="pro-order of a catalog compact group")
    s.add_argument("group", choices=list(CATALOG_ORDERS))
    s.add_argument("-n", type=int, default=1)

    s = sub.add_parser("root", parents=[common], help="k-th root extraction")
    s.add_argument("--kind", required=True, choices=["unipotent", "congruence", "finite", "axb"])
    s.add_argument("-k", type=int, required=True)
    s.add_argument("--level", type=int, default=None)
    s.add_argument("input", help="matrix JSON file; for axb a JSON {a, b} object")

    s = sub.add_parser("oracle", parents=[common], help="exhaustive finite-quotient power map")
    s.add_argument("gens", help="generator JSON file")
    s.add_argument("--level", type=int, required=True)
    s.add_argument("-k", type=int, required=True)

    s = sub.add_parser("analyze", parents=[common],
                       help="density/surjectivity verdict for (group, k)")
    s.add_argument("group", help="catalog group like GL_Zp(2), or a generator JSON file")
    s.add_argument("-k", type=int, required=True)
    s.add_argument("--sub", default=None, help="also analyze this catalog subgroup")
    s.add_argument("--spot-checks", type=int, default=0)
    return top


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _load(args, path):
    """(the input document, its PContext under the -p and --precision flags)."""
    doc = matio.load_document(path)
    return doc, matio.context_of(doc, args.p, args.precision)


def _load_matrix(args, path):
    doc, ctx = _load(args, path)
    return ctx, matio.matrix_from_doc(doc)


def _load_gens(args, path):
    doc, ctx = _load(args, path)
    return ctx, GeneratorSet.of(ctx, matio.gens_from_doc(doc))


def _cmd_scale(args) -> int:
    ctx, mat = _load_matrix(args, args.matrix)
    m = scale_newton(mat, ctx)
    _emit(args, {"p": ctx.p, "scale_exponent": m, "scale": f"{ctx.p}^{m}"},
          f"s(alpha) = {ctx.p}^{m}")
    return EXIT_OK


def _report_payload(ctx, report: ScaleReport) -> dict:
    return {
        "p": ctx.p,
        "scale_exponent": report.scale_exponent,
        "minimizing_lattice": matio.lattice_doc(report.minimizing_lattice),
        "iteration_trace": [list(t) for t in report.iteration_trace],
        "method_agreement": report.method_agreement,
    }


def _cmd_tidy(args) -> int:
    ctx, mat = _load_matrix(args, args.matrix)
    report = scale_tidy(mat, ctx, cap=args.cap)
    inv = invariant_lattice(mat, ctx)
    payload = _report_payload(ctx, report)
    payload["invariant_lattice"] = matio.lattice_doc(inv) if inv else None
    text = (f"s(alpha) = {ctx.p}^{report.scale_exponent} after "
            f"{len(report.iteration_trace) - 1} tidying steps\n"
            f"minimizing lattice basis: {report.minimizing_lattice.basis!r}")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_typer(args) -> int:
    ctx, gens = _load_gens(args, args.gens)
    witness = type_r_witness_search(gens, args.word_len)
    if witness is None:
        _emit(args, {"ok": True, "word_len": args.word_len},
              f"all words up to length {args.word_len} are type R "
              "(necessary condition only)")
    else:
        _emit(args, {"ok": False, "witness": witness.word_str()},
              f"witness: {witness.word_str()} is not type R")
    return EXIT_OK


def _cmd_flag(args) -> int:
    ctx, gens = _load_gens(args, args.gens)
    try:
        flag = ku_flag(gens)
    except NotTypeR as exc:
        _emit(args, {"flag": None, "witness": exc.witness.word_str()},
              f"no flag: witness {exc.witness.word_str()} is not type R")
        return EXIT_OK
    if flag is None:
        _emit(args, {"flag": None, "inconclusive": True},
              "inconclusive: no certified flag within the caps")
        return EXIT_INCONCLUSIVE
    payload = {
        "dims": list(flag.dims),
        "flag_basis": matio.matrix_doc(flag.flag_basis, ctx),
        "quotient_lattices": [matio.lattice_doc(l) for l in flag.quotient_lattices],
    }
    _emit(args, payload, f"certified flag with dimensions {flag.dims}")
    return EXIT_OK


def _cmd_order(args) -> int:
    if args.p is None:
        raise InputError("order needs -p")
    value = ord_catalog(args.group, args.p, n=args.n)
    _emit(args, {"group": args.group, "p": args.p, "n": args.n, "order": str(value)},
          str(value))
    return EXIT_OK


def _cmd_root(args) -> int:
    if args.kind == "axb":
        doc, ctx = _load(args, args.input)
        try:
            elem = (matio.parse_scalar(str(doc["a"])), matio.parse_scalar(str(doc["b"])))
        except KeyError as exc:
            raise InputError("axb input needs fields \"a\" and \"b\"") from exc
        result = axb_root(elem, args.k, ctx, args.level)
    else:
        ctx, mat = _load_matrix(args, args.input)
        if args.kind == "unipotent":
            result = unipotent_root(mat, args.k)
        elif args.kind == "congruence":
            result = congruence_root(mat, args.k, ctx, args.level)
        else:
            result = finite_root(mat, args.k, ctx, args.level)
    payload = {"status": result.status}
    if result.status == FOUND:
        root = result.root
        if isinstance(root, PadicApproxMatrix):
            payload["root"] = [list(r) for r in root.entries]
            payload["level"] = root.level
            text = f"root mod {ctx.p}^{root.level}: {root.entries}"
        elif isinstance(root, tuple):
            a, b = root
            payload["root"] = {"a": a.value, "b": b.value, "level": a.level}
            text = f"root (a, b) = ({a.value}, {b.value}) mod {ctx.p}^{a.level}"
        else:
            payload["root"] = matio.matrix_doc(root, ctx)["entries"]
            text = f"exact root: {root!r}"
        _emit(args, payload, text)
        return EXIT_OK
    if result.status == NO_ROOT:
        payload["witness_level"] = result.witness_level
        _emit(args, payload,
              f"no root: every branch dies by level {result.witness_level}")
        return EXIT_OK
    payload["reason"] = result.reason
    _emit(args, payload, f"obstructed: {result.reason}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    doc, ctx = _load(args, args.gens)
    mats = matio.gens_from_doc(doc)
    int_gens = [tuple(tuple(reduce_mod(x, args.level, ctx).value for x in row)
                      for row in g.rows) for g in mats]
    table = enumerate_group(int_gens, ctx, args.level)
    check = validate_f1(table, args.k)
    payload = {"order": table.order, "image_size": check.image_size,
               "surjective": check.surjective, "f1_agree": check.agree}
    print(json.dumps(payload))  # this subcommand's interface is the JSON object
    return EXIT_OK if check.agree else EXIT_INVARIANT


def _cmd_analyze(args) -> int:
    rng = random.Random(args.seed)
    # a catalog name wins over a file of the same name
    if not is_catalog_name(args.group) and os.path.exists(args.group):
        ctx, gens = _load_gens(args, args.group)
        spec = GroupSpec(FINITELY_GENERATED, ctx, gens.n, gens)
    else:
        if args.p is None:
            raise InputError("analyze needs -p for catalog groups")
        ctx = PContext(args.p, args.precision)
        spec = parse_group(args.group, ctx)
    if args.sub is not None:
        pair = analyze_subgroup(spec, parse_group(args.sub, ctx), args.k)
        payload = {
            "parent": _verdict_payload(pair.parent),
            "subgroup": _verdict_payload(pair.subgroup),
            "relation": pair.relation,
            "note": pair.note,
        }
        text = (f"parent: {pair.parent.conclusion}\n"
                f"subgroup ({pair.relation}): {pair.subgroup.conclusion}"
                + (f"\nnote: {pair.note}" if pair.note else ""))
        _emit(args, payload, text)
        worst = [pair.parent.conclusion, pair.subgroup.conclusion]
        return EXIT_INCONCLUSIVE if INCONCLUSIVE in worst else EXIT_OK
    verdict = analyze(spec, args.k, spot_checks=args.spot_checks, rng=rng)
    _emit(args, _verdict_payload(verdict),
          f"P_{args.k} on {spec.describe()}: {verdict.conclusion}\n" +
          "\n".join(f"  [{name}] {detail}" for name, detail in verdict.justification))
    return EXIT_INCONCLUSIVE if verdict.conclusion == INCONCLUSIVE else EXIT_OK


def _verdict_payload(verdict) -> dict:
    return {
        "k": verdict.k,
        "conclusion": verdict.conclusion,
        "citations": verdict.citations(),
        "justification": [{"criterion": n, "detail": d} for n, d in verdict.justification],
        "certificate": verdict.certificate,
    }


_COMMANDS = {
    "scale": _cmd_scale,
    "tidy": _cmd_tidy,
    "typer": _cmd_typer,
    "flag": _cmd_flag,
    "order": _cmd_order,
    "root": _cmd_root,
    "oracle": _cmd_oracle,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error, already reported; --help exits 0
            return EXIT_INPUT
        raise
    try:
        return _COMMANDS[args.command](args)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CapExceeded, PrecisionExhausted) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps({"inconclusive": str(exc), "trace": getattr(exc, "trace", None)},
                             indent=2))
        return EXIT_INCONCLUSIVE
    except (PpmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
