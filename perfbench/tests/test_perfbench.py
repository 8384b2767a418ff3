"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run small slices of each workload, so they take seconds, not the
length of a benchmark run.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import layertrace  # noqa: E402
import probe  # noqa: E402
import queries as qs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

import ppm  # noqa: E402
import ppm.analyzer  # noqa: E402

# cheap cells of each workload, enough to touch every query kind it has
CHEAP = {
    "fg_analyze": lambda s: s["n"] == 2 or s["family"] == "generic",
    "lattice_tidy": lambda s: s["n"] == 4,
    "finite_oracle": lambda s: s["table"] == "units" or (s["p"], s["m"]) in ((2, 1), (3, 1)),
    "residue_roots": lambda s: s["kind"] in ("congruence_root", "axb_root")
    or (s["kind"] == "finite_root" and (s["n"], s["p"]) in ((2, 3), (3, 5)))
    or (s["kind"] == "catalog" and s["variant"] != "GL_Zp"),
}


def _cheap(workload, seed, count=8):
    specs = [s for s in inputs.generate(workload, seed) if CHEAP[workload](s)]
    if workload == "residue_roots":  # keep the known ValueError query in the slice
        specs.sort(key=lambda s: (s["kind"] != "finite_root" or s["n"] != 3))
    return specs[:count]


def _traced_pass(specs):
    """Answers, outcome tally and per-layer counts of one traced pass."""
    built = [qs.build(s) for s in specs]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        answers = []
        for i, query in enumerate(built):
            try:
                answers.append(repr(tracer.run_query(i, query.run)))
            except Exception as exc:  # the known-defect query raises
                answers.append(f"{type(exc).__name__}: {exc}")
        tally = worker.run_passes(built, 0, tracer, min_passes=1)
    finally:
        tracer.uninstall()
    layers = layertrace.layer_metrics(tracer, len(built))
    counts = {k: v for k, v in layers.items() if not k.endswith("ms")}
    ratios = (tally.failed / tally.attempted, tally.outcomes["inconclusive"] / tally.attempted)
    return answers, tally.outcomes, ratios, counts


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs_answers_ratios_and_counts(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)
    specs = _cheap(workload, 7)
    first = _traced_pass(specs)
    assert first == _traced_pass(specs)
    assert first[1]["wrong"] == 0


def test_known_defects_stay_in_the_workloads():
    fg = inputs.generate("fg_analyze", 1)
    assert sum(s["family"] == "eight_cycle" for s in fg) == 1
    roots = inputs.generate("residue_roots", 1)
    assert any(s["kind"] == "finite_root" and (s["n"], s["p"]) == (3, 5) for s in roots)


def test_a_merged_pass_holds_the_queries_of_its_parts():
    def key(spec):
        return json.dumps(spec, sort_keys=True)
    for name, parts in inputs.MERGED.items():
        merged = inputs.generate(name, 5)
        assert sorted(map(key, merged)) == sorted(key(s) for part in parts
                                                  for s in inputs.generate(part, 5))
        assert merged != [s for part in parts for s in inputs.generate(part, 5)]


def test_every_pass_has_the_same_shape():
    def shape(specs):
        return sorted((s["kind"], s.get("family", s.get("table", s.get("variant"))),
                       s.get("n"), s.get("p")) for s in specs
                      if s["kind"] not in ("congruence_root", "axb_root", "catalog"))
    for workload in inputs.WORKLOADS:
        assert shape(inputs.generate(workload, 1)) == shape(inputs.generate(workload, 2))


def _first(workload, kind=None, **want):
    for spec in inputs.generate(workload, 3):
        if (kind is None or spec["kind"] == kind) and all(spec.get(k) == v
                                                          for k, v in want.items()):
            return spec
    raise LookupError(want)


def _corrupt_congruence_root(spec, res):
    p, level = spec["p"], spec["level"]
    entries = [list(row) for row in res.root.entries]
    entries[0][0] = (entries[0][0] + p ** (level - 1)) % p ** level  # same residue mod p
    return dataclasses.replace(res, root=ppm.PadicApproxMatrix(res.root.ctx, level, entries))


def _corrupt_tidy(spec, answer):
    fwd, back, lattice = answer
    return dataclasses.replace(fwd, scale_exponent=fwd.scale_exponent + 1), back, lattice


def _corrupt_oracle(spec, answer):
    order, results = answer
    k, res = results[0]
    return order, [(k, dataclasses.replace(res, surjective=not res.surjective))] + results[1:]


def _corrupt_catalog(spec, verdict):
    flipped = ppm.analyzer.NOT_DENSE if verdict.conclusion != ppm.analyzer.NOT_DENSE \
        else ppm.analyzer.SURJECTIVE_AND_DENSE
    return dataclasses.replace(verdict, conclusion=flipped)


def _corrupt_no_root(spec, res):
    # the target was built as a k-th power, so NO_ROOT is wrong
    return ppm.RootResult.no_root(spec["level"])


def _corrupt_witness(spec, verdict):
    # a generic query's witness, swapped for a word that is type R (g1 g1^-1)
    return dataclasses.replace(verdict, certificate={"witness_word": "g1·g1^-1"})


@pytest.mark.parametrize("spec, corrupt", [
    (_first("residue_roots", "congruence_root", n=2, level=20), _corrupt_congruence_root),
    (_first("lattice_tidy", n=4), _corrupt_tidy),
    (_first("finite_oracle", table="units"), _corrupt_oracle),
    (_first("residue_roots", "catalog", variant="UnitsZp"), _corrupt_catalog),
    (_first("fg_analyze", family="generic", n=2), _corrupt_witness),
    (_first("residue_roots", "finite_root", n=3, p=3), _corrupt_no_root),
])
def test_corrupted_answer_counts_as_failed(spec, corrupt):
    query = qs.build(spec)
    answer = query.run()
    assert query.check(answer) == qs.OK
    bad = corrupt(spec, answer)
    tally = worker.Tally(1)
    assert worker.execute(query, 0, tally, call=lambda: bad) == qs.WRONG
    assert (tally.attempted, tally.failed, tally.outcomes["wrong"]) == (1, 1, 1)
    assert tally.percentile_ms(50) == float("inf")  # a failed query misses any limit


def test_cross_module_calls_show_up_as_child_spans():
    ctx = ppm.PContext(3)
    # integral generators: every word is type R, so ku_flag repeats the search
    gens = ppm.GeneratorSet.of(ctx, [ppm.QMatrix([[1, 1], [0, 1]]),
                                     ppm.QMatrix([[0, 1], [-1, 0]])])
    spec = ppm.GroupSpec(ppm.analyzer.FINITELY_GENERATED, ctx, 2, gens)
    a = ppm.QMatrix([[2, 1], [1, Fraction(1, 3)]])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.run_query(0, lambda: ppm.analyze(spec, 5))
        tracer.run_query(1, lambda: ppm.scale_tidy(a, ctx))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]

    def parents(child):
        return {names[tracer.parent[i]] for i, name in enumerate(names) if name == child}

    assert parents("dynamics.type_r_witness_search") == {"analyzer.analyze", "dynamics.ku_flag"}
    assert parents("linalg.char_poly") >= {"dynamics.type_r_matrix", "scale.scale_newton"}
    assert parents("linalg.lattice_canon") >= {"linalg.apply"}
    assert parents("analyzer.analyze") == {layertrace.QUERY_SPAN}
    assert set(tracer.query) == {0, 1}
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(names)))
    # uninstall restored every namespace
    assert not hasattr(ppm.scale.char_poly, "__wrapped__")
    assert not hasattr(ppm.QMatrix.__mul__, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    outer = tracer.open("scale.scale_tidy")
    inner = tracer.open("linalg.char_poly")
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[outer], tracer.end[outer] = 0.0, 1.0
    tracer.start[inner], tracer.end[inner] = 0.25, 0.5
    _, self_s = tracer.summary()
    assert self_s == {"scale": 0.75, "linalg": 0.25}


def test_reference_arithmetic_agrees_with_closed_forms():
    m = [[Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(5)]]
    assert ref.char_poly(m) == [1, -7, Fraction(29, 3)]
    assert ref.char_poly(m) == list(ppm.char_poly(ppm.QMatrix(m)))
    assert ref.gl_order(2, 3, 2) == 3888 and ref.units_order(2, 7) == 64
    assert ref.mod_matpow([[1, 1], [0, 1]], 10, 7) == [[1, 3], [0, 1]]
    assert ref.axb_power(2, 1, 3, 1000) == (8, 7)
    assert ref.catalog_surjective("GL_Zp", 2, 3, 5)
    assert not ref.catalog_surjective("GL_Zp", 2, 3, 2)
    assert not ref.is_type_r([[Fraction(3), 0], [0, Fraction(1, 3)]], 3)


def test_figures_use_each_querys_median_across_passes_and_the_probe():
    tally = worker.Tally(100)
    for i in range(100):  # pass 2 ran under a burst of outside load
        tally.times[i] = [1.2 * (i + 1) / 1000, 5 * (i + 1) / 1000, (i + 1) / 1000]
    tally.passes = 3
    tally.outcomes["ok"] = 300
    # the median of (1, 1.2, 5) is 1.2
    assert tally.percentile_ms(90) == pytest.approx(108.0)  # ten queries lie beyond
    assert tally.percentile_ms(50) == pytest.approx(60.0)
    assert tally.throughput_qps() == pytest.approx(100 / 6.06)
    tally.probes = [probe.REFERENCE_S, 2 * probe.REFERENCE_S, 3 * probe.REFERENCE_S]
    rep = worker.report(tally)  # the host ran twice slower than nominal
    assert rep["wall"]["p50_ms"] == pytest.approx(60.0)
    assert rep["p50_ms"] == pytest.approx(30.0)
    assert rep["throughput_qps"] == pytest.approx(200 / 6.06)
    tally.failed_ids.add(0)
    assert tally.percentile_ms(90) == pytest.approx(109.2)


def test_run_refuses_a_directory_without_ppm(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fg_analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_the_metrics_the_run_reports():
    path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.MERGED)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layertrace.UNITS
    tracer = layertrace.Tracer()
    reported = set(layertrace.layer_metrics(tracer, 1)) | {"trace.overhead_ratio"}
    assert reported == set(layertrace.UNITS)
