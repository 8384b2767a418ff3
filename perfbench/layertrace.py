"""Tracing ppm from outside, by wrapping its public layer functions.

`Tracer.install()` replaces each function listed in SPANS with a wrapper
that records a span, in every `ppm.*` namespace that holds the function
(so `scale` -> `char_poly` is traced although `scale` imported it by
name), and each hot primitive in COUNTERS with a wrapper that only counts.
`uninstall()` puts the originals back.

A span is (name, start, end, parent span, query id), kept in flat arrays
in memory. Each span also stores how far each counter advanced while it
was open, so counts can be attributed to the layer call that caused them.
`layer_metrics()` derives the per-layer figures from the spans after the run.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# module -> public functions (or Class.method) that get a span
SPANS = {
    "analyzer": ("analyze", "analyze_subgroup", "parse_group"),
    "dynamics": ("type_r_matrix", "type_r_witness_search", "bounded_group", "ku_flag",
                 "common_fixed_space"),
    "linalg": ("char_poly", "newton_polygon", "lattice_sum", "lattice_intersect",
               "lattice_index", "apply", "elementary_divisors",
               "elementary_divisors_with_directions", "QMatrix.det", "QMatrix.inverse",
               "Lattice.__init__", "Lattice.dual"),
    "scale": ("scale_newton", "scale_tidy", "invariant_lattice", "default_iteration_cap"),
    "roots": ("nilpotent_log", "unipotent_root", "congruence_root", "finite_root",
              "axb_root"),
    "oracle": ("enumerate_group", "power_surjective", "validate_f1", "full_gl_generators",
               "unit_group_generators", "is_subgroup", "lagrange_consistent"),
    "modmat": ("mat_pow", "mat_inv", "det_mod", "invertible_mod"),
    "steinitz": ("coprime", "profinite_surjective", "ord_catalog", "general_linear_order",
                 "lcm", "parse_supernatural", "Supernatural.from_int"),
    "qpcore": ("vp", "reduce_mod", "is_prime"),
}
# span names that read better than the function name
RENAMES = {"linalg.Lattice.__init__": "linalg.lattice_canon",
           "linalg.QMatrix.det": "linalg.det", "linalg.QMatrix.inverse": "linalg.inverse"}
# counted, no span: three hot primitives (their time stays with the caller)
# and the candidates all_invertible_mats yields to finite_root's seed search
COUNTERS = {"linalg.qmatrix_mul": ("linalg", "QMatrix.__mul__"),
            "modmat.mat_mul": ("modmat", "mat_mul"),
            "qpcore.vp_int": ("qpcore", "vp_int"),
            "modmat.all_invertible_mats.items": ("modmat", "all_invertible_mats")}
COUNTER_NAMES = tuple(COUNTERS)
LAYERS = tuple(SPANS)
QUERY_SPAN = "bench.query"


class Tracer:
    def __init__(self):
        self.names = [QUERY_SPAN]
        self.name_id = {QUERY_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.deltas = [array("q") for _ in COUNTER_NAMES]
        self.counts = [0] * len(COUNTER_NAMES)
        self.stack = []
        self.query_id = -1
        self.probes = {"tidy_steps": 0, "saturation_rounds": 0, "elements": 0,
                       "power_elements": 0, "congruence_levels": 0, "seed_hits": 0}
        self._seed_target = None
        self._saved = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = self.name_id.get(name)
        if sid is None:
            sid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        for d, c in zip(self.deltas, self.counts):
            d.append(-c)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        for d, c in zip(self.deltas, self.counts):
            d[idx] += c

    def run_query(self, query_id: int, fn):
        """Call fn() inside a root span tagged with query_id."""
        self.query_id = query_id
        idx = self.open(QUERY_SPAN)
        try:
            return fn()
        finally:
            self.close(idx)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ppm" or name.startswith("ppm."))]
        for layer, attrs in SPANS.items():
            for attr in attrs:
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                self._patch(modules, layer, attr, self._span_wrapper(name))
        for i, (layer, attr) in enumerate(COUNTERS.values()):
            wrap = self._generator_counter if attr == "all_invertible_mats" \
                else self._counter
            self._patch(modules, layer, attr, wrap(i))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def _patch(self, modules, layer, attr, make):
        module = sys.modules[f"ppm.{layer}"]
        if "." in attr:  # a method: patch the class, which every importer shares
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            if isinstance(original, classmethod):
                setattr(cls, meth, classmethod(make(original.__func__)))
            else:
                setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name):
        probe = _PROBES.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                if probe is not None:
                    probe(self, args, kwargs, None, before=True)
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if probe is not None:
                    probe(self, args, kwargs, result, before=False)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _counter(self, i):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[i] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _generator_counter(self, i):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[i] += 1
                    yield item
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_s,end_s,parent,query,<counter deltas>."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,query," + ",".join(COUNTER_NAMES) + "\n")
            for i in range(len(self.name)):
                deltas = ",".join(str(d[i]) for d in self.deltas)
                out.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                          f"{self.end[i]:.9f},{self.parent[i]},{self.query[i]},{deltas}\n")

    def summary(self):
        """Per span name: (calls, inclusive seconds), plus self seconds per
        layer; a layer's self time is its spans' time minus the time of
        their direct child spans."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = {}
        for i in range(n):
            sid = self.name[i]
            calls[sid] += 1
            incl[sid] += dur[i]
            layer = self.names[sid].split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        by_name = {self.names[s]: (calls[s], incl[s]) for s in range(len(self.names))}
        return by_name, self_s

    def calls_under(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called `name` with an `ancestor` span above them (or
        directly above them when direct=True)."""
        sid, aid = self.name_id.get(name), self.name_id.get(ancestor)
        if sid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.name)):
            if self.name[i] != sid:
                continue
            par = self.parent[i]
            while par >= 0:
                if self.name[par] == aid:
                    hits += 1
                    break
                if direct:
                    break
                par = self.parent[par]
        return hits

    def counter_under(self, counter: str, name: str) -> int:
        """Counter advance inside all spans called `name` (which never nest)."""
        sid = self.name_id.get(name)
        deltas = self.deltas[COUNTER_NAMES.index(counter)]
        return sum(deltas[i] for i in range(len(self.name)) if self.name[i] == sid)


# -- result probes: counts read off arguments and return values --------------

def _tidy_probe(tr, args, kwargs, result, before):
    if not before:
        tr.probes["tidy_steps"] += len(result.iteration_trace)


def _bounded_probe(tr, args, kwargs, result, before):
    if not before:
        tr.probes["saturation_rounds"] += result.rounds


def _enumerate_probe(tr, args, kwargs, result, before):
    if not before:
        tr.probes["elements"] += result.order


def _power_probe(tr, args, kwargs, result, before):
    if before:
        tr.probes["power_elements"] += args[0].order


def _root_target(args, kwargs):
    """(p, level, entries) of a congruence_root / finite_root call, whose
    target is a PadicApproxMatrix or integer rows plus ctx and level."""
    a = args[0]
    if hasattr(a, "entries"):
        return a.ctx.p, kwargs.get("level", args[3] if len(args) > 3 else None) or a.level, \
            a.entries
    ctx = kwargs.get("ctx", args[2] if len(args) > 2 else None)
    level = kwargs.get("level", args[3] if len(args) > 3 else None) or ctx.precision_n
    return ctx.p, level, a


def _congruence_probe(tr, args, kwargs, result, before):
    if before:
        p, level, _ = _root_target(args, kwargs)
        tr.probes["congruence_levels"] += max(0, level - (2 if p == 2 else 1))


def _finite_root_probe(tr, args, kwargs, result, before):
    # finite_root keeps the candidates x with x^k = target mod p as seeds;
    # remember the target so the mat_pow probe can count those hits
    if before:
        p, _, entries = _root_target(args, kwargs)
        tr._seed_target = (p, tuple(tuple(x % p for x in row) for row in entries))
    else:
        tr._seed_target = None


def _mat_pow_probe(tr, args, kwargs, result, before):
    # after the mat_pow span closed, the top of the stack is its caller
    target = tr._seed_target
    if not before and target is not None and args[2] == target[0] and result == target[1] \
            and tr.names[tr.name[tr.stack[-1]]] == "roots.finite_root":
        tr.probes["seed_hits"] += 1


_PROBES = {"scale.scale_tidy": _tidy_probe, "dynamics.bounded_group": _bounded_probe,
           "oracle.enumerate_group": _enumerate_probe,
           "oracle.power_surjective": _power_probe,
           "roots.congruence_root": _congruence_probe,
           "roots.finite_root": _finite_root_probe, "modmat.mat_pow": _mat_pow_probe}


# unit of each per-layer metric, in the order of BENCHMARK.json's per_layer
UNITS = {
    "dynamics.type_r_witness_search.calls": "1/query",
    "dynamics.words_checked": "1/query",
    "dynamics.ku_flag.ms": "ms/query",
    "dynamics.self_ms": "ms/query",
    "dynamics.bounded_group.calls": "1/query",
    "dynamics.saturation_rounds": "1/query",
    "linalg.char_poly.calls": "1/query",
    "linalg.char_poly.ms": "ms/query",
    "linalg.newton_polygon.calls": "1/query",
    "linalg.qmatrix_mul.calls": "1/query",
    "linalg.det.calls": "1/query",
    "linalg.lattice_sum.calls": "1/query",
    "linalg.lattice_sum.ms": "ms/query",
    "linalg.lattice_canon.calls": "1/query",
    "linalg.lattice_canon.ms": "ms/query",
    "linalg.lattice_intersect.calls": "1/query",
    "linalg.lattice_intersect.ms": "ms/query",
    "linalg.inverse.calls": "1/query",
    "linalg.inverse.ms": "ms/query",
    "linalg.elementary_divisors.ms": "ms/query",
    "linalg.self_ms": "ms/query",
    "scale.scale_tidy.ms": "ms/query",
    "scale.tidy_steps": "1/query",
    "scale.newton_per_tidy": "ratio",
    "scale.invariant_lattice.ms": "ms/query",
    "scale.self_ms": "ms/query",
    "oracle.enumerate_group.ms": "ms/query",
    "oracle.power_surjective.ms": "ms/query",
    "oracle.elements": "1/query",
    "oracle.mul_per_element": "ratio",
    "oracle.pow_mul_per_element_k": "ratio",
    "oracle.self_ms": "ms/query",
    "modmat.mat_mul.calls": "1/query",
    "modmat.mat_pow.calls": "1/query",
    "modmat.mat_inv.calls": "1/query",
    "modmat.self_ms": "ms/query",
    "roots.finite_root.ms": "ms/query",
    "roots.congruence_root.ms": "ms/query",
    "roots.axb_root.ms": "ms/query",
    "roots.seed_candidates": "1/query",
    "roots.seed_hit_ratio": "ratio",
    "roots.congruence_pow_per_level": "ratio",
    "roots.self_ms": "ms/query",
    "analyzer.calls": "1/query",
    "analyzer.self_ms": "ms/query",
    "steinitz.calls": "1/query",
    "steinitz.self_ms": "ms/query",
    "qpcore.vp_int.calls": "1/query",
    "qpcore.reduce_mod.calls": "1/query",
    "qpcore.self_ms": "ms/query",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tr: Tracer, queries: int) -> dict:
    """The per-layer metrics named in UNITS, normalised per query; all but
    trace.overhead_ratio, which the worker adds."""
    by_name, self_s = tr.summary()

    def calls(name):
        return by_name.get(name, (0, 0.0))[0] / queries

    def ms(name):
        return 1000 * by_name.get(name, (0, 0.0))[1] / queries

    def self_ms(layer):
        return 1000 * self_s.get(layer, 0.0) / queries

    def ratio(num, den):
        return num / den if den else 0.0

    counts = dict(zip(COUNTER_NAMES, tr.counts))
    tidy_calls = by_name.get("scale.scale_tidy", (0, 0.0))[0]
    candidates = counts["modmat.all_invertible_mats.items"]
    out = {
        "dynamics.type_r_witness_search.calls": calls("dynamics.type_r_witness_search"),
        "dynamics.words_checked": calls("dynamics.type_r_matrix"),
        "dynamics.ku_flag.ms": ms("dynamics.ku_flag"),
        "dynamics.self_ms": self_ms("dynamics"),
        "dynamics.bounded_group.calls": calls("dynamics.bounded_group"),
        "dynamics.saturation_rounds": tr.probes["saturation_rounds"] / queries,
        "linalg.char_poly.calls": calls("linalg.char_poly"),
        "linalg.char_poly.ms": ms("linalg.char_poly"),
        "linalg.newton_polygon.calls": calls("linalg.newton_polygon"),
        "linalg.qmatrix_mul.calls": counts["linalg.qmatrix_mul"] / queries,
        "linalg.det.calls": calls("linalg.det"),
        "linalg.lattice_sum.calls": calls("linalg.lattice_sum"),
        "linalg.lattice_sum.ms": ms("linalg.lattice_sum"),
        "linalg.lattice_canon.calls": calls("linalg.lattice_canon"),
        "linalg.lattice_canon.ms": ms("linalg.lattice_canon"),
        "linalg.lattice_intersect.calls": calls("linalg.lattice_intersect"),
        "linalg.lattice_intersect.ms": ms("linalg.lattice_intersect"),
        "linalg.inverse.calls": calls("linalg.inverse"),
        "linalg.inverse.ms": ms("linalg.inverse"),
        "linalg.elementary_divisors.ms": ms("linalg.elementary_divisors"),
        "linalg.self_ms": self_ms("linalg"),
        "scale.scale_tidy.ms": ms("scale.scale_tidy"),
        "scale.tidy_steps": tr.probes["tidy_steps"] / queries,
        "scale.newton_per_tidy": ratio(tr.calls_under("linalg.char_poly", "scale.scale_tidy"),
                                       tidy_calls),
        "scale.invariant_lattice.ms": ms("scale.invariant_lattice"),
        "scale.self_ms": self_ms("scale"),
        "oracle.enumerate_group.ms": ms("oracle.enumerate_group"),
        "oracle.power_surjective.ms": ms("oracle.power_surjective"),
        "oracle.elements": tr.probes["elements"] / queries,
        "oracle.mul_per_element": ratio(
            tr.counter_under("modmat.mat_mul", "oracle.enumerate_group"),
            tr.probes["elements"]),
        "oracle.pow_mul_per_element_k": ratio(
            tr.counter_under("modmat.mat_mul", "oracle.power_surjective"),
            tr.probes["power_elements"]),
        "oracle.self_ms": self_ms("oracle"),
        "modmat.mat_mul.calls": counts["modmat.mat_mul"] / queries,
        "modmat.mat_pow.calls": calls("modmat.mat_pow"),
        "modmat.mat_inv.calls": calls("modmat.mat_inv"),
        "modmat.self_ms": self_ms("modmat"),
        "roots.finite_root.ms": ms("roots.finite_root"),
        "roots.congruence_root.ms": ms("roots.congruence_root"),
        "roots.axb_root.ms": ms("roots.axb_root"),
        "roots.seed_candidates": candidates / queries,
        "roots.seed_hit_ratio": ratio(tr.probes["seed_hits"], candidates),
        "roots.congruence_pow_per_level": ratio(
            tr.calls_under("modmat.mat_pow", "roots.congruence_root", direct=True),
            tr.probes["congruence_levels"]),
        "roots.self_ms": self_ms("roots"),
        "analyzer.calls": calls("analyzer.analyze"),
        "analyzer.self_ms": self_ms("analyzer"),
        "steinitz.calls": sum(c for name, (c, _) in by_name.items()
                              if name.startswith("steinitz.")) / queries,
        "steinitz.self_ms": self_ms("steinitz"),
        "qpcore.vp_int.calls": counts["qpcore.vp_int"] / queries,
        "qpcore.reduce_mod.calls": calls("qpcore.reduce_mod"),
        "qpcore.self_ms": self_ms("qpcore"),
    }
    return out


def self_shares(tr: Tracer) -> dict:
    """Each layer's share of all traced self time (the bench layer is the
    query time outside every ppm span)."""
    _, self_s = tr.summary()
    total = sum(self_s.values()) or 1.0
    return {layer: self_s.get(layer, 0.0) / total for layer in ("bench",) + LAYERS}
