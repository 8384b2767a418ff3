"""Only ``linalg`` knows how a QMatrix or a Lattice is stored or names the
Smith form, no module imports another module's private (underscore)
names, and every module-level function has a reader."""
import ast
import importlib
import importlib.util
from pathlib import Path

import ppm

SRC = Path(ppm.__file__).parent
STORAGE = {"_ints", "_int_view", "_from_view", "_from_ints", "_cols", "_exps", "_shift",
           "_span", "_adjugate"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_a_private_name():
    found = [(module, alias.name) for module, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name.startswith("_")]
    assert found == []


def test_only_linalg_reads_the_storage_of_matrices_and_lattices():
    found = [(module, node.attr, node.lineno) for module, tree in _trees() if module != "linalg"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in STORAGE]
    assert found == []


def test_the_word_search_runs_only_in_the_saturation_and_the_typer_command():
    # one boundedness decision: ku_flag and the analyzer reach the search
    # only through bounded_group
    # each call is named by the top-level statement that holds it
    callers = {(module, getattr(stmt, "name", None)) for module, tree in _trees()
               for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and "type_r_witness_search" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))}
    assert callers == {("dynamics", "bounded_group"), ("cli", "_cmd_typer")}


def test_scale_does_not_import_dynamics():
    # invariant_lattice runs its own chain, not the group saturation
    found = [node.lineno for module, tree in _trees() if module == "scale"
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and any("dynamics" in name for name in
                     [node.module or ""] + [alias.name for alias in node.names])]
    assert found == []


def test_only_linalg_names_the_smith_form():
    # no solver calls the Smith form; the package namespace re-exports it
    # as public API
    smith = {"elementary_divisors", "elementary_divisors_with_directions"}
    found = [(module, node.lineno) for module, tree in _trees()
             if module not in ("linalg", "__init__") for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in smith)
             or (isinstance(node, ast.Attribute) and node.attr in smith)
             or (isinstance(node, ast.alias) and node.name in smith)]
    assert found == []


def test_containment_is_only_the_flag_re_check():
    # saturation and invariant lattices stop where the sum chain's index is
    # 0 (linalg.sum_chain); containment (linalg.maps_into) is named, past
    # dynamics' import, only in _verify_flag, the independent re-check, so
    # it never drifts back into a stop test
    found = {(module, getattr(stmt, "name", None)) for module, tree in _trees()
             if module in ("dynamics", "scale") for stmt in tree.body for node in ast.walk(stmt)
             if "maps_into" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None) if isinstance(node, ast.alias) else None)}
    assert found == {("dynamics", None), ("dynamics", "_verify_flag")}


def test_dynamics_and_scale_recheck_no_certificate_by_a_hermite_form():
    # invariance is certified by the sum chain's index and re-checked by
    # containment, and the fixed spaces are eliminated on integer rows:
    # neither module imports apply, which canonicalises the image
    found = [(module, alias.name) for module, tree in _trees() if module in ("dynamics", "scale")
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "apply"]
    assert found == []


def test_no_solver_imports_the_fraction_char_poly():
    # scale and dynamics read valuations off the integer coefficients
    # (linalg.char_poly_valuations); char_poly is the Fraction interface
    found = [(module, node.lineno) for module, tree in _trees() if module in ("dynamics", "scale")
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "char_poly"]
    assert found == []


def _traced_names():
    """(layer, attribute) of each name a traced perfbench run patches."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    names = [(layer, attr) for layer, attrs in layertrace.SPANS.items() for attr in attrs]
    return names + list(layertrace.COUNTERS.values())


def test_every_name_the_benchmark_traces_resolves():
    # a traced perfbench run patches each of these names and fails on a
    # missing one
    names = _traced_names()
    missing = []
    for layer, attr in names:
        holder = vars(importlib.import_module(f"ppm.{layer}"))
        if "." in attr:  # a method, patched on its class
            cls, method = attr.split(".")
            holder = vars(holder[cls]) if cls in holder else {}
            attr = method
        if attr not in holder:
            missing.append((layer, attr))
    assert missing == []
    assert {("dynamics", "common_fixed_space"), ("linalg", "apply")} <= set(names)


def test_every_module_function_has_a_reader():
    # a module-level function is named somewhere in the package outside its
    # own definition (the package's re-exports count), or traced by the
    # benchmark; one that nothing reads is deleted, not kept
    trees = dict(_trees())
    named = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            named |= {name for node in ast.walk(stmt)
                      for name in (getattr(node, "id", None), getattr(node, "attr", None),
                                   node.name if isinstance(node, ast.alias) else None)
                      if name and name != own}
    traced = set(_traced_names())
    unread = [(module, stmt.name) for module, tree in trees.items() for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name not in named
              and (module, stmt.name) not in traced]
    assert unread == []
