"""JSON file formats for matrices, lattices and generator sets.

Matrix files:    {"p": int, "n": int, "entries": [["a/b", ...], ...]}
Lattice files:   same plus "lattice": true (entries are the canonical basis)
Generator sets:  {"p": int, "n": int, "gens": [entries, entries, ...]}

Entries are row-major strings in the scalar grammar "a/b" or "a";
plain JSON integers are accepted on input. "p" and "n" are JSON
integers. Floats and booleans are rejected, never truncated.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .linalg import Lattice, QMatrix
from .qpcore import PContext, format_scalar, parse_scalar


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be a JSON integer, not {x!r}")
    return x


def _entry(x) -> Fraction:
    if isinstance(x, str):
        return parse_scalar(x)
    return Fraction(_json_int(x, "a matrix entry"))


def _entries_to_matrix(entries, n: int) -> QMatrix:
    if len(entries) != n or any(len(r) != n for r in entries):
        raise InputError("entries do not form an n x n matrix")
    return QMatrix([[_entry(x) for x in row] for row in entries])


def _matrix_to_entries(mat: QMatrix):
    return [[format_scalar(x) for x in row] for row in mat.rows]


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON must be an object")
    return doc


def context_of(doc: dict, override_p: int | None = None,
               precision: int | None = None) -> PContext:
    p = doc.get("p", override_p)
    if p is None:
        raise InputError("no prime: provide \"p\" in the file or -p on the command line")
    p = _json_int(p, "\"p\"")
    if override_p is not None and p != override_p:
        raise InputError(f"file says p = {p} but the command line says p = {override_p}")
    try:
        return PContext(p, precision if precision is not None else 20)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def matrix_from_doc(doc: dict) -> QMatrix:
    try:
        n = _json_int(doc["n"], "\"n\"")
        return _entries_to_matrix(doc["entries"], n)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad matrix document: {exc}") from exc


def gens_from_doc(doc: dict):
    try:
        n = _json_int(doc["n"], "\"n\"")
        raw = doc["gens"]
        if not isinstance(raw, list) or not raw:
            raise InputError("\"gens\" must be a non-empty list")
        return [_entries_to_matrix(g, n) for g in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad generator document: {exc}") from exc


def matrix_doc(mat: QMatrix, ctx: PContext) -> dict:
    return {"p": ctx.p, "n": mat.n, "entries": _matrix_to_entries(mat)}


def lattice_doc(lat: Lattice) -> dict:
    doc = matrix_doc(lat.basis, lat.ctx)
    doc["lattice"] = True
    return doc
