"""Every function, method and class defined in ``src/repro`` has a caller.

A name counts as used when code in ``src/``, ``jobs/``, ``benchmarks/``
or ``perfbench/`` refers to it outside the definition's own body: as a
name, an attribute, an imported name, or a string holding just that
identifier (perfbench patches layer functions by name). A method (a def
directly inside a class) is reached through an object, so for it a bare
name does not count, only an attribute, an imported name or such a
string: a local variable that shares a method's name does not keep the
method alive. The check still matches by name alone, so an attribute
name shared across classes keeps every method of that name alive while
only one is called: ``.push``, ``.query``, or ``.q``, a field of
``UpdateStats`` that perfbench reads. Docstrings, comments and recursive
calls do not count, and neither do tests: code only tests call is dead.
Dunder methods are called by Python itself and are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "jobs", "benchmarks", "perfbench")

ALLOWED = {
    # geometry oracles: the rectangle tests check overlap removal and
    # containment against them
    "area": "Rect.area, the area oracle of the overlap-removal tests",
    "contains_many": "Rect.contains_many, the containment oracle of the PI tests",
    # the DuckDB oracle test_synth_oracle checks Spark results against
    "assert_equivalent": "oracle.assert_equivalent, the DuckDB correctness oracle",
    # the index stores ID lists as columns; the golden index digests and
    # the PI tests read them back as one EncodedIds per (cell, t) list
    "cells": "PI.cells, the per-list view the index digests and PI tests read",
    # kept on purpose when unused code was last pruned: the radius query
    # over a TPI period, beside PI.query_circle which it wraps
    "query_circle": "TPI.query_circle, the radius query over a TPI period",
}


def _definitions() -> list[tuple[str, Path, int, int, bool]]:
    """(name, file, first line, last line, is a method) of every def and
    class under ``src/repro``."""
    out = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append(
                        (node.name, path, node.lineno, node.end_lineno, id(node) in methods)
                    )
    return out


def _referenced_name(node: ast.AST) -> tuple[str, bool] | None:
    """(name, whether it is a bare ``Name``) of a reference, else None."""
    if isinstance(node, ast.Name):
        return node.id, True
    if isinstance(node, ast.Attribute):
        return node.attr, False
    if isinstance(node, ast.alias):
        return node.name, False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value, False) if node.value.isidentifier() else None
    return None


def _uses() -> dict[str, list[tuple[Path, int, bool]]]:
    """name -> (file, line, is a bare name) of every reference to it in the
    scanned trees."""
    out: dict[str, list[tuple[Path, int, bool]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                ref = _referenced_name(node)
                if ref is not None:
                    out.setdefault(ref[0], []).append((path, node.lineno, ref[1]))
    return out


def test_every_definition_has_a_caller():
    uses = _uses()
    unused = []
    for name, def_path, first, last, is_method in _definitions():
        if name in ALLOWED:
            continue
        used = any(
            not (path == def_path and first <= line <= last)
            and not (is_method and bare)
            for path, line, bare in uses.get(name, [])
        )
        if not used:
            unused.append(f"{def_path.relative_to(ROOT)}:{first} {name}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_allowlist_entries_are_still_defined():
    names = {d[0] for d in _definitions()}
    assert set(ALLOWED) <= names
