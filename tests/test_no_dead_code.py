"""Every function, method and class defined in ``src/repro`` has a caller.

A name counts as used when it occurs as a whole word in ``src/``,
``jobs/``, ``benchmarks/`` or ``perfbench/`` anywhere besides the line
that defines it. Tests do not count: code only tests call is dead. Dunder
methods are called by Python itself and are not checked.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "jobs", "benchmarks", "perfbench")

ALLOWED = {
    # geometry oracles: the rectangle tests check overlap removal and
    # containment against them
    "area": "Rect.area, the area oracle of the overlap-removal tests",
    "contains_many": "Rect.contains_many, the containment oracle of the PI tests",
}


def _definitions() -> list[tuple[str, Path, int]]:
    """(name, file, line) of every def and class under ``src/repro``."""
    out = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append((node.name, path, node.lineno))
    return out


def _lines() -> dict[Path, list[str]]:
    return {
        path: path.read_text().splitlines()
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_definition_has_a_caller():
    lines = _lines()
    unused = []
    for name, def_path, def_line in _definitions():
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(
            word.search(line)
            for path, text in lines.items()
            for i, line in enumerate(text, start=1)
            if not (path == def_path and i == def_line)
        )
        if not used:
            unused.append(f"{def_path.relative_to(ROOT)}:{def_line} {name}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_allowlist_entries_are_still_defined():
    names = {name for name, _, _ in _definitions()}
    assert set(ALLOWED) <= names
