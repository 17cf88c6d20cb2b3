"""Every top-level name of the package has a consumer outside the tests.

A function, class or constant that only its own test reads is a feature
nobody uses; it goes, or it is listed in ``KEPT`` with the reason it stays.
A consumer is a read of the name (a bare name or an attribute) anywhere in
``src/``, ``scripts/`` or ``benchmark/`` outside the name's own definition,
or a function the benchmark tracer patches by name.  Imports, docstrings and
string labels are not reads.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fractalwave"

KEPT = {
    "caps.bilinear_cap_pair": "oracle: the grid realization of the cap pairs tests/test_caps.py checks",
    "sets.decompose_cantor_levels": "paper lemma: the Cantor level split of the endpoint argument",
    "exponents.necessary_check": "paper lemma: which necessary condition a smoothing exponent s breaks",
    "exponents.critical_line": "paper formula: the line (d-1)(1 - 1/p) = (d-1+2 alpha)/q",
    "bessel.wave_leading_term": "oracle: the far-field term whose residual envelope tests certify",
}


def _definitions(tree):
    """(name, node) of each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reads(path, tree):
    """name -> {(path, line)} of each bare-name load and attribute in the tree."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, set()).add((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, set()).add((path, node.lineno))
    return reads


def _unconsumed(monkeypatch):
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    reads = {}
    for path, tree in trees.items():
        for name, places in _reads(path, tree).items():
            reads.setdefault(name, set()).update(places)
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    traced = {name for b in importlib.import_module("tracer").BOUNDARIES for name in b.functions}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            own = {(path, line) for line in range(node.lineno, node.end_lineno + 1)}
            if not reads.get(name, set()) - own and name not in traced:
                found.append(f"{path.stem}.{name}")
    return found


def test_every_top_level_name_has_a_consumer_or_a_reason(monkeypatch):
    found = _unconsumed(monkeypatch)
    assert [name for name in found if name not in KEPT] == []
    assert sorted(KEPT) == sorted(found), "a kept name found a consumer; drop it from KEPT"
    assert all(reason.strip() for reason in KEPT.values())
