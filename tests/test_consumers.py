"""Every top-level name and every settable value of the package has a consumer
outside the tests.

A function, class or constant that only its own test reads is a feature
nobody uses; it goes, or it moves into the tests beside the checks that read
it (as the grid cap pairs, the far-field Bessel term and the paper's
necessary-condition and level-split lemmas did).  There are no exceptions.
A consumer is a read of the name (a bare name or an attribute) anywhere in
``src/``, ``scripts/`` or ``benchmark/`` outside the name's own definition,
or a function the benchmark tracer patches by name.  Imports, docstrings and
string labels are not reads.

Likewise a defaulted parameter of a public top-level function, or a defaulted
init field of a dataclass, that no call in those trees passes is a knob with one
value in use; it becomes a constant, or ``KEPT_PARAMETERS`` gives the reason it
stays.  A call passes it by keyword, by position or by ``*`` or ``**``
unpacking; a call is matched by the function's name, and ``cls(...)`` inside a
class is a call of that class.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fractalwave"

KEPT_PARAMETERS = {
    "sets.build_interval_family.theta": "paper lemma: the angular parameter of the interval-family rescaling",
    "caps.CapProfile.mesh": "oracle: tests/test_caps.py refines it to show the quadrature has converged",
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
    assert _unconsumed(monkeypatch) == []


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _defaulted(tree):
    """(callable name, parameter, position or None for keyword-only) of each
    defaulted parameter of a public top-level function and each defaulted init
    field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            init = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and not (isinstance(s.value, ast.Call) and any(
                        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                        for k in s.value.keywords))]
            for i, stmt in enumerate(init):
                if stmt.value is not None:
                    yield node.name, stmt.target.id, i


def _calls(node, cls=None):
    """(called name, call) of each call under ``node``; ``cls`` is the enclosing class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            yield (cls if name == "cls" and cls else name), child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _passes(call, param, position):
    if any(k.arg in (param, None) for k in call.keywords):  # by keyword or ** unpacking
        return True
    return position is not None and any(
        i == position or isinstance(a, ast.Starred) for i, a in enumerate(call.args[: position + 1]))


def _unpassed(root=ROOT):
    package = root / "src" / "fractalwave"
    files = [*package.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "benchmark").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    calls = {}
    for tree in trees.values():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return [f"{path.stem}.{name}.{param}"
            for path in sorted(package.glob("*.py"))
            for name, param, position in _defaulted(trees[path])
            if not any(_passes(call, param, position) for call in calls.get(name, ()))]


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    found = _unpassed()
    assert [name for name in found if name not in KEPT_PARAMETERS] == []
    assert sorted(KEPT_PARAMETERS) == sorted(found), "a kept parameter found a caller; drop it from KEPT_PARAMETERS"
    assert all(reason.strip() for reason in KEPT_PARAMETERS.values())


def test_the_parameter_audit_sees_every_way_of_passing(tmp_path):
    """A scratch tree: a defaulted parameter and a dataclass field nobody passes
    are found; passing them by keyword, position, * or ** is seen."""
    (tmp_path / "src" / "fractalwave").mkdir(parents=True)
    (tmp_path / "src" / "fractalwave" / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2): pass\n"
        "def _private(a=1): pass\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = field(default=0, init=False)\n"
        "    @classmethod\n"
        "    def make(cls, doc): return cls(**doc)\n"
        "@dataclass\n"
        "class E:\n"
        "    w: int = 0\n"
    )
    assert _unpassed(tmp_path) == ["m.f.b", "m.f.c", "m.E.w"]
    (tmp_path / "scripts").mkdir()
    for caller, unpassed in (("f(0, 1)", ["m.f.c"]), ("f(*args)", ["m.f.c"]), ("f(0, c=3)", ["m.f.b"]),
                             ("m.f(**kw)", []), ("f(0, b=1, c=3)", [])):
        (tmp_path / "scripts" / "use.py").write_text(caller + "\nE(1)\n")
        assert _unpassed(tmp_path) == unpassed, caller
