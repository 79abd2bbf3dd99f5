"""No dead definitions: every function and class defined in `src/slw`, and
every name a module of it assigns at top level, is read by name somewhere in
the repository's code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READ = ("src", "tests", "demos", "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _dunder(node.name):
                yield node.name
    for stmt in tree.body:  # module-level assignments
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not _dunder(node.id):
                    yield node.id


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _tracer_targets():
    """The names in perfbench/tracer.py's TARGETS, which wraps them by string."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    yield from const.value.split(".")


def _console_scripts():
    """The functions pyproject.toml names as console-script entry points."""
    return re.findall(r'^\w+\s*=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(),
                      re.MULTILINE)


def dead_definitions() -> list:
    used = set(_tracer_targets()) | set(_console_scripts())
    for top in READ:
        for path in (ROOT / top).rglob("*.py"):
            used.update(_references(ast.parse(path.read_text(), str(path))))
    dead = []
    for path in sorted((ROOT / "src" / "slw").glob("*.py")):
        dead += [f"{path.stem}.{name}"
                 for name in _definitions(ast.parse(path.read_text(), str(path)))
                 if name not in used]
    return dead


def test_every_definition_is_referenced():
    assert dead_definitions() == []
