"""Every definition in src/pencilab has a caller outside the tests.

A function or class that only tests use belongs in tests/reference.py (an
oracle or helper) or nowhere.  A caller is a use of the name in a src
module other than __init__.py, in demos/ or in perfbench/ outside its
tests: a name, an attribute, or a word of a string that is not a
docstring, since the benchmark's tracer names the functions it wraps as
strings.  A definition's own name, docstrings and comments do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pencilab"


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _used_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            used.update(re.findall(r"\w+", node.value))
    return used


def _caller_files():
    yield from (p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    for folder in ("demos", "perfbench"):
        yield from (p for p in sorted((ROOT / folder).rglob("*.py"))
                    if "tests" not in p.relative_to(ROOT).parts)


def _definitions():
    """(module, name) of every function and class in src/pencilab, methods
    and nested functions included, dunders aside."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield path.stem, node.name


def test_every_src_definition_has_a_caller_outside_the_tests():
    used = set().union(*map(_used_names, _caller_files()))
    orphans = sorted(f"{module}.{name}" for module, name in _definitions()
                     if name not in used)
    assert orphans == [], (
        f"called only from tests (move to tests/reference.py or delete): {orphans}")
