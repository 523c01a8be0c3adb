"""Source hygiene: every name a module imports is used in it, and every
exception class the package defines is raised or caught somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "missdag"
# the package's __init__ imports names only to export them
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """The names bound by the imports of ``source`` (``from __future__``
    aside) that no expression reads, string annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Dag" or "Optional[Dag]"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except (SyntaxError, ValueError):
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import List, Tuple\nx: 'List[int]' = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _class_names(node) -> set:
    """The names a raise or except clause gives its class by: ``X``,
    ``X(...)``, ``errors.X`` or a tuple of these."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_class_names(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def unused_error_classes(errors_source: str, module_sources) -> list:
    """The classes ``errors_source`` defines, in order, that no module of
    ``module_sources`` raises or catches. A class that no caller tells
    apart is one its base class could be."""
    used = set()
    for source in module_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _class_names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _class_names(node.type)
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name not in used]


def test_scan_finds_an_unused_error_class():
    errors = "".join(f"class {name}(Exception):\n    pass\n"
                     for name in ("Base", "Raised", "Caught", "Planted"))
    modules = ["raise Raised('x') from None\n",
               "try:\n    f(Planted)\nexcept (errors.Caught, ValueError):\n    raise Base\n"]
    assert unused_error_classes(errors, modules) == ["Planted"]


def test_every_error_class_is_raised_or_caught():
    others = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.name != "errors.py"]
    assert unused_error_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"), others) == []
