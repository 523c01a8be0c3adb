"""Source hygiene: every name a module imports is used in it, every
exception class the package defines is raised or caught somewhere, every
function, class and method of the package is read somewhere outside its
own definition, every JSON text the package writes refuses NaN and
infinities, and every entry of the mutation probe (``tests/mutants.py``)
still applies to its file and names a test that exists.

Run as a script, it prints the code lines of each package module and their
total (``code_lines``), the count a change's size is reported in:

    python3 tests/test_hygiene.py
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from mutants import MUTANTS

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


def _reads(tree) -> Counter:
    """How often ``tree`` reads each name: as a variable, as an attribute, or
    as a string that is the name itself (a hook that looks a function up by
    its name)."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            reads[node.value] += 1
    return reads


def unread_definitions(package_sources, other_sources, exempt=()) -> list:
    """The module-level functions and classes, and the methods of those
    classes, that ``package_sources`` (module name -> source) define and no
    source reads by name outside the definition itself, as ``module.name``
    or ``module.Class.method``. Dunder methods and ``exempt`` are left
    out."""
    trees = {module: ast.parse(source) for module, source in package_sources.items()}
    reads = sum((_reads(t) for t in [*trees.values(), *map(ast.parse, other_sources)]),
                Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            defs = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, functions)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            for qualified, d in defs:
                if qualified not in exempt and reads[d.name] == _reads(d)[d.name]:
                    unread.append(qualified)
    return unread


def test_scan_finds_an_unread_definition():
    package = {
        "a": "class A:\n    def used(self):\n        return self.used\n"
             "    def unused(self):\n        return A\n"
             "def rec(n):\n    return rec(n - 1)\n"
             "def hooked():\n    pass\n",
        "b": "from .a import rec\nx = A().unused()\ndef main():\n    pass\n",
    }
    others = ["hooks = [('a', 'hooked')]\n"]
    assert unread_definitions(package, others) == ["a.A.used", "a.rec", "b.main"]
    assert unread_definitions(package, others, exempt={"b.main"}) == ["a.A.used", "a.rec"]


def test_every_definition_is_read_outside_itself():
    # a name that only tests read is public API that only tests use
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    benchmark = [p.read_text(encoding="utf-8")
                 for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unread_definitions(package, benchmark, exempt={"cli.main"}) == []


def nan_permitting_dumps(source: str) -> list:
    """The ``(function, line)`` of each ``json.dumps`` (or bare ``dumps``)
    call in ``source`` that does not pass ``allow_nan=False``; a call
    outside any function is in ``"<module>"``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                or isinstance(node.func, ast.Name) and node.func.id == "dumps"):
            if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in node.keywords):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_a_dumps_that_permits_nan():
    source = ("import json\nfrom json import dumps\n"
              "def f(x):\n    return json.dumps(x, indent=2)\n"
              "def g(x):\n    return json.dumps(x, allow_nan=False)\n"
              "def h(x):\n    def inner():\n        return dumps(x, allow_nan=True)\n"
              "    return inner\n"
              "text = json.dumps({})\n")
    assert nan_permitting_dumps(source) == [("f", 4), ("inner", 9), ("<module>", 11)]


def test_every_json_text_refuses_nan():
    # NaN and infinities are not JSON: a strict parser refuses a file that
    # holds one. The exception re-encodes a parsed input only to find lone
    # surrogates; a NaN in it is the input's, refused by whoever reads it.
    found = {(p.stem, function) for p in sorted(PACKAGE.glob("*.py"))
             for function, _ in nan_permitting_dumps(p.read_text(encoding="utf-8"))}
    assert found == {("errors", "json_document")}


# tokens that are not code: layout, comments and the stream's ends
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token that is not a comment and
    not part of a docstring (the string that opens a module, class or
    function); a token over several lines counts on each of them."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            docstrings.append(((doc.lineno, doc.col_offset), doc.end_lineno))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end[0] <= end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module\ndocstring."""\n'
              "import os  # a comment\n"
              "\n"
              "# a comment line\n"
              "def f(x):\n"
              "    '''Docstring.'''\n"
              "    s = '''a string\n"
              "over two lines'''\n"
              "    return (x,\n"
              "            s)\n"
              "class C: 'one-line docstring'\n")
    # import, def, the string's two lines, the return's two lines, class
    assert code_lines(source) == 7


def test_every_packaged_demo_file_is_package_data():
    # a wheel holds a package's non-Python files only if a glob of
    # [tool.setuptools.package-data], taken from the package directory,
    # matches them
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["missdag"]
    shipped = {p for pattern in globs for p in PACKAGE.glob(pattern)}
    demo = {p for p in (PACKAGE / "demo").rglob("*") if p.is_file()}
    assert demo and demo <= shipped


@pytest.mark.parametrize("path, old, new, test", MUTANTS, ids=map(str, range(len(MUTANTS))))
def test_every_mutant_applies_once_and_names_a_test(path, old, new, test):
    # a probe entry gone stale shows here, not only when the probe runs
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    file, *names = test.split("::")
    body = ast.parse((ROOT / file).read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        assert found, f"{test}: no {name} in {file}"
        body = found[0].body


if __name__ == "__main__":
    counts = {p.name: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(PACKAGE.glob("*.py"))}
    sys.stdout.write("".join(f"{name:16} {n:5}\n" for name, n in counts.items())
                     + f"{'src/missdag':16} {sum(counts.values()):5}\n")
