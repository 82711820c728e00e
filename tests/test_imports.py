import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names to export them, so it is left out
SOURCES = [
    *sorted(p for p in (ROOT / "src" / "transversal_lab").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _unread_locals(source: str) -> list[str]:
    """function.name for each name without a leading underscore that a
    function assigns (loop targets included) and never reads, itself or in a
    nested function; names it declares global or nonlocal are left out."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, declared = set(), set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        found.update(f"{fn.name}.{name}" for name in stored - read - declared
                     if not name.startswith("_"))
    return sorted(found)


def test_unread_locals_are_detected():
    source = "def f(xs):\n    total, spare = 0, 1\n    for i, x in enumerate(xs):\n" \
             "        total += x\n    _skip = 2\n    def g():\n        return total\n" \
             "    return g\n\ndef h():\n    global seen\n    seen = 1\n"
    assert _unread_locals(source) == ["f.i", "f.spare"]


def test_no_module_or_script_assigns_a_local_it_never_reads():
    assert len(SOURCES) > 10
    unread = {}
    for path in SOURCES:
        names = _unread_locals(path.read_text(encoding="utf-8"))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n" \
             "from typing import Iterable, Sequence\n\ndef f(x: Sequence) -> None:\n" \
             "    return np.sum(x)\n"
    assert _unused_imports(source) == ["Iterable", "os"]


def test_no_module_or_script_imports_a_name_it_does_not_use():
    assert len(SOURCES) > 10
    unused = {}
    for path in SOURCES:
        names = _unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def _index_readers(source: str) -> list[str]:
    """The functions that read ``operator.index`` (or import it from
    ``operator``), innermost function first; "<module>" for module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "index" and \
                isinstance(node.value, ast.Name) and node.value.id == "operator":
            found.add(owner)
        elif isinstance(node, ast.ImportFrom) and node.module == "operator" and \
                any(a.name == "index" for a in node.names):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_index_readers_are_detected():
    source = "import operator\nfrom operator import index\n\ndef f(x):\n" \
             "    def g():\n        return operator.index(x)\n    return g\n\n" \
             "def h(xs):\n    return sorted(xs, key=operator.itemgetter(0))\n"
    assert _index_readers(source) == ["<module>", "g"]


def test_only_checked_int_reads_operator_index():
    # one integer rule: every other function converts through checked_int
    readers = {}
    for path in SOURCES:
        names = _index_readers(path.read_text(encoding="utf-8"))
        if names:
            readers[str(path.relative_to(ROOT))] = names
    assert readers == {"src/transversal_lab/groups.py": ["checked_int"]}
