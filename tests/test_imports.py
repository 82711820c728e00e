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


def _functions_where(source: str, hit) -> list[str]:
    """The functions holding a node for which ``hit`` is true, innermost
    function first ("Class.method" for a method); "<module>" for module
    level."""
    found = set()

    def visit(node, owner, prefix):
        if isinstance(node, ast.ClassDef):
            prefix = node.name + "."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner, prefix = prefix + node.name, ""
        elif hit(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, prefix)

    visit(ast.parse(source), "<module>", "")
    return sorted(found)


def _index_readers(source: str) -> list[str]:
    """The functions that read ``operator.index`` (or import it from
    ``operator``)."""
    return _functions_where(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "index"
        and isinstance(node.value, ast.Name) and node.value.id == "operator"
    ) or (
        isinstance(node, ast.ImportFrom) and node.module == "operator"
        and any(a.name == "index" for a in node.names)
    ))


def _latin_writers(source: str) -> list[str]:
    """The functions that assign an attribute named ``_latin``, directly or
    through ``setattr``."""
    return _functions_where(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "_latin"
        and not isinstance(node.ctx, ast.Load)
    ) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "setattr" and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == "_latin"
    ))


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


def test_latin_writers_are_detected():
    source = "class C:\n    def __init__(self):\n        self._latin = None\n\n" \
             "def f(H):\n    return H._latin\n\ndef g(H, K):\n    K._latin = H._latin\n" \
             "    def h():\n        setattr(K, '_latin', True)\n    return h\n"
    assert _latin_writers(source) == ["C.__init__", "g", "h"]


def test_only_is_latin_sets_the_latin_flag():
    # a cube is Latin when is_latin has read its array: no other function
    # hands one cube's flag to another
    writers = {}
    for path in SOURCES:
        names = _latin_writers(path.read_text(encoding="utf-8"))
        if names:
            writers[str(path.relative_to(ROOT))] = names
    assert writers == {"src/transversal_lab/hypercube.py": ["Hypercube.__init__", "is_latin"]}



# the package's public surface is what its claims, CLI, scripts and benchmark
# read; these public names are read by tests alone, each kept for its reason
_TESTS_ONLY = {
    "oracles.brute_diagonals": "brute-force reference the engine's listings are checked against",
    "oracles.brute_max_disjoint": "brute-force reference the packings are checked against",
    "extension.transversal_through_fibre": "a fibre lemma of the boost, kept for the claim "
                                           "that is to check it on the order-6 squares",
}


def _reads(tree, skip=None) -> set[str]:
    """The names and attribute names the tree loads, outside the node ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreached(modules: list[str], sources: dict[str, str]) -> list[str]:
    """module.name for each module-level public function or class of the
    ``modules`` (paths among ``sources``) that no node of ``sources`` reads,
    its own definition left out."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    found = []
    for path in modules:
        elsewhere = set().union(*(names for other, names in reads.items() if other != path))
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in elsewhere | _reads(trees[path], skip=node)):
                found.append(f"{Path(path).stem}.{node.name}")
    return sorted(found)


def test_unreached_public_code_is_detected():
    lib = "def used():\n    pass\n\ndef helper():\n    return used()\n\n" \
          "def looped(n):\n    return looped(n - 1)\n\nclass Spare:\n    pass\n\n" \
          "def _private():\n    pass\n"
    sources = {"lib.py": lib, "run.py": "import lib\nlib.helper()\n"}
    assert _unreached(["lib.py"], sources) == ["lib.Spare", "lib.looped"]


def test_no_public_code_is_read_by_tests_alone():
    # every public function or class of the package is read by the package,
    # a script or the benchmark (its tests left out), or is kept on purpose
    paths = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    modules = [path for path in sources if path.startswith("src/")]
    assert _unreached(modules, sources) == sorted(_TESTS_ONLY)


# the package's layers: each module imports from the package only the modules
# named here, so nothing below imports what sits above it
_ALL = {p.stem for p in (ROOT / "src" / "transversal_lab").glob("*.py")}
_BASE = {"groups", "hypercube", "delta"}
_LAYERS = {
    "groups": set(),
    "hypercube": {"groups"},
    "delta": _BASE,
    "constructions": _BASE,
    "extension": _BASE,
    "search": _BASE,
    "oracles": {"hypercube"},
    "reports": {"hypercube"},
    "dilation": _BASE | {"search"},
    "claims": _ALL - {"cli", "claims"},
    "cli": _ALL - {"cli"},
    "__init__": _ALL - {"__init__"},
}



def _package_imports(source: str) -> set[str]:
    """The package modules a module imports, at any depth of its tree: ``x``
    for ``from .x import``, ``from . import x``, ``import transversal_lab.x``
    and ``from transversal_lab.x import``; ``__init__`` for the package itself
    or a name it exports."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "transversal_lab." * bool(node.level) + (node.module or "")
            if module.rstrip(".") == "transversal_lab":
                paths.extend(f"transversal_lab.{a.name}" for a in node.names)
            else:
                paths.append(module)
    found = set()
    for parts in (path.split(".") for path in paths):
        if parts[0] == "transversal_lab":
            found.add(parts[1] if len(parts) > 1 and parts[1] in _ALL else "__init__")
    return found


def test_package_imports_are_detected():
    source = "from __future__ import annotations\nimport numpy as np\nimport transversal_lab\n" \
             "from . import constructions as cons\nfrom .delta import profile\n" \
             "from transversal_lab.search import hitting_set_check\n" \
             "from transversal_lab import AbelianGroup, oracles\n\n" \
             "def f():\n    import transversal_lab.reports\n    from .claims import run_claims\n"
    assert _package_imports(source) == {"__init__", "claims", "constructions", "delta",
                                        "oracles", "reports", "search"}


def test_lower_modules_do_not_import_upper_ones():
    modules = {p.stem: p for p in (ROOT / "src" / "transversal_lab").glob("*.py")}
    assert set(_LAYERS) == set(modules)
    above = {}
    for name, path in modules.items():
        extra = _package_imports(path.read_text(encoding="utf-8")) - _LAYERS[name]
        if extra:
            above[name] = sorted(extra)
    assert above == {}
