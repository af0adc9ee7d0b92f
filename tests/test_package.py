"""Package-wide source properties."""

import ast
from pathlib import Path

import process_duality

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """Behaviour is set by arguments alone: no module reads os.environ."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    readers = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
                readers.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ENVIRONMENT_READERS for a in node.names):
                    readers.append((path.name, node.lineno))
    assert readers == []


def test_only_rational_reads_numerators_and_denominators():
    """A rational vector becomes integers in one place: no module but
    `rational` reads a `numerator` or `denominator` attribute."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    readers = [
        (path.name, node.lineno, node.attr)
        for path in sources
        if path.name != "rational.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("numerator", "denominator")
    ]
    assert readers == []


REPRESENTATION_SLOTS = {"_raw_hrep", "_raw_vrep", "_hrep", "_vrep", "_ints"}


def test_only_polyhedron_reads_its_representation_slots():
    """Which form a reader gets is decided in one class: no code but
    `Polyhedron`'s own methods, through `self`, reads or writes the slots
    that hold its raw and canonical forms; every other reader asks for
    `hrep`, `vrep`, `any_hrep()` or `any_vrep()`, and every other
    constructor builds through the class."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    owned, others = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = [
            fn
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Polyhedron"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.args.args
            and fn.args.args[0].arg == "self"
        ]
        through_self = {
            id(node)
            for fn in methods
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in REPRESENTATION_SLOTS:
                site = (path.name, node.lineno, node.attr)
                (owned if id(node) in through_self else others).append(site)
    assert others == []
    assert {attr for _, _, attr in owned} == REPRESENTATION_SLOTS


def _unused_imports(tree):
    """Names a module imports but never reads.  A module's `__all__` counts
    as a read of every name it lists, so re-exports are uses."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused += [(path.name, line, name) for line, name in _unused_imports(tree)]
    assert unused == []


def _references(tree, refs, enclosing=()):
    """Add to refs every name the tree reads: a bare name, an attribute, or
    a string constant (which covers `__all__` and names looked up by
    string).  A name read inside a def of that same name is not added."""
    for node in ast.iter_child_nodes(tree):
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = enclosing + (node.name,)
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            refs.add(name)
        _references(node, refs, inner)


def test_every_function_has_a_caller():
    """No dead code: each function and method the package defines is named
    somewhere in the package or the benchmark, outside its own def."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    defined = []
    refs = set()
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _references(tree, refs)
        if path in sources:
            defined += [
                (path.name, node.lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    assert [d for d in defined if d[2] not in refs] == []


MODULE_MEMOS = {"lru_cache", "cache"}


def test_no_module_level_memo():
    """Caches live on the object they belong to (a program, a
    `ProgramContext`, a `LinearSystem`, an `OrderCone`): no module uses
    `functools.lru_cache` or `functools.cache`, under any name."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names if a.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, node.lineno, a.name)
                          for a in node.names if a.name in MODULE_MEMOS]
            elif (isinstance(node, ast.Attribute) and node.attr in MODULE_MEMOS
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append((path.name, node.lineno, node.attr))
    assert found == []


def test_only_the_lp_and_dd_modules_use_the_kernel():
    """One LP kernel: no module but `exactlp` and `_dd` imports `_kernel`,
    so every LP is solved by `lp_solve`, not by a tableau built beside it."""
    package = Path(process_duality.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    users = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [(node.module or "")] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_kernel" for n in names):
                users.add(path.name)
    assert users == {"exactlp.py", "_dd.py"}


def test_the_lp_module_imports_no_double_description():
    """The LP kernel stands below double description: `exactlp` imports
    nothing from `_dd`, and the one rank test an LP answer needs (the
    uniqueness of an L1 optimum) is made by its reader in `polyhedra`."""
    path = Path(process_duality.__file__).parent / "exactlp.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "_dd" for n in names):
            found.append(node.lineno)
    assert found == []
