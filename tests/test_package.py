"""Package-wide source properties."""

import ast
from pathlib import Path

import process_duality

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
