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
