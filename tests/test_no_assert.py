"""No ``assert`` statement in the package.

``python -O`` removes every ``assert``, so an invariant checked with one
is not checked at all in an optimized run.  The package raises
InvariantError or ConfigError instead.
"""

import ast
from pathlib import Path

import blocksim

SOURCES = sorted(Path(blocksim.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert {"matrix.py", "validate.py", "cli.py"} <= {p.name for p in SOURCES}


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the package: {', '.join(found)}"
