"""No function, class or method in the package that only tests call.

Code that the CLI, the experiments and the validation suite never reach
is untested by what users run, yet it costs reading and upkeep.  Every
module-level function or class in ``src/blocksim``, and every method not
named like ``__dunder__``, must be referenced by name (a ``Name`` or an
``Attribute``) somewhere in the package outside ``__init__.py``, whose
re-exports do not count as use.  Click commands are reached through
their group and are exempt, as are the names below.
"""

import ast
from pathlib import Path

import blocksim

SOURCES = sorted(Path(blocksim.__file__).resolve().parent.glob("*.py"))

EXEMPT = {
    # bench/spans.py wraps these to count buffered draws and replications.
    "BufferedSampler": "wrapped by the benchmark's trace",
    "run_replications": "wrapped by the benchmark's trace",
}


def _is_command(node):
    """True for a function under a click ``@x.command()`` or ``@x.group()``."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _definitions(tree):
    """(name, line) of each module-level function or class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_command(node):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_sources_found():
    assert {"network.py", "blocktree.py", "cli.py"} <= {p.name for p in SOURCES}


def test_every_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = {name for file, tree in trees.items() if file != "__init__.py"
            for name in _referenced(tree)}
    unused = [f"{file}:{line} {name}"
              for file, tree in trees.items()
              for name, line in _definitions(tree)
              if name not in used and name not in EXEMPT]
    assert unused == [], f"defined but never referenced in the package: {', '.join(unused)}"


def test_exemptions_are_still_needed():
    # An exempt name that the package now uses, or no longer defines,
    # leaves the list.
    trees = [ast.parse(path.read_text()) for path in SOURCES if path.name != "__init__.py"]
    used = {name for tree in trees for name in _referenced(tree)}
    defined = {name for tree in trees for name, _ in _definitions(tree)}
    assert sorted(name for name in EXEMPT if name in used or name not in defined) == []
