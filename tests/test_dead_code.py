"""No module of the package imports a name it never uses, or defines a
private module-level name that nothing in the package reads.

No linter runs on this code, so these two checks stand in for a linter's
unused-import rule and a dead-code search, with `ast` alone.  An import
on a line marked `# noqa: F401` is kept on purpose and exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "monotree"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def read_names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names that node reads, bare or as an attribute, outside the
    subtree `skip`."""
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    lines = (SRC / module).read_text(encoding="utf-8").splitlines()
    used = read_names(tree)
    unused = [
        (alias.lineno, bound)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for bound in [alias.asname or alias.name.split(".")[0]]
        if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    assert not unused, unused


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    # another module reads a private name only as an attribute of this
    # module or by importing it; a bare name there is its own
    tree = TREES[module]
    elsewhere = set()
    for name, other in TREES.items():
        if name != module:
            for node in ast.walk(other):
                if isinstance(node, ast.Attribute):
                    elsewhere.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    elsewhere.update(alias.name for alias in node.names)
    unread = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                if name not in elsewhere and name not in read_names(tree, skip=node):
                    unread.append((node.lineno, name))
    assert not unread, unread
