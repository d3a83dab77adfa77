# Module boundaries: a name that starts with an underscore is private to
# the module that defines it, so no module of the package imports one from
# a sibling, and the module itself must use it or it is dead code; and the
# package runs on numpy and the standard library alone, so no module
# imports scipy.

import ast
from pathlib import Path

import altkit


def imports(path):
    """Each `import` and `from ... import` node of one source file."""
    return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


MODULES = sorted(Path(altkit.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in MODULES:
        for node in imports(path):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").partition(".")[0] == "altkit"):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_imports_scipy():
    found = []
    for path in MODULES:
        for node in imports(path):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if node.level == 0 else [])
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] == "scipy"]
    assert found == []


def test_every_private_module_name_is_used_in_its_module():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update((a.asname or a.name).partition(".")[0] for a in node.names)
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        # Dunder names such as __version__ are read from outside the module.
        found += [f"{path.name}: {name}" for name in sorted(defined - used)
                  if name.startswith("_") and not name.endswith("__")]
    assert found == []
