# Module boundaries: a name that starts with an underscore is private to
# the module that defines it, so no module of the package imports one from
# a sibling.

import ast
from pathlib import Path

import altkit


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted(Path(altkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").partition(".")[0] == "altkit"):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
