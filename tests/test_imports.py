"""Import hygiene: the modules of the package use each other's public names only."""

import ast
from pathlib import Path

import strata_kit

PACKAGE = Path(strata_kit.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.name, node.module, alias.name)
                            for alias in node.names if alias.name.startswith("_")]
    # (importing module, imported module, name) of every private import
    assert private == []
