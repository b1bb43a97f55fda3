"""Import hygiene: the modules of the package use each other's public names
only, and the package exports names, not its submodules."""

import ast
import types
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


def test_all_names_public_values_and_no_module():
    # getattr raises on an entry that does not resolve.
    values = {name: getattr(strata_kit, name) for name in strata_kit.__all__}
    assert [name for name, value in values.items() if isinstance(value, types.ModuleType)] == []
