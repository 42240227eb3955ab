"""Every module-level import of a package module is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stefan3"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    # names bound by the module's top-level imports that no Name node reads;
    # an attribute chain such as specfun.erf reads its leftmost name
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nsys.exit(tau)\n"
    assert _unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []
