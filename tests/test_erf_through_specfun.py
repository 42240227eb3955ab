"""Every module but specfun reaches erf and erfc through specfun.

specfun binds the C library's erf and erfc under the names callers look
up at call time, so a wrapper installed on specfun sees every call; a
direct math.erf or math.erfc elsewhere would bypass it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stefan3"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "specfun.py")
_BYPASS = {"erf", "erfc"}


def _math_erf_uses(source: str) -> list[int]:
    # lines that read math.erf or math.erfc, or import either from math
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _BYPASS
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name in _BYPASS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_a_direct_erf():
    source = (
        "import math\nfrom math import erfc\nfrom . import specfun\n"
        "a = specfun.erf(1.0)\nb = math.erf(1.0)\nc = math.exp(1.0)\n"
        "f = math.erfc\n"
    )
    assert _math_erf_uses(source) == [2, 5, 7]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_bypasses_specfun(module):
    assert _math_erf_uses((SRC / module).read_text(encoding="utf-8")) == []
