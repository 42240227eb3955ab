"""Every module-level import of a package module is used by that module,
and every module-level private name is read by some package module."""

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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    # "module.name" for each module-level private function, class or
    # constant that no module reads: by name in its own module, from an
    # import, or as an attribute of anything
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add((module, n.id))
            elif isinstance(n, ast.ImportFrom) and n.level:
                read |= {((n.module or "").split(".")[-1], a.name) for a in n.names}
            elif isinstance(n, ast.Attribute):
                read |= {(m, n.attr) for m in sources}
    return sorted(f"{m}.{n}" for m, n in defined - read)


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_A = 1\n_B, _C = 2, 3\ndef _f(): return _A\nclass _K: pass\n"
             "def _g(): pass\n",
        "b": "from .a import _B\nfrom . import a\n_D = a._K, _B\n"
             "def _f(): pass\nprint(_f)\n",
    }
    assert _unread_private_names(sources) == ["a._C", "a._f", "a._g", "b._D"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []
