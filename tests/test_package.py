"""The package's public namespace."""

import subprocess
import sys
from pathlib import Path

import pytest

import stefan3

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_public_name_resolves():
    missing = [name for name in stefan3.__all__ if not hasattr(stefan3, name)]
    assert missing == []
    assert len(set(stefan3.__all__)) == len(stefan3.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stefan3 import *", namespace)
    assert set(stefan3.__all__) <= set(namespace)


def test_every_public_name_is_its_defining_module_attribute():
    modules = [stefan3.errors, stefan3.model, stefan3.transcendental,
               stefan3.solver, stefan3.equivalence, stefan3.verify]
    for name in stefan3.__all__:
        homes = [vars(m)[name] for m in modules if name in vars(m)]
        assert homes and all(obj is getattr(stefan3, name) for obj in homes), name
    assert stefan3.mapping is stefan3.equivalence.mapping
    assert stefan3.full_report is stefan3.verify.full_report


EAGER = ("errors", "model", "transcendental", "solver")


@pytest.mark.parametrize("module", EAGER)
def test_a_star_import_of_an_eager_module_binds_its_all(module):
    namespace = {}
    exec(f"from stefan3.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(vars(stefan3)[module].__all__)


def test_the_package_all_is_the_eager_modules_all_and_the_lazy_names():
    eager = [name for m in EAGER for name in vars(stefan3)[m].__all__]
    lazy = [name for names in stefan3._LAZY.values() for name in names]
    assert stefan3.__all__ == sorted(eager + lazy)
    assert len(stefan3.__all__) == 59


def fresh(code):
    """Run ``code`` after a fresh ``import stefan3``, with src/ on the path."""
    script = f"import sys; sys.path.insert(0, {str(SRC)!r})\nimport stefan3\n{code}"
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_lazy_submodules_resolve_as_attributes_on_a_fresh_import():
    fresh(
        "assert 'stefan3.equivalence' not in sys.modules\n"
        "assert stefan3.equivalence is sys.modules['stefan3.equivalence']\n"
        "assert stefan3.verify is sys.modules['stefan3.verify']"
    )


def test_first_touch_binds_the_whole_submodule():
    # later reads are plain dict hits rather than __getattr__ calls
    fresh(
        "assert 'full_report' not in vars(stefan3)\n"
        "stefan3.full_report\n"
        "assert {'ResidualReport', 'heat_residual', 'verify'} <= set(vars(stefan3))\n"
        "assert 'mapping' not in vars(stefan3)\n"
        "stefan3.equivalence\n"
        "assert {'mapping', 'h2_star', 'EquivalenceReport'} <= set(vars(stefan3))"
    )


def test_dir_covers_every_public_name():
    assert set(stefan3.__all__) | {"equivalence", "verify"} <= set(dir(stefan3))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stefan3.no_such_name
    assert not hasattr(stefan3, "no_such_name")
