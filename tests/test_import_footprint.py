"""Modules a command loads: each command imports only what it uses.

Every check runs in a fresh ``python -I`` interpreter with ``src/`` on the
path, since the test process itself has long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import benchmark_config

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("logging", "stefan3.equivalence", "stefan3.verify", "stefan3.cli")


def run_fresh(code, report):
    """The JSON value of the expression ``report`` after ``code`` runs."""
    script = "\n".join([
        f"import json, sys; sys.path.insert(0, {str(SRC)!r})",
        code,
        f"print(json.dumps({report}))",
    ])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code):
    """The WATCHED modules in sys.modules after ``code`` runs."""
    return set(run_fresh(code, f"[m for m in {WATCHED!r} if m in sys.modules]"))


# the stefan3 classes that @dataclass built, over every loaded stefan3 module
DATACLASSES = (
    "sorted({c.__name__ for n, m in list(sys.modules.items())"
    " if n.split('.')[0] == 'stefan3' for c in vars(m).values()"
    " if isinstance(c, type) and c.__module__.startswith('stefan3')"
    " and '__dataclass_fields__' in vars(c)})"
)


def cli_run(argv):
    return f"import stefan3.cli; assert stefan3.cli.main({argv!r}) == 0"


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(benchmark_config("dirichlet")))
    return str(path)


def test_import_loads_no_optional_layer():
    assert loaded_after("import stefan3") == set()


def test_only_the_records_callers_copy_by_dataclasses_are_dataclasses():
    # the boundary data are read with dataclasses.asdict and the two reports
    # copied with dataclasses.replace; every other record is built without
    # the decorator, whose class processing is most of an import's cost
    assert run_fresh("import stefan3", DATACLASSES) == [
        "Dirichlet", "Neumann", "Robin"]
    assert run_fresh("import stefan3.equivalence, stefan3.verify", DATACLASSES) == [
        "Dirichlet", "EquivalenceReport", "Neumann", "ResidualReport", "Robin"]


def test_solve_and_map_load_neither_equivalence_verify_nor_logging(
    config, tmp_path
):
    code = "\n".join([
        cli_run(["solve", "--config", config]),
        cli_run(["map", "--config", config, "--out", str(tmp_path / "f.csv"),
                 "--nx", "5", "--nt", "2"]),
    ])
    assert loaded_after(code) == {"stefan3.cli"}


@pytest.mark.parametrize("argv, module", [
    (["equiv", "--to", "neumann"], "stefan3.equivalence"),
    (["verify"], "stefan3.verify"),
])
def test_each_command_loads_its_own_layer(config, argv, module):
    assert loaded_after(cli_run(argv + ["--config", config])) == {
        "stefan3.cli", module}
