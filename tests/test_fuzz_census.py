"""Extreme but admissible inputs end in a solution or a documented error.

The draws are those of ``tests/tools/fuzz_cli.py``: the benchmark material
with up to four fields set to values from 1e-300 to 1.7e308, under one
boundary datum built from the same values.  Each stage runs under the
tool's time limit of 2 s, so a search that never ends fails here too.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "tools" / "fuzz_cli.py"


def _fuzz_cli():
    spec = importlib.util.spec_from_file_location("fuzz_cli", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_construction_and_solve_end_in_a_solution_or_a_documented_error():
    fuzz = _fuzz_cli()
    assert fuzz.LIMIT_S == 2.0
    counts = fuzz.census(seed=5, draws=200, stages=("construct", "solve"))
    assert sum(counts.values()) == 200
    assert not fuzz.undocumented(counts)
    assert counts[("done", "ok", "")] > 0  # some draws do solve


def test_every_stage_ends_in_a_report_or_a_documented_error():
    # the report stage too: no field kernel or heat fit divides by zero
    fuzz = _fuzz_cli()
    counts = fuzz.census(seed=5, draws=200, stages=fuzz.STAGES)
    assert fuzz.STAGES == ("construct", "thresholds", "solve", "report")
    assert sum(counts.values()) == 200
    assert not fuzz.undocumented(counts)
    assert counts[("done", "ok", "")] > 0
