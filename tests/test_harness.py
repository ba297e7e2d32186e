"""Smoke test of the traced benchmark harness.

``perfbench/tracer.py`` rebinds names in ridesim's modules (``cli.run_day``,
``experiments.materialize``, ``scenario.build_skim``, the ``kpi`` writers and
others). A change that drops or renames one of them breaks every traced
benchmark run; this test runs one traced ``run`` and one traced single-cell
``experiment`` so such a change fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

from ridesim import presets

REP = Path(__file__).resolve().parent.parent / "perfbench" / "rep.py"


def traced(argv):
    proc = subprocess.run(
        [sys.executable, str(REP), "--trace", "1", "--", *argv],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit_code"] == 0
    return report["layers"]


def test_traced_run(tmp_path):
    layers = traced(["run", "--config", "e1", "--out", str(tmp_path / "out")])
    assert layers["engine.events"] > 0
    assert layers["netgraph.build_skim.calls"] == 1


def test_traced_single_cell_experiment(tmp_path):
    plan = json.loads(presets.read_text("e3"))
    plan["grid"] = {"n_drivers": [25]}
    plan["replications"] = 2
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    layers = traced(["experiment", "--plan", str(path), "--out", str(tmp_path / "out"),
                     "--threads", "2"])
    assert layers["engine.events"] > 0
    assert layers["netgraph.build_skim.calls"] == 1
    assert layers["experiments.runs"] == 2
