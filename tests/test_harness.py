"""Smoke test of the traced benchmark harness.

``perfbench/tracer.py`` rebinds names in ridesim's modules (``cli.run_day``,
``experiments.materialize``, ``scenario.build_skim``, the ``kpi`` writers and
others). A change that drops or renames one of them breaks every traced
benchmark run; this test runs one traced ``run`` and one traced single-cell
``experiment`` so such a change fails here first. The untraced repetition
hooks only ``run_day``, in both ``cli`` and ``experiments``, so an experiment
is also run untraced, and its record count must equal the traced one.
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
    layers = traced(["experiment", "--plan", str(single_cell_plan(tmp_path)),
                     "--out", str(tmp_path / "out"), "--threads", "2"])
    assert layers["engine.events"] > 0
    assert layers["netgraph.build_skim.calls"] == 1
    assert layers["experiments.runs"] == 2
    # each run's demand is generated inside its traced materialize
    assert layers["scenario.generate_demand.s"] > 0
    assert layers["scenario.materialize.calls"] == layers["experiments.runs"]


def single_cell_plan(tmp_path):
    plan = json.loads(presets.read_text("e3"))
    plan["grid"] = {"n_drivers": [25]}
    plan["replications"] = 2
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_untraced_experiment_counts_what_the_traced_one_does(tmp_path):
    plan = single_cell_plan(tmp_path)
    argv = ["experiment", "--plan", str(plan), "--threads", "2", "--out"]
    proc = subprocess.run(
        [sys.executable, str(REP), "--trace", "0", "--", *argv, str(tmp_path / "plain")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit_code"] == 0
    layers = traced([*argv, str(tmp_path / "traced")])
    assert report["events"] > 0
    assert report["events"] == layers["engine.events"]
    assert 0 < report["setup_s"] < report["wall_s"]

