"""Command-line behaviour: exit codes, output layout, manifests, reruns."""

import hashlib
import json
import subprocess
import sys

import pytest

from ridesim import kpi
from ridesim.cli import main

RUN_FILES = {"events.csv", "kpi_travellers.csv", "kpi_drivers.csv",
             "kpi_system.csv", "kpi_nodes.csv", "manifest.json"}


def small_config(**over):
    raw = {
        "horizon_s": 1200,
        "n_travellers": 15,
        "n_drivers": 3,
        "seed": 5,
        "platforms": [{
            "platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
            "commission_rate": 0.1, "matching": "instant",
        }],
        "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 250, "speed_mps": 10}},
    }
    raw.update(over)
    return raw


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(small_config()))
    return p


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}


# --------------------------------------------------------------------- run

def test_run_writes_six_files(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES


def test_run_missing_config_exits_1(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_run_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_run_invalid_config_value_exits_1(tmp_path, capsys):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(small_config(n_travellers=-3)))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "n_travellers" in capsys.readouterr().err


def test_run_out_path_is_a_file_exits_2(config_file, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    code = main(["run", "--config", str(config_file), "--out", str(blocker)])
    assert code == 2


def test_rerun_byte_identical(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_file), "--out", str(a)]) == 0
    assert main(["run", "--config", str(config_file), "--out", str(b)]) == 0
    fa, fb = read_outputs(a), read_outputs(b)
    for name in sorted(RUN_FILES - {"manifest.json"}):
        assert fa[name] == fb[name], name


def test_seed_flag_changes_outputs(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_file), "--out", str(a), "--seed", "5"])
    main(["run", "--config", str(config_file), "--out", str(b), "--seed", "6"])
    assert read_outputs(a)["events.csv"] != read_outputs(b)["events.csv"]
    assert json.loads((b / "manifest.json").read_text())["seed"] == 6


def test_run_preset_by_name(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", "e1", "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == RUN_FILES
    rows = (out / "kpi_system.csv").read_text().strip().splitlines()
    assert len(rows) == 2                   # header + one day


def test_run_multi_day_layout(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(small_config(
        decisions={"f_driver_out": "learned_participation"})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out), "--days", "3"]) == 0
    assert {q.name for q in out.iterdir()} == RUN_FILES | {"day_to_day.csv"}
    days = (out / "day_to_day.csv").read_text().strip().splitlines()
    system = (out / "kpi_system.csv").read_text().strip().splitlines()
    assert len(days) == len(system)         # one row per simulated day, each
    events = (out / "events.csv").read_text()
    assert events.splitlines()[1].startswith("0,")
    assert f"\n{len(days) - 2}," in events  # last day present in the log


def test_run_days_zero_exits_1(config_file, tmp_path, capsys):
    code = main(["run", "--config", str(config_file),
                 "--out", str(tmp_path / "out"), "--days", "0"])
    assert code == 1
    assert "--days" in capsys.readouterr().err


def test_manifest_lists_exact_contents(config_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["name"] for f in manifest["files"]}
    assert listed == {p.name for p in out.iterdir()} - {"manifest.json"}
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        assert entry["size"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["version"]
    assert manifest["seed"] == 5


def test_manifest_omits_stale_files(config_file, tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--config", str(config_file), "--out", str(out)]
    assert main(argv + ["--days", "2"]) == 0
    assert main(argv + ["--days", "1"]) == 0
    assert (out / "day_to_day.csv").exists()      # left by the first run
    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == RUN_FILES - {"manifest.json"}


def test_run_days_validates_each_log_once(config_file, tmp_path, monkeypatch):
    calls = []
    validate = kpi.validate_log

    def counting(log):
        calls.append(len(log))
        return validate(log)

    monkeypatch.setattr(kpi, "validate_log", counting)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out),
                 "--days", "3"]) == 0
    assert len(calls) == 3


# -------------------------------------------------------------- experiment

def plan_file(tmp_path, **over):
    plan = {
        "base": small_config(n_travellers=10),
        "grid": {"n_drivers": [2, 3]},
        "replications": 2,
        "base_seed": 30,
    }
    plan.update(over)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    return p


def test_experiment_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan_file(tmp_path)),
                 "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"experiment_results.csv",
                                               "manifest.json"}
    lines = (out / "experiment_results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_experiment_thread_count_invariant(tmp_path):
    p = plan_file(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--plan", str(p), "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["experiment", "--plan", str(p), "--out", str(b),
                 "--threads", "3"]) == 0
    assert (a / "experiment_results.csv").read_bytes() == \
        (b / "experiment_results.csv").read_bytes()


def test_experiment_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RIDESIM_THREADS", "2")
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan_file(tmp_path)),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_experiment_bad_threads_env_exits_1(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("RIDESIM_THREADS", value)
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan_file(tmp_path)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "RIDESIM_THREADS" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_experiment_bad_grid_path_exits_1(tmp_path, capsys):
    p = plan_file(tmp_path, grid={"platforms[5].fare_per_km": [1.0]})
    code = main(["experiment", "--plan", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "platforms[5].fare_per_km" in capsys.readouterr().err


# ---------------------------------------------------------------- generate

def test_generate_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--grid", "5", "5", "200", "10",
                 "--out", str(out)]) == 0
    nodes = (out / "nodes.csv").read_text().strip().splitlines()
    edges = (out / "edges.csv").read_text().strip().splitlines()
    assert nodes[0] == "node_id,x,y"
    assert len(nodes) == 1 + 25
    assert len(edges) == 1 + 80             # 2 directions x 40 grid links


def test_generate_grid_bad_arg_exits_1(tmp_path, capsys):
    code = main(["generate", "--grid", "5", "x", "200", "10",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--grid" in capsys.readouterr().err


def test_generate_demand_sorted_and_deterministic(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--demand", "40", "--config", str(config_file),
                     "--out", str(out), "--seed", "9"]) == 0
    assert (a / "requests.csv").read_bytes() == (b / "requests.csv").read_bytes()
    lines = (a / "requests.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 40
    times = [float(line.split(",")[4]) for line in lines[1:]]
    assert times == sorted(times)


def test_generate_supply(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--supply", "7", "--config", str(config_file),
                 "--out", str(out)]) == 0
    lines = (out / "drivers.csv").read_text().strip().splitlines()
    assert lines[0] == "driver_id,home_node,shift_start_s,shift_end_s,platform_ids"
    assert len(lines) == 1 + 7


def test_generate_demand_without_config_exits_1(tmp_path, capsys):
    code = main(["generate", "--demand", "10", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--config" in capsys.readouterr().err


# ----------------------------------------------------------- entry points

def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "ridesim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ridesim ")
