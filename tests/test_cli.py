"""Command-line behaviour: exit codes, output layout, manifests, reruns."""

import hashlib
import json
import subprocess
import sys

import pytest

from ridesim import kpi, presets
from ridesim.cli import main
from ridesim.decisions import register

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


def _with(path, value):
    """small_config with the value at a dotted path replaced."""
    raw = small_config()
    *parents, last = path.split(".")
    target = raw
    for key in parents:
        target = target[key][0] if key == "platforms" else target[key]
    target[last] = value
    return raw


def _nan_edge_config(tmp_path):
    city = tmp_path / "city"
    city.mkdir()
    (city / "nodes.csv").write_text("node_id,x,y\n0,0,0\n1,100,0\n")
    (city / "edges.csv").write_text(
        "from,to,length_m,speed_mps\n0,1,nan,10\n1,0,100,10\n")
    return small_config(graph={"nodes": "city/nodes.csv", "edges": "city/edges.csv"})


def _csv_config(tmp_path, key, text):
    """small_config reading its requests or drivers from a CSV with ``text``."""
    name = key.replace("_csv", ".csv")
    (tmp_path / name).write_text(text)
    return small_config(**{key: name})


BAD_VALUES = {
    "behaviour_list": (lambda tmp: small_config(behaviour=[1]), "behaviour"),
    "behaviour_string": (lambda tmp: small_config(behaviour="xy"), "behaviour"),
    "horizon_nan": (lambda tmp: _with("horizon_s", float("nan")), "horizon_s"),
    "horizon_inf": (lambda tmp: _with("horizon_s", float("inf")), "horizon_s"),
    "fare_nan": (lambda tmp: _with("platforms.fare_per_km", float("nan")),
                 "platforms[0].fare_per_km"),
    "max_wait_nan": (lambda tmp: small_config(behaviour={"max_wait_s": float("nan")}),
                     "behaviour.max_wait_s"),
    "board_inf": (lambda tmp: small_config(behaviour={"t_board_s": float("inf")}),
                  "behaviour.t_board_s"),
    "spacing_inf": (lambda tmp: _with("graph.grid.spacing_m", float("inf")),
                    "graph.grid.spacing_m"),
    "edge_length_nan": (_nan_edge_config, "edge 0 (0->1)"),
    "demand_weight_nan": (lambda tmp: small_config(demand_weights=[1.0] * 8 + [float("nan")]),
                          "demand_weights[8]"),
    "demand_weight_huge": (lambda tmp: small_config(demand_weights=[1] * 8 + [10 ** 400]),
                           "demand_weights[8]"),
    "requests_csv_short_row": (
        lambda tmp: _csv_config(tmp, "requests_csv",
                                "request_id,traveller_id,origin,destination,t_request_s\n"
                                "0,0,1,2,10\n1,1,2\n"),
        "requests.csv:row 3"),
    "requests_csv_duplicate_traveller": (
        lambda tmp: _csv_config(tmp, "requests_csv",
                                "request_id,traveller_id,origin,destination,t_request_s\n"
                                "0,7,1,2,10\n1,7,2,3,20\n"),
        "requests.csv:row 3"),
    "drivers_csv_long_row": (
        lambda tmp: _csv_config(tmp, "drivers_csv",
                                "driver_id,home_node,shift_start_s,shift_end_s,platform_ids\n"
                                "0,1,0,600,0,7\n"),
        "drivers.csv:row 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_run_non_finite_or_malformed_value_exits_1(case, tmp_path, capsys):
    make, where = BAD_VALUES[case]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(make(tmp_path)))      # writes NaN and Infinity
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_run_materialize_error_leaves_no_events_csv(tmp_path, capsys):
    # the requests file has one row, the config asks for 15 travellers
    raw = _csv_config(tmp_path, "requests_csv",
                      "request_id,traveller_id,origin,destination,t_request_s\n"
                      "0,0,1,2,10\n")
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    assert "n_travellers" in capsys.readouterr().err
    assert not (out / "events.csv").exists()
    assert not (out / "manifest.json").exists()


def test_run_keeps_request_ids_above_2_53(tmp_path):
    big = 2 ** 60
    raw = _csv_config(tmp_path, "requests_csv",
                      "request_id,traveller_id,origin,destination,t_request_s\n"
                      f"{big + 1},0,1,2,10\n{big},1,2,3,20\n")
    raw["n_travellers"] = 2
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    ids = {rec.request_id for rec in kpi.read_events_csv(out / "events.csv")
           if rec.request_id is not None}
    assert ids == {big, big + 1}


def test_run_out_path_is_a_file_exits_2(config_file, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    code = main(["run", "--config", str(config_file), "--out", str(blocker)])
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_run_seed_out_of_range_exits_1(seed, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out", str(out),
                 "--seed", seed])
    assert code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("what", [["--grid", "3", "3", "100", "10"], ["--demand", "5"]])
def test_generate_seed_out_of_range_exits_1(seed, what, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["generate", *what, "--config", str(config_file), "--out", str(out),
                 "--seed", seed])
    assert code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_run_seed_at_range_ends_accepted(config_file, tmp_path):
    for seed in (0, 2 ** 64 - 1):
        out = tmp_path / str(seed)
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--seed", str(seed)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


def _raising_hook(ctx):
    raise ValueError("hook bug")


@pytest.mark.parametrize("slot,agent", [("f_trav_mode", "traveller"),
                                        ("f_match", "platform 0")])
def test_run_hook_exception_exits_2_with_context(slot, agent, tmp_path, capsys):
    register(slot, "test_raises", _raising_hook)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(small_config(decisions={slot: "test_raises"})))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ridesim: t=")
    assert f"{slot} raised ValueError for {agent}" in err and "hook bug" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_run_bad_repos_answer_exits_2(tmp_path, capsys):
    register("f_driver_repos", "test_north", lambda ctx: "north")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(small_config(decisions={"f_driver_repos": "test_north"})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ridesim: t=")
    assert "f_driver_repos returned 'north' for driver " in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def _match_raises_while_iterated(ctx):
    raise ValueError("boom")
    yield       # a generator: the error comes while its answer is iterated


@pytest.mark.parametrize("hook, shown", [
    (_match_raises_while_iterated, "f_match raised ValueError for platform 0: boom"),
    (lambda ctx: [([0], 0)], "f_match returned ([0], 0) for platform 0, expected "),
], ids=["generator-raises", "unhashable-id"])
def test_run_bad_match_answer_exits_2(hook, shown, tmp_path, capsys):
    register("f_match", "test_bad_match", hook)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(small_config(decisions={"f_match": "test_bad_match"})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ridesim: t=")
    assert shown in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


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
    assert [r.split(",")[0] for r in system] == [r.split(",")[0] for r in days]
    events = (out / "events.csv").read_text()
    assert events.splitlines()[1].startswith("0,")
    assert f"\n{len(days) - 2}," in events  # last day present in the log


def test_run_days_empty_logs_keep_their_day(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(small_config(n_travellers=0, n_drivers=0)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out), "--days", "3"]) == 0

    def day_column(name):
        return [line.split(",")[0]
                for line in (out / name).read_text().splitlines()[1:]]

    assert day_column("kpi_system.csv") == day_column("day_to_day.csv") \
        == ["0", "1", "2"]


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


def test_run_days_builds_traveller_rows_once_per_day(config_file, tmp_path,
                                                     monkeypatch):
    calls = {"traveller_kpis": 0, "driver_kpis": 0}
    for name in calls:
        def counting(log, name=name, build=getattr(kpi, name)):
            calls[name] += 1
            return build(log)
        monkeypatch.setattr(kpi, name, counting)
    for days in (1, 3):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["run", "--config", str(config_file), "--out",
                     str(tmp_path / f"out{days}"), "--days", str(days)]) == 0
        # the last day's files reuse that day's rows
        assert calls == {"traveller_kpis": days, "driver_kpis": days}


def test_run_one_day_is_day_zero_of_a_longer_run(tmp_path):
    def events(days):
        out = tmp_path / f"days{days}"
        assert main(["run", "--config", "e4", "--days", str(days), "--out", str(out)]) == 0
        return (out / "events.csv").read_text().splitlines()

    one, two = events(1), events(2)
    day0 = [row for row in two[1:] if row.startswith("0,")]
    assert one[0] == two[0] and one[1:] == day0
    assert len(day0) < len(two) - 1         # day 1 is in the longer log


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


def test_experiment_last_seed_out_of_range_exits_1(tmp_path, capsys):
    # replication 1 of 2 would run seed 2**64
    out = tmp_path / "out"
    p = plan_file(tmp_path, base_seed=2 ** 64 - 1)
    assert main(["experiment", "--plan", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "base_seed" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_experiment_missing_plan_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["experiment", "--plan", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 1
    assert "plan file not found" in capsys.readouterr().err
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


# SHA-256 of every file `generate` writes except manifest.json; like
# GOLDEN below, only a deliberate change of output may update them.
GENERATE_GOLDEN = {
    "grid": (["--grid", "7", "5", "333.3", "9.5"], {
        "edges.csv": "b5749745ef80c912c79a58d3bc30caa3a8a7205fd7dd08be0a3d53a393e9dcc6",
        "nodes.csv": "5ba7abec6d1cb17c90f9cfb7e7337a32e12a2b7eb7e0c32ad709d2b512278ae5",
    }),
    "demand": (["--demand", "300", "--config", "e1"], {
        "requests.csv": "0cf7f4d977e13af3363ff37e30b980cce581d6d1d71675152e69f239282adc86",
    }),
    "supply": (["--supply", "30", "--config", "e1"], {
        "drivers.csv": "4b28264dc22081a1fc7ac758f1a19822275b212b451171e182afb1a1a35f3c2d",
    }),
}


@pytest.mark.parametrize("case", sorted(GENERATE_GOLDEN))
def test_generate_golden_outputs(case, tmp_path):
    what, golden = GENERATE_GOLDEN[case]
    out = tmp_path / "out"
    assert main(["generate", *what, "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(read_outputs(out).items())
        if name != "manifest.json"
    }
    assert digests == golden


def test_generate_demand_without_config_exits_1(tmp_path, capsys):
    code = main(["generate", "--demand", "10", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--demand", "--supply"])
def test_generate_negative_count_exits_1(flag, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["generate", flag, "-5", "--config", str(config_file),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


BOM_UTF16 = b"\xff\xfe{}"          # a UTF-16 byte-order mark: not UTF-8


def _put(tmp_path, name, data: bytes):
    (tmp_path / name).write_bytes(data)


def _run_with(tmp_path, **over):
    (tmp_path / "c.json").write_text(json.dumps(small_config(**over)))
    return ["run", "--config", str(tmp_path / "c.json")]


def _plan_with_base(tmp_path, base):
    plan = {"base": base, "grid": {"n_drivers": [2]}, "replications": 1, "base_seed": 1}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    return ["experiment", "--plan", str(tmp_path / "plan.json")]


def _requests_with_ff(tmp_path):
    _put(tmp_path, "requests.csv", b"request_id,traveller_id,origin,destination,"
                                   b"t_request_s\n0,0,1,2,1\xff\n")
    return _run_with(tmp_path, requests_csv="requests.csv")


def _nodes_with_ff(tmp_path):
    _put(tmp_path, "nodes.csv", b"node_id,x,y\n0,0,0\xff\n1,100,0\n")
    _put(tmp_path, "edges.csv", b"from,to,length_m,speed_mps\n0,1,100,10\n1,0,100,10\n")
    return _run_with(tmp_path, graph={"nodes": "nodes.csv", "edges": "edges.csv"})


def _utf16_config(tmp_path):
    _put(tmp_path, "bad.json", BOM_UTF16)
    return ["run", "--config", str(tmp_path / "bad.json")]


def _utf16_plan_base(tmp_path):
    _put(tmp_path, "bad.json", BOM_UTF16)
    return _plan_with_base(tmp_path, "bad.json")


def _requests_directory(tmp_path):
    (tmp_path / "requests.csv").mkdir()
    return _run_with(tmp_path, requests_csv="requests.csv")


# case -> (writes the inputs and returns the command, the file the error names)
UNREADABLE = {
    "config_utf16": (_utf16_config, "bad.json"),
    "plan_base_utf16": (_utf16_plan_base, "bad.json"),
    "plan_base_directory": (lambda tmp: _plan_with_base(tmp, "."), ""),   # tmp_path itself
    "requests_csv_directory": (_requests_directory, "requests.csv"),
    "requests_csv_byte_ff": (_requests_with_ff, "requests.csv"),
    "nodes_csv_byte_ff": (_nodes_with_ff, "nodes.csv"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_file_exits_1(case, tmp_path, capsys):
    make, name = UNREADABLE[case]
    argv = make(tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ridesim: ") and "Traceback" not in err
    assert str(tmp_path / name) in err
    assert not (out / "manifest.json").exists()


# ----------------------------------------------------------- entry points

def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "ridesim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ridesim ")


# ------------------------------------------------------------ golden outputs

def _golden_mixed_config():
    """Two platforms, one instant and one batched, with declines, a rejection
    cap, repositioning and dwell-time variability."""
    return small_config(
        horizon_s=3600, n_travellers=120, n_drivers=8, seed=17,
        platforms=[
            {"platform_id": 0, "base_fare": 1.0, "fare_per_km": 1.0,
             "commission_rate": 0.2, "matching": "instant", "fleet": 3},
            {"platform_id": 1, "base_fare": 0.5, "fare_per_km": 1.2,
             "commission_rate": 0.25, "matching": {"batched": {"window_s": 60}}},
        ],
        graph={"grid": {"rows": 6, "cols": 6, "spacing_m": 500, "speed_mps": 8}},
        behaviour={"decline_eta_s": 250, "max_wait_s": 150, "max_rejections": 2,
                   "t_board_s": 20, "t_alight_s": 15, "service_variability": 0.3},
        decisions={"f_driver_decline": "decline_far_pickup",
                   "f_trav_mode": "max_wait",
                   "f_driver_repos": "repos_to_demand"},
    )


def _golden_e3_cut():
    plan = json.loads(presets.read_text("e3"))
    plan["grid"] = {"n_drivers": [25, 40], "platforms[1].fare_per_km": [0.6, 1.4]}
    plan["replications"] = 2
    return plan


# SHA-256 of every output except manifest.json. Outputs are byte-identical
# for a fixed config and seed, so a refactor leaves these unchanged; only a
# deliberate change of output may update them.
GOLDEN = {
    "e1": {
        "events.csv":
            "edb3288479793850ccdf0da14f02ca71b930a3248fa058b6317379327daf22af",
        "kpi_drivers.csv":
            "3e7cdba19f63e829f4b89a251f3956d23309a7fc0f2609808123f42687e51e55",
        "kpi_nodes.csv":
            "c569d48aa05d4c8a17387dc6d1aab217dfe0f9412cd12304ee2a739858122681",
        "kpi_system.csv":
            "e291495c1030464e37fc6495eaf23f48663161992ef174c3009e1d82a0626e97",
        "kpi_travellers.csv":
            "850fd4c0e35584f28a278631813ccee393e8887cfe8f33032ef0c45b185ef4b4",
    },
    "e4_days4": {
        "day_to_day.csv":
            "beb6239872dcefe773f95121e491e7f78fada78b49d969d8e2ff2b3cec69dc0e",
        "events.csv":
            "ea8b30e7a614d59dc1597b1c610bc6c40d0da01154607fa9c58372f5608e97b7",
        "kpi_drivers.csv":
            "b8172907ee1b58757676638ca0b69993045cff1d7c136f152f42915f6f604730",
        "kpi_nodes.csv":
            "e9e21673f605e578c27e06434aaf02cfbee41b3a6c8e8ca1b7bb5ab518984e92",
        "kpi_system.csv":
            "5dd9e3734ceb3bdc7868a3d41af262af048b0e566330b673f26b6b9d4fbf3ec4",
        "kpi_travellers.csv":
            "ecfc8279cb3df9f3d085e3e0ad39f0a272c627717f27bd6e1345d2dd2487edfa",
    },
    "mixed": {
        "events.csv":
            "72db30815e1b68f2a5fa9011d820615d3416dde51e018a479043c8a18c8b9dd5",
        "kpi_drivers.csv":
            "b2482761a2007fe5d51537c99bcf8d6561e3f0779e53c5e3337612cab80df634",
        "kpi_nodes.csv":
            "02dd120f75f606c761baec168bc0eed1df86573171e639527b4a954a16ca7cc2",
        "kpi_system.csv":
            "474d4a3c8dd9f05f1b1365316b4167bdbd2b60c500093660b5a07debf73ee7de",
        "kpi_travellers.csv":
            "894280efb51e69776d7191ba9d9ab9ad1310c033d98f8a69a889e0437630786d",
    },
    "e3_cut": {
        "experiment_results.csv":
            "cb94ee9f4127eefefdbcdbf18c0cfa05bb578e32f6df98c34098d821edf90aa8",
    },
}


def _golden_argv(case, tmp_path):
    out = tmp_path / case
    if case == "e1":
        return ["run", "--config", "e1", "--out", str(out)], out
    if case == "e4_days4":
        return ["run", "--config", "e4", "--days", "4", "--out", str(out)], out
    if case == "mixed":
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(_golden_mixed_config()))
        return ["run", "--config", str(p), "--out", str(out)], out
    p = tmp_path / "e3_cut.json"
    p.write_text(json.dumps(_golden_e3_cut()))
    return ["experiment", "--plan", str(p), "--out", str(out), "--threads", "1"], out


@pytest.mark.parametrize("case", ["e1", "e4_days4", "mixed", "e3_cut"])
def test_golden_outputs(case, tmp_path):
    argv, out = _golden_argv(case, tmp_path)
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(read_outputs(out).items())
        if name != "manifest.json"
    }
    assert digests == GOLDEN[case]
