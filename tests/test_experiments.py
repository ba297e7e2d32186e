"""Grid runner, replication and day-to-day iteration tests."""

import copy
import json
import re
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from ridesim import experiments, kpi, presets, scenario
from ridesim.cli import main
from ridesim.decisions import build_decision_set, default_driver_out, register
from ridesim.engine import DayState
from ridesim.errors import ConfigError
from ridesim.experiments import (
    apply_override,
    day_to_day,
    parse_plan,
    run_grid,
)
from ridesim.netgraph import build_skim
from ridesim.scenario import parse_config


def base_raw(**over):
    raw = {
        "horizon_s": 1800,
        "n_travellers": 12,
        "n_drivers": 3,
        "seed": 1,
        "platforms": [{
            "platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
            "commission_rate": 0.0, "matching": "instant",
        }],
        "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 200, "speed_mps": 10}},
    }
    raw.update(over)
    return raw


def plan_raw(**over):
    raw = {
        "base": base_raw(),
        "grid": {
            "n_drivers": [2, 4],
            "platforms[0].fare_per_km": [1.0, 2.0],
        },
        "replications": 2,
        "base_seed": 100,
    }
    raw.update(over)
    return raw


# ------------------------------------------------------------- overrides

def test_apply_override_paths():
    raw = {"a": {"b": [10, {"c": 1}]}, "n": 3}
    apply_override(raw, "a.b[1].c", 5)
    assert raw["a"]["b"][1]["c"] == 5
    apply_override(raw, "a.b[0]", 7)
    assert raw["a"]["b"][0] == 7
    apply_override(raw, "n", 9)
    assert raw["n"] == 9
    apply_override(raw, "a.new_key", "x")   # final key may be created
    assert raw["a"]["new_key"] == "x"


def test_apply_override_missing_intermediate():
    with pytest.raises(ConfigError, match="behaviour"):
        apply_override(base_raw(), "behaviour.max_wait_s", 60)


def test_apply_override_index_out_of_range():
    with pytest.raises(ConfigError, match="out of range"):
        apply_override(base_raw(), "platforms[3].fare_per_km", 2.0)


@pytest.mark.parametrize("path, message", [
    ("platforms[1]", "index 1 out of range"),
    ("horizon_s[0]", "index 0 out of range"),
    ("horizon_s.x", "segment 'x' is not an object"),
    ("platforms.x", "segment 'x' is not an object"),
])
def test_apply_override_last_segment_errors(path, message):
    with pytest.raises(ConfigError) as info:
        apply_override(base_raw(), path, 1)
    assert str(info.value) == f"{message}: grid.{path}"


def test_apply_override_malformed_path():
    for bad in ("a..b", "platforms[x]", "", "a.b["):
        with pytest.raises(ConfigError, match="malformed"):
            apply_override({"a": {"b": 1}}, bad, 0)


# ------------------------------------------------------------------ plans

def test_parse_plan_defaults():
    plan = parse_plan(plan_raw())
    assert plan.replications == 2
    assert plan.base_seed == 100
    # grid keys in plan order, cells row-major
    assert [list(cell.items()) for cell, _ in plan.cells] == [
        [("n_drivers", n), ("platforms[0].fare_per_km", fare)]
        for n in (2, 4) for fare in (1.0, 2.0)]


def test_plan_threads_key_exits_1(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_raw(threads=4)))
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ridesim: unknown key: threads\n"
    assert not out.exists()


@pytest.mark.parametrize("mutate,needle", [
    (lambda r: r.pop("grid"), "grid"),
    (lambda r: r.pop("base"), "base"),
    (lambda r: r.update(grid={}), "grid"),
    (lambda r: r.update(grid={"n_drivers": []}), "n_drivers"),
    (lambda r: r.update(grid={"n_drivers": 5}), "n_drivers"),
    (lambda r: r.update(replications=0), "replications"),
    (lambda r: r.update(replications=True), "replications"),
    (lambda r: r.update(base_seed=-1), "base_seed"),
    pytest.param(lambda r: r.update(base_seed=2 ** 64 - 1), "base_seed",
                 id="last_replication_seed_too_large"),     # 2 replications
    (lambda r: r.update(surprise=1), "surprise"),
    pytest.param(lambda r: r.update(base="broken.json"), "invalid JSON.*: base$",
                 id="base_invalid_json"),
    (lambda r: r.update(base=5), "expected an object: base$"),
    pytest.param(lambda r: r.update(grid={"n_drivers": [4, 2],
                                          "platforms[0].fare_per_km": [1.0, -2]}),
                 re.escape('must be a finite number >= 0: platforms[0].fare_per_km '
                           'in grid cell {"n_drivers": 4, "platforms[0].fare_per_km": -2}'),
                 id="cell_error_names_the_cell"),
])
def test_parse_plan_rejects(mutate, needle, tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    raw = plan_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=needle):
        parse_plan(raw, base_dir=tmp_path)


def test_parse_plan_rejects_a_non_object():
    with pytest.raises(ConfigError, match=r"^expected an object: \$$"):
        parse_plan([plan_raw()])


def test_parse_plan_last_seed_at_range_end():
    assert parse_plan(plan_raw(base_seed=2 ** 64 - 2)).base_seed == 2 ** 64 - 2


def test_parse_plan_rejects_bad_override_path_up_front():
    raw = plan_raw(grid={"platforms[3].fare_per_km": [1.0]})
    with pytest.raises(ConfigError, match="out of range"):
        parse_plan(raw)


def test_parse_plan_with_base_file(tmp_path):
    (tmp_path / "base.json").write_text(json.dumps(base_raw(requests_csv="requests.csv")))
    plan = parse_plan(plan_raw(base="base.json"), base_dir=tmp_path)
    for _, config in plan.cells:
        assert config.n_travellers == 12
        assert config.requests_csv == str(tmp_path / "requests.csv")


# ----------------------------------------------------------- replications

def replications(n, base_seed):
    """``run_grid`` over a one-value grid: n replications of one config."""
    return run_grid(parse_plan(plan_raw(grid={"n_drivers": [3]},
                                        replications=n, base_seed=base_seed)))


def test_replicate_seeds_and_order():
    rows = replications(3, 50)
    assert [(r["replication"], r["seed"]) for r in rows] == [(0, 50), (1, 51), (2, 52)]
    assert rows == replications(3, 50)


def test_replications_differ_but_share_structure():
    rows = replications(2, 50)
    assert rows[0] != rows[1]               # different seeds, different days
    assert set(rows[0]) == set(rows[1])


# -------------------------------------------------------------------- grid

def test_run_grid_shape_and_order():
    plan = parse_plan(plan_raw())
    rows = run_grid(plan)
    assert len(rows) == 2 * 2 * 2
    cells = [(r["n_drivers"], r["platforms[0].fare_per_km"], r["replication"])
             for r in rows]
    assert cells == [
        (2, 1.0, 0), (2, 1.0, 1), (2, 2.0, 0), (2, 2.0, 1),
        (4, 1.0, 0), (4, 1.0, 1), (4, 2.0, 0), (4, 2.0, 1),
    ]
    assert all(r["seed"] == 100 + r["replication"] for r in rows)


def test_run_grid_runs_every_day_on_the_calling_thread(monkeypatch):
    threads, active = [], []

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        active.append(threading.active_count())
        return run_day(*args, **kwargs)

    run_day = experiments.run_day
    monkeypatch.setattr(experiments, "run_day", recorded)
    before = threading.active_count()
    rows = run_grid(parse_plan(plan_raw()))
    assert len(threads) == len(rows) == 8
    assert set(threads) == {threading.get_ident()}
    assert max(active) == threading.active_count() == before


@pytest.mark.parametrize("grid, builds", [
    ({"n_drivers": [2, 3, 4, 5]}, 1),
    ({"graph.grid.rows": [3, 4], "n_drivers": [2, 3]}, 2),
])
def test_run_grid_builds_each_skim_once(monkeypatch, grid, builds):
    calls = []

    def counted(net):
        calls.append(net.n)
        return build_skim(net)

    monkeypatch.setattr(scenario, "build_skim", counted)
    plan = parse_plan(plan_raw(grid=grid, replications=1))
    rows = run_grid(plan)
    assert len(calls) == builds
    assert len(set(calls)) == builds
    monkeypatch.undo()
    assert rows == run_grid(plan)


def test_run_grid_matches_manual_replicate():
    plan = parse_plan(plan_raw())
    rows = [r for r in run_grid(plan)
            if r["n_drivers"] == 4 and r["platforms[0].fare_per_km"] == 2.0]
    raw = base_raw(n_drivers=4)
    raw["platforms"][0]["fare_per_km"] = 2.0
    alone = run_grid(parse_plan(plan_raw(base=raw, grid={"n_drivers": [4]})))
    assert len(rows) == len(alone) == 2
    for row, rep in zip(rows, alone):
        for key, value in rep.items():
            assert row[key] == value
        one_day = day_to_day(parse_config({**raw, "seed": row["seed"]}), max_days=1)
        assert {k: row[k] for k in one_day.system_rows[0]} == one_day.system_rows[0]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("slot, bad, needle", [
    ("f_match", "nope", 'unknown module "nope"'),
    ("f_driver_decline", "decline_far_pickup", "requires behaviour.decline_eta_s"),
])
def test_bad_decisions_in_last_cell_fail_before_any_run(
        monkeypatch, tmp_path, capsys, threads, slot, bad, needle):
    calls = []
    monkeypatch.setattr(experiments, "run_day", lambda *args, **kw: calls.append(args))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_raw(
        base=base_raw(decisions={}),
        grid={"n_drivers": [2, 3, 4], f"decisions.{slot}": ["default", bad]})))
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan), "--out", str(out),
                 "--threads", str(threads)]) == 1
    assert calls == []
    err = capsys.readouterr().err
    cell = json.dumps({"n_drivers": 2, f"decisions.{slot}": bad})
    assert f"decisions.{slot} in grid cell {cell}" in err and needle in err
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_short_demand_weights_in_a_cell_fail_before_any_run(
        monkeypatch, tmp_path, capsys, threads):
    calls = []
    monkeypatch.setattr(experiments, "run_day", lambda *args, **kw: calls.append(args))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_raw(grid={"demand_weights": [[1] * 9, [1, 2]]})))
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan), "--out", str(out),
                 "--threads", str(threads)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "ridesim: expected 9 weights (one per node), got 2: demand_weights "
        'in grid cell {"demand_weights": [1, 2]}\n')
    assert not out.exists()


def test_run_with_bad_decisions_fails_before_materialize(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(experiments, "materialize", lambda *args, **kw: calls.append(args))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(base_raw(decisions={"f_match": "nope"})))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert 'unknown module "nope"' in err and "decisions.f_match" in err


# ------------------------------------------------------- shared demand

def run_every_demand(plan):
    """``run_grid`` as it was before demand was shared: each run builds its
    own network, skim, decision set and demand in ``materialize``. The oracle
    for shared demand."""
    rows = []
    for cell, config in plan.cells:
        dec = build_decision_set(config.decisions, config.behaviour)
        for k in range(plan.replications):
            cfg = replace(config, seed=plan.base_seed + k)
            inputs = scenario.materialize(cfg)
            rows.append({**cell, "replication": k, "seed": cfg.seed,
                         **experiments._day(cfg, inputs, dec, 0, DayState())[-1]})
    return rows


def preset_plan(name, grid=None, replications=2, base_seed=None):
    raw = json.loads(presets.read_text(name))
    if grid is not None:
        raw["grid"] = grid
    raw["replications"] = replications
    if base_seed is not None:
        raw["base"]["seed"] = raw["base_seed"] = base_seed
    return parse_plan(raw)


@pytest.mark.parametrize("plan", [
    preset_plan("e2"),                  # n_travellers varies across cells
    preset_plan("e3", grid={"n_drivers": [25, 40],
                            "platforms[1].fare_per_km": [0.6, 1.4]}),
], ids=["e2", "e3"])
def test_shared_demand_rows_match_per_run_demand(plan):
    assert run_grid(plan) == run_every_demand(plan)


def test_each_demand_built_once_per_key(monkeypatch):
    # the benchmark's sweep_e3 plan: 36 runs over 4 replication seeds
    plan = preset_plan("e3", grid={"n_drivers": [25, 40, 60],
                                   "platforms[1].fare_per_km": [0.6, 1.0, 1.4]},
                       replications=4, base_seed=11)
    keys = Counter()
    generate = scenario.generate_demand

    def counted(net, n, horizon, seed, weights=None):
        keys[n, horizon, seed, weights] += 1
        return generate(net, n, horizon, seed, weights)

    monkeypatch.setattr(scenario, "generate_demand", counted)
    # the days themselves do not change which demands are built
    monkeypatch.setattr(experiments, "_day", lambda *args: (None, None, None, {}))
    assert len(run_grid(plan)) == 36
    assert len(keys) == 4 and set(keys.values()) == {1}


def counted_reads(monkeypatch, name):
    """Replace ``scenario.<name>`` with a wrapper that records the
    arguments of each call, and return that record."""
    reads, load = [], getattr(scenario, name)

    def counted(*args):
        reads.append(args)
        return load(*args)

    monkeypatch.setattr(scenario, name, counted)
    return reads


def test_requests_csv_read_once_per_key(monkeypatch, tmp_path):
    net = parse_config(base_raw()).graph.build()
    scenario.save_requests_csv(scenario.generate_demand(net, 12, 1800, 5),
                               tmp_path / "requests.csv")
    reads = counted_reads(monkeypatch, "load_requests_csv")
    plan = parse_plan(plan_raw(base=base_raw(requests_csv="requests.csv")),
                      base_dir=tmp_path)
    rows = run_grid(plan)
    assert len(rows) == 8
    assert [args[0] for args in reads] == [str(tmp_path / "requests.csv")]
    assert rows == run_every_demand(plan)


def test_drivers_csv_read_again_only_for_new_platform_ids(monkeypatch, tmp_path):
    cfg = parse_config(base_raw())
    scenario.save_drivers_csv(
        scenario.generate_supply(cfg.graph.build(), 3, 1800, 5, cfg.platforms),
        tmp_path / "drivers.csv")
    reads = counted_reads(monkeypatch, "load_drivers_csv")
    incumbent = base_raw()["platforms"][0]
    entrant = dict(incumbent, platform_id=1)
    plan = parse_plan(plan_raw(
        base=base_raw(drivers_csv="drivers.csv"),
        grid={"platforms": [[incumbent], [dict(incumbent, fare_per_km=2.0)],
                            [incumbent, entrant]]}), base_dir=tmp_path)
    rows = run_grid(plan)
    assert len(rows) == 6
    assert [args[3] for args in reads] == [{0}, {0, 1}]     # the cells' platform ids
    assert rows == run_every_demand(plan)


ONE_NODE = {"nodes": "nodes.csv", "edges": "edges.csv"}


def last_cell_inputs(tmp_path):
    """A 12-row requests file, a copy whose first row is malformed, and the
    files of a one-node graph."""
    net = parse_config(base_raw()).graph.build()
    scenario.save_requests_csv(scenario.generate_demand(net, 12, 1800, 5),
                               tmp_path / "requests.csv")
    lines = (tmp_path / "requests.csv").read_text().splitlines(keepends=True)
    (tmp_path / "broken.csv").write_text("".join([lines[0], "0,0,x,2,1\n", *lines[2:]]))
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0,0,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")


@pytest.mark.parametrize("grid, cell, needle", [
    ({"requests_csv": ["requests.csv", "broken.csv"]}, {"requests_csv": "broken.csv"},
     "malformed row ['0', '0', 'x', '2', '1']: {dir}/broken.csv:row 2"),
    ({"n_travellers": [12, 11]}, {"n_travellers": 11},
     "is 11 but {dir}/requests.csv has 12 requests: n_travellers"),
    ({"graph": [base_raw()["graph"], ONE_NODE]}, {"graph": ONE_NODE},
     "has 1 node(s); a trip needs two distinct nodes: graph"),
], ids=["malformed-row", "row-count", "one-node-graph"])
def test_input_error_in_last_cell_fails_before_any_run(
        monkeypatch, tmp_path, capsys, grid, cell, needle):
    last_cell_inputs(tmp_path)
    calls = []
    monkeypatch.setattr(experiments, "run_day", lambda *args, **kw: calls.append(args))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_raw(base=base_raw(requests_csv="requests.csv"),
                                        grid=grid)))
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")      # an earlier run's
    assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"ridesim: {needle.format(dir=tmp_path)} in grid cell {json.dumps(cell)}\n")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == "{}"


def test_graph_error_in_a_cell_names_the_cell(tmp_path, capsys):
    # the second cell's edges take 1e300 m / 1e-10 m/s, which overflows
    grid = {"rows": 3, "cols": 3, "spacing_m": 500, "speed_mps": 1e-10}
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_raw(base=base_raw(graph={"grid": grid}),
                                        grid={"graph.grid.spacing_m": [500, 1e300]})))
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")      # an earlier run's
    assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "ridesim: edge 0 (0->1) has non-finite travel time: length 1e+300 m at speed "
        '1e-10 m/s: grid_city(3x3) in grid cell {"graph.grid.spacing_m": 1e+300}\n')
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == "{}"


def test_results_csv_written(tmp_path):
    plan = parse_plan(plan_raw(replications=1))
    rows = run_grid(plan)
    out = tmp_path / "experiment_results.csv"
    kpi.write_system_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(rows) + 1
    header = lines[0].split(",")
    assert header[:4] == ["n_drivers", "platforms[0].fare_per_km",
                          "replication", "seed"]
    assert "wait_mean_s" in header


# -------------------------------------------------------------- day-to-day

def learning_config(wage=2.5, epsilon=0.0, **over):
    """A scenario whose reservation wage and re-entry probability are set
    through ``behaviour``."""
    return parse_config(base_raw(
        behaviour={"reservation_wage_per_hour": wage, "epsilon": epsilon},
        **over))


LEARNED = {"f_driver_out": "learned_participation"}


def day_to_day_logs(cfg, max_days):
    """``day_to_day`` and the event log of each day, collected through
    ``on_day``."""
    logs = []
    return day_to_day(cfg, max_days, on_day=logs.append), logs


def test_unreachable_wage_empties_fleet():
    cfg = learning_config(wage=1e6, decisions=LEARNED)
    res = day_to_day(cfg, max_days=20)
    fleets = [row["fleet_participating"] for row in res.trajectory]
    assert fleets[0] == 3                   # everyone tries the first day
    assert fleets[1:] == [0] * (len(fleets) - 1)
    assert len(fleets) == 7                 # 1 drop day + 5 stable days
    assert res.converged


def test_zero_wage_keeps_everyone_driving():
    cfg = learning_config(wage=0.0, decisions=LEARNED)
    res = day_to_day(cfg, max_days=20)
    fleets = [row["fleet_participating"] for row in res.trajectory]
    assert all(f == 3 for f in fleets)
    assert len(fleets) == 6                 # converges immediately
    assert res.converged
    assert set(res.learned_income) == {0, 1, 2}


def test_no_reentry_fleet_monotone():
    cfg = learning_config(wage=3.0, n_travellers=6, n_drivers=5,
                          decisions=LEARNED)
    res = day_to_day(cfg, max_days=20)
    fleets = [row["fleet_participating"] for row in res.trajectory]
    assert all(b <= a for a, b in zip(fleets, fleets[1:]))


def test_behaviour_reservation_wage_sets_the_wage():
    defaults = parse_config(base_raw()).behaviour
    assert defaults["reservation_wage_per_hour"] == 2.5
    assert defaults["epsilon"] == 0.05
    cfg = parse_config(base_raw(
        behaviour={"reservation_wage_per_hour": 1e6}, decisions=LEARNED))
    res = day_to_day(cfg, max_days=2)
    assert res.trajectory[1]["fleet_participating"] == 0


def test_traveller_outcome_feedback():
    cfg = learning_config(wage=0.0, horizon_s=300, n_travellers=30,
                          n_drivers=1,
                          decisions={"f_trav_out": "opt_out_if_unserved"})
    res = day_to_day(cfg, max_days=3)
    day0, day1 = res.trajectory[0], res.trajectory[1]
    assert day0["n_unserved"] > 0
    assert day1["n_opted_out"] == day0["n_unserved"]


def test_day_to_day_deterministic():
    cfg = learning_config(wage=3.0, epsilon=0.1, decisions=LEARNED)
    a, a_logs = day_to_day_logs(cfg, 20)
    b, b_logs = day_to_day_logs(cfg, 20)
    assert a.trajectory == b.trajectory
    assert a_logs == b_logs


def test_day_csv(tmp_path):
    cfg = learning_config(decisions=LEARNED)
    res = day_to_day(cfg, max_days=4)
    out = tmp_path / "day_to_day.csv"
    kpi.write_system_csv(out, res.trajectory)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("day,fleet_participating,mean_income_per_hour")
    assert len(lines) == len(res.trajectory) + 1


def test_day_to_day_keeps_last_day_rows():
    res, logs = day_to_day_logs(learning_config(decisions=LEARNED), 3)
    replay = kpi.validate_log(logs[-1])
    assert res.travellers == tuple(kpi.traveller_kpis(replay))
    assert res.drivers == tuple(kpi.driver_kpis(replay))
    assert res.nodes == tuple(kpi.node_aggregates(replay, 9))      # the 3x3 grid


def test_day_to_day_zero_days_is_empty():
    res, logs = day_to_day_logs(learning_config(), 0)
    assert res.trajectory == res.system_rows == ()
    assert logs == []
    assert res.travellers == res.drivers == res.nodes == ()
    assert not res.converged


def test_learning_matches_ema_oracle():
    cfg = parse_config(json.loads(presets.read_text("e4")))
    res, logs = day_to_day_logs(cfg, 6)
    assert len(logs) == 6
    hours = {d.driver_id: (d.shift_end - d.shift_start) / 3600.0
             for d in scenario.materialize(cfg).drivers}
    belief = {d: cfg.behaviour["reservation_wage_per_hour"] for d in hours}
    fleets = []
    for log, day in zip(logs, res.trajectory):
        worked, paid = set(), dict.fromkeys(hours, 0.0)
        for rec in log:
            if rec.event == "STARTS_SHIFT":
                worked.add(rec.agent_id)
            elif rec.event == "COMPLETES_RIDE":
                paid[rec.agent_id] += rec.payout
        incomes = [paid[d] / hours[d] for d in sorted(worked)]
        for d, income in zip(sorted(worked), incomes):
            belief[d] = (1.0 - experiments.ALPHA) * belief[d] + experiments.ALPHA * income
        assert day["fleet_participating"] == len(worked)
        assert day["mean_income_per_hour"] == pytest.approx(
            sum(incomes) / len(incomes), rel=1e-12)
        fleets.append(len(worked))
    assert res.learned_income == pytest.approx(belief, rel=1e-12)
    assert len(set(fleets)) > 1             # participation moved with learning


def test_day_to_day_feeds_each_driver_its_own_memory():
    # every f_driver_out context carries the driver's belief after the days
    # before (none on day 0) and whether it worked the day before
    seen = {}

    def spy(ctx):
        seen[ctx.day, ctx.driver_id] = (ctx.learned_income_per_hour,
                                        ctx.participated_yesterday)
        return default_driver_out(ctx)

    register("f_driver_out", "test_spy_driver_out", spy)
    cfg = parse_config(json.loads(presets.read_text("e4")))
    cfg = replace(cfg, decisions={"f_driver_out": "test_spy_driver_out"})
    res, logs = day_to_day_logs(cfg, 4)
    hours = {d.driver_id: (d.shift_end - d.shift_start) / 3600.0
             for d in scenario.materialize(cfg).drivers}
    belief = dict.fromkeys(hours, cfg.behaviour["reservation_wage_per_hour"])
    expected, yesterday = {}, dict.fromkeys(hours)
    for day, log in enumerate(logs):
        for d in hours:
            expected[day, d] = (belief[d] if day else None, yesterday[d])
        for row in kpi.driver_kpis(kpi.validate_log(log)):
            yesterday[row.driver_id] = row.participated
            if row.participated:
                belief[row.driver_id] = (
                    (1.0 - experiments.ALPHA) * belief[row.driver_id]
                    + experiments.ALPHA * row.revenue / hours[row.driver_id])
    assert seen == expected
    assert {p for _, p in seen.values()} == {None, True, False}


def test_day_to_day_memory_does_not_grow_with_days():
    # each day's log is dropped once the day ends, so twenty days peak no
    # higher than five (holding every log would take four times the records)
    cfg = parse_config(json.loads(presets.read_text("e4")))
    peak = {}
    for days in (5, 20):
        tracemalloc.start()
        try:
            res = day_to_day(cfg, max_days=days)
            peak[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trajectory) == days
    assert peak[20] <= 1.25 * peak[5]
