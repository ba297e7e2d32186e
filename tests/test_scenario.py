"""Config parsing, validation and seeded demand/supply generation tests."""

import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import ridesim
from ridesim import presets, util
from ridesim.decisions import build_decision_set
from ridesim.engine import run_day
from ridesim.errors import ConfigError
from ridesim.experiments import parse_plan
from ridesim.kpi import read_events_csv
from ridesim.netgraph import grid_city, load_graph, save_graph
from ridesim.scenario import (
    DriverSpec,
    PlatformSpec,
    generate_demand,
    generate_supply,
    load_config,
    load_drivers_csv,
    load_requests_csv,
    materialize,
    parse_config,
    save_drivers_csv,
    save_requests_csv,
)
from ridesim.seeds import substream

ONE_PLATFORM = (PlatformSpec(0, 0.0, 1.0, 0.0, "instant"),)


def minimal_raw(**overrides):
    raw = {
        "horizon_s": 3600,
        "n_travellers": 5,
        "n_drivers": 2,
        "seed": 42,
        "platforms": [{
            "platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
            "commission_rate": 0.2, "matching": "instant",
        }],
        "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 500, "speed_mps": 10}},
    }
    raw.update(overrides)
    return raw


# ------------------------------------------------------------ config parsing

def test_minimal_config_defaults():
    cfg = parse_config(minimal_raw())
    assert cfg.horizon_s == 3600.0
    assert cfg.behaviour["t_board_s"] == 0.0
    assert cfg.behaviour["t_alight_s"] == 0.0
    assert cfg.behaviour["service_variability"] == 0.0
    assert cfg.behaviour["max_rejections"] == 5
    assert "max_wait_s" not in cfg.behaviour
    assert cfg.platforms[0].matching == "instant"
    assert cfg.platforms[0].batch_window_s is None
    assert cfg.decisions == {}


def test_e1_scale_config_is_valid():
    raw = minimal_raw(
        horizon_s=14400, n_travellers=200, n_drivers=10,
        graph={"grid": {"rows": 10, "cols": 10, "spacing_m": 500, "speed_mps": 10}},
    )
    cfg = parse_config(raw)
    assert (cfg.n_travellers, cfg.n_drivers) == (200, 10)
    assert cfg.horizon_s == 14400.0


def test_commission_rate_out_of_range_names_path():
    raw = minimal_raw()
    raw["platforms"][0]["commission_rate"] = 1.3
    with pytest.raises(ConfigError, match=r"platforms\[0\].commission_rate"):
        parse_config(raw)


@pytest.mark.parametrize("key", ["horizon_s", "n_travellers", "n_drivers", "seed",
                                 "platforms", "graph"])
def test_missing_required_key_named(key):
    raw = minimal_raw()
    del raw[key]
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="n_travelers"):
        parse_config(minimal_raw(n_travelers=5))


def test_batched_matching_parsed():
    raw = minimal_raw()
    raw["platforms"][0]["matching"] = {"batched": {"window_s": 60}}
    cfg = parse_config(raw)
    assert cfg.platforms[0].matching == "batched"
    assert cfg.platforms[0].batch_window_s == 60.0


@pytest.mark.parametrize("matching", ["nearest", {"batched": {"window_s": 0}},
                                      {"batched": {}}, {"other": 1}])
def test_bad_matching_rejected(matching):
    raw = minimal_raw()
    raw["platforms"][0]["matching"] = matching
    with pytest.raises(ConfigError, match="matching"):
        parse_config(raw)


def test_tiny_batch_window_rejected():
    # a window this small would stall next_batch_boundary; it must fail fast
    for horizon in (1, 3600, 1e7):
        smallest = horizon / 2 ** 40
        raw = minimal_raw(horizon_s=horizon)
        raw["platforms"][0]["matching"] = {"batched": {"window_s": smallest}}
        assert parse_config(raw).platforms[0].batch_window_s == smallest
        for window in (1e-300, float(np.nextafter(smallest, 0.0))):
            raw["platforms"][0]["matching"] = {"batched": {"window_s": window}}
            with pytest.raises(ConfigError, match=r"platforms\[0\]\.matching\.batched\.window_s"):
                parse_config(raw)


def test_duplicate_platform_id_rejected():
    raw = minimal_raw()
    raw["platforms"].append(dict(raw["platforms"][0]))
    with pytest.raises(ConfigError, match=r"platforms\[1\].platform_id"):
        parse_config(raw)


def test_seed_range_checked():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(minimal_raw(seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(minimal_raw(seed=2 ** 64))
    with pytest.raises(ConfigError, match="64-bit"):     # no float overflow
        parse_config(minimal_raw(seed=10 ** 400))


def test_negative_counts_rejected():
    with pytest.raises(ConfigError, match="n_travellers"):
        parse_config(minimal_raw(n_travellers=-1))
    with pytest.raises(ConfigError, match="n_drivers"):
        parse_config(minimal_raw(n_drivers=-1))


def test_horizon_must_be_positive():
    with pytest.raises(ConfigError, match="horizon_s"):
        parse_config(minimal_raw(horizon_s=0))


def test_grid_dimensions_validated():
    raw = minimal_raw(graph={"grid": {"rows": 1, "cols": 3, "spacing_m": 500,
                                      "speed_mps": 10}})
    with pytest.raises(ConfigError, match="graph.grid"):
        parse_config(raw)


def test_graph_files_resolved_relative_to_config(tmp_path):
    (tmp_path / "city").mkdir()
    save_graph(grid_city(2, 2, 100.0, 10.0), tmp_path / "city" / "nodes.csv",
               tmp_path / "city" / "edges.csv")
    raw = minimal_raw(graph={"nodes": "city/nodes.csv", "edges": "city/edges.csv"})
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    cfg = load_config(tmp_path / "scenario.json")
    inputs = materialize(cfg)
    assert inputs.net.n == 4


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


def test_behaviour_values_validated():
    with pytest.raises(ConfigError, match="behaviour.max_wait_s"):
        parse_config(minimal_raw(behaviour={"max_wait_s": -5}))
    with pytest.raises(ConfigError, match="behaviour.service_variability"):
        parse_config(minimal_raw(behaviour={"service_variability": 1.0}))
    with pytest.raises(ConfigError, match="behaviour.custom"):
        parse_config(minimal_raw(behaviour={"custom": "text"}))


def test_unknown_decision_hook_rejected():
    with pytest.raises(ConfigError, match="decisions.f_bogus"):
        parse_config(minimal_raw(decisions={"f_bogus": "default"}))


def test_demand_weights_validated():
    with pytest.raises(ConfigError, match=r"demand_weights\[1\]"):
        parse_config(minimal_raw(demand_weights=[1.0, -2.0]))
    with pytest.raises(ConfigError, match="demand_weights"):
        parse_config(minimal_raw(demand_weights=[0.0, 0.0]))
    with pytest.raises(ConfigError, match="demand_weights"):
        parse_config(minimal_raw(demand_weights="uniform"))


def test_demand_weights_length_checked_at_materialize():
    cfg = parse_config(minimal_raw(demand_weights=[1.0, 2.0]))
    with pytest.raises(ConfigError, match="9 weights"):
        materialize(cfg)


# ----------------------------------------------------------------- fleets

def two_platform_raw(n_drivers, fleet0=None, fleet1=None):
    raw = minimal_raw(n_drivers=n_drivers)
    p0 = raw["platforms"][0]
    p1 = dict(p0, platform_id=1)
    if fleet0 is not None:
        p0["fleet"] = fleet0
    if fleet1 is not None:
        p1["fleet"] = fleet1
    raw["platforms"] = [p0, p1]
    return raw


def test_fleet_sum_cannot_exceed_n_drivers():
    with pytest.raises(ConfigError, match="fleets sum to 6"):
        parse_config(two_platform_raw(5, fleet0=4, fleet1=2))


def test_all_fleeted_must_match_n_drivers():
    with pytest.raises(ConfigError, match="n_drivers"):
        parse_config(two_platform_raw(5, fleet0=2, fleet1=2))
    cfg = parse_config(two_platform_raw(5, fleet0=2, fleet1=3))
    assert [p.fleet for p in cfg.platforms] == [2, 3]


def test_generate_supply_fleet_blocks_and_remainder():
    platforms = (
        PlatformSpec(7, 0.0, 1.0, 0.0, "instant", fleet=2),
        PlatformSpec(9, 0.0, 1.0, 0.0, "instant"),
    )
    out = generate_supply(grid_city(2, 2, 100.0, 10.0), 5, 100.0, 1, platforms)
    assert [d.platform_ids for d in out] == [(7,), (7,), (9,), (9,), (9,)]


def test_generate_supply_without_fleets_multihomes():
    platforms = (
        PlatformSpec(0, 0.0, 1.0, 0.0, "instant"),
        PlatformSpec(1, 0.0, 1.0, 0.0, "instant"),
    )
    out = generate_supply(grid_city(2, 2, 100.0, 10.0), 3, 100.0, 1, platforms)
    assert all(d.platform_ids == (0, 1) for d in out)


# ---------------------------------------------------------------- demand

def test_generate_demand_empty():
    net = grid_city(2, 2, 100.0, 10.0)
    assert generate_demand(net, 0, 3600.0, 1) == []


def test_generate_demand_deterministic():
    net = grid_city(4, 4, 100.0, 10.0)
    a = generate_demand(net, 50, 3600.0, 123)
    b = generate_demand(net, 50, 3600.0, 123)
    assert a == b


def test_generate_demand_sorted_and_valid():
    net = grid_city(4, 4, 100.0, 10.0)
    reqs = generate_demand(net, 200, 3600.0, 5)
    assert sorted(r.request_id for r in reqs) == list(range(200))
    for prev, cur in zip(reqs, reqs[1:]):
        assert (prev.t_request, prev.request_id) <= (cur.t_request, cur.request_id)
    for r in reqs:
        assert 0 <= r.origin < 16 and 0 <= r.destination < 16
        assert r.origin != r.destination
        assert 0 <= r.t_request < 3600.0
        assert r.traveller_id == r.request_id


def test_generate_demand_origin_uniformity_chi_square():
    net = grid_city(10, 10, 500.0, 10.0)
    reqs = generate_demand(net, 10_000, 14400.0, 42)
    counts = Counter(r.origin for r in reqs)
    expected = 100.0
    stat = sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(100))
    assert stat < stats.chi2.ppf(0.99, 99)


def test_generate_demand_weights_shift_origins():
    net = grid_city(10, 10, 500.0, 10.0)
    weights = tuple(3.0 - 2.0 * (i % 10) / 9.0 for i in range(100))
    reqs = generate_demand(net, 10_000, 14400.0, 42, weights)
    west = sum(1 for r in reqs if r.origin % 10 < 5)
    assert west / len(reqs) > 0.58  # weighted share is ~0.64, uniform would be 0.5


def test_generate_demand_weight_length_mismatch():
    net = grid_city(2, 2, 100.0, 10.0)
    with pytest.raises(ConfigError, match="4 weights"):
        generate_demand(net, 5, 100.0, 1, (1.0, 2.0))


# ---------------------------------------------------------------- supply

def test_generate_supply_empty():
    net = grid_city(2, 2, 100.0, 10.0)
    assert generate_supply(net, 0, 3600.0, 1, ONE_PLATFORM) == []


def test_generate_supply_ranges():
    net = grid_city(2, 2, 100.0, 10.0)
    drivers = generate_supply(net, 10, 3600.0, 3, ONE_PLATFORM)
    for d in drivers:
        assert 0 <= d.home_node < 4
        assert (d.shift_start, d.shift_end) == (0.0, 3600.0)


def test_generate_supply_seed_pairs_differ():
    net = grid_city(10, 10, 100.0, 10.0)
    differing = 0
    for s in range(100):
        a = sorted(d.home_node for d in generate_supply(net, 10, 100.0, s, ONE_PLATFORM))
        b = sorted(d.home_node for d in generate_supply(net, 10, 100.0, s + 1, ONE_PLATFORM))
        differing += a != b
    assert differing >= 99


def _supply_oracle(net, n, horizon, seed, platforms):
    """``generate_supply`` as it was before drivers were registered as they
    are drawn: every driver drawn onto platform 0, then the former
    ``assign_fleets`` rewriting the registrations. The oracle for
    ``generate_supply``."""
    rng = substream(seed, "supply")
    drivers = [
        DriverSpec(
            driver_id=i,
            home_node=int(rng.integers(0, net.n)),
            shift_start=0.0,
            shift_end=float(horizon),
            platform_ids=(0,),
        )
        for i in range(n)
    ]
    if all(p.fleet is None for p in platforms):
        ids = tuple(p.platform_id for p in platforms)
        return [replace(d, platform_ids=ids) for d in drivers]
    open_ids = tuple(p.platform_id for p in platforms if p.fleet is None)
    out = []
    cursor = 0
    for p in platforms:
        if p.fleet is None:
            continue
        for d in drivers[cursor:cursor + p.fleet]:
            out.append(replace(d, platform_ids=(p.platform_id,)))
        cursor += p.fleet
    for d in drivers[cursor:]:
        out.append(replace(d, platform_ids=open_ids))
    return out


def preset_configs():
    """Every bundled scenario: e1 and e4 as they are, and each grid cell of
    the e2 and e3 plans."""
    for name in presets.names():
        raw = json.loads(presets.read_text(name))
        if "base" not in raw:
            yield name, parse_config(raw)
            continue
        plan = parse_plan(raw)
        for cell, config in plan.cells:
            yield f"{name}{tuple(cell.values())}", config


def test_generate_supply_matches_oracle_on_presets():
    checked = set()
    for label, cfg in preset_configs():
        net = cfg.graph.build()
        fleet_sum = sum(p.fleet or 0 for p in cfg.platforms)
        # the config's count, and the counts ``generate --supply M`` may ask
        for n in {cfg.n_drivers, 0, 1, max(fleet_sum - 1, 0), fleet_sum, fleet_sum + 3}:
            got = generate_supply(net, n, cfg.horizon_s, cfg.seed, cfg.platforms)
            assert got == _supply_oracle(net, n, cfg.horizon_s, cfg.seed, cfg.platforms), \
                (label, n)
        checked.add(label[:2])
    assert checked == {"e1", "e2", "e3", "e4"}


def test_generate_supply_matches_oracle_on_random_fleets():
    rng = np.random.default_rng(2024)
    net = grid_city(3, 3, 100.0, 10.0)
    seen = Counter()
    for _ in range(400):
        k = int(rng.integers(1, 5))
        fleets = [None if rng.random() < 0.4 else int(rng.integers(0, 5)) for _ in range(k)]
        ids = [int(i) for i in rng.permutation(10)[:k]]
        platforms = tuple(PlatformSpec(pid, 0.0, 1.0, 0.0, "instant", fleet=f)
                          for pid, f in zip(ids, fleets))
        fleet_sum = sum(f or 0 for f in fleets)
        n = int(rng.integers(0, fleet_sum + 6))
        seed = int(rng.integers(0, 2 ** 32))
        got = generate_supply(net, n, 900.0, seed, platforms)
        assert got == _supply_oracle(net, n, 900.0, seed, platforms), (platforms, n)
        if all(f is None for f in fleets):
            seen["no fleets"] += 1
        else:
            seen["n below fleet sum" if n < fleet_sum
                 else "n at fleet sum" if n == fleet_sum else "n above fleet sum"] += 1
        seen["zero fleet"] += 0 in fleets
    assert min(seen.values()) >= 10, seen


def test_materialized_drivers_register_on_the_configs_platforms():
    # no platform 0: drivers drawn straight from the config run as they are
    raw = minimal_raw(n_travellers=8, n_drivers=3)
    raw["platforms"][0]["platform_id"] = 5
    cfg = parse_config(raw)
    inputs = materialize(cfg)
    assert [d.platform_ids for d in inputs.drivers] == [(5,)] * 3
    log = run_day(cfg, inputs, build_decision_set(cfg.decisions, cfg.behaviour)).log
    assert any(r.event == "MATCH" and r.agent_id == 5 for r in log)


def test_generate_demand_on_one_node_graph_is_a_config_error(tmp_path):
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0,0,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")
    net = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    assert net.n == 1
    assert generate_demand(net, 0, 100.0, 1) == []
    with pytest.raises(ConfigError, match="graph"):
        generate_demand(net, 1, 100.0, 1)


def test_demand_independent_of_supply_size():
    raw_small = minimal_raw(n_drivers=1)
    raw_big = minimal_raw(n_drivers=50)
    small = materialize(parse_config(raw_small))
    big = materialize(parse_config(raw_big))
    assert small.requests == big.requests


# ------------------------------------------------------------- CSV inputs

def test_requests_csv_roundtrip(tmp_path):
    net = grid_city(3, 3, 100.0, 10.0)
    reqs = generate_demand(net, 20, 3600.0, 9)
    path = tmp_path / "requests.csv"
    save_requests_csv(reqs, path)
    again = load_requests_csv(str(path), net, 3600.0)
    assert again == reqs


def test_drivers_csv_roundtrip(tmp_path):
    net = grid_city(3, 3, 100.0, 10.0)
    drivers = [
        DriverSpec(0, 4, 0.0, 3600.0, (0, 1)),
        DriverSpec(1, 2, 600.0, 1800.0, (1,)),
    ]
    path = tmp_path / "drivers.csv"
    save_drivers_csv(drivers, path)
    again = load_drivers_csv(str(path), net, 3600.0, {0, 1})
    assert again == drivers


def test_requests_csv_rejects_same_origin_destination(tmp_path):
    path = tmp_path / "requests.csv"
    path.write_text(
        "request_id,traveller_id,origin,destination,t_request_s\n0,0,3,3,10\n"
    )
    net = grid_city(3, 3, 100.0, 10.0)
    with pytest.raises(ConfigError, match="origin equals destination"):
        load_requests_csv(str(path), net, 3600.0)


def test_requests_csv_rejects_bad_time(tmp_path):
    path = tmp_path / "requests.csv"
    path.write_text(
        "request_id,traveller_id,origin,destination,t_request_s\n0,0,1,2,3600\n"
    )
    net = grid_city(3, 3, 100.0, 10.0)
    with pytest.raises(ConfigError, match="t_request_s"):
        load_requests_csv(str(path), net, 3600.0)


def test_drivers_csv_rejects_unknown_platform(tmp_path):
    path = tmp_path / "drivers.csv"
    path.write_text(
        "driver_id,home_node,shift_start_s,shift_end_s,platform_ids\n0,1,0,100,0;5\n"
    )
    net = grid_city(3, 3, 100.0, 10.0)
    with pytest.raises(ConfigError, match="platform_id 5"):
        load_drivers_csv(str(path), net, 3600.0, {0})


def test_drivers_csv_rejects_bad_shift(tmp_path):
    path = tmp_path / "drivers.csv"
    path.write_text(
        "driver_id,home_node,shift_start_s,shift_end_s,platform_ids\n0,1,100,100,0\n"
    )
    net = grid_city(3, 3, 100.0, 10.0)
    with pytest.raises(ConfigError, match="shift"):
        load_drivers_csv(str(path), net, 3600.0, {0})


@pytest.mark.parametrize("loader,header,row", [
    ("requests", "request_id,traveller_id,origin,destination,t_request_s",
     "0,0,1,2"),
    ("requests", "request_id,traveller_id,origin,destination,t_request_s",
     "0,0,1,2,10,99"),
    ("drivers", "driver_id,home_node,shift_start_s,shift_end_s,platform_ids",
     "0,1,0"),
    ("drivers", "driver_id,home_node,shift_start_s,shift_end_s,platform_ids",
     "0,1,0,100,0,5"),
], ids=["requests_short", "requests_long", "drivers_short", "drivers_long"])
def test_csv_rejects_wrong_field_count(tmp_path, loader, header, row):
    path = tmp_path / f"{loader}.csv"
    path.write_text(f"{header}\n{row}\n")
    net = grid_city(3, 3, 100.0, 10.0)
    with pytest.raises(ConfigError, match=r"expected 5 fields: .*:row 2"):
        if loader == "requests":
            load_requests_csv(str(path), net, 3600.0)
        else:
            load_drivers_csv(str(path), net, 3600.0, {0})


# the five CSV formats ridesim reads: file name -> (header line, two valid
# rows, a reader of the directory holding it)
CSV_FORMATS = {
    "requests.csv": (
        "request_id,traveller_id,origin,destination,t_request_s",
        ["0,0,1,2,10", "1,1,2,3,20"],
        lambda d: load_requests_csv(str(d / "requests.csv"), grid_city(3, 3, 100.0, 10.0),
                                    3600.0)),
    "drivers.csv": (
        "driver_id,home_node,shift_start_s,shift_end_s,platform_ids",
        ["0,1,0,3600,0", "1,2,600,1800,0;1"],
        lambda d: load_drivers_csv(str(d / "drivers.csv"), grid_city(3, 3, 100.0, 10.0),
                                   3600.0, {0, 1})),
    "nodes.csv": ("node_id,x,y", ["0,0,0", "1,100,0"],
                  lambda d: load_graph(d / "nodes.csv", d / "edges.csv")),
    "edges.csv": ("from,to,length_m,speed_mps", ["0,1,100,10", "1,0,100,10"],
                  lambda d: load_graph(d / "nodes.csv", d / "edges.csv")),
    "events.csv": (
        "day,t_s,agent_kind,agent_id,event,node,meta",
        ["0,0,TRAVELLER,0,PLANS,0,", "0,5,TRAVELLER,0,REQUESTS,0,"],
        lambda d: read_events_csv(d / "events.csv")),
}


def _put_csv(directory, name, text):
    """Write ``text`` as ``name`` into ``directory``, next to a valid file
    of every other format (so a graph file has its partner)."""
    for other, (header, rows, _) in CSV_FORMATS.items():
        (directory / other).write_text("\n".join([header, *rows]) + "\n")
    (directory / name).write_text(text, newline="")


@pytest.mark.parametrize("name", sorted(CSV_FORMATS))
def test_csv_skips_blank_lines(name, tmp_path):
    header, rows, load = CSV_FORMATS[name]
    _put_csv(tmp_path, name, f"{header}\n{rows[0]}\n{rows[1]}\n")
    plain = load(tmp_path)
    _put_csv(tmp_path, name, f"{header}\r\n\r\n{rows[0]}\n\n\n{rows[1]}\n\n")
    assert load(tmp_path) == plain


@pytest.mark.parametrize("name", sorted(CSV_FORMATS))
@pytest.mark.parametrize("extra", [",9", "," + "x" * 2 ** 18],
                         ids=["extra_field", "field_over_csv_limit"])
def test_csv_bad_row_after_blank_line_names_file_and_line(name, extra, tmp_path):
    header, rows, load = CSV_FORMATS[name]
    _put_csv(tmp_path, name, f"{header}\n{rows[0]}\n\n{rows[1]}{extra}\n")
    with pytest.raises(ConfigError) as exc:
        load(tmp_path)
    assert str(exc.value).endswith(f": {tmp_path / name}:row 4")


@pytest.mark.parametrize("name, bad, message", [
    ("requests.csv", "0,1,2,3,20", "duplicate request_id 0"),
    ("requests.csv", "1,1,2,9,20", "origin or destination is not a valid node"),
    ("drivers.csv", "0,2,0,3600,1", "duplicate driver_id 0"),
    ("drivers.csv", "1,9,0,3600,1", "home_node is not a valid node"),
    ("drivers.csv", "1,2,0,3600,", "platform_ids must name at least one platform"),
    ("drivers.csv", "1,2,0,3600,1;0;1", "duplicate platform_id 1"),
    ("drivers.csv", "1,2,0,3600,0;;", "malformed row ['1', '2', '0', '3600', '0;;']"),
    ("drivers.csv", "1,2,0,3600,;0", "malformed row ['1', '2', '0', '3600', ';0']"),
    ("drivers.csv", "1,2,0,3600,1;;0", "malformed row ['1', '2', '0', '3600', '1;;0']"),
    # cells outside the number grammar
    ("nodes.csv", "1,nan,0", "malformed row ['1', 'nan', '0']"),
    ("nodes.csv", "1,1_00,0", "malformed row ['1', '1_00', '0']"),
    ("edges.csv", "1,0,nan,10", "malformed row ['1', '0', 'nan', '10']"),
    ("edges.csv", "1,0,inf,10", "malformed row ['1', '0', 'inf', '10']"),
    ("edges.csv", "1,0,100,+10", "malformed row ['1', '0', '100', '+10']"),
    ("events.csv", "0,1e400,TRAVELLER,0,REQUESTS,0,",
     "malformed row ['0', '1e400', 'TRAVELLER', '0', 'REQUESTS', '0', '']"),
])
def test_csv_bad_second_row_names_file_and_row(name, bad, message, tmp_path):
    header, rows, load = CSV_FORMATS[name]
    _put_csv(tmp_path, name, f"{header}\n{rows[0]}\n{bad}\n")
    with pytest.raises(ConfigError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{message}: {tmp_path / name}:row 3"


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("1.5", 1.5), ("1.50", 1.5),
    ("1e-05", 1e-05), ("1E5", 1e5), ("-2.5e+300", -2.5e300),
    ("1.7976931348623157e308", 1.7976931348623157e308),
])
def test_number_grammar_accepts(text, value):
    assert util.number(text) == value
    if "." not in text and "e" not in text.lower():
        assert util.integer(text) == value


@pytest.mark.parametrize("text", [
    "", " 1", "1 ", "+1", "1_0", "\u0663", "\uff18", ".5", "5.", "1e", "e5", "0x10",
    "nan", "inf", "-Infinity", "1e400", "-1e309", "1..2", "--1",
])
def test_number_grammar_rejects(text):
    with pytest.raises(ValueError):
        util.number(text)
    with pytest.raises(ValueError):
        util.integer(text)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_number_grammar_reads_back_what_ridesim_writes(x, i):
    assert util.number(util.fmt_num(x)) == x
    assert util.integer(str(i)) == i


def test_csv_module_is_used_only_in_util():
    # util.read_csv and util.write_csv hold the CSV rules for every file
    src = Path(ridesim.__file__).parent
    users = sorted(
        p.name for p in src.glob("*.py")
        if re.search(r"\bcsv\.(reader|writer|DictReader|DictWriter)\b", p.read_text())
    )
    assert users == ["util.py"]


def test_materialize_checks_csv_counts(tmp_path):
    net = grid_city(3, 3, 100.0, 10.0)
    reqs = generate_demand(net, 4, 3600.0, 9)
    save_requests_csv(reqs, tmp_path / "requests.csv")
    raw = minimal_raw(n_travellers=99, requests_csv="requests.csv")
    (tmp_path / "c.json").write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="n_travellers"):
        materialize(load_config(tmp_path / "c.json"))


# --------------------------------------------------------- materialization

def test_materialize_assigns_all_platforms():
    raw = two_platform_raw(3)
    inputs = materialize(parse_config(raw))
    assert all(d.platform_ids == (0, 1) for d in inputs.drivers)
    assert len(inputs.requests) == 5
