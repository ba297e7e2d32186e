"""Config parsing, validation and seeded demand/supply generation tests."""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ridesim
from ridesim.errors import ConfigError, GraphParseError, LogValidationError
from ridesim.kpi import read_events_csv
from ridesim.netgraph import grid_city, load_graph, save_graph
from ridesim.scenario import (
    DriverSpec,
    PlatformSpec,
    assign_fleets,
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
    save_graph(grid_city(2, 2, 100.0, 10.0), tmp_path / "city")
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


def test_assign_fleets_blocks_and_remainder():
    drivers = [DriverSpec(i, 0, 0.0, 100.0, (0,)) for i in range(5)]
    platforms = (
        PlatformSpec(7, 0.0, 1.0, 0.0, "instant", fleet=2),
        PlatformSpec(9, 0.0, 1.0, 0.0, "instant"),
    )
    out = assign_fleets(drivers, platforms)
    assert [d.platform_ids for d in out] == [(7,), (7,), (9,), (9,), (9,)]


def test_assign_fleets_default_multihomes():
    drivers = [DriverSpec(i, 0, 0.0, 100.0, (0,)) for i in range(3)]
    platforms = (
        PlatformSpec(0, 0.0, 1.0, 0.0, "instant"),
        PlatformSpec(1, 0.0, 1.0, 0.0, "instant"),
    )
    out = assign_fleets(drivers, platforms)
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
    assert generate_supply(net, 0, 3600.0, 1) == []


def test_generate_supply_ranges():
    net = grid_city(2, 2, 100.0, 10.0)
    drivers = generate_supply(net, 10, 3600.0, 3)
    for d in drivers:
        assert 0 <= d.home_node < 4
        assert (d.shift_start, d.shift_end) == (0.0, 3600.0)


def test_generate_supply_seed_pairs_differ():
    net = grid_city(10, 10, 100.0, 10.0)
    differing = 0
    for s in range(100):
        a = sorted(d.home_node for d in generate_supply(net, 10, 100.0, s))
        b = sorted(d.home_node for d in generate_supply(net, 10, 100.0, s + 1))
        differing += a != b
    assert differing >= 99


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
# rows, the error a bad row raises, a reader of the directory holding it)
CSV_FORMATS = {
    "requests.csv": (
        "request_id,traveller_id,origin,destination,t_request_s",
        ["0,0,1,2,10", "1,1,2,3,20"], ConfigError,
        lambda d: load_requests_csv(str(d / "requests.csv"), grid_city(3, 3, 100.0, 10.0),
                                    3600.0)),
    "drivers.csv": (
        "driver_id,home_node,shift_start_s,shift_end_s,platform_ids",
        ["0,1,0,3600,0", "1,2,600,1800,0;1"], ConfigError,
        lambda d: load_drivers_csv(str(d / "drivers.csv"), grid_city(3, 3, 100.0, 10.0),
                                   3600.0, {0, 1})),
    "nodes.csv": ("node_id,x,y", ["0,0,0", "1,100,0"], GraphParseError, load_graph),
    "edges.csv": ("from,to,length_m,speed_mps", ["0,1,100,10", "1,0,100,10"],
                  GraphParseError, load_graph),
    "events.csv": (
        "day,t_s,agent_kind,agent_id,event,node,meta",
        ["0,0,TRAVELLER,0,PLANS,0,", "0,5,TRAVELLER,0,REQUESTS,0,"], LogValidationError,
        lambda d: read_events_csv(d / "events.csv")),
}


def _put_csv(directory, name, text):
    """Write ``text`` as ``name`` into ``directory``, next to a valid file
    of every other format (so a graph file has its partner)."""
    for other, (header, rows, _, _) in CSV_FORMATS.items():
        (directory / other).write_text("\n".join([header, *rows]) + "\n")
    (directory / name).write_text(text, newline="")


@pytest.mark.parametrize("name", sorted(CSV_FORMATS))
def test_csv_skips_blank_lines(name, tmp_path):
    header, rows, _, load = CSV_FORMATS[name]
    _put_csv(tmp_path, name, f"{header}\n{rows[0]}\n{rows[1]}\n")
    plain = load(tmp_path)
    _put_csv(tmp_path, name, f"{header}\r\n\r\n{rows[0]}\n\n\n{rows[1]}\n\n")
    assert load(tmp_path) == plain


@pytest.mark.parametrize("name", sorted(CSV_FORMATS))
@pytest.mark.parametrize("extra", [",9", "," + "x" * 2 ** 18],
                         ids=["extra_field", "field_over_csv_limit"])
def test_csv_bad_row_after_blank_line_names_file_and_line(name, extra, tmp_path):
    header, rows, error, load = CSV_FORMATS[name]
    _put_csv(tmp_path, name, f"{header}\n{rows[0]}\n\n{rows[1]}{extra}\n")
    with pytest.raises(error) as exc:
        load(tmp_path)
    assert str(tmp_path / name) in str(exc.value)
    assert re.search(r"\brow 4\b", str(exc.value))


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
