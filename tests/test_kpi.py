"""Log validation and KPI reconstruction tests."""

import csv
import dataclasses
import json

import pytest

from ridesim import presets
from ridesim.decisions import build_decision_set
from ridesim.engine import EventRecord, run_day
from ridesim.errors import LogValidationError
from ridesim.experiments import LearningParams, day_to_day
from ridesim.kpi import (
    _META_KEYS,
    EVENTS_HEADER,
    driver_kpis,
    node_aggregates,
    open_events_csv,
    percentile,
    read_events_csv,
    system_kpis,
    traveller_kpis,
    validate_log,
    write_driver_csv,
    write_events_csv,
    write_system_csv,
    write_traveller_csv,
)
from ridesim.netgraph import build_skim, grid_city
from ridesim.platforms import settle
from ridesim.scenario import (
    DriverSpec,
    Request,
    ScenarioInputs,
    generate_demand,
    generate_supply,
    parse_config,
)
from ridesim.util import fmt_num

from tests.test_engine import line_net, make_cfg, run


def write_events(path, log):
    with open_events_csv(path) as fh:
        write_events_csv(fh, log)


def single_ride_result():
    cfg = make_cfg(1, 1)
    return run(
        cfg, line_net(),
        [Request(0, 0, origin=1, destination=2, t_request=100.0)],
        [DriverSpec(0, home_node=0, shift_start=0.0, shift_end=1000.0,
                    platform_ids=(0,))],
    ), cfg


def busy_result(seed=31, n_trav=40, n_drv=5, horizon=3600.0, behaviour=None,
                decisions=None, platforms=None):
    cfg = make_cfg(n_trav, n_drv, horizon=horizon, seed=seed, platforms=platforms,
                   behaviour=behaviour, decisions=decisions)
    net = grid_city(4, 4, 250.0, 10.0)
    requests = generate_demand(net, n_trav, horizon, seed)
    drivers = generate_supply(net, n_drv, horizon, seed)
    return run(cfg, net, requests, drivers), cfg, net, requests, drivers


# ---------------------------------------------------------------- validator

def test_valid_logs_pass():
    res, _ = single_ride_result()
    validate_log(res.log)
    busy, *_ = busy_result()
    validate_log(busy.log)


def test_validator_rejects_missing_pickup():
    res, _ = single_ride_result()
    broken = [r for r in res.log if r.event != "PICKED_UP"]
    with pytest.raises(LogValidationError, match="ARRIVES"):
        validate_log(broken)


def test_validator_rejects_time_reversal():
    res, _ = single_ride_result()
    log = list(res.log)
    log[0], log[-1] = log[-1], log[0]
    with pytest.raises(LogValidationError, match="backwards|cannot go"):
        validate_log(log)


def test_validator_rejects_unfinished_story():
    res, _ = single_ride_result()
    truncated = [r for r in res.log if r.event != "ENDS_SHIFT"]
    with pytest.raises(LogValidationError, match="not terminal"):
        validate_log(truncated)


def test_validator_rejects_unknown_event():
    bad = [EventRecord(0, 0.0, "TRAVELLER", 0, "TELEPORTS", 0)]
    with pytest.raises(LogValidationError, match="TELEPORTS"):
        validate_log(bad)


def test_validator_rejects_offer_before_request():
    bad = [
        EventRecord(0, 0.0, "TRAVELLER", 0, "PLANS", 0),
        EventRecord(0, 0.0, "TRAVELLER", 0, "RECEIVES_OFFER", 0),
    ]
    with pytest.raises(LogValidationError, match="RECEIVES_OFFER"):
        validate_log(bad)


# -------------------------------------------------------------- percentiles

def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([7.0], 90) == 7.0
    assert percentile([], 50) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# ----------------------------------------------------------- traveller rows

def test_single_ride_traveller_row():
    res, _ = single_ride_result()
    rows = traveller_kpis(res.log)
    assert len(rows) == 1
    row = rows[0]
    assert row.outcome == "ARRIVED"
    assert row.wait_s == 60.0
    assert row.in_vehicle_s == 120.0
    assert row.total_s == 180.0
    assert row.fare_paid == 1.2


def test_unserved_traveller_row_has_null_times():
    cfg = make_cfg(1, 0, horizon=500.0)
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], [])
    row = traveller_kpis(res.log)[0]
    assert row.outcome == "UNSERVED"
    assert row.wait_s is None and row.fare_paid is None


# -------------------------------------------------------------- driver rows

def test_single_ride_driver_row():
    res, _ = single_ride_result()
    row = driver_kpis(res.log)[0]
    assert row.participated
    assert row.n_rides == 1
    assert row.revenue == 1.2
    assert row.idle_s == 820.0
    assert row.empty_drive_s == 60.0
    assert row.occupied_s == 120.0
    assert row.empty_drive_m == 600.0
    assert row.occupied_m == 1200.0
    assert row.mileage_m == 1800.0
    assert row.first_match_wait_s == 100.0
    assert row.shift_s == 1000.0


def leg_oracle(log, requests, skim, t_alight_s):
    """Per driver (empty_m, empty_s, occupied_m, occupied_s) from the skim
    on its logged legs: pickups from the accepting node to the request's
    origin, rides from origin to destination plus alighting, repositioning
    from the start node to the target."""
    by_id = {r.request_id: r for r in requests}
    out = {}
    accept_node = {}
    for rec in log:
        if rec.agent_kind != "DRIVER":
            continue
        legs = out.setdefault(rec.agent_id, [0.0, 0.0, 0.0, 0.0])
        if rec.event == "ACCEPTS_REQUEST":
            accept_node[rec.agent_id] = rec.node
        elif rec.event == "ARRIVES_PICKUP":
            a, b = accept_node[rec.agent_id], by_id[rec.request_id].origin
            legs[0] += skim.distance[a, b]
            legs[1] += skim.travel_time[a, b]
        elif rec.event == "COMPLETES_RIDE":
            r = by_id[rec.request_id]
            legs[2] += skim.distance[r.origin, r.destination]
            legs[3] += skim.travel_time[r.origin, r.destination] + t_alight_s
        elif rec.event == "STARTS_REPOSITIONING":
            legs[0] += skim.distance[rec.node, rec.target]
            legs[1] += skim.travel_time[rec.node, rec.target]
    return out


def test_driver_rows_match_skim_oracle():
    plain = busy_result(seed=13)
    repos = busy_result(
        seed=13, n_trav=120, behaviour={"t_board_s": 20.0, "t_alight_s": 15.0},
        decisions={"f_driver_repos": "repos_to_demand"},
        platforms=[{"platform_id": 0, "base_fare": 0.5, "fare_per_km": 1.0,
                    "commission_rate": 0.2, "matching": "instant"}])
    assert any(r.event == "STARTS_REPOSITIONING" for r in repos[0].log)
    for (res, cfg, net, requests, drivers), t_alight in ((plain, 0.0), (repos, 15.0)):
        oracle = leg_oracle(res.log, requests, build_skim(net), t_alight)
        specs = {d.driver_id: d for d in drivers}
        # a driver's revenue is the payout of every ride it was matched to
        by_platform = {p.platform_id: p for p in cfg.platforms}
        payouts = {}
        for rec in res.log:
            if rec.event in ("MATCH", "BATCH_MATCH"):
                payout = settle(by_platform[rec.agent_id], rec.fare)[0]
                payouts[rec.driver_id] = payouts.get(rec.driver_id, 0.0) + payout
        rows = driver_kpis(res.log)
        assert sum(r.participated for r in rows) > 0
        for row in rows:
            if not row.participated:
                continue
            empty_m, empty_s, occupied_m, occupied_s = oracle[row.driver_id]
            assert row.revenue == pytest.approx(payouts.get(row.driver_id, 0.0),
                                                abs=1e-9)
            assert row.empty_drive_m == pytest.approx(empty_m, abs=1e-6)
            assert row.empty_drive_s == pytest.approx(empty_s, abs=1e-6)
            assert row.occupied_m == pytest.approx(occupied_m, abs=1e-6)
            assert row.occupied_s == pytest.approx(occupied_s, abs=1e-6)
            assert row.mileage_m == pytest.approx(empty_m + occupied_m, abs=1e-6)
            worked = row.idle_s + row.empty_drive_s + row.occupied_s
            assert worked == pytest.approx(row.shift_s, abs=1e-6)
            # the realized shift may overshoot the scheduled one, never undershoot
            spec = specs[row.driver_id]
            assert row.shift_s >= spec.shift_end - spec.shift_start - 1e-6


def test_opted_out_driver_row():
    log = [EventRecord(0, 0.0, "DRIVER", 3, "OPTS_OUT", 2)]
    row = driver_kpis(log)[0]
    assert not row.participated
    assert row.n_rides == 0 and row.revenue == 0.0
    assert row.idle_s is None and row.shift_s is None


# --------------------------------------------------------------- system row

def test_single_ride_system_row():
    res, cfg = single_ride_result()
    trows = traveller_kpis(res.log)
    drows = driver_kpis(res.log)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, res.log)
    assert sys_row["n_travellers"] == 1
    assert sys_row["n_served"] == 1
    assert sys_row["n_unserved"] == 0
    assert sys_row["wait_mean_s"] == 60.0
    assert sys_row["wait_median_s"] == 60.0
    assert sys_row["wait_p90_s"] == 60.0
    assert sys_row["fleet_participating"] == 1
    assert sys_row["driver_idle_mean_s"] == 820.0
    assert sys_row["driver_first_match_wait_mean_s"] == 100.0
    assert sys_row["vkm_empty"] == 0.6
    assert sys_row["vkm_occupied"] == 1.2
    assert sys_row["vkm_total"] == pytest.approx(1.8)
    assert sys_row["revenue_platform_0"] == 1.2
    assert sys_row["n_served_platform_0"] == 1
    assert sys_row["vkm_platform_0"] == pytest.approx(1.8)
    assert sys_row["fleet_platform_0"] == 1


def test_outcome_partition():
    res, cfg, *_ = busy_result(seed=3, behaviour={"max_wait_s": 150.0})
    trows = traveller_kpis(res.log)
    drows = driver_kpis(res.log)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, res.log)
    total = (sys_row["n_served"] + sys_row["n_unserved"]
             + sys_row["n_opted_out"] + sys_row["n_rejected"])
    assert total == sys_row["n_travellers"] == 40


def test_occupied_time_equals_in_vehicle_time():
    res, cfg, *_ = busy_result(seed=17)
    trows = traveller_kpis(res.log)
    drows = driver_kpis(res.log)
    in_vehicle = sum(r.in_vehicle_s for r in trows if r.in_vehicle_s is not None)
    occupied = sum(r.occupied_s for r in drows if r.occupied_s is not None)
    assert occupied == pytest.approx(in_vehicle, abs=1e-6)


def test_money_conservation_from_rows():
    res, cfg, *_ = busy_result(seed=29)
    trows = traveller_kpis(res.log)
    drows = driver_kpis(res.log)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, res.log)
    fares = sum(r.fare_paid for r in trows if r.fare_paid is not None)
    assert sys_row["revenue_platform_0"] == pytest.approx(fares, abs=1e-9)
    # commission 0 in make_cfg platforms: payouts equal fares
    payouts = sum(r.revenue for r in drows)
    assert payouts == pytest.approx(fares, abs=1e-9)


def test_first_match_wait_censored_at_shift():
    cfg = make_cfg(1, 2)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [
            DriverSpec(0, 1, 0.0, 1000.0, (0,)),    # matched at t=100
            DriverSpec(1, 2, 0.0, 800.0, (0,)),     # never matched
        ],
    )
    drows = driver_kpis(res.log)
    assert drows[1].first_match_wait_s is None
    sys_row = system_kpis(res.day, traveller_kpis(res.log), drows, cfg.platforms, res.log)
    assert sys_row["driver_first_match_wait_mean_s"] == (100.0 + 800.0) / 2


def test_two_platform_fleet_fields():
    platforms = [
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": "instant", "fleet": 1},
        {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 2.0,
         "commission_rate": 0.0, "matching": "instant"},
    ]
    cfg = make_cfg(1, 3, platforms=platforms)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 50.0)],
        [
            DriverSpec(0, 1, 0.0, 1000.0, (0,)),
            DriverSpec(1, 2, 0.0, 1000.0, (1,)),
            DriverSpec(2, 0, 0.0, 1000.0, (1,)),
        ],
    )
    sys_row = system_kpis(res.day, traveller_kpis(res.log), driver_kpis(res.log),
                          cfg.platforms, res.log)
    assert sys_row["fleet_platform_0"] == 1
    assert sys_row["fleet_platform_1"] == 2      # the non-dedicated remainder
    assert sys_row["n_served_platform_0"] == 1   # cheaper platform wins
    assert sys_row["n_served_platform_1"] == 0
    assert sys_row["revenue_platform_1"] == 0.0


# ---------------------------------------------------------------- node rows

def test_node_aggregates_by_origin_and_home():
    cfg = make_cfg(3, 1, horizon=4000.0)
    net = line_net()
    requests = [
        Request(0, 0, 1, 2, 10.0),
        Request(1, 1, 1, 0, 600.0),
        Request(2, 2, 2, 0, 2000.0),
    ]
    drivers = [DriverSpec(0, 1, 0.0, 4000.0, (0,))]
    res = run(cfg, net, requests, drivers)
    rows = node_aggregates(
        traveller_kpis(res.log), driver_kpis(res.log), requests, drivers, net)
    assert [r.node for r in rows] == [0, 1, 2]
    assert rows[1].n_requests == 2
    assert rows[2].n_requests == 1
    assert rows[0].n_requests == 0
    assert rows[1].n_drivers_home == 1
    assert rows[0].wait_mean_s is None
    assert rows[1].wait_mean_s is not None


# ------------------------------------------------------------------ CSV I/O

META_DETAIL = dict(request_id=3, platform_id=1, driver_id=4, eta_s=60.0,
                   fare=1.2, payout=0.9, cut=0.3, dist_m=600.0, target=5,
                   reason="horizon")
META_TEXT = {
    "UNSERVED": "reason=horizon",
    "RECEIVES_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "ACCEPTS_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "REJECTS_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "PICKED_UP": "driver_id=4;platform_id=1",
    "RECEIVES_REQUEST": "request_id=3;platform_id=1;eta_s=60",
    "ACCEPTS_REQUEST": "request_id=3;platform_id=1;eta_s=60",
    "DECLINES_REQUEST": "request_id=3;platform_id=1",
    "ARRIVES_PICKUP": "request_id=3;platform_id=1;dist_m=600",
    "DEPARTS_WITH_TRAVELLER": "request_id=3;platform_id=1",
    "COMPLETES_RIDE":
        "request_id=3;platform_id=1;dist_m=600;fare=1.2;payout=0.9;cut=0.3",
    "STARTS_REPOSITIONING": "target=5",
    "ARRIVES_REPOSITION": "dist_m=600",
    "MATCH": "request_id=3;driver_id=4;eta_s=60;fare=1.2",
    "BATCH_MATCH": "request_id=3;driver_id=4;eta_s=60;fare=1.2",
}


def meta_golden_log():
    """Every meta event, plus one with no details, each carrying all of
    META_DETAIL."""
    events = list(META_TEXT) + ["PLANS"]
    return [EventRecord(0, 1.5, "DRIVER", 7, e, 2, **META_DETAIL) for e in events]


def test_meta_text_golden(tmp_path):
    assert set(META_TEXT) == set(_META_KEYS)
    path = tmp_path / "events.csv"
    write_events(path, meta_golden_log())
    lines = path.read_text().splitlines()[1:]
    assert [line.split(",", 6)[6] for line in lines] == \
        list(META_TEXT.values()) + [""]
    assert lines[-1] == "0,1.5,DRIVER,7,PLANS,2,"
    # reading back yields exactly the fields the meta column carries
    back = read_events_csv(path)
    for rec in back:
        kept = {k: v for k, v in META_DETAIL.items() if k in _META_KEYS.get(rec.event, ())}
        assert rec == EventRecord(0, 1.5, "DRIVER", 7, rec.event, 2, **kept)
        for key, value in kept.items():
            assert type(getattr(rec, key)) is type(value)


def test_read_events_csv_rejects_unknown_meta_key(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("day,t_s,agent_kind,agent_id,event,node,meta\n"
                    "0,0,TRAVELLER,0,UNSERVED,0,colour=red\n")
    with pytest.raises(LogValidationError, match="malformed row"):
        read_events_csv(path)


@pytest.mark.parametrize("content", ["byte_ff", "directory", "missing"])
def test_read_events_csv_unreadable_file_names_it(content, tmp_path):
    path = tmp_path / "events.csv"
    if content == "byte_ff":
        path.write_bytes(b"day,t_s,agent_kind,agent_id,event,node,meta\r\n"
                         b"0,0,TRAVELLER,0,PLANS,0,\xff\r\n")
    elif content == "directory":
        path.mkdir()
    with pytest.raises(LogValidationError, match="events.csv"):
        read_events_csv(path)


# --------------------------------------------- the csv.writer form as oracle

def csv_writer_events(path, log):
    """``write_events_csv`` as it was before it streamed rows through one
    f-string each: ``csv.writer`` over cells formatted by ``fmt_num``."""
    def meta(rec):
        return ";".join([
            f"{key}={value if isinstance(value, str) else fmt_num(value)}"
            for key in _META_KEYS.get(rec.event, ())
            if (value := getattr(rec, key)) is not None
        ])

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(EVENTS_HEADER)
        for rec in log:
            w.writerow([rec.day, fmt_num(rec.t), rec.agent_kind, rec.agent_id,
                        rec.event, rec.node, meta(rec)])


def assert_same_bytes(tmp_path, log):
    write_events(tmp_path / "new.csv", log)
    csv_writer_events(tmp_path / "old.csv", log)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_events_writer_matches_csv_writer_on_e4_days(tmp_path):
    logs = []
    res = day_to_day(parse_config(json.loads(presets.read_text("e4"))),
                     LearningParams(max_days=6), on_day=logs.append)
    assert len(logs) == len(res.trajectory) == 6
    assert_same_bytes(tmp_path, [rec for log in logs for rec in log])
    # appended a day at a time, as ``ridesim run`` writes it
    with open_events_csv(tmp_path / "days.csv") as fh:
        for log in logs:
            write_events_csv(fh, log)
    assert (tmp_path / "days.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_events_writer_matches_csv_writer_on_meta_golden(tmp_path):
    assert_same_bytes(tmp_path, meta_golden_log())


def test_events_writer_matches_csv_writer_on_float_edges(tmp_path):
    values = [-0.0, 1e16, 1e-07, 0.1 + 0.2, float("inf"), 2, 0, -3, 0.5, 123456.789]
    log = [
        EventRecord(0, t, "DRIVER", 1, "COMPLETES_RIDE", 0, request_id=2,
                    platform_id=0, dist_m=v, fare=v, payout=v, cut=-v)
        for t, v in zip([0.0, 0.0, 1e-07, 0.30000000000000004, 30, 30, 60.5,
                         1e16, -0.0, 7], values)
    ]
    log.append(EventRecord(1, 45, "PLATFORM", 0, "BATCH_MATCH", 3, request_id=4,
                           driver_id=5, eta_s=12, fare=float("-inf")))
    assert_same_bytes(tmp_path, log)


def test_event_csv_round_trip(tmp_path):
    res, *_ = busy_result(seed=41)
    path = tmp_path / "events.csv"
    write_events(path, res.log)
    back = read_events_csv(path)
    assert back == res.log


def test_kpis_pure_function_of_stored_log(tmp_path):
    res, cfg, *_ = busy_result(seed=43, behaviour={"max_wait_s": 200.0})
    path = tmp_path / "events.csv"
    write_events(path, res.log)
    back = read_events_csv(path)
    validate_log(back)
    assert traveller_kpis(back) == traveller_kpis(res.log)
    assert driver_kpis(back) == driver_kpis(res.log)
    assert system_kpis(res.day, traveller_kpis(back), driver_kpis(back),
                       cfg.platforms, back) == \
        system_kpis(res.day, traveller_kpis(res.log), driver_kpis(res.log),
                    cfg.platforms, res.log)


def test_null_cells_written_empty(tmp_path):
    cfg = make_cfg(1, 0, horizon=500.0)
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], [])
    path = tmp_path / "kpi_travellers.csv"
    write_traveller_csv(path, traveller_kpis(res.log))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "traveller_id,outcome,wait_s,in_vehicle_s,total_s,fare_paid"
    assert lines[1] == "0,UNSERVED,,,,"


def test_system_csv_multi_day_union_header(tmp_path):
    rows = [
        {"day": 0, "n_served": 3, "wait_mean_s": 10.0},
        {"day": 1, "n_served": 4, "wait_mean_s": None, "extra": 1.5},
    ]
    path = tmp_path / "kpi_system.csv"
    write_system_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "day,n_served,wait_mean_s,extra"
    assert lines[1] == "0,3,10,"
    assert lines[2] == "1,4,,1.5"


def test_driver_csv_round_numbers(tmp_path):
    res, _ = single_ride_result()
    path = tmp_path / "kpi_drivers.csv"
    write_driver_csv(path, driver_kpis(res.log))
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("0,true,1,1.2,820,60,120,600,1200,1800,100,1000")
