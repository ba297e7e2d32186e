"""The KPI layer as it was before ``kpi.validate_log`` returned a replay,
the node rows as they were when they read the run's inputs, and the
row-at-a-time ``events.csv`` writer.

Each KPI function below walks or groups the whole log on its own: the
validator keeps only the last event of each agent, the traveller and
driver builders group the log by agent again, and the system builder adds
up the per-platform ride sums in a walk of its own. The node builder
takes each traveller's origin from its request and each driver's home
from its spec, where ``kpi.node_aggregates`` reads both from the log.
They are kept as oracles for the one-walk path: ``replay_differences``
runs both on a log and names every row or field where they disagree,
floats compared by ``repr`` so that a change of summation order shows. ``write_events_csv``
formats every number of every row with its own ``fmt_num`` call; any
faster ``kpi.write_events_csv`` must write the same bytes.
"""

from collections import Counter

from ridesim import kpi
from ridesim.engine import EventRecord
from ridesim.errors import LogValidationError
from ridesim.kpi import (_DRIVER_FSM, _DRIVER_TERMINAL, _META_KEYS, _META_TYPES,
                         _PLATFORM_EVENTS, _TRAVELLER_FSM, DriverKpi, NodeKpi,
                         TravellerKpi, _mean, _where, percentile)
from ridesim.util import fmt_num

_TRAVELLER_TERMINAL = {"ARRIVES", "OPTS_OUT", "UNSERVED", "REJECTS_OFFER"}


def validate_log(log) -> None:
    last_t = None
    state = {}
    for i, rec in enumerate(log):
        if last_t is not None and rec.t < last_t[1] and rec.day == last_t[0]:
            raise LogValidationError(f"{_where(i, rec)}: time went backwards")
        if last_t is not None and rec.day < last_t[0]:
            raise LogValidationError(f"{_where(i, rec)}: day went backwards")
        last_t = (rec.day, rec.t)
        key = (rec.day, rec.agent_kind, rec.agent_id)
        if rec.agent_kind == "PLATFORM":
            if rec.event not in _PLATFORM_EVENTS:
                raise LogValidationError(
                    f"{_where(i, rec)}: unknown platform event {rec.event}"
                )
            continue
        fsm = _TRAVELLER_FSM if rec.agent_kind == "TRAVELLER" else _DRIVER_FSM
        if rec.agent_kind not in ("TRAVELLER", "DRIVER"):
            raise LogValidationError(
                f"{_where(i, rec)}: unknown agent kind {rec.agent_kind}"
            )
        prev = state.get(key)
        allowed = fsm.get(prev, set())
        if rec.event not in allowed:
            raise LogValidationError(
                f"{_where(i, rec)}: {rec.agent_kind.lower()} {rec.agent_id} "
                f"cannot go from {prev} to {rec.event}"
            )
        state[key] = rec.event
    for (day, kind, agent_id), last in sorted(state.items()):
        terminal = _TRAVELLER_TERMINAL if kind == "TRAVELLER" else _DRIVER_TERMINAL
        if last not in terminal:
            raise LogValidationError(
                f"day {day}: {kind.lower()} {agent_id} story ends in "
                f"{last}, which is not terminal"
            )


def traveller_kpis(log) -> list[TravellerKpi]:
    events = {}
    for rec in log:
        if rec.agent_kind == "TRAVELLER":
            events.setdefault(rec.agent_id, []).append(rec)
    rows = []
    for t_id in sorted(events):
        seq = events[t_id]
        times = {rec.event: rec.t for rec in seq}
        last = seq[-1].event
        if last in ("ARRIVES",):
            outcome = "ARRIVED"
        elif last == "OPTS_OUT":
            outcome = "OPTED_OUT"
        elif last == "UNSERVED":
            outcome = "UNSERVED"
        else:
            outcome = "REJECTED_OFFER"
        wait = in_vehicle = total = fare = None
        if outcome == "ARRIVED":
            wait = times["PICKED_UP"] - times["REQUESTS"]
            in_vehicle = times["ARRIVES"] - times["PICKED_UP"]
            total = times["ARRIVES"] - times["REQUESTS"]
            accepted = [r for r in seq if r.event == "ACCEPTS_OFFER"]
            fare = accepted[-1].fare
        rows.append(TravellerKpi(
            traveller_id=t_id, outcome=outcome, wait_s=wait,
            in_vehicle_s=in_vehicle, total_s=total, fare_paid=fare,
        ))
    return rows


def driver_kpis(log) -> list[DriverKpi]:
    events = {}
    for rec in log:
        if rec.agent_kind == "DRIVER":
            events.setdefault(rec.agent_id, []).append(rec)
    rows = []
    for d_id in sorted(events):
        seq = events[d_id]
        if seq[0].event == "OPTS_OUT":
            rows.append(DriverKpi(
                driver_id=d_id, participated=False, n_rides=0, revenue=0.0,
                idle_s=None, empty_drive_s=None, occupied_s=None,
                empty_drive_m=None, occupied_m=None, mileage_m=None,
                first_match_wait_s=None, shift_s=None,
            ))
            continue
        start = seq[0].t
        end = seq[-1].t
        n_rides = 0
        revenue = 0.0
        empty_s = occupied_s = empty_m = occupied_m = 0.0
        first_match = None
        t_accept = t_depart = t_repos = None
        for rec in seq:
            if rec.event == "ACCEPTS_REQUEST":
                t_accept = rec.t
                if first_match is None:
                    first_match = rec.t - start
            elif rec.event == "ARRIVES_PICKUP":
                empty_s += rec.t - t_accept
                empty_m += rec.dist_m
            elif rec.event == "DEPARTS_WITH_TRAVELLER":
                t_depart = rec.t
            elif rec.event == "COMPLETES_RIDE":
                n_rides += 1
                revenue += rec.payout
                occupied_s += rec.t - t_depart
                occupied_m += rec.dist_m
            elif rec.event == "STARTS_REPOSITIONING":
                t_repos = rec.t
            elif rec.event == "ARRIVES_REPOSITION":
                empty_s += rec.t - t_repos
                empty_m += rec.dist_m
        rows.append(DriverKpi(
            driver_id=d_id, participated=True, n_rides=n_rides,
            revenue=revenue,
            idle_s=(end - start) - empty_s - occupied_s,
            empty_drive_s=empty_s, occupied_s=occupied_s,
            empty_drive_m=empty_m, occupied_m=occupied_m,
            mileage_m=empty_m + occupied_m,
            first_match_wait_s=first_match,
            shift_s=end - start,
        ))
    return rows


def system_kpis(day, traveller_rows, driver_rows, platforms, drivers, log) -> dict:
    outcomes = [r.outcome for r in traveller_rows]
    waits = [r.wait_s for r in traveller_rows if r.wait_s is not None]
    participants = [r for r in driver_rows if r.participated]
    out = {
        "day": day,
        "n_travellers": len(traveller_rows),
        "n_served": outcomes.count("ARRIVED"),
        "n_unserved": outcomes.count("UNSERVED"),
        "n_opted_out": outcomes.count("OPTED_OUT"),
        "n_rejected": outcomes.count("REJECTED_OFFER"),
        "wait_mean_s": _mean(waits),
        "wait_median_s": percentile(waits, 50),
        "wait_p90_s": percentile(waits, 90),
        "fleet_participating": len(participants),
        "driver_idle_mean_s": _mean([r.idle_s for r in participants]),
        "driver_revenue_mean": _mean([r.revenue for r in participants]),
        "driver_first_match_wait_mean_s": _mean([
            r.first_match_wait_s if r.first_match_wait_s is not None else r.shift_s
            for r in participants
        ]),
        "vkm_empty": sum(r.empty_drive_m or 0.0 for r in driver_rows) / 1000.0,
        "vkm_occupied": sum(r.occupied_m or 0.0 for r in driver_rows) / 1000.0,
    }
    out["vkm_total"] = out["vkm_empty"] + out["vkm_occupied"]

    fleet = Counter(pid for d in drivers for pid in d.platform_ids)
    per = {
        p.platform_id: {"revenue": 0.0, "n_served": 0, "vkm": 0.0}
        for p in platforms
    }
    for rec in log:
        if rec.agent_kind != "DRIVER":
            continue
        if rec.event == "COMPLETES_RIDE":
            pid = rec.platform_id
            per[pid]["revenue"] += rec.fare
            per[pid]["n_served"] += 1
            per[pid]["vkm"] += rec.dist_m / 1000.0
        elif rec.event == "ARRIVES_PICKUP":
            per[rec.platform_id]["vkm"] += rec.dist_m / 1000.0
    for p in sorted(platforms, key=lambda p: p.platform_id):
        pid = p.platform_id
        out[f"revenue_platform_{pid}"] = per[pid]["revenue"]
        out[f"n_served_platform_{pid}"] = per[pid]["n_served"]
        out[f"vkm_platform_{pid}"] = per[pid]["vkm"]
        out[f"fleet_platform_{pid}"] = fleet[pid]
    return out


def node_aggregates(traveller_rows, driver_rows, requests, drivers, net) -> list[NodeKpi]:
    """Spatial aggregation by request origin and driver home node."""
    origin = {r.traveller_id: r.origin for r in requests}
    home = {d.driver_id: d.home_node for d in drivers}
    req_count = {n: 0 for n in range(net.n)}
    waits = {n: [] for n in range(net.n)}
    homes = {n: 0 for n in range(net.n)}
    first = {n: [] for n in range(net.n)}
    for row in traveller_rows:
        node = origin.get(row.traveller_id)
        if node is None:
            continue
        if row.outcome != "OPTED_OUT":
            req_count[node] += 1
        if row.wait_s is not None:
            waits[node].append(row.wait_s)
    for row in driver_rows:
        node = home.get(row.driver_id)
        if node is None:
            continue
        homes[node] += 1
        if row.first_match_wait_s is not None:
            first[node].append(row.first_match_wait_s)
    return [
        NodeKpi(
            node=n, n_requests=req_count[n], wait_mean_s=_mean(waits[n]),
            n_drivers_home=homes[n],
            driver_first_match_wait_mean_s=_mean(first[n]),
        )
        for n in range(net.n)
    ]


def _exact(value):
    """``value`` with its type, floats by ``repr``, for exact comparison."""
    return type(value).__name__, repr(value)


def replay_differences(log, day, platforms, inputs) -> list[str]:
    """Where the one-walk path and the oracles disagree on a valid log of
    a run on ``inputs`` (its ``ScenarioInputs``): traveller, driver and
    node rows field by field, then the system dict's keys in order and its
    values. Empty when they agree exactly."""
    validate_log(log)
    replay = kpi.validate_log(log)
    got_t, want_t = kpi.traveller_kpis(replay), traveller_kpis(log)
    got_d, want_d = kpi.driver_kpis(replay), driver_kpis(log)
    got_n = kpi.node_aggregates(replay, inputs.net.n)
    want_n = node_aggregates(want_t, want_d, inputs.requests, inputs.drivers, inputs.net)
    got_s = kpi.system_kpis(day, got_t, got_d, platforms, inputs.drivers, replay)
    want_s = system_kpis(day, want_t, want_d, platforms, inputs.drivers, log)
    bad = []
    for what, got, want in (("traveller", got_t, want_t), ("driver", got_d, want_d),
                            ("node", got_n, want_n)):
        if len(got) != len(want):
            bad.append(f"{len(got)} {what} rows, oracle {len(want)}")
        for g, w in zip(got, want):
            for field in type(w)._fields:
                if _exact(getattr(g, field)) != _exact(getattr(w, field)):
                    bad.append(f"{what} {w[0]} {field}: {getattr(g, field)!r}, "
                               f"oracle {getattr(w, field)!r}")
    if list(got_s) != list(want_s):
        bad.append(f"system keys {list(got_s)}, oracle {list(want_s)}")
    for key in want_s:
        if _exact(got_s.get(key)) != _exact(want_s[key]):
            bad.append(f"system {key}: {got_s.get(key)!r}, oracle {want_s[key]!r}")
    return bad


# ("key=", index into an EventRecord, formatter) for each meta field: the
# one string field as it is, numbers by fmt_num
_META_FIELDS = {
    event: tuple((f"{key}=", EventRecord._fields.index(key),
                  str if _META_TYPES[key] is str else fmt_num) for key in keys)
    for event, keys in _META_KEYS.items()
}


def write_events_csv(fh, log) -> None:
    """Append one row per record to ``fh``, from ``kpi.open_events_csv``,
    each number formatted by its own ``fmt_num`` call."""
    write = fh.write
    for rec in log:
        meta = ";".join([
            key + text(value)
            for key, i, text in _META_FIELDS.get(rec.event, ())
            if (value := rec[i]) is not None
        ])
        write(f"{rec.day},{fmt_num(rec.t)},{rec.agent_kind},{rec.agent_id},"
              f"{rec.event},{rec.node},{meta}\r\n")
