"""KPI pipeline: event-log validation, per-agent and system indicators, CSV.

Every indicator is computed purely from the event log, never from simulator
internals, so any stored log can be re-analysed later. ``validate_log``
replays the per-agent event sequences against the allowed transitions and is
a precondition of the KPI builders. This module also owns the CSV form of
the log: ``write_events_csv`` formats each record's detail fields into the
``meta`` column and ``read_events_csv`` parses them back.
"""

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from ridesim.engine import EventRecord
from ridesim.errors import LogValidationError
from ridesim.util import fmt_num, read_csv, write_csv

EVENTS_HEADER = ["day", "t_s", "agent_kind", "agent_id", "event", "node", "meta"]

# allowed successor events per agent kind; None marks a valid start
_TRAVELLER_FSM = {
    None: {"PLANS"},
    "PLANS": {"OPTS_OUT", "REQUESTS"},
    "REQUESTS": {"RECEIVES_OFFER", "UNSERVED"},
    "RECEIVES_OFFER": {"RECEIVES_OFFER", "ACCEPTS_OFFER", "REJECTS_OFFER"},
    "ACCEPTS_OFFER": {"PICKED_UP"},
    "REJECTS_OFFER": {"RECEIVES_OFFER", "UNSERVED"},
    "PICKED_UP": {"ARRIVES"},
    "ARRIVES": set(),
    "OPTS_OUT": set(),
    "UNSERVED": set(),
}
_TRAVELLER_TERMINAL = {"ARRIVES", "OPTS_OUT", "UNSERVED", "REJECTS_OFFER"}

_DRIVER_FSM = {
    None: {"OPTS_OUT", "STARTS_SHIFT"},
    "STARTS_SHIFT": {"RECEIVES_REQUEST", "ENDS_SHIFT"},
    "RECEIVES_REQUEST": {"ACCEPTS_REQUEST", "DECLINES_REQUEST"},
    "ACCEPTS_REQUEST": {"ARRIVES_PICKUP", "RECEIVES_REQUEST", "ENDS_SHIFT"},
    "DECLINES_REQUEST": {"RECEIVES_REQUEST", "ENDS_SHIFT"},
    "ARRIVES_PICKUP": {"DEPARTS_WITH_TRAVELLER"},
    "DEPARTS_WITH_TRAVELLER": {"COMPLETES_RIDE"},
    "COMPLETES_RIDE": {"RECEIVES_REQUEST", "STARTS_REPOSITIONING", "ENDS_SHIFT"},
    "STARTS_REPOSITIONING": {"ARRIVES_REPOSITION"},
    "ARRIVES_REPOSITION": {"RECEIVES_REQUEST", "ENDS_SHIFT"},
    "OPTS_OUT": set(),
    "ENDS_SHIFT": set(),
}
_DRIVER_TERMINAL = {"OPTS_OUT", "ENDS_SHIFT"}

_PLATFORM_EVENTS = {"MATCH", "BATCH_MATCH"}

# the detail fields each event writes to the meta column, in column order
_OFFER_KEYS = ("platform_id", "driver_id", "fare", "eta_s")
_MATCH_KEYS = ("request_id", "driver_id", "eta_s", "fare")
_META_KEYS = {
    "UNSERVED": ("reason",),
    "RECEIVES_OFFER": _OFFER_KEYS,
    "ACCEPTS_OFFER": _OFFER_KEYS,
    "REJECTS_OFFER": _OFFER_KEYS,
    "PICKED_UP": ("driver_id", "platform_id"),
    "RECEIVES_REQUEST": ("request_id", "platform_id", "eta_s"),
    "ACCEPTS_REQUEST": ("request_id", "platform_id", "eta_s"),
    "DECLINES_REQUEST": ("request_id", "platform_id"),
    "ARRIVES_PICKUP": ("request_id", "platform_id", "dist_m"),
    "DEPARTS_WITH_TRAVELLER": ("request_id", "platform_id"),
    "COMPLETES_RIDE": ("request_id", "platform_id", "dist_m", "fare", "payout", "cut"),
    "STARTS_REPOSITIONING": ("target",),
    "ARRIVES_REPOSITION": ("dist_m",),
    "MATCH": _MATCH_KEYS,
    "BATCH_MATCH": _MATCH_KEYS,
}
# the same as ("key=", index into an EventRecord) pairs, for write_events_csv
_META_FIELDS = {
    event: tuple((f"{key}=", EventRecord._fields.index(key)) for key in keys)
    for event, keys in _META_KEYS.items()
}

# how read_events_csv parses each meta value
_META_TYPES = {
    "request_id": int, "platform_id": int, "driver_id": int, "target": int,
    "reason": str, "eta_s": float, "fare": float, "payout": float,
    "cut": float, "dist_m": float,
}


def _parse_meta(text: str) -> dict:
    """The detail fields of a ``meta`` cell; ValueError when it is malformed."""
    detail = {}
    for part in text.split(";") if text else ():
        key, value = part.split("=", 1)
        if key not in _META_TYPES:
            raise ValueError(f"unknown meta key {key!r}")
        detail[key] = _META_TYPES[key](value)
    return detail


# how read_events_csv parses each column
_EVENTS_TYPES = (int, float, str, int, str, int, _parse_meta)


# ---------------------------------------------------------------- validation

def validate_log(log: Sequence[EventRecord]) -> None:
    """Replay the log and raise on any impossible sequence.

    Checks global time monotonicity, per-agent transitions, and that every
    traveller and driver story is complete (ends in a terminal event).
    """
    last_t = None
    state: dict[tuple, Optional[str]] = {}
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


def _where(i: int, rec: EventRecord) -> str:
    return f"record {i} (day {rec.day}, t={fmt_num(rec.t)})"


# -------------------------------------------------------------- percentiles

def percentile(values: Sequence[float], p: int) -> Optional[float]:
    """Nearest-rank percentile (integer percent) of a sequence, else None."""
    if not values:
        return None
    ordered = sorted(values)
    rank = -(-(p * len(ordered)) // 100)     # exact ceiling in integers
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


# ----------------------------------------------------------- traveller rows

@dataclass(frozen=True)
class TravellerKpi:
    traveller_id: int
    outcome: str
    wait_s: Optional[float]
    in_vehicle_s: Optional[float]
    total_s: Optional[float]
    fare_paid: Optional[float]


def traveller_kpis(log: Sequence[EventRecord]) -> list[TravellerKpi]:
    """One row per traveller appearing in a single-day log."""
    events: dict[int, list[EventRecord]] = {}
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


# -------------------------------------------------------------- driver rows

@dataclass(frozen=True)
class DriverKpi:
    driver_id: int
    participated: bool
    n_rides: int
    revenue: float
    idle_s: Optional[float]
    empty_drive_s: Optional[float]
    occupied_s: Optional[float]
    empty_drive_m: Optional[float]
    occupied_m: Optional[float]
    mileage_m: Optional[float]
    first_match_wait_s: Optional[float]
    shift_s: Optional[float]


def driver_kpis(log: Sequence[EventRecord]) -> list[DriverKpi]:
    """One row per driver, reconstructed from its event sequence alone."""
    events: dict[int, list[EventRecord]] = {}
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


# -------------------------------------------------------------- system row

def system_kpis(
    day: int,
    traveller_rows: Sequence[TravellerKpi],
    driver_rows: Sequence[DriverKpi],
    platforms,
    log: Sequence[EventRecord],
) -> dict:
    """Single flat dict of system-level indicators for ``day``, whose log
    may be empty.

    Per-platform fields are derived from ride events; a platform's fleet is
    its dedicated size when configured, otherwise the pool left over by the
    dedicated fleets.
    """
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
        # censored: a driver never matched waited its whole shift
        "driver_first_match_wait_mean_s": _mean([
            r.first_match_wait_s if r.first_match_wait_s is not None else r.shift_s
            for r in participants
        ]),
        "vkm_empty": sum(r.empty_drive_m or 0.0 for r in driver_rows) / 1000.0,
        "vkm_occupied": sum(r.occupied_m or 0.0 for r in driver_rows) / 1000.0,
    }
    out["vkm_total"] = out["vkm_empty"] + out["vkm_occupied"]

    explicit = sum(p.fleet for p in platforms if p.fleet is not None)
    shared = len(driver_rows) - explicit
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
        out[f"fleet_platform_{pid}"] = p.fleet if p.fleet is not None else shared
    return out


# ---------------------------------------------------------------- node rows

@dataclass(frozen=True)
class NodeKpi:
    node: int
    n_requests: int
    wait_mean_s: Optional[float]
    n_drivers_home: int
    driver_first_match_wait_mean_s: Optional[float]


def node_aggregates(
    traveller_rows: Sequence[TravellerKpi],
    driver_rows: Sequence[DriverKpi],
    requests,
    drivers,
    net,
) -> list[NodeKpi]:
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


# ----------------------------------------------------------------- CSV I/O

def open_events_csv(path):
    """Create ``path`` holding the events header line; returns the open text
    file, to which ``write_events_csv`` appends records."""
    fh = open(path, "w", newline="", encoding="utf-8")
    fh.write(",".join(EVENTS_HEADER) + "\r\n")
    return fh


def _text(x) -> str:
    # the text fmt_num gives, calling it only for integral floats
    if type(x) is float:
        return repr(x) if not x.is_integer() else fmt_num(x)
    return str(x)


def write_events_csv(fh, log: Sequence[EventRecord]) -> None:
    """Append one row per record to ``fh``, from ``open_events_csv``.

    Rows end in ``\\r\\n`` and need no quoting: ``kpi`` owns every string
    a record carries. Numbers are written as ``fmt_num`` writes them.
    """
    write = fh.write
    for rec in log:
        meta = ";".join([
            key + _text(value)
            for key, i in _META_FIELDS.get(rec.event, ())
            if (value := rec[i]) is not None
        ])
        write(f"{rec.day},{_text(rec.t)},{rec.agent_kind},{rec.agent_id},"
              f"{rec.event},{rec.node},{meta}\r\n")


def read_events_csv(path) -> tuple[EventRecord, ...]:
    p = Path(path)
    rows = read_csv(p, EVENTS_HEADER, _EVENTS_TYPES, lambda why, line: LogValidationError(
        f"{p}: row {line}: {why}" if line else f"{p}: {why}"))
    return tuple(EventRecord(*row[:6], **row[6]) for _, row in rows)


def _write_records(path, rows, cls) -> None:
    header = [f.name for f in fields(cls)]
    write_csv(path, header, ([getattr(r, h) for h in header] for r in rows), "\r\n")


def write_traveller_csv(path, rows: Sequence[TravellerKpi]) -> None:
    _write_records(path, rows, TravellerKpi)


def write_driver_csv(path, rows: Sequence[DriverKpi]) -> None:
    _write_records(path, rows, DriverKpi)


def write_system_csv(path, day_rows: Sequence[dict]) -> None:
    """One row per day; the union of keys in first-seen order."""
    header: list[str] = []
    for row in day_rows:
        for key in row:
            if key not in header:
                header.append(key)
    write_csv(path, header, ([row.get(h) for h in header] for row in day_rows), "\r\n")


def write_node_csv(path, rows: Sequence[NodeKpi]) -> None:
    _write_records(path, rows, NodeKpi)
