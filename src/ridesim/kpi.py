"""KPI pipeline: event-log validation, per-agent and system indicators, CSV.

Every indicator is computed purely from the event log, never from simulator
internals, so any stored log can be re-analysed later. ``validate_log`` walks
a log once: it checks each agent's events against the allowed transitions
and folds them into a ``Replay``, the only input of the traveller, driver and
system builders, so no log reaches them unvalidated. This module also owns
the CSV form of the log: ``write_events_csv`` formats each record's detail
fields into the ``meta`` column and ``read_events_csv`` parses them back.
"""

import math
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from ridesim.engine import EventRecord
from ridesim.errors import ConfigError, LogValidationError, SimulationError
from ridesim.util import fmt_num, integer, number, read_csv, write_csv

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
# each terminal traveller event and the outcome it ends in
_TRAVELLER_OUTCOME = {"ARRIVES": "ARRIVED", "OPTS_OUT": "OPTED_OUT",
                      "UNSERVED": "UNSERVED", "REJECTS_OFFER": "REJECTED_OFFER"}

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


# how read_events_csv parses each meta value
_META_TYPES = {
    "request_id": integer, "platform_id": integer, "driver_id": integer,
    "target": integer, "reason": str, "eta_s": number, "fare": number,
    "payout": number, "cut": number, "dist_m": number,
}
# the same as ("key=", index into an EventRecord, formatter) triples, for
# write_events_csv: the one string field as it is, numbers by fmt_num
_META_FIELDS = {
    event: tuple((f"{key}=", EventRecord._fields.index(key),
                  str if _META_TYPES[key] is str else fmt_num) for key in keys)
    for event, keys in _META_KEYS.items()
}


def _parse_meta(text: str) -> dict:
    """The detail fields of a ``meta`` cell; ValueError when it is malformed."""
    detail = {}
    for part in text.split(";") if text else ():
        key, value = part.split("=", 1)
        if key not in _META_TYPES or key in detail:
            raise ValueError(f"unknown or repeated meta key {key!r}")
        detail[key] = _META_TYPES[key](value)
    return detail


# how read_events_csv parses each column
_EVENTS_TYPES = (integer, number, str, integer, str, integer, _parse_meta)


# ------------------------------------------------------------------ replay

class _Story:
    """One agent's day so far: its last record, and the latest record of
    each event type it has logged."""
    __slots__ = ("last", "seen")

    def __init__(self):
        self.seen = {}


class _DriverStory(_Story):
    """A driver's story, with its ride sums added up in record order."""
    n_rides = 0
    revenue = empty_s = occupied_s = empty_m = occupied_m = 0.0
    first_match_wait_s = None

    def fold(self, rec: EventRecord, rides: dict) -> None:
        """Add ``rec`` to this driver's sums and to its platform's in ``rides``."""
        event = rec.event
        if event == "ACCEPTS_REQUEST":
            if self.first_match_wait_s is None:
                self.first_match_wait_s = rec.t - self.seen["STARTS_SHIFT"].t
        elif event == "ARRIVES_PICKUP":
            self.empty_s += rec.t - self.seen["ACCEPTS_REQUEST"].t
            self.empty_m += rec.dist_m
            rides[rec.platform_id]["vkm"] += rec.dist_m / 1000.0
        elif event == "COMPLETES_RIDE":
            self.n_rides += 1
            self.revenue += rec.payout
            self.occupied_s += rec.t - self.seen["DEPARTS_WITH_TRAVELLER"].t
            self.occupied_m += rec.dist_m
            platform = rides[rec.platform_id]
            platform["revenue"] += rec.fare
            platform["n_served"] += 1
            platform["vkm"] += rec.dist_m / 1000.0
        elif event == "ARRIVES_REPOSITION":
            self.empty_s += rec.t - self.seen["STARTS_REPOSITIONING"].t
            self.empty_m += rec.dist_m


class Replay(NamedTuple):
    """What one walk of a valid log leaves for the KPI builders: each
    traveller's and driver's story, keyed by ``(day, agent_kind,
    agent_id)`` in sorted order, and each platform's ride sums
    (``revenue``, ``n_served``, ``vkm``), added in log order."""
    stories: dict
    rides: dict


def validate_log(log: Sequence[EventRecord]) -> Replay:
    """Replay the log once: raise on any impossible sequence, else return
    the ``Replay`` the KPI builders read.

    Checks global time monotonicity, per-agent transitions, and that every
    traveller and driver story is complete (ends in a terminal event).
    """
    last = ()       # (day, t) of the record before; every pair sorts after ()
    stories: dict[tuple, _Story] = {}
    rides = defaultdict(lambda: {"revenue": 0.0, "n_served": 0, "vkm": 0.0})
    for i, rec in enumerate(log):
        day, t, kind, agent_id, event = rec[:5]
        if (day, t) < last:
            what = "time" if day == last[0] else "day"
            raise LogValidationError(f"{_where(i, rec)}: {what} went backwards")
        last = (day, t)
        if kind == "PLATFORM":
            if event not in _PLATFORM_EVENTS:
                raise LogValidationError(f"{_where(i, rec)}: unknown platform event {event}")
            continue
        driver = kind == "DRIVER"
        if not driver and kind != "TRAVELLER":
            raise LogValidationError(f"{_where(i, rec)}: unknown agent kind {kind}")
        key = (day, kind, agent_id)
        story = stories.get(key)
        prev = None if story is None else story.last.event
        if event not in (_DRIVER_FSM if driver else _TRAVELLER_FSM)[prev]:
            raise LogValidationError(
                f"{_where(i, rec)}: {kind.lower()} {agent_id} "
                f"cannot go from {prev} to {event}"
            )
        if story is None:
            story = stories[key] = _DriverStory() if driver else _Story()
        if driver:
            story.fold(rec, rides)
        story.last = rec
        story.seen[event] = rec
    stories = dict(sorted(stories.items()))
    for (day, kind, agent_id), story in stories.items():
        terminal = _TRAVELLER_OUTCOME if kind == "TRAVELLER" else _DRIVER_TERMINAL
        if story.last.event not in terminal:
            raise LogValidationError(
                f"day {day}: {kind.lower()} {agent_id} story ends in "
                f"{story.last.event}, which is not terminal"
            )
    return Replay(stories, dict(rides))


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


def _check_finite(day: int, what: str, columns, values) -> None:
    """Raise ``SimulationError`` at the first float of a KPI row that is
    not finite: a sum of finite logged values that overflowed."""
    for column, value in zip(columns, values):
        if isinstance(value, float) and not math.isfinite(value):
            raise SimulationError(f"day {day}: {what} KPI {column} overflows to {value}")


# ----------------------------------------------------------- traveller rows

class TravellerKpi(NamedTuple):
    traveller_id: int
    outcome: str
    wait_s: Optional[float]
    in_vehicle_s: Optional[float]
    total_s: Optional[float]
    fare_paid: Optional[float]


def traveller_kpis(replay: Replay) -> list[TravellerKpi]:
    """One row per traveller of a one-day replay, in id order (a longer
    replay gives one row per traveller and day, in day order)."""
    rows = []
    for (_, kind, t_id), story in replay.stories.items():
        if kind != "TRAVELLER":
            continue
        outcome = _TRAVELLER_OUTCOME[story.last.event]
        wait = in_vehicle = total = fare = None
        if outcome == "ARRIVED":
            seen = story.seen
            wait = seen["PICKED_UP"].t - seen["REQUESTS"].t
            in_vehicle = seen["ARRIVES"].t - seen["PICKED_UP"].t
            total = seen["ARRIVES"].t - seen["REQUESTS"].t
            fare = seen["ACCEPTS_OFFER"].fare
        rows.append(TravellerKpi(t_id, outcome, wait, in_vehicle, total, fare))
    return rows


# -------------------------------------------------------------- driver rows

class DriverKpi(NamedTuple):
    driver_id: int
    participated: bool
    n_rides: int = 0
    revenue: float = 0.0
    idle_s: Optional[float] = None
    empty_drive_s: Optional[float] = None
    occupied_s: Optional[float] = None
    empty_drive_m: Optional[float] = None
    occupied_m: Optional[float] = None
    mileage_m: Optional[float] = None
    first_match_wait_s: Optional[float] = None
    shift_s: Optional[float] = None


def driver_kpis(replay: Replay) -> list[DriverKpi]:
    """One row per driver of a one-day replay, in id order (a longer replay
    gives one row per driver and day, in day order). A sum that overflows
    raises ``SimulationError``."""
    rows = []
    for (day, kind, d_id), story in replay.stories.items():
        if kind != "DRIVER":
            continue
        if story.last.event == "OPTS_OUT":
            rows.append(DriverKpi(d_id, participated=False))
            continue
        shift = story.last.t - story.seen["STARTS_SHIFT"].t
        row = DriverKpi(
            driver_id=d_id, participated=True, n_rides=story.n_rides,
            revenue=story.revenue,
            idle_s=shift - story.empty_s - story.occupied_s,
            empty_drive_s=story.empty_s, occupied_s=story.occupied_s,
            empty_drive_m=story.empty_m, occupied_m=story.occupied_m,
            mileage_m=story.empty_m + story.occupied_m,
            first_match_wait_s=story.first_match_wait_s,
            shift_s=shift,
        )
        _check_finite(day, f"driver {d_id}", DriverKpi._fields, row)
        rows.append(row)
    return rows


# -------------------------------------------------------------- system row

def system_kpis(
    day: int,
    traveller_rows: Sequence[TravellerKpi],
    driver_rows: Sequence[DriverKpi],
    platforms,
    drivers,
    replay: Replay,
) -> dict:
    """Single flat dict of system-level indicators for ``day``, whose log
    may be empty.

    Per-platform fields are the ride sums of ``replay``, except a
    platform's fleet: the number of ``drivers`` (the run's
    ``DriverSpec``s) registered on it. A replay that holds any other day,
    or a ride on a platform that ``platforms`` lacks, raises
    ``LogValidationError``; an indicator that overflows raises
    ``SimulationError``.
    """
    other_days = sorted({d for d, _, _ in replay.stories} - {day})
    if other_days:
        raise LogValidationError(
            f"day {day}: the log also holds day(s) {', '.join(map(str, other_days))}; "
            f"score a multi-day log one day at a time")
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

    fleet = Counter(pid for d in drivers for pid in d.platform_ids)
    known = {p.platform_id for p in platforms}
    for pid in replay.rides:
        if pid not in known:
            raise LogValidationError(f"day {day}: rides on platform {pid}, "
                                     f"which is not among the configured platforms")
    no_rides = {"revenue": 0.0, "n_served": 0, "vkm": 0.0}
    for pid in sorted(known):
        sums = replay.rides.get(pid, no_rides)
        out[f"revenue_platform_{pid}"] = sums["revenue"]
        out[f"n_served_platform_{pid}"] = sums["n_served"]
        out[f"vkm_platform_{pid}"] = sums["vkm"]
        out[f"fleet_platform_{pid}"] = fleet[pid]
    _check_finite(day, "system", out, out.values())
    return out


# ---------------------------------------------------------------- node rows

class NodeKpi(NamedTuple):
    node: int
    n_requests: int
    wait_mean_s: Optional[float]
    n_drivers_home: int
    driver_first_match_wait_mean_s: Optional[float]


def node_aggregates(replay: Replay, n_nodes: int) -> list[NodeKpi]:
    """Spatial aggregation of a one-day replay over nodes ``0..n_nodes-1``
    (a longer replay adds up all its days): each traveller at its origin,
    the node of its ``PLANS`` record, and each driver at its home, the node
    of its first record. A node outside the range raises
    ``LogValidationError``."""
    n_requests, homes = [0] * n_nodes, [0] * n_nodes
    waits = [[] for _ in range(n_nodes)]
    first = [[] for _ in range(n_nodes)]
    for (day, kind, agent_id), story in replay.stories.items():
        seen, last = story.seen, story.last.event
        traveller = kind == "TRAVELLER"
        node = (seen["PLANS"] if traveller else seen.get("STARTS_SHIFT", story.last)).node
        if not 0 <= node < n_nodes:
            raise LogValidationError(f"day {day}: {kind.lower()} {agent_id} starts at "
                                     f"node {node}, outside the {n_nodes} nodes")
        if traveller:
            if last != "OPTS_OUT":
                n_requests[node] += 1
            if last == "ARRIVES":
                waits[node].append(seen["PICKED_UP"].t - seen["REQUESTS"].t)
        else:
            homes[node] += 1
            if story.first_match_wait_s is not None:
                first[node].append(story.first_match_wait_s)
    return [
        NodeKpi(node=n, n_requests=n_requests[n], wait_mean_s=_mean(waits[n]),
                n_drivers_home=homes[n], driver_first_match_wait_mean_s=_mean(first[n]))
        for n in range(n_nodes)
    ]


# ----------------------------------------------------------------- CSV I/O

def open_events_csv(path):
    """Create ``path`` holding the events header line; returns the open text
    file, to which ``write_events_csv`` appends records."""
    fh = open(path, "w", newline="", encoding="utf-8")
    fh.write(",".join(EVENTS_HEADER) + "\r\n")
    return fh


def write_events_csv(fh, log: Sequence[EventRecord]) -> None:
    """Append one row per record to ``fh``, from ``open_events_csv``.

    Rows end in ``\\r\\n`` and need no quoting: ``kpi`` owns every string
    a record carries. Numbers are written as ``fmt_num`` writes them.
    """
    write = fh.write
    for rec in log:
        meta = ";".join([
            key + text(value)
            for key, i, text in _META_FIELDS.get(rec.event, ())
            if (value := rec[i]) is not None
        ])
        write(f"{rec.day},{fmt_num(rec.t)},{rec.agent_kind},{rec.agent_id},"
              f"{rec.event},{rec.node},{meta}\r\n")


def read_events_csv(path) -> tuple[EventRecord, ...]:
    """The records of an ``events.csv``. A row's ``meta`` must carry exactly
    the keys its event writes, in their order, so writing the records back
    gives the same rows. A file that breaks this format raises a
    ``ConfigError``, as ``read_csv`` does; ``validate_log`` checks the
    records."""
    p = Path(path)
    records = []
    for line, row in read_csv(p, EVENTS_HEADER, _EVENTS_TYPES):
        keys = _META_KEYS.get(row[4], ())
        if tuple(row[6]) != keys:
            raise ConfigError(f"{p}:row {line}", f"{row[4]} meta must have the keys "
                              f"{';'.join(keys) or '(none)'}")
        records.append(EventRecord(*row[:6], **row[6]))
    return tuple(records)


def write_traveller_csv(path, rows: Sequence[TravellerKpi]) -> None:
    write_csv(path, TravellerKpi._fields, rows, "\r\n")


def write_driver_csv(path, rows: Sequence[DriverKpi]) -> None:
    write_csv(path, DriverKpi._fields, rows, "\r\n")


def write_system_csv(path, day_rows: Sequence[dict]) -> None:
    """One row per day; the union of keys in first-seen order."""
    header = list(dict.fromkeys(key for row in day_rows for key in row))
    write_csv(path, header, ([row.get(h) for h in header] for row in day_rows), "\r\n")


def write_node_csv(path, rows: Sequence[NodeKpi]) -> None:
    write_csv(path, NodeKpi._fields, rows, "\r\n")
