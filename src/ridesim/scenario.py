"""Scenario configuration, demand/supply generation and input materialization.

A scenario is a JSON file naming the horizon, agent counts, platforms, the
road graph (files or a synthetic grid) and a master seed. Demand and supply
are either generated from seeded sub-streams or loaded from CSV files.
"""

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ridesim.errors import ConfigError
from ridesim.netgraph import RoadNetwork, SkimMatrix, build_skim, grid_city, load_graph
from ridesim.seeds import substream
from ridesim.util import read_csv, read_input, write_csv

REQUESTS_HEADER = ["request_id", "traveller_id", "origin", "destination", "t_request_s"]
DRIVERS_HEADER = ["driver_id", "home_node", "shift_start_s", "shift_end_s", "platform_ids"]

DECISION_SLOTS = (
    "f_driver_out",
    "f_driver_decline",
    "f_driver_repos",
    "f_trav_out",
    "f_trav_mode",
    "f_platform_choice",
    "f_match",
)


@dataclass(frozen=True)
class PlatformSpec:
    platform_id: int
    base_fare: float
    fare_per_km: float
    commission_rate: float
    matching: str                      # "instant" or "batched"
    batch_window_s: float | None = None
    fleet: int | None = None           # dedicated driver count; None = shares the rest

    def fare_for(self, distance_m: float) -> float:
        return self.base_fare + self.fare_per_km * distance_m / 1000.0


@dataclass(frozen=True)
class Request:
    request_id: int
    traveller_id: int
    origin: int
    destination: int
    t_request: float


@dataclass(frozen=True)
class DriverSpec:
    driver_id: int
    home_node: int
    shift_start: float
    shift_end: float
    platform_ids: tuple[int, ...]


@dataclass(frozen=True)
class GraphSpec:
    kind: str                          # "grid" or "files"
    rows: int = 0
    cols: int = 0
    spacing_m: float = 0.0
    speed_mps: float = 0.0
    nodes_path: str = ""
    edges_path: str = ""

    def build(self) -> RoadNetwork:
        if self.kind == "grid":
            return grid_city(self.rows, self.cols, self.spacing_m, self.speed_mps)
        return load_graph(self.nodes_path, self.edges_path)


@dataclass(frozen=True)
class ScenarioConfig:
    horizon_s: float
    n_travellers: int
    n_drivers: int
    platforms: tuple[PlatformSpec, ...]
    seed: int
    graph: GraphSpec
    behaviour: dict
    demand_weights: tuple[float, ...] | None = None
    requests_csv: str | None = None
    drivers_csv: str | None = None
    decisions: dict | None = None


@dataclass(frozen=True)
class ScenarioInputs:
    """Everything a single day's simulation consumes, fully materialized."""

    net: RoadNetwork
    skim: SkimMatrix
    requests: tuple[Request, ...]
    drivers: tuple[DriverSpec, ...]


# ------------------------------------------------------------ config parsing

def read_json(path, what: str, at: str | None = None):
    """The JSON value in the UTF-8 ``what`` ("config", "plan") file at
    ``path`` (a name, ``Path`` or package resource), and its text.

    A file that is missing, not a regular file, unreadable, not UTF-8 or not
    JSON raises a ``ConfigError`` naming the file as given, or naming the
    JSON path ``at`` that refers to the file, with the file in the message.
    """
    where, label = (str(path), f"{what} file") if at is None else (at, f"{what} file {path}")
    text = read_input(Path(path) if isinstance(path, str) else path,
                      lambda why: ConfigError(where, f"{label} {why}"))
    try:
        return json.loads(text), text
    except (ValueError, RecursionError) as exc:   # over-long integers, deep nesting
        raise ConfigError(where, f"invalid JSON in {label}: {exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    """Read, validate and default-fill a scenario JSON file."""
    p = Path(path)
    return parse_config(read_json(p, "config")[0], base_dir=p.parent)


class Range(NamedTuple):
    """The numbers a field accepts, ``lo`` to ``hi`` with both ends included
    (an open end is given as the nearest number inside it); ``text``
    finishes the message "must be ..." that rejects any other value."""
    lo: float
    hi: float
    text: str


NUMBER = Range(-math.inf, math.inf, "a number")
INTEGER = Range(-math.inf, math.inf, "an integer")
COUNT = Range(0, math.inf, "an integer >= 0")
AT_LEAST_1 = Range(1, math.inf, "an integer >= 1")
SEED = Range(0, 2 ** 64 - 1, "a 64-bit unsigned integer")
AT_LEAST_0 = Range(0, math.inf, "a finite number >= 0")
UNIT = Range(0, 1, "a number in [0, 1]")
POSITIVE = Range(math.ulp(0.0), math.inf, "a finite number > 0")


def _path(at: str, key) -> str:
    """The JSON path of ``key`` inside the object or list at path ``at``
    (the top level when empty)."""
    return key if not at else f"{at}[{key}]" if isinstance(key, int) else f"{at}.{key}"


def json_object(v, at: str, required=(), optional=()) -> dict:
    """``v`` checked to be a JSON object that holds every key of
    ``required`` and no key outside ``required`` and ``optional`` (any key
    when ``optional`` is None). Errors name the JSON path: the object's
    path ``at`` (``$`` for the top level) or, for a key, its path inside."""
    if not isinstance(v, dict):
        raise ConfigError(at or "$", "expected an object")
    if optional is not None:
        for key in v:
            if key not in required and key not in optional:
                raise ConfigError(_path(at, key), "unknown key")
    for key in required:
        if key not in v:
            raise ConfigError(_path(at, key), "required key missing")
    return v


def number(d, key, rng: Range = NUMBER, kind=None, default=None, *, at: str = ""):
    """``d[key]`` checked to be a JSON number in ``rng``.

    ``kind`` int accepts integers only; round accepts any whole number and
    returns it as an int; float returns a float, so an integer too large for
    one is out of range; None returns the number as written. A missing key
    returns ``default`` (``json_object`` checks the required keys). Errors
    name the JSON path: ``key`` inside the object or list at path ``at``.
    NaN, infinities and bools are never numbers.
    """
    try:
        v = d[key]
    except KeyError:
        return default
    try:
        if (isinstance(v, (int, float)) and not isinstance(v, bool)
                and v not in (math.inf, -math.inf) and rng.lo <= v <= rng.hi
                and (kind is not int or isinstance(v, int))
                and (kind is not round or round(v) == v)):
            return v if kind in (None, int) else kind(v)
    except OverflowError:       # float() of an integer past the largest float
        pass
    raise ConfigError(_path(at, key), f"must be {rng.text}")


def parse_config(raw: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a raw scenario dict. Errors name the offending JSON path."""
    json_object(raw, "", ("horizon_s", "n_travellers", "n_drivers", "seed", "platforms",
                          "graph"), ScenarioConfig.__dataclass_fields__)   # one field per key
    horizon = number(raw, "horizon_s", POSITIVE, float)
    n_travellers = number(raw, "n_travellers", COUNT, int)
    n_drivers = number(raw, "n_drivers", COUNT, int)
    seed = number(raw, "seed", SEED, int)

    platforms = _parse_platforms(raw["platforms"], n_drivers, horizon)
    graph = _parse_graph(raw["graph"], Path(base_dir))
    behaviour = _parse_behaviour(raw.get("behaviour", {}))
    decisions = _parse_decisions(raw.get("decisions", {}))

    weights = None
    if "demand_weights" in raw:
        weights = raw["demand_weights"]
        if not isinstance(weights, list) or not weights:
            raise ConfigError("demand_weights", "must be a non-empty list of numbers")
        finite = Range(0, sys.float_info.max, AT_LEAST_0.text)
        weights = tuple(number(weights, i, finite, float, at="demand_weights")
                        for i in range(len(weights)))
        total = sum(weights)
        if total <= 0:
            raise ConfigError("demand_weights", "must have a positive sum")
        if not math.isfinite(total):
            raise ConfigError("demand_weights", "must have a finite sum")

    return ScenarioConfig(
        horizon_s=horizon,
        n_travellers=n_travellers,
        n_drivers=n_drivers,
        platforms=platforms,
        seed=seed,
        graph=graph,
        behaviour=behaviour,
        demand_weights=weights,
        requests_csv=_optional_path(raw, "requests_csv", base_dir),
        drivers_csv=_optional_path(raw, "drivers_csv", base_dir),
        decisions=decisions,
    )


def _parse_platforms(plats, n_drivers: int, horizon: float) -> tuple[PlatformSpec, ...]:
    if not isinstance(plats, list) or not plats:
        raise ConfigError("platforms", "at least one platform is required")
    out = []
    seen_ids: set[int] = set()
    for i, p in enumerate(plats):
        at = f"platforms[{i}]"
        json_object(p, at, ("platform_id", "base_fare", "fare_per_km", "commission_rate",
                            "matching"), ("fleet",))
        pid = number(p, "platform_id", INTEGER, int, at=at)
        if pid in seen_ids:
            raise ConfigError(f"{at}.platform_id", f"duplicate platform_id {pid}")
        seen_ids.add(pid)
        base = number(p, "base_fare", AT_LEAST_0, float, at=at)
        per_km = number(p, "fare_per_km", AT_LEAST_0, float, at=at)
        cut = number(p, "commission_rate", UNIT, float, at=at)
        mode, window = _parse_matching(p["matching"], f"{at}.matching", horizon)
        out.append(PlatformSpec(
            platform_id=pid, base_fare=base, fare_per_km=per_km, commission_rate=cut,
            matching=mode, batch_window_s=window,
            fleet=number(p, "fleet", COUNT, int, at=at),
        ))
    fleets = [p.fleet for p in out if p.fleet is not None]
    if fleets:
        total = sum(fleets)
        if total > n_drivers:
            raise ConfigError(
                "platforms", f"dedicated fleets sum to {total} but n_drivers is {n_drivers}"
            )
        if total < n_drivers and len(fleets) == len(out):
            raise ConfigError(
                "platforms",
                f"every platform has a dedicated fleet (sum {total}) "
                f"but n_drivers is {n_drivers}; remove one fleet or match the counts",
            )
    return tuple(out)


def _parse_matching(v, at: str, horizon: float) -> tuple[str, float | None]:
    """``"instant"``, or else ``{"batched": {"window_s": W}}``."""
    if v == "instant":
        return "instant", None
    batched = json_object(v, at, ("batched",))["batched"]
    json_object(batched, f"{at}.batched", ("window_s",))
    window = number(batched, "window_s", POSITIVE, float, at=f"{at}.batched")
    # below this, k * window_s stops resolving multiples of the window
    # within the horizon and next_batch_boundary cannot step past now
    if window < horizon / 2 ** 40:
        raise ConfigError(f"{at}.batched.window_s", "must be >= horizon_s / 2**40")
    return "batched", window


def grid_spec(grid, at: str) -> GraphSpec:
    """The grid city ``grid`` describes (``rows``, ``cols``, ``spacing_m``,
    ``speed_mps``), each value checked; an error names the path ``at``."""
    json_object(grid, at, ("rows", "cols", "spacing_m", "speed_mps"))
    rows = number(grid, "rows", INTEGER, int, at=at)
    cols = number(grid, "cols", INTEGER, int, at=at)
    spacing = number(grid, "spacing_m", POSITIVE, float, at=at)
    speed = number(grid, "speed_mps", POSITIVE, float, at=at)
    if rows < 2 or cols < 2:
        raise ConfigError(at, "rows and cols must be >= 2")
    return GraphSpec(kind="grid", rows=rows, cols=cols, spacing_m=spacing, speed_mps=speed)


def _parse_graph(g, base_dir: Path) -> GraphSpec:
    """``{"grid": {...}}``, or else ``{"nodes": ..., "edges": ...}``."""
    g = json_object(g, "graph", (), ("grid", "nodes", "edges"))
    if "grid" in g:
        return grid_spec(json_object(g, "graph", ("grid",))["grid"], "graph.grid")
    json_object(g, "graph", ("nodes", "edges"))
    nodes, edges = g["nodes"], g["edges"]
    if not isinstance(nodes, str) or not isinstance(edges, str):
        raise ConfigError("graph", "nodes and edges must be file paths")
    return GraphSpec(
        kind="files",
        nodes_path=str(base_dir / nodes),
        edges_path=str(base_dir / edges),
    )


# the recognised behaviour keys, each with its range, kind (see ``number``)
# and default (None: absent unless given); any other key is a number
# passed through as written
BEHAVIOUR = {
    "t_board_s": (AT_LEAST_0, None, 0.0),
    "t_alight_s": (AT_LEAST_0, None, 0.0),
    "service_variability": (Range(0, math.nextafter(1.0, 0.0), "a number in [0, 1)"),
                            None, 0.0),
    "max_rejections": (COUNT, round, 5),
    "max_wait_s": (AT_LEAST_0, None, None),
    "reservation_wage_per_hour": (AT_LEAST_0, None, 2.5),
    "epsilon": (UNIT, None, 0.05),
}


def _parse_behaviour(b) -> dict:
    json_object(b, "behaviour", (), None)
    defaults = [k for k, (_, _, default) in BEHAVIOUR.items() if default is not None]
    return {k: number(b, k, *BEHAVIOUR.get(k, (NUMBER,)), at="behaviour")
            for k in [*b, *(k for k in defaults if k not in b)]}


def _parse_decisions(d) -> dict:
    for hook, name in json_object(d, "decisions", (), DECISION_SLOTS).items():
        if not isinstance(name, str):
            raise ConfigError(f"decisions.{hook}", "module name must be a string")
    return dict(d)


def _optional_path(raw: dict, key: str, base_dir) -> str | None:
    if key not in raw:
        return None
    v = raw[key]
    if not isinstance(v, str):
        raise ConfigError(key, "expected a file path string")
    return str(Path(base_dir) / v)


# ------------------------------------------------------- demand and supply

def check_weights(weights: tuple[float, ...] | None, net: RoadNetwork) -> None:
    """Raise a ``ConfigError`` unless ``weights``, a config's
    ``demand_weights``, is None or holds one weight per node of ``net``."""
    if weights is not None and len(weights) != net.n:
        raise ConfigError("demand_weights",
                          f"expected {net.n} weights (one per node), got {len(weights)}")


def generate_demand(
    net: RoadNetwork,
    n: int,
    horizon: float,
    seed: int,
    weights: tuple[float, ...] | None = None,
) -> list[Request]:
    """n requests with seeded uniform origins, destinations and times.

    Origins are drawn uniformly (or by the per-node weight vector when given),
    destinations uniformly with resampling until distinct from the origin,
    request times uniformly over [0, horizon). Output is sorted by
    (t_request, request_id); ids follow draw order. Pure in (net, n, horizon,
    seed, weights); supply generation never touches this stream.
    """
    n_nodes = net.n
    if n and n_nodes < 2:
        # the destination redraw below would never end
        raise ConfigError("graph", f"has {n_nodes} node(s); a trip needs two distinct nodes")
    check_weights(weights, net)
    rng = substream(seed, "demand")
    probs = None
    if weights is not None:
        total = float(sum(weights))
        probs = [w / total for w in weights]
    out = []
    for i in range(n):
        if probs is None:
            origin = int(rng.integers(0, n_nodes))
        else:
            origin = int(rng.choice(n_nodes, p=probs))
        dest = int(rng.integers(0, n_nodes))
        while dest == origin:
            dest = int(rng.integers(0, n_nodes))
        t = float(rng.uniform(0.0, horizon))
        out.append(Request(request_id=i, traveller_id=i, origin=origin,
                           destination=dest, t_request=t))
    out.sort(key=lambda r: (r.t_request, r.request_id))
    return out


def generate_supply(
    net: RoadNetwork,
    n: int,
    horizon: float,
    seed: int,
    platforms: tuple[PlatformSpec, ...],
) -> list[DriverSpec]:
    """n drivers with seeded uniform home nodes and full-horizon shifts,
    registered on ``platforms`` as they are drawn.

    Each platform with a dedicated ``fleet`` claims that many drivers, in
    listed order; the rest register on every platform without a fleet, which
    is every platform when none has one. Home nodes come from a supply
    sub-stream independent of demand, one draw per driver in id order.
    """
    fleets = [(p.platform_id,) for p in platforms if p.fleet for _ in range(p.fleet)]
    shared = tuple(p.platform_id for p in platforms if p.fleet is None)
    rng = substream(seed, "supply")
    return [
        DriverSpec(
            driver_id=i,
            home_node=int(rng.integers(0, net.n)),
            shift_start=0.0,
            shift_end=float(horizon),
            platform_ids=fleets[i] if i < len(fleets) else shared,
        )
        for i in range(n)
    ]


def load_requests_csv(path: str, net: RoadNetwork, horizon: float) -> list[Request]:
    out = []
    seen: set[int] = set()
    travellers: set[int] = set()
    types = (int, int, int, int, float)
    for lineno, row in read_csv(Path(path), REQUESTS_HEADER, types, _input_error(path)):
        at = f"{path}:row {lineno}"
        req = Request(*row)
        if req.request_id in seen:
            raise ConfigError(at, f"duplicate request_id {req.request_id}")
        seen.add(req.request_id)
        # the engine tracks one request per traveller and day
        if req.traveller_id in travellers:
            raise ConfigError(at, f"duplicate traveller_id {req.traveller_id}")
        travellers.add(req.traveller_id)
        if not (0 <= req.origin < net.n) or not (0 <= req.destination < net.n):
            raise ConfigError(at, "origin or destination is not a valid node")
        if req.origin == req.destination:
            raise ConfigError(at, "origin equals destination")
        if not (0 <= req.t_request < horizon):
            raise ConfigError(at, f"t_request_s {req.t_request} outside [0, {horizon})")
        out.append(req)
    out.sort(key=lambda r: (r.t_request, r.request_id))
    return out


def load_drivers_csv(
    path: str, net: RoadNetwork, horizon: float, valid_platforms: set[int]
) -> list[DriverSpec]:
    out = []
    seen: set[int] = set()
    types = (int, int, float, float, _platform_ids)
    for lineno, row in read_csv(Path(path), DRIVERS_HEADER, types, _input_error(path)):
        at = f"{path}:row {lineno}"
        spec = DriverSpec(*row)
        if spec.driver_id in seen:
            raise ConfigError(at, f"duplicate driver_id {spec.driver_id}")
        seen.add(spec.driver_id)
        if not (0 <= spec.home_node < net.n):
            raise ConfigError(at, "home_node is not a valid node")
        if not (0 <= spec.shift_start < spec.shift_end <= horizon):
            raise ConfigError(
                at, f"need 0 <= shift_start < shift_end <= horizon ({horizon})"
            )
        if not spec.platform_ids:
            raise ConfigError(at, "platform_ids must name at least one platform")
        for k, pid in enumerate(spec.platform_ids):
            if pid not in valid_platforms:
                raise ConfigError(at, f"unknown platform_id {pid}")
            if pid in spec.platform_ids[:k]:
                raise ConfigError(at, f"duplicate platform_id {pid}")
        out.append(spec)
    out.sort(key=lambda d: d.driver_id)
    return out


def _platform_ids(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(";") if x != "")


def _input_error(path: str):
    """The ``fail`` of ``read_csv`` for a demand or supply file."""
    return lambda why, line: ConfigError(f"{path}:row {line}" if line else path, why)


def save_requests_csv(requests: list[Request], path: str | Path) -> None:
    write_csv(path, REQUESTS_HEADER, (
        (r.request_id, r.traveller_id, r.origin, r.destination, r.t_request)
        for r in requests
    ), "\n")


def save_drivers_csv(drivers: list[DriverSpec], path: str | Path) -> None:
    write_csv(path, DRIVERS_HEADER, (
        (d.driver_id, d.home_node, d.shift_start, d.shift_end,
         ";".join(str(p) for p in d.platform_ids))
        for d in drivers
    ), "\n")


# ----------------------------------------------------------- materialization

def materialize(
    config: ScenarioConfig,
    *,
    net: RoadNetwork | None = None,
    skim: SkimMatrix | None = None,
    requests: tuple[Request, ...] | None = None,
) -> ScenarioInputs:
    """Build the network, skim, demand and supply for one scenario.

    ``net`` and ``skim``, when given, must come from ``config.graph``; the
    experiment runner builds them once per graph and passes them to every
    run on it, so shortest paths are not recomputed per run. ``requests``,
    when given, stands in for the demand ``generate_demand`` would build
    from the config and ``net``; the runner builds each distinct demand once
    per grid. A config with ``requests_csv`` always reads its file.
    """
    if net is None:
        net = config.graph.build()
    check_weights(config.demand_weights, net)
    if skim is None:
        skim = build_skim(net)

    if config.requests_csv is not None:
        requests = load_requests_csv(config.requests_csv, net, config.horizon_s)
        if len(requests) != config.n_travellers:
            raise ConfigError(
                "n_travellers",
                f"is {config.n_travellers} but {config.requests_csv} "
                f"has {len(requests)} requests",
            )
    elif requests is None:
        requests = generate_demand(
            net, config.n_travellers, config.horizon_s, config.seed,
            config.demand_weights,
        )

    if config.drivers_csv is not None:
        drivers = load_drivers_csv(
            config.drivers_csv, net, config.horizon_s,
            {p.platform_id for p in config.platforms},
        )
        if len(drivers) != config.n_drivers:
            raise ConfigError(
                "n_drivers",
                f"is {config.n_drivers} but {config.drivers_csv} "
                f"has {len(drivers)} drivers",
            )
    else:
        drivers = generate_supply(net, config.n_drivers, config.horizon_s, config.seed,
                                  config.platforms)

    return ScenarioInputs(
        net=net, skim=skim, requests=tuple(requests), drivers=tuple(drivers)
    )
