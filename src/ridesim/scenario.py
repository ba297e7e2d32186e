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

def load_config(path: str | Path) -> ScenarioConfig:
    """Read, validate and default-fill a scenario JSON file."""
    p = Path(path)
    text = read_input(p, lambda why: ConfigError(str(p), f"config file {why}"))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(p), f"invalid JSON: {exc}") from None
    return parse_config(raw, base_dir=p.parent)


def check_seed(seed: int, path: str) -> int:
    """The seed, if it fits the 64-bit unsigned range every sub-stream
    derives from; a config error naming ``path`` otherwise."""
    if not (0 <= seed < 2 ** 64):
        raise ConfigError(path, "must be a 64-bit unsigned integer")
    return seed


def parse_config(raw: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Validate a raw scenario dict. Errors name the offending JSON path."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    known_top = {
        "horizon_s", "n_travellers", "n_drivers", "platforms", "seed", "graph",
        "behaviour", "demand_weights", "requests_csv", "drivers_csv", "decisions",
    }
    for key in raw:
        if key not in known_top:
            raise ConfigError(key, "unknown config key")

    horizon = _number(raw, "horizon_s", required=True)
    if horizon <= 0:
        raise ConfigError("horizon_s", "must be > 0")
    n_travellers = _integer(raw, "n_travellers", required=True)
    if n_travellers < 0:
        raise ConfigError("n_travellers", "must be >= 0")
    n_drivers = _integer(raw, "n_drivers", required=True)
    if n_drivers < 0:
        raise ConfigError("n_drivers", "must be >= 0")
    seed = check_seed(_integer(raw, "seed", required=True), "seed")

    platforms = _parse_platforms(raw, n_drivers, horizon)
    graph = _parse_graph(raw, Path(base_dir))
    behaviour = _parse_behaviour(raw)
    decisions = _parse_decisions(raw)

    weights = raw.get("demand_weights")
    if weights is not None:
        if not isinstance(weights, list) or not weights:
            raise ConfigError("demand_weights", "must be a non-empty list of numbers")
        for i, w in enumerate(weights):
            if not isinstance(w, (int, float)) or isinstance(w, bool) \
                    or not 0 <= w <= sys.float_info.max:
                raise ConfigError(f"demand_weights[{i}]", "must be a finite number >= 0")
        if sum(weights) <= 0:
            raise ConfigError("demand_weights", "must have a positive sum")
        weights = tuple(float(w) for w in weights)

    requests_csv = _optional_path(raw, "requests_csv", base_dir)
    drivers_csv = _optional_path(raw, "drivers_csv", base_dir)

    return ScenarioConfig(
        horizon_s=float(horizon),
        n_travellers=n_travellers,
        n_drivers=n_drivers,
        platforms=platforms,
        seed=seed,
        graph=graph,
        behaviour=behaviour,
        demand_weights=weights,
        requests_csv=requests_csv,
        drivers_csv=drivers_csv,
        decisions=decisions,
    )


def _number(d: dict, key: str, required: bool = False, path: str | None = None):
    path = path or key
    if key not in d:
        if required:
            raise ConfigError(path, "required key missing")
        return None
    v = d[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    # only floats: an integer too large for a float fails its range check
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {v}")
    return v


def _integer(d: dict, key: str, required: bool = False, path: str | None = None):
    path = path or key
    v = _number(d, key, required, path)
    if v is None:
        return None
    if not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v


def _parse_platforms(raw: dict, n_drivers: int, horizon: float) -> tuple[PlatformSpec, ...]:
    plats = raw.get("platforms")
    if not isinstance(plats, list) or not plats:
        raise ConfigError("platforms", "at least one platform is required")
    out = []
    seen_ids: set[int] = set()
    for i, p in enumerate(plats):
        at = f"platforms[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(at, "expected an object")
        for key in p:
            if key not in {"platform_id", "base_fare", "fare_per_km",
                           "commission_rate", "matching", "fleet"}:
                raise ConfigError(f"{at}.{key}", "unknown platform key")
        pid = _integer(p, "platform_id", required=True, path=f"{at}.platform_id")
        if pid in seen_ids:
            raise ConfigError(f"{at}.platform_id", f"duplicate platform_id {pid}")
        seen_ids.add(pid)
        base = _number(p, "base_fare", required=True, path=f"{at}.base_fare")
        per_km = _number(p, "fare_per_km", required=True, path=f"{at}.fare_per_km")
        cut = _number(p, "commission_rate", required=True, path=f"{at}.commission_rate")
        if base < 0:
            raise ConfigError(f"{at}.base_fare", "must be >= 0")
        if per_km < 0:
            raise ConfigError(f"{at}.fare_per_km", "must be >= 0")
        if not (0 <= cut <= 1):
            raise ConfigError(f"{at}.commission_rate", f"must be in [0, 1], got {cut}")
        mode, window = _parse_matching(p.get("matching"), f"{at}.matching", horizon)
        fleet = _integer(p, "fleet", path=f"{at}.fleet")
        if fleet is not None and fleet < 0:
            raise ConfigError(f"{at}.fleet", "must be >= 0")
        out.append(PlatformSpec(
            platform_id=pid, base_fare=float(base), fare_per_km=float(per_km),
            commission_rate=float(cut), matching=mode, batch_window_s=window,
            fleet=fleet,
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
    if v is None:
        raise ConfigError(at, "required key missing")
    if v == "instant":
        return "instant", None
    if isinstance(v, dict) and set(v) == {"batched"}:
        inner = v["batched"]
        if not isinstance(inner, dict):
            raise ConfigError(f"{at}.batched", "expected an object with window_s")
        window = _number(inner, "window_s", required=True, path=f"{at}.batched.window_s")
        if window <= 0:
            raise ConfigError(f"{at}.batched.window_s", "must be > 0")
        # below this, k * window_s stops resolving multiples of the window
        # within the horizon and next_batch_boundary cannot step past now
        if window < horizon / 2 ** 40:
            raise ConfigError(f"{at}.batched.window_s", "must be >= horizon_s / 2**40")
        return "batched", float(window)
    raise ConfigError(at, 'must be "instant" or {"batched": {"window_s": W}}')


def _parse_graph(raw: dict, base_dir: Path) -> GraphSpec:
    g = raw.get("graph")
    if not isinstance(g, dict):
        raise ConfigError("graph", "required key missing or not an object")
    if set(g) == {"grid"}:
        grid = g["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("graph.grid", "expected an object")
        rows = _integer(grid, "rows", required=True, path="graph.grid.rows")
        cols = _integer(grid, "cols", required=True, path="graph.grid.cols")
        spacing = _number(grid, "spacing_m", required=True, path="graph.grid.spacing_m")
        speed = _number(grid, "speed_mps", required=True, path="graph.grid.speed_mps")
        if rows < 2 or cols < 2:
            raise ConfigError("graph.grid", "rows and cols must be >= 2")
        if spacing <= 0:
            raise ConfigError("graph.grid.spacing_m", "must be > 0")
        if speed <= 0:
            raise ConfigError("graph.grid.speed_mps", "must be > 0")
        return GraphSpec(kind="grid", rows=rows, cols=cols,
                         spacing_m=float(spacing), speed_mps=float(speed))
    if set(g) == {"nodes", "edges"}:
        nodes, edges = g["nodes"], g["edges"]
        if not isinstance(nodes, str) or not isinstance(edges, str):
            raise ConfigError("graph", "nodes and edges must be file paths")
        return GraphSpec(
            kind="files",
            nodes_path=str(base_dir / nodes),
            edges_path=str(base_dir / edges),
        )
    raise ConfigError("graph", 'must be {"grid": {...}} or {"nodes": ..., "edges": ...}')


def _parse_behaviour(raw: dict) -> dict:
    b = raw.get("behaviour", {})
    if not isinstance(b, dict):
        raise ConfigError("behaviour", "expected an object")
    b = dict(b)
    for key in b:
        _number(b, key, path=f"behaviour.{key}")
    b.setdefault("t_board_s", 0.0)
    b.setdefault("t_alight_s", 0.0)
    b.setdefault("service_variability", 0.0)
    b.setdefault("max_rejections", 5)
    b.setdefault("reservation_wage_per_hour", 2.5)
    b.setdefault("epsilon", 0.05)
    if b["t_board_s"] < 0:
        raise ConfigError("behaviour.t_board_s", "must be >= 0")
    if b["t_alight_s"] < 0:
        raise ConfigError("behaviour.t_alight_s", "must be >= 0")
    if not (0 <= b["service_variability"] < 1):
        raise ConfigError("behaviour.service_variability", "must be in [0, 1)")
    if b["max_rejections"] < 0 or int(b["max_rejections"]) != b["max_rejections"]:
        raise ConfigError("behaviour.max_rejections", "must be an integer >= 0")
    b["max_rejections"] = int(b["max_rejections"])
    if "max_wait_s" in b and b["max_wait_s"] < 0:
        raise ConfigError("behaviour.max_wait_s", "must be >= 0")
    if not (0 <= b["epsilon"] <= 1):
        raise ConfigError("behaviour.epsilon", "must be in [0, 1]")
    if b["reservation_wage_per_hour"] < 0:
        raise ConfigError("behaviour.reservation_wage_per_hour", "must be >= 0")
    return b


def _parse_decisions(raw: dict) -> dict:
    d = raw.get("decisions")
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ConfigError("decisions", "expected an object mapping hook to module name")
    for hook, name in d.items():
        if hook not in DECISION_SLOTS:
            raise ConfigError(f"decisions.{hook}", "unknown decision hook")
        if not isinstance(name, str):
            raise ConfigError(f"decisions.{hook}", "module name must be a string")
    return dict(d)


def _optional_path(raw: dict, key: str, base_dir) -> str | None:
    v = raw.get(key)
    if v is None:
        return None
    if not isinstance(v, str):
        raise ConfigError(key, "expected a file path string")
    return str(Path(base_dir) / v)


# ------------------------------------------------------- demand and supply

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
    rng = substream(seed, "demand")
    probs = None
    if weights is not None:
        if len(weights) != n_nodes:
            raise ConfigError(
                "demand_weights",
                f"expected {n_nodes} weights (one per node), got {len(weights)}",
            )
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
        for pid in spec.platform_ids:
            if pid not in valid_platforms:
                raise ConfigError(at, f"unknown platform_id {pid}")
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
    if config.demand_weights is not None and len(config.demand_weights) != net.n:
        raise ConfigError(
            "demand_weights",
            f"expected {net.n} weights (one per node), got {len(config.demand_weights)}",
        )
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
