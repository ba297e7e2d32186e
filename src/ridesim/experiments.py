"""Experiment orchestration: parameter grids with replications, multi-day runs.

A plan file describes a base scenario, a grid of config overrides, and a
replication count; ``run_grid`` executes every cell x replication and returns
flat result rows ready for CSV. ``day_to_day`` iterates a scenario over
days with drivers learning their income and re-deciding participation; a
one-day run is that loop with one day.
"""

import copy
import itertools
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from ridesim import kpi, scenario
from ridesim.decisions import build_decision_set
from ridesim.engine import DayState, DriverCarry, run_day
from ridesim.errors import ConfigError
from ridesim.netgraph import build_skim
from ridesim.scenario import (ScenarioConfig, ScenarioInputs, check_seed, materialize,
                              parse_config)
from ridesim.util import read_input

_SEGMENT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)\Z")


# ------------------------------------------------------------ grid overrides

def _tokens(path: str) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for part in path.split("."):
        m = _SEGMENT.match(part)
        if not m:
            raise ConfigError(f"grid.{path}", "malformed override path")
        out.append(("key", m.group(1)))
        for idx in re.findall(r"\[(\d+)\]", m.group(2)):
            out.append(("idx", int(idx)))
    return out


def apply_override(raw: dict, path: str, value) -> None:
    """Set a dotted/indexed path like ``platforms[1].fare_per_km`` in a raw
    config dict. Containers along the path must already exist; the last key
    may be new."""
    toks = _tokens(path)
    target = raw
    for kind, tok in toks[:-1]:
        if kind == "idx" and isinstance(target, list) and not (0 <= tok < len(target)):
            raise ConfigError(f"grid.{path}", f"index {tok} out of range")
        try:
            target = target[tok]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(
                f"grid.{path}", f"cannot resolve segment {tok!r}"
            ) from None
    kind, tok = toks[-1]
    if kind == "idx":
        if not isinstance(target, list) or not (0 <= tok < len(target)):
            raise ConfigError(f"grid.{path}", f"index {tok} out of range")
        target[tok] = value
    else:
        if not isinstance(target, dict):
            raise ConfigError(f"grid.{path}", f"segment {tok!r} is not an object")
        target[tok] = value


# -------------------------------------------------------------------- plans

@dataclass(frozen=True)
class Plan:
    base: dict
    grid: dict
    replications: int
    base_seed: int
    threads: int = 1
    base_dir: str = "."


_PLAN_KEYS = {"base", "grid", "replications", "base_seed", "threads"}


def parse_plan(raw: dict, base_dir=".") -> Plan:
    if not isinstance(raw, dict):
        raise ConfigError("$", "plan must be a JSON object")
    unknown = set(raw) - _PLAN_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown plan key")
    for key in ("base", "grid", "replications", "base_seed"):
        if key not in raw:
            raise ConfigError(key, "missing required plan key")
    base = raw["base"]
    base_dir = Path(base_dir)
    if isinstance(base, str):
        base_path = base_dir / base
        text = read_input(base_path, lambda why: ConfigError(
            "base", f"config file {base_path} {why}"))
        try:
            base = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("base", f"invalid JSON in {base_path}: {exc}") from None
        base_dir = base_path.parent
    elif not isinstance(base, dict):
        raise ConfigError("base", "must be a config object or file path")
    grid = raw["grid"]
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid", "must be a non-empty object of value lists")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}", "must be a non-empty list")
    reps = raw["replications"]
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise ConfigError("replications", "must be an integer >= 1")
    seed = raw["base_seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("base_seed", "must be an integer >= 0")
    check_seed(seed + reps - 1, "base_seed")     # the last replication's seed
    threads = raw.get("threads", 1)
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ConfigError("threads", "must be an integer >= 1")
    # every override path must resolve against the base before anything runs
    for key, values in grid.items():
        probe = copy.deepcopy(base)
        apply_override(probe, key, values[0])
    return Plan(base=base, grid=dict(grid), replications=reps,
                base_seed=seed, threads=threads, base_dir=str(base_dir))


# ------------------------------------------------------------------ runner

def _network(graph):
    """Build a graph spec's network and its skim."""
    net = graph.build()
    return net, build_skim(net)


def _day(config, inputs, decisions, day, state):
    """Run one day and validate its log; return the log and its traveller,
    driver and system rows."""
    log = run_day(config, inputs, decisions, day=day, day_state=state).log
    kpi.validate_log(log)
    t_rows = kpi.traveller_kpis(log)
    d_rows = kpi.driver_kpis(log)
    return log, t_rows, d_rows, kpi.system_kpis(day, t_rows, d_rows, config.platforms, log)


def _run(tasks, threads, networks) -> list[dict]:
    """One single-day row (seed, then system KPIs) per ``(config, seed)``
    task, in task order whatever the thread count. ``networks`` maps each
    task's graph spec to its (net, skim); workers only read it.

    Each distinct generated demand is built once, by the first task that
    needs it, and reused by every later task until the grid ends. Demand is
    a pure function of its key, so which worker builds it changes nothing.
    """
    demands, lock = {}, threading.Lock()

    def demand(cfg, net):
        if cfg.requests_csv is not None:
            return None
        key = (cfg.graph, cfg.n_travellers, cfg.horizon_s, cfg.seed, cfg.demand_weights)
        with lock:
            if key not in demands:
                demands[key] = tuple(scenario.generate_demand(net, *key[1:]))
            return demands[key]

    def one(task) -> dict:
        config, seed = task
        cfg = replace(config, seed=seed)
        net, skim = networks[cfg.graph]
        inputs = materialize(cfg, net=net, skim=skim, requests=demand(cfg, net))
        dec = build_decision_set(cfg.decisions, cfg.behaviour)
        return {"seed": seed, **_day(cfg, inputs, dec, 0, DayState())[3]}

    if threads <= 1:
        return [one(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, tasks))


def run_grid(plan: Plan, threads: int | None = None) -> list[dict]:
    """Execute every grid cell x replication of a plan.

    Each distinct graph's network and skim is built once, in the calling
    thread, before any worker starts; the pool then runs one task per cell
    and replication, and builds each distinct demand once (see ``_run``).
    Rows are ordered by cell (grid keys in plan order, row-major) then
    replication, and carry the cell's parameter values, the replication
    index and seed, and the system KPIs.
    """
    keys = list(plan.grid)
    labels, tasks, networks = [], [], {}
    for combo in itertools.product(*(plan.grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        raw = copy.deepcopy(plan.base)
        for path, value in cell.items():
            apply_override(raw, path, value)
        cfg = parse_config(raw, base_dir=plan.base_dir)
        if cfg.graph not in networks:
            networks[cfg.graph] = _network(cfg.graph)
        for k in range(plan.replications):
            labels.append({**cell, "replication": k})
            tasks.append((cfg, plan.base_seed + k))
    rows = _run(tasks, plan.threads if threads is None else threads, networks)
    return [{**label, **row} for label, row in zip(labels, rows)]


# ------------------------------------------------------------ day-to-day

@dataclass(frozen=True)
class LearningParams:
    """Income learning and participation dynamics across days."""

    alpha: float = 0.2                    # learning rate on realized income
    convergence_delta: float = 0.02       # relative fleet change counted stable
    convergence_window: int = 5           # consecutive stable days to stop
    max_days: int = 50


@dataclass(frozen=True)
class DayToDayResult:
    trajectory: tuple
    system_rows: tuple       # kpi.system_kpis of each day's log
    travellers: tuple        # kpi.traveller_kpis of the last day's log
    drivers: tuple           # kpi.driver_kpis of the last day's log
    inputs: ScenarioInputs
    converged: bool
    learned_income: dict     # driver_id -> final income belief


def day_to_day(config: ScenarioConfig,
               learning: LearningParams = LearningParams(),
               on_day=None) -> DayToDayResult:
    """Iterate a scenario over days until the fleet stabilizes.

    Drivers start with their reservation wage
    (``behaviour.reservation_wage_per_hour``) as the income belief, update
    it with an exponential moving average of realized income per scheduled
    hour on days they work, and sit out when the belief drops below the
    wage; a driver who sat out re-enters with probability
    ``behaviour.epsilon``. Travellers re-decide from yesterday's outcome
    when the configured opt-out hook uses it.

    ``on_day(log)``, if given, receives each day's validated event log as
    that day ends; no log is kept past its day.
    """
    inputs = materialize(config)
    dec = build_decision_set(config.decisions, config.behaviour)
    wage = float(config.behaviour["reservation_wage_per_hour"])
    hours = {
        d.driver_id: (d.shift_end - d.shift_start) / 3600.0 for d in inputs.drivers
    }

    learned = {d.driver_id: wage for d in inputs.drivers}
    participated: dict[int, bool | None] = {
        d.driver_id: None for d in inputs.drivers
    }
    outcomes: dict[int, str] = {}
    trajectory = []
    system_rows = []
    t_rows = d_rows = ()
    streak = 0
    prev_fleet = None
    for day in range(learning.max_days):
        state = DayState(
            drivers={
                i: DriverCarry(
                    learned_income=None if day == 0 else learned[i],
                    participated_yesterday=participated[i],
                )
                for i in learned
            },
            traveller_outcomes=outcomes,
        )
        log, t_rows, d_rows, system = _day(config, inputs, dec, day, state)
        if on_day is not None:
            on_day(log)
        del log     # so the next day runs without this one's log
        system_rows.append(system)
        outcomes = {row.traveller_id: row.outcome for row in t_rows}

        incomes = []
        for row in d_rows:
            participated[row.driver_id] = row.participated
            if row.participated:
                realized = row.revenue / hours[row.driver_id]
                learned[row.driver_id] = (
                    (1.0 - learning.alpha) * learned[row.driver_id]
                    + learning.alpha * realized
                )
                incomes.append(realized)
        trajectory.append({
            "day": day,
            "fleet_participating": system["fleet_participating"],
            "mean_income_per_hour":
                sum(incomes) / len(incomes) if incomes else None,
            "mean_wait_s": system["wait_mean_s"],
            "n_served": system["n_served"],
            "n_unserved": system["n_unserved"],
            "n_rejected": system["n_rejected"],
            "n_opted_out": system["n_opted_out"],
        })

        fleet = system["fleet_participating"]
        if prev_fleet is not None:
            if abs(fleet - prev_fleet) / max(prev_fleet, 1) < learning.convergence_delta:
                streak += 1
            else:
                streak = 0
        prev_fleet = fleet
        if streak >= learning.convergence_window:
            break
    return DayToDayResult(
        trajectory=tuple(trajectory),
        system_rows=tuple(system_rows), travellers=tuple(t_rows),
        drivers=tuple(d_rows), inputs=inputs,
        converged=streak >= learning.convergence_window,
        learned_income=dict(learned),
    )
