"""Experiment orchestration: parameter grids with replications, multi-day runs.

A plan file describes a base scenario, a grid of config overrides, and a
replication count; ``run_grid`` executes every cell x replication and returns
flat result rows ready for CSV. ``day_to_day`` iterates a scenario over
days with drivers learning their income and re-deciding participation; a
one-day run is that loop with one day.

Every run of a grid happens in order on the calling thread. The runs are
pure Python, so worker threads would only contend for the interpreter lock;
a plan's ``threads`` count is kept, checked and ignored, reserved for a
pool of worker processes.
"""

import copy
import itertools
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from ridesim import kpi, scenario
from ridesim.decisions import build_decision_set
from ridesim.engine import DayState, run_day
from ridesim.errors import ConfigError
from ridesim.netgraph import build_skim
from ridesim.scenario import (AT_LEAST_1, Range, ScenarioConfig, ScenarioInputs,
                              check_weights, json_object, materialize, number,
                              parse_config, read_json)

# a dotted path of keys, each with optional indexes, after a leading dot:
# .platforms[1].fare_per_km
_PATH = re.compile(r"(\.[A-Za-z_][A-Za-z0-9_]*(\[\d+\])*)+")


# ------------------------------------------------------------ grid overrides

def apply_override(raw: dict, path: str, value) -> None:
    """Set a dotted/indexed path like ``platforms[1].fare_per_km`` in a raw
    config dict. Containers along the path must already exist; the last key
    may be new."""
    if not _PATH.fullmatch("." + path):
        raise ConfigError(f"grid.{path}", "malformed override path")
    toks = [int(t) if t[0].isdigit() else t for t in re.findall(r"[^.[\]]+", path)]
    target = raw
    for n, tok in enumerate(toks, 1):
        last = n == len(toks)
        in_list = isinstance(target, list)
        # an index must fall inside a list; mid-path, a non-list fails below
        if isinstance(tok, int) and (in_list or last) and not (in_list and tok < len(target)):
            raise ConfigError(f"grid.{path}", f"index {tok} out of range")
        if not last:
            try:
                target = target[tok]
            except (KeyError, IndexError, TypeError):
                raise ConfigError(f"grid.{path}", f"cannot resolve segment {tok!r}") from None
        elif isinstance(tok, str) and not isinstance(target, dict):
            raise ConfigError(f"grid.{path}", f"segment {tok!r} is not an object")
        else:
            target[tok] = value


# -------------------------------------------------------------------- plans

@dataclass(frozen=True)
class Plan:
    cells: tuple        # (cell values, parsed config) per grid cell, row-major
    grid: dict
    replications: int
    base_seed: int
    threads: int = 1     # worker count reserved for a process pool; no effect


def parse_plan(raw: dict, base_dir=".") -> Plan:
    """Validate a plan and parse each of its grid cells, so a bad cell fails
    before any run; an error in a cell names its grid values."""
    json_object(raw, "", ("base", "grid", "replications", "base_seed"), ("threads",))
    base, base_dir = raw["base"], Path(base_dir)
    if isinstance(base, str):
        base_path = base_dir / base
        base, base_dir = read_json(base_path, "config", at="base")[0], base_path.parent
    json_object(base, "base", (), None)
    grid = json_object(raw["grid"], "grid", (), None)
    if not grid:
        raise ConfigError("grid", "must hold at least one override path")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}", "must be a non-empty list")
    if "seed" in grid:
        # each replication's seed is base_seed + k, whatever the cell says
        raise ConfigError("grid.seed", "seeds come from base_seed and replications; "
                                       "vary those instead")
    reps = number(raw, "replications", AT_LEAST_1, int)
    # the last replication's seed, base_seed + reps - 1, must be a seed too
    seed = number(raw, "base_seed", Range(
        0, 2 ** 64 - reps, f"an integer in [0, 2**64 - {reps}] for {reps} replications"), int)
    threads = number(raw, "threads", AT_LEAST_1, int, 1)
    cells = []
    for combo in itertools.product(*grid.values()):
        cell = dict(zip(grid, combo))
        cell_raw = copy.deepcopy(base)
        with _in_cell(cell):
            for path, value in cell.items():
                apply_override(cell_raw, path, value)
            cells.append((cell, parse_config(cell_raw, base_dir=base_dir)))
    return Plan(cells=tuple(cells), grid=dict(grid), replications=reps,
                base_seed=seed, threads=threads)


@contextmanager
def _in_cell(cell: dict):
    """Name ``cell``'s grid values in a config error raised inside."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{exc.path} in grid cell {json.dumps(cell)}",
                          exc.message) from None


# ------------------------------------------------------------------ runner

def _day(config, inputs, decisions, day, state):
    """Run one day and replay its log; return the log and its traveller,
    driver and system rows."""
    log = run_day(config, inputs, decisions, day=day, day_state=state).log
    replay = kpi.validate_log(log)
    t_rows = kpi.traveller_kpis(replay)
    d_rows = kpi.driver_kpis(replay)
    return log, t_rows, d_rows, kpi.system_kpis(day, t_rows, d_rows, config.platforms,
                                                inputs.drivers, replay)


def _run(tasks, networks) -> list[dict]:
    """One single-day row (seed, then system KPIs) per ``(config, seed,
    decisions)`` task, in task order. ``networks`` maps each task's graph
    spec to its (net, skim).

    Each distinct generated demand is built once, by the first task that
    needs it, and reused by every later task until the grid ends.
    """
    demands = {}
    rows = []
    for config, seed, dec in tasks:
        cfg = replace(config, seed=seed)
        net, skim = networks[cfg.graph]
        requests = None
        if cfg.requests_csv is None:
            key = (cfg.graph, cfg.n_travellers, cfg.horizon_s, cfg.seed, cfg.demand_weights)
            if key not in demands:
                demands[key] = tuple(scenario.generate_demand(net, *key[1:]))
            requests = demands[key]
        inputs = materialize(cfg, net=net, skim=skim, requests=requests)
        rows.append({"seed": seed, **_day(cfg, inputs, dec, 0, DayState())[3]})
    return rows


def run_grid(plan: Plan, threads: int | None = None) -> list[dict]:
    """Execute every grid cell x replication of a plan, in order on the
    calling thread.

    Each cell's decision set, and each distinct graph's network and skim,
    are built once before any run, and each cell's ``demand_weights`` are
    checked against its graph; so a bad module, graph or weight count fails
    before any run, naming the cell. Then one run per cell and replication
    follows, and each distinct demand is built once (see ``_run``).
    ``threads``, or the plan's ``threads`` when None, is the worker count
    reserved for a process pool; it has no effect today, and the rows are
    the same for any count.
    Rows are ordered by cell (grid keys in plan order, row-major) then
    replication, and carry the cell's parameter values, the replication
    index and seed, and the system KPIs.
    """
    labels, tasks, networks = [], [], {}
    for cell, cfg in plan.cells:
        with _in_cell(cell):
            dec = build_decision_set(cfg.decisions, cfg.behaviour)
            if cfg.graph not in networks:
                net = cfg.graph.build()
                networks[cfg.graph] = net, build_skim(net)
            check_weights(cfg.demand_weights, networks[cfg.graph][0])
        for k in range(plan.replications):
            labels.append({**cell, "replication": k})
            tasks.append((cfg, plan.base_seed + k, dec))
    rows = _run(tasks, networks)
    return [{**label, **row} for label, row in zip(labels, rows)]


# ------------------------------------------------------------ day-to-day

ALPHA = 0.2                 # learning rate on realized income
CONVERGENCE_DELTA = 0.02    # relative fleet change counted stable
CONVERGENCE_WINDOW = 5      # consecutive stable days to stop


@dataclass(frozen=True)
class DayToDayResult:
    trajectory: tuple
    system_rows: tuple       # kpi.system_kpis of each day's replay
    travellers: tuple        # kpi.traveller_kpis of the last day's replay
    drivers: tuple           # kpi.driver_kpis of the last day's replay
    inputs: ScenarioInputs
    converged: bool
    learned_income: dict     # driver_id -> final income belief


def day_to_day(config: ScenarioConfig, max_days: int = 50, on_day=None) -> DayToDayResult:
    """Iterate a scenario over at most ``max_days`` days, stopping early once
    the fleet is stable: ``CONVERGENCE_WINDOW`` days in a row in which the
    participating fleet moves by less than ``CONVERGENCE_DELTA`` of the day
    before.

    Drivers start with their reservation wage
    (``behaviour.reservation_wage_per_hour``) as the income belief, update
    it with an exponential moving average (weight ``ALPHA``) of realized
    income per scheduled hour on days they work, and sit out when the
    belief drops below the wage; a driver who sat out re-enters with
    probability ``behaviour.epsilon``. Each day's ``DayState`` holds the
    beliefs (none on day 0), yesterday's participation and yesterday's
    traveller outcomes. Travellers re-decide from yesterday's outcome when
    the configured opt-out hook uses it.

    ``on_day(log)``, if given, receives each day's validated event log as
    that day ends; no log is kept past its day.
    """
    dec = build_decision_set(config.decisions, config.behaviour)
    inputs = materialize(config)
    wage = float(config.behaviour["reservation_wage_per_hour"])
    hours = {
        d.driver_id: (d.shift_end - d.shift_start) / 3600.0 for d in inputs.drivers
    }

    learned = {d.driver_id: wage for d in inputs.drivers}
    participated: dict[int, bool] = {}
    outcomes: dict[int, str] = {}
    trajectory = []
    system_rows = []
    t_rows = d_rows = ()
    streak = 0
    prev_fleet = None
    for day in range(max_days):
        state = DayState(learned_income=learned if day else {},
                         participated=participated, traveller_outcomes=outcomes)
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
                    (1.0 - ALPHA) * learned[row.driver_id] + ALPHA * realized
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
            if abs(fleet - prev_fleet) / max(prev_fleet, 1) < CONVERGENCE_DELTA:
                streak += 1
            else:
                streak = 0
        prev_fleet = fleet
        if streak >= CONVERGENCE_WINDOW:
            break
    return DayToDayResult(
        trajectory=tuple(trajectory),
        system_rows=tuple(system_rows), travellers=tuple(t_rows),
        drivers=tuple(d_rows), inputs=inputs,
        converged=streak >= CONVERGENCE_WINDOW,
        learned_income=dict(learned),
    )
