"""Experiment orchestration: parameter grids with replications, multi-day runs.

A plan file describes a base scenario, a grid of config overrides, and a
replication count; ``run_grid`` executes every cell x replication and returns
flat result rows ready for CSV. ``day_to_day`` iterates a scenario over
days with drivers learning their income and re-deciding participation; a
one-day run is that loop with one day.
The runs of a grid go in order on the calling thread.
"""

import copy
import itertools
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from ridesim import kpi
from ridesim.decisions import build_decision_set
from ridesim.engine import DayState, run_day
from ridesim.errors import ConfigError
# build_skim is unused here; the benchmark tracer rebinds it
from ridesim.netgraph import build_skim
from ridesim.scenario import (AT_LEAST_1, Range, ScenarioConfig, json_object, materialize,
                              number, parse_config, read_json, shared_inputs)

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
    replications: int
    base_seed: int


def parse_plan(raw: dict, base_dir=".") -> Plan:
    """Validate a plan and parse each of its grid cells, so a bad cell fails
    before any run; an error in a cell names its grid values."""
    json_object(raw, "", ("base", "grid", "replications", "base_seed"))
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
    cells = []
    for combo in itertools.product(*grid.values()):
        cell = dict(zip(grid, combo))
        cell_raw = copy.deepcopy(base)
        with _in_cell(cell):
            for path, value in cell.items():
                apply_override(cell_raw, path, value)
            cells.append((cell, parse_config(cell_raw, base_dir=base_dir)))
    return Plan(cells=tuple(cells), replications=reps, base_seed=seed)


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
    """Run one day and replay its log; return the log, the replay and its
    traveller, driver and system rows."""
    log = run_day(config, inputs, decisions, day=day, day_state=state).log
    replay = kpi.validate_log(log)
    t_rows = kpi.traveller_kpis(replay)
    d_rows = kpi.driver_kpis(replay)
    return log, replay, t_rows, d_rows, kpi.system_kpis(
        day, t_rows, d_rows, config.platforms, inputs.drivers, replay)


def run_grid(plan: Plan) -> list[dict]:
    """Execute every grid cell x replication of a plan, in order.

    Before any run, each cell's decision set is built and its
    ``shared_inputs`` taken (network, skim and input files, each checked),
    so a bad module, graph, weight count or input file fails before any
    run, naming the first cell that meets it. Then each run is
    ``materialize`` with one memo for the grid, so each network, skim,
    file and generated demand is built or read once per distinct key and
    held until the grid ends.
    Rows are ordered by cell (grid keys in plan order, row-major) then
    replication, and carry the cell's parameter values, the replication
    index and seed, and the system KPIs.
    """
    memo, decisions = {}, []
    for cell, cfg in plan.cells:
        with _in_cell(cell):
            decisions.append(build_decision_set(cfg.decisions, cfg.behaviour))
            shared_inputs(cfg, memo)
    rows = []
    for (cell, config), dec in zip(plan.cells, decisions):
        for k in range(plan.replications):
            cfg = replace(config, seed=plan.base_seed + k)
            rows.append({**cell, "replication": k, "seed": cfg.seed,
                         **_day(cfg, materialize(cfg, memo), dec, 0, DayState())[-1]})
    return rows


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
    nodes: tuple             # kpi.node_aggregates of the last day's replay
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
    that day ends; no log is kept past its day, and no replay past the
    next day's start. The node rows come from the last day's replay.
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
    replay = None
    converged = False
    for day in range(max_days):
        state = DayState(learned_income=learned if day else {},
                         participated=participated, traveller_outcomes=outcomes)
        replay = None   # so today runs without yesterday's replay
        log, replay, t_rows, d_rows, system = _day(config, inputs, dec, day, state)
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

        fleets = [row["fleet_participating"] for row in system_rows[-CONVERGENCE_WINDOW - 1:]]
        converged = len(fleets) > CONVERGENCE_WINDOW and all(
            abs(b - a) / max(a, 1) < CONVERGENCE_DELTA for a, b in zip(fleets, fleets[1:]))
        if converged:
            break
    return DayToDayResult(
        trajectory=tuple(trajectory),
        system_rows=tuple(system_rows), travellers=tuple(t_rows),
        drivers=tuple(d_rows),
        nodes=() if replay is None else tuple(kpi.node_aggregates(replay, inputs.net.n)),
        converged=converged,
        learned_income=dict(learned),
    )
