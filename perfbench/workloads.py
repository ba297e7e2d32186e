"""The benchmark's workloads: generated inputs and the ridesim command for each.

Every workload writes its config or plan from the benchmark seed, so the same
seed gives the same inputs; the simulator only ever sees the written files.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Seed whose primary-output digests are recorded in reference.json.
REFERENCE_SEED = 11

# 30x30 grid, 500 m blocks, 10 m/s: 900 nodes shared by the two matching
# workloads, so they differ only in the matching mode.
CITY_30 = {"grid": {"rows": 30, "cols": 30, "spacing_m": 500, "speed_mps": 10}}

PRESETS = Path(__file__).resolve().parent.parent / "src" / "ridesim" / "presets"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[int, Path], Path]   # (seed, work dir) -> config or plan
    command: str            # ridesim subcommand: "run" or "experiment"
    primary: str            # output file whose SHA-256 is the correctness gate
    outcome_file: str       # CSV with one row per simulated run or day
    n_travellers: int       # travellers per row of outcome_file
    extra_args: tuple = ()

    def argv(self, inputs: Path, out: Path) -> list[str]:
        flag = "--plan" if self.command == "experiment" else "--config"
        return [self.command, flag, str(inputs), "--out", str(out), *self.extra_args]


def _city(seed: int, n_drivers: int, matching, behaviour=None) -> dict:
    config = {
        "horizon_s": 14400,
        "n_travellers": 4000,
        "n_drivers": n_drivers,
        "seed": seed,
        "platforms": [{"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
                       "commission_rate": 0.2, "matching": matching}],
        "graph": CITY_30,
    }
    if behaviour:
        config["behaviour"] = behaviour
    return config


def _dump(obj: dict, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return path


def _instant(seed: int, work: Path) -> Path:
    return _dump(_city(seed, 200, "instant"), work / "config.json")


def _batched(seed: int, work: Path) -> Path:
    # 340 rather than 300 drivers: at 300 the market sits at the edge of
    # saturation and the assignment work swings by +-15% between seeds
    config = _city(seed, 340, {"batched": {"window_s": 30}}, {"max_wait_s": 900})
    return _dump(config, work / "config.json")


def _sweep(seed: int, work: Path) -> Path:
    plan = json.loads((PRESETS / "e3.json").read_text(encoding="utf-8"))
    plan["base"]["seed"] = seed
    plan["base_seed"] = seed
    plan["grid"] = {"n_drivers": [25, 40, 60],
                    "platforms[1].fare_per_km": [0.6, 1.0, 1.4]}
    plan["replications"] = 4
    return _dump(plan, work / "plan.json")


def _learning(seed: int, work: Path) -> Path:
    config = json.loads((PRESETS / "e4.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    return _dump(config, work / "config.json")


WORKLOADS = {
    w.name: w for w in (
        Workload("instant_undersupply", _instant, "run",
                 "events.csv", "kpi_system.csv", 4000),
        Workload("batched_30s", _batched, "run",
                 "events.csv", "kpi_system.csv", 4000),
        Workload("sweep_e3", _sweep, "experiment",
                 "experiment_results.csv", "experiment_results.csv", 600,
                 ("--threads", str(nproc()))),
        Workload("learning_days", _learning, "run",
                 "events.csv", "kpi_system.csv", 200, ("--days", "50")),
    )
}
