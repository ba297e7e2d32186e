"""Command-line entry points: single runs, experiment grids, input generation.

Every successful command leaves a ``manifest.json`` in the output directory
listing exactly the files the command wrote, with sizes and SHA-256 digests;
the manifest is written last, so its presence marks a complete run. All
other outputs are plain CSV and byte-reproducible for a fixed config and
seed (wall-clock timestamps live only in the manifest).

Exit codes: 0 success, 1 invalid input or config, 2 runtime failure.

The process runs with one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is
set (ridesim makes no BLAS call, and idle BLAS workers only spin), and
``main`` runs its command with the cyclic garbage collector paused (a
simulated day leaves no cyclic garbage, so its passes find nothing).
"""

import argparse
import gc
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")      # before numpy is first imported

from ridesim import __version__, kpi, presets
# build_decision_set, run_day and materialize are unused here; the benchmark tracer rebinds them
from ridesim.decisions import build_decision_set
from ridesim.engine import run_day
from ridesim.errors import ConfigError, RidesimError
from ridesim.experiments import day_to_day, parse_plan, run_grid
from ridesim.netgraph import save_graph
from ridesim.scenario import (
    AT_LEAST_1,
    COUNT,
    SEED,
    Range,
    generate_demand,
    generate_supply,
    grid_spec,
    materialize,
    number,
    parse_config,
    read_json,
    save_drivers_csv,
    save_requests_csv,
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_CHUNK = 1 << 20        # bytes write_manifest reads of a file at a time


def _file_digest(path: Path) -> tuple[int, str]:
    """The size and SHA-256 of the file at ``path``, read one chunk at a time
    so that hashing a long run's ``events.csv`` needs no more memory than a
    short run's. A file smaller than a chunk gets a buffer of its size."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        buf = bytearray(min(_CHUNK, os.fstat(fh.fileno()).st_size))
        view = memoryview(buf)
        while n := fh.readinto(buf):
            digest.update(view[:n])
            size += n
    return size, digest.hexdigest()


def _load(path_str: str, what: str, parse):
    """``parse(raw, base_dir)`` of the --config/--plan JSON, and its text.

    A bare name with no existing file falls back to the bundled presets, so
    ``ridesim run --config e1`` works out of the box; a file's ``base_dir``
    is its directory, a preset's the working directory.
    """
    p = Path(path_str)
    stem = p.name[:-5] if p.name.endswith(".json") else p.name
    if p.is_file() or p.parent != Path(".") or stem not in presets.names():
        raw, text = read_json(path_str, what)
        return parse(raw, p.parent), text
    raw, text = read_json(presets.path(stem), what)
    return parse(raw, "."), text


class Output:
    """``--out`` for one command. Built in ``main``, it checks that the path
    is not a file or inside one. A command asks ``file(name)`` for each path
    it writes; the first request creates the directory and drops a manifest
    left by an earlier run, so an input error found before then leaves
    ``--out`` as it was. ``write_manifest`` lists exactly the requested
    names, never the directory's other contents."""

    def __init__(self, path_str: str):
        self.dir = Path(path_str)
        for p in (self.dir, *self.dir.parents):
            if p.exists():
                if not p.is_dir():
                    raise ConfigError("--out", f"{path_str} is a file or inside one, "
                                               "not a directory")
                break
        self.names = []
        self.started = _now()

    def file(self, name: str) -> Path:
        if not self.names:
            self.dir.mkdir(parents=True, exist_ok=True)
            (self.dir / "manifest.json").unlink(missing_ok=True)
        self.names.append(name)
        return self.dir / name

    def write_manifest(self, seed, config_sha: str) -> None:
        entries = []
        for name in sorted(self.names):
            size, sha = _file_digest(self.dir / name)
            entries.append({"name": name, "size": size, "sha256": sha})
        manifest = {
            "tool": "ridesim",
            "version": __version__,
            "config_sha256": config_sha,
            "seed": seed,
            "started_utc": self.started,
            "finished_utc": _now(),
            "files": entries,
        }
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- commands
# Each command writes through ``out`` and returns the manifest's seed and
# config digest, and its summary line.

def cmd_run(args, out: Output):
    config, text = _load(args.config, "config", parse_config)
    if args.seed is not None:
        config = replace(config, seed=number({"--seed": args.seed}, "--seed", SEED, int))
    number({"--days": args.days}, "--days", AT_LEAST_1, int)

    events = None       # events.csv, opened when the first day ends

    def on_day(log):
        nonlocal events
        if events is None:
            events = kpi.open_events_csv(out.file("events.csv"))
        kpi.write_events_csv(events, log)

    try:
        res = day_to_day(config, args.days, on_day)
    finally:
        if events is not None:
            events.close()
    if args.days > 1:
        kpi.write_system_csv(out.file("day_to_day.csv"), res.trajectory)
    # per-traveller/driver/node files describe the last simulated day
    kpi.write_traveller_csv(out.file("kpi_travellers.csv"), res.travellers)
    kpi.write_driver_csv(out.file("kpi_drivers.csv"), res.drivers)
    kpi.write_system_csv(out.file("kpi_system.csv"), res.system_rows)
    kpi.write_node_csv(out.file("kpi_nodes.csv"), res.nodes)
    return (config.seed, _sha256(text.encode("utf-8")),
            f"run complete: {len(res.trajectory)} day(s), outputs in {out.dir}")


def cmd_experiment(args, out: Output):
    plan, text = _load(args.plan, "plan", parse_plan)
    if args.threads is not None:        # checked, then unused
        number({"--threads": args.threads}, "--threads", AT_LEAST_1, int)
    rows = run_grid(plan)
    kpi.write_system_csv(out.file("experiment_results.csv"), rows)
    return (plan.base_seed, _sha256(text.encode("utf-8")),
            f"experiment complete: {len(rows)} rows, outputs in {out.dir}")


def cmd_generate(args, out: Output):
    for flag, value, rng in (("--demand", args.demand, COUNT), ("--supply", args.supply, COUNT),
                             ("--seed", args.seed, SEED)):
        if value is not None:
            number({flag: value}, flag, rng, int)
    seed = args.seed

    if args.grid is not None:
        try:
            rows, cols = int(args.grid[0]), int(args.grid[1])
            spacing, speed = float(args.grid[2]), float(args.grid[3])
        except ValueError:
            raise ConfigError("--grid", "expects ROWS COLS SPACING_M SPEED_MPS") from None
        net = grid_spec({"rows": rows, "cols": cols, "spacing_m": spacing,
                         "speed_mps": speed}, "--grid").build()
        save_graph(net, out.file("nodes.csv"), out.file("edges.csv"))
    else:
        if args.config is None:
            raise ConfigError("--config", "required for --demand/--supply")
        config = _load(args.config, "config", parse_config)[0]
        if seed is None:
            seed = config.seed
        net = config.graph.build()
        if args.demand is not None:
            requests = generate_demand(
                net, args.demand, config.horizon_s, seed, config.demand_weights
            )
            save_requests_csv(requests, out.file("requests.csv"))
        else:
            fleets = [p.fleet for p in config.platforms]
            if None not in fleets:      # no platform takes the drivers past the fleets
                number({"--supply": args.supply}, "--supply", Range(
                    0, sum(fleets), f"at most {sum(fleets)}, the fleets' sum"), int)
            drivers = generate_supply(net, args.supply, config.horizon_s, seed,
                                      config.platforms)
            save_drivers_csv(drivers, out.file("drivers.csv"))
    return seed, "", f"generate complete: outputs in {out.dir}"


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one line and exit 1, not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ridesim",
        description="Agent-based simulator of two-sided ride-hailing platforms.",
    )
    parser.add_argument("--version", action="version", version=f"ridesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario and write KPI CSVs")
    run.add_argument("--config", required=True,
                     help="scenario JSON path, or a bundled preset name (e1, e4)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--days", type=int, default=1,
                     help="days of the day-to-day learning loop to simulate")
    run.set_defaults(fn=cmd_run)

    exp = sub.add_parser("experiment", help="run a replication/grid plan")
    exp.add_argument("--plan", required=True,
                     help="plan JSON path, or a bundled preset name (e2, e3)")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--threads", type=int, default=None,
                     help="accepted and checked (>= 1); has no effect")
    exp.set_defaults(fn=cmd_experiment)

    gen = sub.add_parser("generate", help="write graph/demand/supply input files")
    what = gen.add_mutually_exclusive_group(required=True)
    what.add_argument("--grid", nargs=4, metavar=("ROWS", "COLS", "SPACING_M", "SPEED_MPS"),
                      help="write nodes.csv and edges.csv for a grid city")
    what.add_argument("--demand", type=int, metavar="N",
                      help="write requests.csv with N requests (needs --config)")
    what.add_argument("--supply", type=int, metavar="M",
                      help="write drivers.csv with M drivers (needs --config)")
    gen.add_argument("--config", default=None,
                     help="scenario JSON supplying the graph, horizon and weights")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.set_defaults(fn=cmd_generate)

    return parser


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        out = Output(args.out)
        seed, config_sha, summary = args.fn(args, out)
        out.write_manifest(seed, config_sha)
    except ConfigError as exc:
        print(f"ridesim: {exc}", file=sys.stderr)
        return 1
    except (RidesimError, OSError) as exc:     # a runtime failure or an I/O error
        print(f"ridesim: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    print(summary)
    return 0
