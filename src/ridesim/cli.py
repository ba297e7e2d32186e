"""Command-line entry points: single runs, experiment grids, input generation.

Every successful command leaves a ``manifest.json`` in the output directory
listing the written files with sizes and SHA-256 digests; the manifest is
written last, so its presence marks a complete run. All other outputs are
plain CSV and byte-reproducible for a fixed config and seed (wall-clock
timestamps live only in the manifest).

Exit codes: 0 success, 1 invalid input or config, 2 runtime failure.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from ridesim import __version__, kpi, presets
# build_decision_set, run_day and materialize are unused here; the benchmark tracer rebinds them
from ridesim.decisions import build_decision_set
from ridesim.engine import run_day
from ridesim.errors import (
    ConfigError,
    GraphParseError,
    GraphValidationError,
    RidesimError,
)
from ridesim.experiments import (
    LearningParams,
    day_to_day,
    parse_plan,
    run_grid,
)
from ridesim.netgraph import grid_city, save_graph
from ridesim.scenario import (
    assign_fleets,
    check_seed,
    generate_demand,
    generate_supply,
    materialize,
    parse_config,
    save_drivers_csv,
    save_requests_csv,
)
from ridesim.util import read_input


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input_text(path_str: str, kind: str) -> tuple[str, Path | None]:
    """Resolve --config/--plan to file text.

    A bare name with no existing file falls back to the bundled presets, so
    ``ridesim run --config e1`` works out of the box. Returns the text and
    the file's parent directory (None for presets, which are self-contained).
    """
    p = Path(path_str)
    if p.is_file():
        return read_input(p, lambda why: ConfigError(path_str, f"{kind} file {why}")), p.parent
    stem = p.name[:-5] if p.name.endswith(".json") else p.name
    if p.parent == Path(".") and stem in presets.names():
        return presets.read_text(stem), None
    raise ConfigError(path_str, f"{kind} file not found")


def _parse_json(text: str, source: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(source, f"invalid JSON: {exc}") from None


def _write_manifest(out_dir: Path, names, seed, config_sha: str, started: str) -> None:
    """List the files this command wrote (``names``), never the directory's
    other contents."""
    entries = []
    for name in sorted(names):
        data = (out_dir / name).read_bytes()
        entries.append({"name": name, "size": len(data), "sha256": _sha256(data)})
    manifest = {
        "tool": "ridesim",
        "version": __version__,
        "config_sha256": config_sha,
        "seed": seed,
        "started_utc": started,
        "finished_utc": _now(),
        "files": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _out_dir(path_str: str) -> Path:
    """Create the output directory and drop a manifest left by an earlier
    run, so none is present until this command completes."""
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


# ---------------------------------------------------------------- commands

def cmd_run(args) -> int:
    text, base_dir = _read_input_text(args.config, "config")
    raw = _parse_json(text, args.config)
    config = parse_config(raw, base_dir=base_dir or ".")
    if args.seed is not None:
        config = replace(config, seed=check_seed(args.seed, "--seed"))
    if args.days < 1:
        raise ConfigError("--days", "must be >= 1")

    out = _out_dir(args.out)
    started = _now()
    events = None       # events.csv, opened when the first day ends

    def on_day(log):
        nonlocal events
        if events is None:
            events = kpi.open_events_csv(out / "events.csv")
        kpi.write_events_csv(events, log)

    try:
        res = day_to_day(config, LearningParams(max_days=args.days), on_day)
    finally:
        if events is not None:
            events.close()
    written = ["events.csv", "kpi_travellers.csv", "kpi_drivers.csv",
               "kpi_system.csv", "kpi_nodes.csv"]
    if args.days > 1:
        kpi.write_system_csv(out / "day_to_day.csv", res.trajectory)
        written.append("day_to_day.csv")
    # per-traveller/driver/node files describe the last simulated day
    kpi.write_traveller_csv(out / "kpi_travellers.csv", res.travellers)
    kpi.write_driver_csv(out / "kpi_drivers.csv", res.drivers)
    kpi.write_system_csv(out / "kpi_system.csv", res.system_rows)
    inputs = res.inputs
    kpi.write_node_csv(out / "kpi_nodes.csv", kpi.node_aggregates(
        res.travellers, res.drivers, inputs.requests, inputs.drivers, inputs.net))

    _write_manifest(out, written, config.seed, _sha256(text.encode("utf-8")), started)
    print(f"run complete: {len(res.trajectory)} day(s), outputs in {out}")
    return 0


def cmd_experiment(args) -> int:
    text, base_dir = _read_input_text(args.plan, "plan")
    raw = _parse_json(text, args.plan)
    plan = parse_plan(raw, base_dir=base_dir or ".")
    threads = args.threads
    if threads is not None and threads < 1:
        raise ConfigError("--threads", "must be >= 1")

    out = _out_dir(args.out)
    started = _now()
    rows = run_grid(plan, threads=threads)
    kpi.write_system_csv(out / "experiment_results.csv", rows)
    _write_manifest(out, ["experiment_results.csv"], plan.base_seed,
                    _sha256(text.encode("utf-8")), started)
    print(f"experiment complete: {len(rows)} rows, outputs in {out}")
    return 0


def cmd_generate(args) -> int:
    for flag, count in (("--demand", args.demand), ("--supply", args.supply)):
        if count is not None and count < 0:
            raise ConfigError(flag, "must be >= 0")
    seed = args.seed
    if seed is not None:
        check_seed(seed, "--seed")
    out = _out_dir(args.out)
    started = _now()

    if args.grid is not None:
        try:
            rows, cols = int(args.grid[0]), int(args.grid[1])
            spacing, speed = float(args.grid[2]), float(args.grid[3])
        except ValueError:
            raise ConfigError("--grid", "expects ROWS COLS SPACING_M SPEED_MPS") from None
        written = [p.name for p in save_graph(grid_city(rows, cols, spacing, speed), out)]
    else:
        if args.config is None:
            raise ConfigError("--config", "required for --demand/--supply")
        text, base_dir = _read_input_text(args.config, "config")
        config = parse_config(_parse_json(text, args.config), base_dir=base_dir or ".")
        if seed is None:
            seed = config.seed
        net = config.graph.build()
        if args.demand is not None:
            requests = generate_demand(
                net, args.demand, config.horizon_s, seed, config.demand_weights
            )
            written = ["requests.csv"]
            save_requests_csv(requests, out / "requests.csv")
        else:
            drivers = generate_supply(net, args.supply, config.horizon_s, seed)
            written = ["drivers.csv"]
            save_drivers_csv(assign_fleets(drivers, config.platforms), out / "drivers.csv")

    _write_manifest(out, written, seed, "", started)
    print(f"generate complete: outputs in {out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                     help="worker threads (default: the plan's value)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GraphParseError, GraphValidationError) as exc:
        print(f"ridesim: {exc}", file=sys.stderr)
        return 1
    except RidesimError as exc:
        print(f"ridesim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ridesim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
