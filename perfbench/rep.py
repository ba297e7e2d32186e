"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --trace 0|1 [--spans FILE] [--setup-only] -- <ridesim CLI arguments>

Imports ridesim from ``src/``, runs ``cli.main`` on the given arguments and
prints one JSON line with its timings. Untraced, the only hook is a
timestamp at the first ``run_day`` entry (which ends set-up) plus the record
count of each run; traced, every layer boundary of ``tracer.install`` is
wrapped, the spans are written to ``--spans`` and the per-layer values are
added to the JSON line. Untraced, a ``speed.Sampler`` runs alongside, and
the wall, simulation and set-up times are also given at the reference speed
(``ref_wall_s``, ``ref_sim_s``, ``ref_setup_s``), corrected for contention on
the host; ``ref_setup_s`` is from the set-up's CPU time (see
``first_run_day``).
Traced repetitions run without it: its thread changes how ridesim's worker
threads interleave, which the exact counts must not depend on.
With ``--setup-only`` (untraced), the process reports its set-up times and
ends at the first ``run_day`` entry.
"""

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import tracer
from speed import MIN_SAMPLES, Sampler

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import ridesim.cli
    import_s = time.perf_counter() - t_import
    cli = ridesim.cli

    sampler = Sampler()
    main_ident = threading.get_ident()
    main_clock = time.pthread_getcpuclockid(main_ident)
    t0 = main_cpu0 = None
    setup_cpu = []

    def first_run_day(t_setup):
        # CPU time on the way to the first run_day: the main thread's, plus
        # the entering thread's own if it is a worker. Unlike the wall time,
        # it leaves out how the other workers' set-up interleaves with it.
        cpu = time.clock_gettime(main_clock) - main_cpu0
        if threading.get_ident() != main_ident:
            cpu += time.thread_time()
        setup_cpu.append(cpu)
        if args.setup_only:
            sampler.wait_for(MIN_SAMPLES)   # the speed just after a short set-up
            sampler.stop()
            print(json.dumps({"setup_s": t_setup - t0,
                              "ref_setup_s": cpu * sampler.speed(t0, t_setup)}), flush=True)
            os._exit(0)

    trc = None
    if args.trace:
        trc = tracer.Tracer(trace_id=Path(args.spans).stem if args.spans else "run")
        tracer.install(trc, ridesim)
        entry = trc.span("cli.main", cli.main)
    else:
        stamps, records = tracer.install_setup_hook(cli, ridesim.experiments, first_run_day)
        entry = cli.main

    if trc is None:
        sampler.start()
    cpu0 = _cpu()
    main_cpu0 = time.clock_gettime(main_clock)
    t0 = time.perf_counter()
    code = entry(argv)
    t1 = time.perf_counter()
    cpu1 = _cpu()
    if trc is None:
        sampler.stop()

    out = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
    }
    if trc is None:
        t_setup = min(stamps) if stamps else t1
        out["setup_s"] = t_setup - t0
        out["events"] = sum(records)
        out["ref_setup_s"] = (setup_cpu[0] if setup_cpu else t_setup - t0) * sampler.speed(t0, t_setup)
        out["ref_sim_s"] = sampler.at_reference(t_setup, t1)
        out["ref_wall_s"] = sampler.at_reference(t0, t_setup) + out["ref_sim_s"]
    else:
        threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
        layers = tracer.layer_metrics(trc, threads)
        out_dir = Path(argv[argv.index("--out") + 1])
        events_csv = out_dir / "events.csv"
        layers["kpi.events_csv_bytes"] = events_csv.stat().st_size if events_csv.exists() else 0
        out["layers"] = layers
        run_days = [sp for sp in trc.spans if sp.name == "engine.run_day"]
        out["setup_s"] = min((sp.start for sp in run_days), default=t1) - t0
        out["events"] = layers["engine.events"]
        if args.spans:
            Path(args.spans).write_text(json.dumps(trc.dump()) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
