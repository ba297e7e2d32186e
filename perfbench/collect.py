"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads sweep_e3,learning_days \
        --seeds 1-10 [--trace 0|1] [--baseline perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For each metric it prints the median,
the quartiles and their distance as a share of the median (the spread that
must stay below the metric's bound), and whether every run was correct.
With ``--baseline`` the summary is merged into that JSON file together with
nproc and the Python, numpy and scipy versions. A run at the reference seed
also records its primary-output digest in ``reference.json`` when none is
recorded yet.
"""

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEED, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _versions() -> dict:
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    numpy_v, scipy_v = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy_v, "scipy": scipy_v}


def summarise(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ref_path = HERE / "reference.json"
    section = "per_layer" if args.trace else "end_to_end"

    summary = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                      if not args.trace))
            digest = re.search(r"sha256 \S+ ([0-9a-f]{64})$", proc.stdout, re.M)
            if seed == REFERENCE_SEED and result["correct"] and digest:
                ref = json.loads(ref_path.read_text(encoding="utf-8"))
                if name not in ref["sha256"]:
                    ref["sha256"][name] = digest.group(1)
                    ref_path.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
        if not runs:
            continue
        metrics = {
            m: summarise([r["metrics"][m]["value"] for r in runs])
            for m in runs[0]["metrics"]
        }
        summary[name] = {"runs": len(runs),
                         "all_correct": all(r["correct"] for r in runs),
                         "metrics": metrics}
        print(f"== {name}: {len(runs)} runs, all correct: {summary[name]['all_correct']}")
        for m, s in metrics.items():
            bound = bounds.get(m)
            flag = "" if bound is None else (
                f"  bound {bound}  {'OK' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"   {m:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")

    if args.baseline:
        path = Path(args.baseline)
        base = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        base["environment"] = _versions()
        base["run_seconds"] = spec["run_seconds"]
        base.setdefault(section, {}).update(
            {name: dict(s, seeds=args.seeds) for name, s in summary.items()})
        path.write_text(json.dumps(base, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
