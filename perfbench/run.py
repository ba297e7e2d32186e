"""ridesim benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's config or plan is written from
``--seed`` under ``perfbench/.work/``; every repetition then runs the ridesim
CLI in a fresh interpreter (``rep.py``), one at a time, until the next one
would end after ``--seconds``. Each repetition is checked: exit code 0, the
traveller outcomes of every run or day sum to ``n_travellers``, and the
primary output's SHA-256 equals ``reference.json`` at the reference seed, or
equals that of the other repetitions at any other seed.

Untraced, the end-to-end metrics are the medians over the repetitions. Times
are corrected for contention on the shared host (``speed.py``): each is the
raw time at the reference speed, from the speed sampled while it ran.
Traced, one untraced repetition, two traced ones and the layer probes run;
the counts in ``tracer.EXACT_COUNTS`` must agree between the two traced runs.
Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is the JSON result.
"""

import argparse
import csv
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import EXACT_COUNTS
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170          # every child is killed past this point of the run
SETUP_SHARE = 0.1           # share of an untraced run left to set-up-only repetitions
OUTCOMES = ("n_served", "n_unserved", "n_opted_out", "n_rejected")


@dataclass
class Rep:
    """One repetition: the child's JSON result (None if it produced none),
    its primary-output digest and the problems found."""

    result: dict | None
    digest: str | None
    problems: list
    elapsed: float


def _child(script: str, args: list, deadline: float):
    """Run a perfbench script in a fresh interpreter; return (JSON, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, f"{script} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{script} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outcome_problems(wl, out_dir: Path) -> list:
    with open(out_dir / wl.outcome_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{wl.outcome_file} has no rows"]
    bad = [i for i, row in enumerate(rows)
           if int(row["n_travellers"]) != wl.n_travellers
           or sum(int(row[k]) for k in OUTCOMES) != wl.n_travellers]
    if bad:
        return [f"{wl.outcome_file} rows {bad[:5]}: outcomes do not sum to "
                f"{wl.n_travellers} travellers"]
    return []


def run_rep(wl, inputs, work, trace, deadline, expected, label):
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["--trace", str(trace)]
    if trace:
        args += ["--spans", str(work / f"spans_{label}.json")]
    args += ["--", *wl.argv(inputs, out_dir)]
    t0 = time.perf_counter()
    result, error = _child("rep.py", args, deadline)
    digest = None
    if error:
        problems = [error]
    elif result["exit_code"] != 0:
        problems = [f"ridesim exited {result['exit_code']}"]
    else:
        digest = _sha256(out_dir / wl.primary)
        problems = _outcome_problems(wl, out_dir)
        if expected is not None and digest != expected:
            problems.append(f"{wl.primary} sha256 {digest} != expected {expected}")
    return Rep(result, digest, problems, time.perf_counter() - t0)


def run_setup(wl, inputs, work, deadline):
    """A repetition that ends at the first ``run_day`` entry."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    result, error = _child("rep.py", ["--trace", "0", "--setup-only", "--",
                                      *wl.argv(inputs, out_dir)], deadline)
    return Rep(result, None, [error] if error else [], time.perf_counter() - t0)


def _end_to_end(result: dict) -> dict:
    """A repetition's end-to-end metrics, times at the reference speed."""
    wall_s = result["ref_wall_s"]
    return {
        "wall_s": wall_s,
        "cpu_s": result["cpu_s"] * wall_s / result["wall_s"],
        "setup_s": result["ref_setup_s"],
        "events_per_s": result["events"] / result["ref_sim_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(wl, inputs, work, seconds, deadline, reference):
    """Untraced repetitions until the next would end after all but
    ``SETUP_SHARE`` of ``seconds``, then set-up-only ones until the next would
    end after ``seconds``: where set-up is short, its median then rests on
    many samples. Returns (full repetitions, set-up-only repetitions)."""
    reps, setups = [], []
    expected = reference
    t_begin = time.perf_counter()
    while True:
        rep = run_rep(wl, inputs, work, 0, deadline, expected, len(reps))
        reps.append(rep)
        if rep.result is None:
            return reps, setups
        if expected is None and not rep.problems:
            expected = rep.digest
        longest = max(r.elapsed for r in reps)
        if time.perf_counter() - t_begin + longest > seconds * (1 - SETUP_SHARE):
            break
    # first guess at a set-up-only repetition: a full one without its simulation
    longest = min(r.elapsed - r.result["wall_s"] + r.result["setup_s"] for r in reps)
    while time.perf_counter() - t_begin + longest <= seconds:
        setup = run_setup(wl, inputs, work, deadline)
        setups.append(setup)
        if setup.result is None:
            break
        longest = max(r.elapsed for r in setups)
    return reps, setups


def trace_run(wl, inputs, work, seed, deadline, reference):
    """One untraced repetition, two traced ones and the probes."""
    base = run_rep(wl, inputs, work, 0, deadline, reference, "base")
    expected = reference or base.digest
    traced = [run_rep(wl, inputs, work, 1, deadline, expected, f"traced{k}")
              for k in (1, 2)]
    reps = [base, *traced]
    problems = []
    probe, error = _child("probe.py", ["--seed", str(seed)], deadline)
    if error:
        problems.append(error)
        probe = {}
    elif not probe.pop("ok"):
        problems.append("match_batch probe returned a non-optimal assignment")
    if any(r.result is None or "layers" not in r.result for r in traced) or base.result is None:
        return reps, {}, problems
    layers = [r.result["layers"] for r in traced]
    for name in EXACT_COUNTS:
        if layers[0][name] != layers[1][name]:
            problems.append(f"exact count {name} differs: {layers[0][name]} vs {layers[1][name]}")
    metrics = {k: _median([v[k] for v in layers]) for k in layers[0]}
    metrics.update(probe)
    metrics["cli.import_s"] = statistics.median(r.result["import_s"] for r in reps)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.result["wall_s"] for r in traced) / base.result["wall_s"])
    return reps, metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ridesim" / "__init__.py").is_file():
        print(f"perfbench: no ridesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = ref["sha256"].get(wl.name)

    work = HERE / ".work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.write_inputs(args.seed, work)

    problems = []
    setups = []
    if args.trace:
        reps, values, problems = trace_run(wl, inputs, work, args.seed, deadline, reference)
        wanted = spec["per_layer"]
    else:
        reps, setups = measure(wl, inputs, work, args.seconds, deadline, reference)
        wanted = spec["end_to_end"]
    ok_reps = [r for r in reps if not r.problems]
    ok_setups = [r for r in setups if not r.problems]
    attempted = len(reps) + len(setups)
    failed = attempted - len(ok_reps) - len(ok_setups)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetition(s) and {len(setups)} set-up-only repetition(s) "
          f"in fresh interpreters")
    for kind, group in (("repetition", reps), ("set-up-only repetition", setups)):
        for k, r in enumerate(group):
            for p in r.problems:
                print(f"  {kind} {k} FAILED: {p}")
    for p in problems:
        print(f"  FAILED: {p}")
    print(f"  fail_ratio {failed / attempted:.4g} ratio ({failed}/{attempted} failed)")
    digests = sorted({r.digest for r in reps if r.digest})
    print(f"  sha256 {wl.primary} {' '.join(digests)}")

    if not args.trace:
        values = {}
        per_rep = [_end_to_end(r.result) for r in ok_reps]
        for m in wanted if per_rep else ():
            samples = [v[m["name"]] for v in per_rep]
            if m["name"] == "setup_s":
                samples += [r.result["ref_setup_s"] for r in ok_setups]
            q1, med, q3 = _quartiles(samples)
            values[m["name"]] = med
            print(f"  {m['name']:<14} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples)}")
        if ok_reps:
            q1, med, q3 = _quartiles([r.result["wall_s"] for r in ok_reps])
            print(f"  {'raw wall_s':<14} median {med:.6g} s  q1 {q1:.6g}  q3 {q3:.6g}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing[:4])}; no result", file=sys.stderr)
        return 1
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
