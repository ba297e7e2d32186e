"""Layer probes for traced runs, in a fresh interpreter.

    python3 perfbench/probe.py --seed N

Times ``netgraph.build_skim`` on grids of 900 and 2025 nodes and
``platforms.match_batch`` on seeded square problems of 80 and 160 requests
and drivers placed on the 900-node skim, the sizes ROADMAP items 3 and 4 set
their targets at. Each assignment is checked against one direct
``linear_sum_assignment`` solve: it must be complete and have the optimal
cost. Prints one JSON line.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    from ridesim import netgraph, platforms
    from ridesim.scenario import Request

    out = {"ok": True}
    skims = {}
    for side in (30, 45):
        net = netgraph.grid_city(side, side, 500, 10)
        t0 = time.perf_counter()
        skims[side] = netgraph.build_skim(net)
        out[f"netgraph.build_skim.n{side * side}_s"] = time.perf_counter() - t0

    skim = skims[30]
    n_nodes = skim.travel_time.shape[0]
    rng = np.random.default_rng(args.seed)
    for n in (80, 160):
        origins = rng.integers(0, n_nodes, size=n)
        dests = rng.integers(0, n_nodes, size=n)
        places = rng.integers(0, n_nodes, size=n)
        requests = [Request(i, i, int(origins[i]), int(dests[i]), 0.0) for i in range(n)]
        positions = {d: int(places[d]) for d in range(n)}
        t0 = time.perf_counter()
        assignment = platforms.match_batch(requests, set(positions), positions, skim)
        out[f"platforms.match_batch.sq{n}_s"] = time.perf_counter() - t0

        cost = skim.travel_time[np.ix_(places, origins)].T   # rows: requests
        rows, cols = linear_sum_assignment(cost)
        got = sum(cost[r, d] for r, d in assignment.pairs)
        best = float(cost[rows, cols].sum())
        if len(assignment.pairs) != n or abs(got - best) > 1e-9 * max(1.0, best):
            out["ok"] = False
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
