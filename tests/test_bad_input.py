"""Property test: bad configs and plans end in exit 1 or 2 with one message.

Each example starts from a small valid config or plan and breaks it once:
one field is replaced by a value from a fixed pool or deleted, an unknown
key is added, or the file's bytes are corrupted. ``cli.main`` must return
0, 1 or 2 and never raise, and a nonzero exit prints exactly one
``ridesim:`` line. The pool holds no value that could make a run bigger
than the valid one: no large counts, grid sizes or horizons, and no batch
window below 1 s.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ridesim.cli import main

CONFIG = {
    "horizon_s": 600,
    "n_travellers": 6,
    "n_drivers": 2,
    "seed": 3,
    "platforms": [
        {"platform_id": 0, "base_fare": 1.0, "fare_per_km": 1.0,
         "commission_rate": 0.2, "matching": "instant", "fleet": 1},
        {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 1.5,
         "commission_rate": 0.1, "matching": {"batched": {"window_s": 60}}},
    ],
    "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 300, "speed_mps": 10}},
    "behaviour": {"max_wait_s": 300, "decline_eta_s": 200, "max_rejections": 2,
                  "t_board_s": 5, "t_alight_s": 5, "service_variability": 0.2,
                  "reservation_wage_per_hour": 2.0, "epsilon": 0.1},
    "demand_weights": [1, 2, 1, 1, 0, 1, 1, 1, 3],
    "decisions": {"f_trav_mode": "max_wait", "f_driver_decline": "decline_far_pickup",
                  "f_driver_repos": "repos_to_demand"},
}

PLAN = {
    "base": CONFIG,
    "grid": {"n_drivers": [1, 2], "platforms[1].fare_per_km": [1.0]},
    "replications": 2,
    "base_seed": 4,
    "threads": 2,
}

# wrong JSON types, negatives, zeros, non-finite tokens, nesting; the only
# positive numbers are 1 and 2, too small to grow any count, size or horizon
VALUES = ["x", "", True, False, None, [], {}, [[1]], [{"a": 1}], {"a": {"b": []}},
          -1, -2.5, 0, 0.0, 1, 2, float("nan"), float("-inf"), float("inf")]

BAD_BYTES = [b"\xff", b"\x00", b"\x80", b"{", b"]", b'"', b",", b"\xef\xbb\xbf"]


def _paths(node, prefix=()):
    """Every key and index path inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _containers(node, prefix=()):
    """Paths of every object, the top level included."""
    if isinstance(node, dict):
        yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _containers(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def broken_inputs(draw):
    """(command, file bytes) for one broken config or plan."""
    command = draw(st.sampled_from(["run", "experiment"]))
    doc = json.loads(json.dumps(CONFIG if command == "run" else PLAN))
    how = draw(st.sampled_from(["replace", "delete", "unknown_key", "bytes"]))
    if how == "replace":
        *parent, key = draw(st.sampled_from(list(_paths(doc))))
        _at(doc, parent)[key] = draw(st.sampled_from(VALUES))
    elif how == "delete":
        *parent, key = draw(st.sampled_from(list(_paths(doc))))
        del _at(doc, parent)[key]
    elif how == "unknown_key":
        _at(doc, draw(st.sampled_from(list(_containers(doc)))))["zz_unknown"] = 1
    data = json.dumps(doc).encode("utf-8")        # writes NaN and -Infinity as such
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at + cut:]
    return command, data


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(broken_inputs())
def test_bad_input_exits_cleanly(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        flag = "--config" if command == "run" else "--plan"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, flag, str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ridesim: "), err.getvalue()
