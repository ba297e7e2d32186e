"""Property tests: bad configs, plans and command lines end in one message.

In the first, each example starts from a small valid config or plan and
breaks it once: one field is replaced by a value from a fixed pool or
deleted, an unknown key is added, or the file's bytes are corrupted.
``cli.main`` must return 0, 1 or 2 and never raise, and a nonzero exit
prints exactly one ``ridesim:`` line. The pool holds no value that could
make a run bigger than the valid one: no large counts, grid sizes or
horizons, and no batch window below 1 s.

In the second, each example breaks a valid ``run``, ``experiment`` or
``generate`` command line once: a required flag is dropped, a count, seed
or thread flag gets a non-integer or out-of-range value, one of the four
``--grid`` values is not a number, not finite, not positive or below 2,
or ``--out`` names a file. That is a usage or input error: exit 1 with
one ``ridesim:`` line.

In both, ``--out`` already holds an earlier run's ``manifest.json`` and
one other file, and an exit 1 must leave it as it was: the same names and
bytes.

Three deterministic tests follow: an unknown key added to each object but
``behaviour``, an optional key set to JSON null, and a misspelled grid
override, each exit 1 with one line that names the key's JSON path (and
the grid cell, inside a plan's base).
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ridesim.cli import main

# an earlier run's output directory, which an exit 1 must not touch
EARLIER = {"manifest.json": b'{"files": []}\n', "events.csv": b"day,t_s\r\n"}


def _fill(out):
    out.mkdir()
    for name, data in EARLIER.items():
        (out / name).write_bytes(data)


def _contents(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}

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
        out = Path(tmp) / "out"
        _fill(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, flag, str(path), "--out", str(out)])
        if code == 1:
            assert _contents(out) == EARLIER
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ridesim: "), err.getvalue()


def _json_path(path):
    """The JSON path of a key and index path, as ridesim's errors spell it."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _one_error(command, doc, tmp_path, capsys):
    """The one ``ridesim:`` line of ``command`` on ``doc``, which must exit 1."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--config" if command == "run" else "--plan"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ridesim: ")
    return line


# every object of CONFIG and PLAN but ``behaviour``, which passes any key through
UNKNOWN_KEY_CASES = [(command, container)
                     for command, doc in (("run", CONFIG), ("experiment", PLAN))
                     for container in _containers(doc) if container[-1:] != ("behaviour",)]


@pytest.mark.parametrize("command, container", UNKNOWN_KEY_CASES,
                         ids=[f"{c}:{_json_path(p) or '$'}" for c, p in UNKNOWN_KEY_CASES])
def test_unknown_key_in_any_object_exits_1(command, container, tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG if command == "run" else PLAN))
    _at(doc, container)["zz_unknown"] = 1
    line = _one_error(command, doc, tmp_path, capsys)
    in_base = container[:1] == ("base",)      # a key of the base config, named per cell
    where = _json_path((*container[in_base:], "zz_unknown"))
    assert line.endswith(f": {where}") or (in_base and f": {where} in grid cell {{" in line)


# JSON null is never a value: an optional key is absent or of its type
NULL_CASES = [
    ("decisions", "expected an object: decisions"),
    ("demand_weights", "must be a non-empty list of numbers: demand_weights"),
    ("requests_csv", "expected a file path string: requests_csv"),
    ("drivers_csv", "expected a file path string: drivers_csv"),
    ("behaviour", "expected an object: behaviour"),
    ("platforms[0].fleet", "must be an integer >= 0: platforms[0].fleet"),
]


@pytest.mark.parametrize("path, line", NULL_CASES, ids=[p for p, _ in NULL_CASES])
def test_null_optional_key_exits_1(path, line, tmp_path, capsys):
    doc = json.loads(json.dumps(CONFIG))
    *parent, key = [int(k) if k.isdigit() else k for k in re.findall(r"[^.[\]]+", path)]
    _at(doc, parent)[key] = None
    assert _one_error("run", doc, tmp_path, capsys) == f"ridesim: {line}"


@pytest.mark.parametrize("path, value, line", [
    ("graph.grid.speed", 5, 'unknown key: graph.grid.speed in grid cell {"graph.grid.speed": 5}'),
    ("platforms[1].matching.batched.windows_s", 60,
     "unknown key: platforms[1].matching.batched.windows_s in grid cell "
     '{"platforms[1].matching.batched.windows_s": 60}'),
], ids=["graph.grid", "matching.batched"])
def test_misspelled_grid_override_exits_1_naming_the_cell(path, value, line, tmp_path, capsys):
    plan = dict(PLAN, grid={path: [value, 2 * value]})
    assert _one_error("experiment", plan, tmp_path, capsys) == f"ridesim: {line}"


# the valid commands, with their required flags and integer flags
COMMANDS = {
    "run": (["--config", "CONFIG", "--out", "OUT", "--seed", "3", "--days", "2"],
            ["--config", "--out"]),
    "experiment": (["--plan", "PLAN", "--out", "OUT", "--threads", "2"], ["--plan", "--out"]),
    "generate-demand": (["--demand", "3", "--config", "CONFIG", "--out", "OUT", "--seed", "3"],
                        ["--demand", "--config", "--out"]),
    "generate-supply": (["--supply", "3", "--config", "CONFIG", "--out", "OUT", "--seed", "3"],
                        ["--supply", "--config", "--out"]),
    "generate-grid": (["--grid", "3", "3", "100", "10", "--out", "OUT", "--seed", "3"],
                      ["--grid", "--out"]),
}
OUT_OF_RANGE = {"--days": ["0", "-1"], "--threads": ["0", "-2"], "--demand": ["-1"],
                "--supply": ["-1"], "--seed": ["-1", str(2 ** 64), str(10 ** 30)]}
NOT_INTEGERS = ["x", "", "1.5", "2e3", "0x10", "1/2", "--"]
# broken --grid values: ROWS and COLS below 2 or not integers, SPACING_M
# and SPEED_MPS not finite, not positive or not numbers
BAD_SIZES = ["1", "0", "-3", "nan", "inf", "2.5", "x", ""]
BAD_LENGTHS = ["nan", "inf", "-inf", "0", "-5", "x", ""]


@st.composite
def broken_argv(draw):
    """A valid command line, broken once; CONFIG, PLAN, OUT and FILE stand
    for the paths the test fills in."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags, required = COMMANDS[name]
    argv = list(flags)
    hows = ["drop", "value", "out_file"] + (["grid"] if "--grid" in argv else [])
    how = draw(st.sampled_from(hows))
    if how == "drop":
        at = argv.index(draw(st.sampled_from(required)))
        del argv[at:at + (5 if argv[at] == "--grid" else 2)]
    elif how == "grid":
        k = draw(st.integers(0, 3))
        argv[argv.index("--grid") + 1 + k] = draw(st.sampled_from(
            BAD_SIZES if k < 2 else BAD_LENGTHS))
    elif how == "value":
        at = draw(st.sampled_from([i for i, f in enumerate(argv) if f in OUT_OF_RANGE]))
        argv[at + 1] = draw(st.sampled_from(OUT_OF_RANGE[argv[at]] + NOT_INTEGERS))
    else:
        argv[argv.index("OUT")] = "FILE"
    return [name.split("-")[0], *argv]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(broken_argv())
def test_bad_command_line_exits_1(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(CONFIG))
        (tmp / "plan.json").write_text(json.dumps(PLAN))
        (tmp / "file").write_text("")
        paths = {"CONFIG": tmp / "config.json", "PLAN": tmp / "plan.json",
                 "OUT": tmp / "out", "FILE": tmp / "file"}
        _fill(paths["OUT"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(paths.get(a, a)) for a in argv])
        assert code == 1, argv
        assert _contents(paths["OUT"]) == EARLIER, argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ridesim: "), (argv, err.getvalue())
