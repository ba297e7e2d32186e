"""Every bounded config and plan field at its edges, and parsed values pinned.

``test_field_bounds`` sets one field at a time to the last value its range
accepts and to the first value past it. ``test_parsed_values_are_pinned``
compares ``repr`` of each parsed preset, grid cell and random config, types
included, with digests in ``parsed_reprs.json``. They were recorded from
the parser before its number checks were merged into one read, so a change
to any parsed value or type shows up here. After a deliberate change,
rewrite the file with ``json.dumps(_digests(), indent=1)``.
"""

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ridesim import presets
from ridesim.errors import ConfigError
from ridesim.experiments import apply_override, parse_plan
from ridesim.scenario import BEHAVIOUR, parse_config
from tests.test_acceptance import random_scenario_raw

TINY = math.ulp(0.0)                # the least float above 0
MAX = sys.float_info.max
TOP = 2 ** 1024 - 2 ** 970 - 1      # the largest integer float() rounds to a finite float

CONFIG = {
    "horizon_s": 600,
    "n_travellers": 2,
    "n_drivers": 2,
    "seed": 1,
    "platforms": [
        {"platform_id": 0, "base_fare": 1.0, "fare_per_km": 1.0,
         "commission_rate": 0.2, "matching": "instant"},
        {"platform_id": 1, "base_fare": 1.0, "fare_per_km": 1.0,
         "commission_rate": 0.2, "matching": "instant"},
    ],
    "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 500, "speed_mps": 10}},
    "behaviour": {},
    "demand_weights": [1] * 9,
}

PLAN = {"base": CONFIG, "grid": {"n_drivers": [2]}, "replications": 2, "base_seed": 0}

# (field, value its range accepts, the value just past it[, path the error names])
CONFIG_BOUNDS = [
    ("horizon_s", TINY, 0.0),
    ("horizon_s", TOP, TOP + 1),
    ("n_travellers", 0, -1),
    ("n_drivers", 0, -1),
    ("seed", 0, -1),
    ("seed", 2 ** 64 - 1, 2 ** 64),
    ("platforms[0].base_fare", 0, -TINY),
    ("platforms[0].base_fare", TOP, TOP + 1),
    ("platforms[0].fare_per_km", 0, -TINY),
    ("platforms[0].fare_per_km", TOP, TOP + 1),
    ("platforms[0].commission_rate", 0, -TINY),
    ("platforms[0].commission_rate", 1, math.nextafter(1.0, 2.0)),
    ("platforms[0].fleet", 0, -1),
    ("platforms[1].matching.batched.window_s", 600 / 2 ** 40,
     math.nextafter(600 / 2 ** 40, 0.0)),
    ("platforms[1].matching.batched.window_s", TOP, TOP + 1),
    ("graph.grid.rows", 2, 1, "graph.grid"),
    ("graph.grid.cols", 2, 1, "graph.grid"),
    ("graph.grid.spacing_m", TINY, 0.0),
    ("graph.grid.spacing_m", TOP, TOP + 1),
    ("graph.grid.speed_mps", TINY, 0.0),
    ("graph.grid.speed_mps", TOP, TOP + 1),
    ("demand_weights[0]", 0, -TINY),
    ("demand_weights[0]", MAX, int(MAX) + 1),
    ("behaviour.t_board_s", 0, -TINY),
    ("behaviour.t_alight_s", 0, -TINY),
    ("behaviour.service_variability", 0, -TINY),
    ("behaviour.service_variability", math.nextafter(1.0, 0.0), 1),
    ("behaviour.max_rejections", 0, -1),
    ("behaviour.max_rejections", 2.0, 2.5),
    ("behaviour.max_wait_s", 0, -TINY),
    ("behaviour.reservation_wage_per_hour", 0, -TINY),
    ("behaviour.epsilon", 0, -TINY),
    ("behaviour.epsilon", 1, math.nextafter(1.0, 2.0)),
]

PLAN_BOUNDS = [
    ("replications", 1, 0),
    ("base_seed", 0, -1),
    ("base_seed", 2 ** 64 - 2, 2 ** 64 - 1),     # the second replication's seed overflows
]


def _config(field, value):
    raw = copy.deepcopy(CONFIG)
    if ".batched." in field:
        raw["platforms"][1]["matching"] = {"batched": {"window_s": 30}}
    apply_override(raw, field, value)
    return raw


def test_demand_weights_sum_must_be_finite():
    # every weight is in range, but two of them sum past the largest float
    parse_config(dict(CONFIG, demand_weights=[MAX] + [0] * 8))
    with pytest.raises(ConfigError, match="must have a finite sum") as info:
        parse_config(dict(CONFIG, demand_weights=[MAX, MAX] + [1] * 7))
    assert info.value.path == "demand_weights"


def _plan(field, value):
    raw = copy.deepcopy(PLAN)
    apply_override(raw, field, value)
    return raw


def _bounds():
    seen = {}
    for parse, make, bounds in ((parse_config, _config, CONFIG_BOUNDS),
                                (parse_plan, _plan, PLAN_BOUNDS)):
        for field, inside, outside, *where in bounds:
            seen[field] = seen.get(field, -1) + 1
            yield pytest.param(parse, make, field, inside, outside,
                               where[0] if where else field, id=f"{field}-{seen[field]}")


@pytest.mark.parametrize("parse, make, field, inside, outside, where", _bounds())
def test_field_bounds(parse, make, field, inside, outside, where):
    parse(make(field, inside))
    with pytest.raises(ConfigError, match="must be") as info:
        parse(make(field, outside))
    assert info.value.path == where


def _parsed():
    """(name, parsed value) for e1, e4, both plans, every e2/e3 grid cell
    and 50 random scenarios."""
    for name in ("e1", "e4"):
        yield name, parse_config(json.loads(presets.read_text(name)))
    for name in ("e2", "e3"):
        plan = parse_plan(json.loads(presets.read_text(name)))
        yield name, plan
        for cell, config in plan.cells:
            yield f"{name}{list(cell.values())}", config
    rng = np.random.default_rng(18)
    for i in range(50):
        yield f"random{i}", parse_config(random_scenario_raw(rng))


def _digests():
    return {name: hashlib.sha256(repr(value).encode()).hexdigest()[:24]
            for name, value in _parsed()}


def test_parsed_values_are_pinned():
    pinned = json.loads((Path(__file__).parent / "parsed_reprs.json").read_text())
    assert len(pinned) == 2 + 2 + 16 + 80 + 50
    assert _digests() == pinned


def test_readme_lists_the_behaviour_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [paragraph] = [p for p in readme.split("\n\n") if p.startswith("`behaviour` holds")]
    for key in [*BEHAVIOUR, "decline_eta_s"]:
        assert f"`{key}`" in paragraph, key
