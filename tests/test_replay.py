"""The one-walk KPI path against the oracles in ``tests.kpi_oracle``.

``kpi.validate_log`` walks a log once and the builders read its replay;
the oracles validate, group and sum the same log in four walks, and place
travellers and drivers on nodes from the run's requests and driver specs.
On every log below both must give the same rows, field by field and float
by float, and the same system dict with its keys in the same order; on
broken logs both must raise the same ``LogValidationError`` message.
"""

import json

import numpy as np
import pytest

from ridesim import kpi, presets
from ridesim.errors import LogValidationError
from ridesim.experiments import day_to_day
from ridesim.scenario import materialize, parse_config

from tests import kpi_oracle
from tests.test_acceptance import c4_variants, random_scenario_raw, run_config


def _differences(config, logs):
    """The differences on each day's log of a ``day_to_day`` run, whose
    inputs ``materialize(config)`` builds again."""
    inputs, bad = materialize(config), []
    for day, log in enumerate(logs):
        bad += kpi_oracle.replay_differences(log, day, config.platforms, inputs)
    return bad


def _days(config, days):
    logs = []
    res = day_to_day(config, max_days=days, on_day=logs.append)
    return res, logs


def _preset(name, **changes):
    raw = json.loads(presets.read_text(name))
    raw.update(changes)
    return parse_config(raw)


def test_c4_variants_match_the_oracles():
    for raw in c4_variants():
        config, inputs, result = run_config(raw)
        assert not kpi_oracle.replay_differences(
            result.log, result.day, config.platforms, inputs), raw


def test_c9_random_scenarios_match_the_oracles(tmp_path):
    rng = np.random.default_rng(99)     # the 300 scenarios c9 runs
    for _ in range(300):
        raw = random_scenario_raw(rng, tmp_path)
        config, inputs, result = run_config(raw)
        assert not kpi_oracle.replay_differences(
            result.log, result.day, config.platforms, inputs), raw
        # the events.csv of the log: the row-at-a-time writer's bytes, and
        # read back, the same records
        path, rows = tmp_path / "events.csv", tmp_path / "rows.csv"
        for name, write in ((path, kpi.write_events_csv), (rows, kpi_oracle.write_events_csv)):
            with kpi.open_events_csv(name) as fh:
                write(fh, result.log)
        assert path.read_bytes() == rows.read_bytes(), raw
        assert kpi.read_events_csv(path) == result.log, raw


def test_e1_matches_the_oracles():
    config = _preset("e1")
    _, logs = _days(config, 1)
    assert not _differences(config, logs)


def test_e4_days_match_the_oracles():
    config = _preset("e4")
    _, logs = _days(config, 8)
    assert len(logs) >= 6
    assert not _differences(config, logs)


def test_opt_out_days_match_the_oracles():
    # travellers left unserved one day opt out the next: no request, and
    # no wait, at their origin
    config = _preset("e1", n_drivers=2, horizon_s=1800,
                     decisions={"f_trav_out": "opt_out_if_unserved"})
    _, logs = _days(config, 3)
    assert any(rec.agent_kind == "TRAVELLER" and rec.event == "OPTS_OUT" for rec in logs[1])
    assert not _differences(config, logs)


def test_batched_two_platform_day_matches_the_oracles():
    config = _preset("e1", platforms=[
        {"platform_id": 0, "base_fare": 1.0, "fare_per_km": 1.0,
         "commission_rate": 0.2, "matching": {"batched": {"window_s": 30}}, "fleet": 4},
        {"platform_id": 1, "base_fare": 0.5, "fare_per_km": 1.1,
         "commission_rate": 0.15, "matching": "instant"},
    ], behaviour={"max_wait_s": 400, "decline_eta_s": 300, "t_board_s": 10,
                  "t_alight_s": 10, "service_variability": 0.2},
        decisions={"f_trav_mode": "max_wait", "f_driver_decline": "decline_far_pickup",
                   "f_driver_repos": "repos_to_demand"})
    _, logs = _days(config, 1)
    events = {rec.event for rec in logs[0]}
    assert {"BATCH_MATCH", "MATCH", "STARTS_REPOSITIONING"} <= events
    assert not _differences(config, logs)


def test_empty_log_matches_the_oracles():
    config = _preset("e1")
    assert not kpi_oracle.replay_differences([], 0, config.platforms, materialize(config))
    replay = kpi.validate_log([])
    assert kpi.traveller_kpis(replay) == kpi.driver_kpis(replay) == []


def test_stored_log_matches_the_oracles(tmp_path):
    config = _preset("e1")
    _, logs = _days(config, 1)
    path = tmp_path / "events.csv"
    with kpi.open_events_csv(path) as fh:
        kpi.write_events_csv(fh, logs[0])
    back = kpi.read_events_csv(path)
    assert not _differences(config, [back])


def _mutants(log, rng, n):
    """``n`` copies of ``log``, each broken or reshuffled once (or left
    whole, when the change drawn does not apply)."""
    records = list(log)
    for _ in range(n):
        out = list(records)
        i = int(rng.integers(0, len(out)))
        how = rng.integers(0, 5)
        if how == 0:
            del out[i]
        elif how == 1 and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        elif how == 2:
            out = out[:i]
        elif how == 3:
            # another event whose detail fields the record carries, as a
            # stored log's row would
            event = records[int(rng.integers(0, len(records)))].event
            if all(getattr(out[i], key) is not None for key in kpi._META_KEYS.get(event, ())):
                out[i] = out[i]._replace(event=event)
        else:
            out[i] = out[i]._replace(agent_kind=str(rng.choice(
                ["TRAVELLER", "DRIVER", "PLATFORM", "ROBOT"])))
        yield out


def _outcome(validate, log):
    try:
        validate(log)
    except LogValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("days", [1, 3])
def test_broken_logs_fail_as_the_oracle_does(days):
    config = _preset("e4", n_travellers=30, n_drivers=12)
    _, logs = _days(config, days)
    log = [rec for day in logs for rec in day]
    rng = np.random.default_rng(days)
    rejected = 0
    for mutant in _mutants(log, rng, 400):
        want = _outcome(kpi_oracle.validate_log, mutant)
        assert _outcome(kpi.validate_log, mutant) == want
        rejected += want is not None
    assert rejected > 100
