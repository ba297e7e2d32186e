"""Decision hook and registry tests, including the documented boundary rules."""

import numpy as np
import pytest

from ridesim import platforms
from ridesim.decisions import (
    DecisionSet,
    DriverDeclineCtx,
    DriverOutCtx,
    DriverReposCtx,
    MatchCtx,
    PlatformChoiceCtx,
    TravModeCtx,
    TravOutCtx,
    build_decision_set,
    decline_far_pickup,
    default_driver_decline,
    default_driver_out,
    default_driver_repos,
    default_match,
    default_platform_choice,
    default_trav_mode,
    default_trav_out,
    opt_out_if_unserved,
    register,
    repos_to_demand,
)
from ridesim.errors import ConfigError
from ridesim.netgraph import build_skim, grid_city
from ridesim.platforms import Offer
from ridesim.scenario import DriverSpec, Request


def rng_at(seed=0):
    return np.random.default_rng(seed)


def driver_spec():
    return DriverSpec(0, 0, 0.0, 14400.0, (0,))


def out_ctx(day, learned, yesterday, wage=10.0, seed=0, params=None):
    return DriverOutCtx(
        driver_id=0, spec=driver_spec(), day=day,
        learned_income_per_hour=learned, participated_yesterday=yesterday,
        params={"reservation_wage_per_hour": wage, **(params or {})},
        rng=rng_at(seed),
    )


def offer(fare=5.0, eta=100.0, platform_id=0, driver_id=1, request_id=0):
    return Offer(platform_id=platform_id, driver_id=driver_id,
                 request_id=request_id, pickup_eta=eta, trip_time=300.0,
                 trip_distance=3000.0, fare=fare)


# ------------------------------------------------------------ f_driver_out

def test_driver_out_day_zero_everyone_works():
    for i in range(20):
        ctx = out_ctx(day=0, learned=None, yesterday=None, seed=i)
        assert default_driver_out(ctx) is False


def test_driver_out_below_threshold_stays_out():
    # previously out, exploration draw above epsilon: remains out
    ctx = out_ctx(day=3, learned=5.0, yesterday=False, wage=10.0,
                  params={"epsilon": 0.0})
    assert default_driver_out(ctx) is True


def test_driver_out_above_threshold_participates():
    ctx = out_ctx(day=3, learned=12.0, yesterday=True, wage=10.0)
    assert default_driver_out(ctx) is False


def test_driver_out_threshold_boundary_inclusive():
    ctx = out_ctx(day=1, learned=10.0, yesterday=True, wage=10.0)
    assert default_driver_out(ctx) is False


def test_driver_out_participant_below_threshold_drops_out_without_draw():
    ctx = out_ctx(day=2, learned=1.0, yesterday=True, wage=10.0,
                  params={"epsilon": 1.0})
    assert default_driver_out(ctx) is True


def test_driver_out_reentry_probability_one():
    ctx = out_ctx(day=2, learned=1.0, yesterday=False, wage=10.0,
                  params={"epsilon": 1.0})
    assert default_driver_out(ctx) is False


def test_driver_out_is_deterministic_given_stream():
    results = [
        default_driver_out(out_ctx(day=2, learned=1.0, yesterday=False, seed=99,
                                   params={"epsilon": 0.5}))
        for _ in range(5)
    ]
    assert len(set(results)) == 1


# -------------------------------------------------------- f_driver_decline

def decline_ctx(eta, params=None):
    return DriverDeclineCtx(
        driver_id=0, spec=driver_spec(), position=0,
        request=Request(0, 0, 1, 2, 0.0), platform_id=0,
        pickup_eta=eta, fare=5.0, payout=4.0, params=params or {}, rng=rng_at(),
    )


def test_decline_default_accepts_everything():
    assert default_driver_decline(decline_ctx(1e9)) is False


def test_decline_far_pickup_boundary():
    params = {"decline_eta_s": 600.0}
    assert decline_far_pickup(decline_ctx(700.0, params)) is True
    assert decline_far_pickup(decline_ctx(300.0, params)) is False
    assert decline_far_pickup(decline_ctx(600.0, params)) is False


# ---------------------------------------------------------- f_driver_repos

def repos_ctx(position, open_requests):
    return DriverReposCtx(driver_id=0, position=position,
                          open_requests=open_requests, n_nodes=10,
                          params={}, rng=rng_at())


def test_repos_default_stays_put():
    assert default_driver_repos(repos_ctx(0, {3: 5})) is None


def test_repos_to_demand_tie_breaks_to_lowest_node():
    assert repos_to_demand(repos_ctx(0, {7: 2, 3: 2})) == 3


def test_repos_to_demand_no_open_requests():
    assert repos_to_demand(repos_ctx(0, {})) is None
    assert repos_to_demand(repos_ctx(0, {4: 0})) is None


def test_repos_to_demand_already_there():
    assert repos_to_demand(repos_ctx(3, {3: 4, 8: 1})) is None


def test_repos_to_demand_picks_busiest():
    assert repos_to_demand(repos_ctx(0, {2: 1, 5: 9, 8: 3})) == 5


# -------------------------------------------------------------- f_trav_out

def trav_out_ctx(yesterday):
    return TravOutCtx(traveller_id=0, request=Request(0, 0, 1, 2, 0.0),
                      day=1, yesterday_outcome=yesterday, params={}, rng=rng_at())


def test_trav_out_default():
    assert default_trav_out(trav_out_ctx("UNSERVED")) is False


def test_opt_out_if_unserved():
    assert opt_out_if_unserved(trav_out_ctx("UNSERVED")) is True
    assert opt_out_if_unserved(trav_out_ctx("ARRIVED")) is False
    assert opt_out_if_unserved(trav_out_ctx(None)) is False


# ------------------------------------------------------------- f_trav_mode

def mode_ctx(eta, params=None):
    return TravModeCtx(traveller_id=0, offer=offer(eta=eta),
                       params=params or {}, rng=rng_at())


def test_mode_default_accepts():
    assert default_trav_mode(mode_ctx(1e9)) is True


def test_mode_default_honours_max_wait_when_configured():
    assert default_trav_mode(mode_ctx(601.0, {"max_wait_s": 600.0})) is False
    assert default_trav_mode(mode_ctx(600.0, {"max_wait_s": 600.0})) is True


def test_max_wait_module_boundary():
    params = {"max_wait_s": 600.0}
    max_wait = build_decision_set({"f_trav_mode": "max_wait"}, params).f_trav_mode
    assert max_wait is default_trav_mode
    assert max_wait(mode_ctx(601.0, params)) is False
    assert max_wait(mode_ctx(600.0, params)) is True


# ------------------------------------------------------- f_platform_choice

def choice_ctx(offers):
    return PlatformChoiceCtx(traveller_id=0, offers=tuple(offers), params={},
                             rng=rng_at())


def test_choice_min_fare():
    assert default_platform_choice(choice_ctx([offer(fare=5.0), offer(fare=4.0)])) == 1


def test_choice_tie_breaks_on_eta():
    offers = [offer(fare=4.0, eta=120.0), offer(fare=4.0, eta=60.0)]
    assert default_platform_choice(choice_ctx(offers)) == 1


def test_choice_tie_breaks_on_platform_id():
    offers = [offer(fare=4.0, eta=60.0, platform_id=2),
              offer(fare=4.0, eta=60.0, platform_id=1)]
    assert default_platform_choice(choice_ctx(offers)) == 1


def test_choice_single_offer():
    assert default_platform_choice(choice_ctx([offer()])) == 0


def test_choice_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        fares = rng.uniform(1.0, 20.0, size=int(rng.integers(1, 6)))
        etas = rng.uniform(0.0, 900.0, size=len(fares))
        offers = [offer(fare=float(f), eta=float(e), platform_id=i)
                  for i, (f, e) in enumerate(zip(fares, etas))]
        scale = float(rng.uniform(0.1, 50.0))
        scaled = [offer(fare=float(f * scale), eta=float(e), platform_id=i)
                  for i, (f, e) in enumerate(zip(fares, etas))]
        assert default_platform_choice(choice_ctx(offers)) == \
            default_platform_choice(choice_ctx(scaled))


# ----------------------------------------------------------------- f_match

def match_ctx(mode, requests, positions, skim, excluded=frozenset()):
    return MatchCtx(platform_id=0, mode=mode, requests=tuple(requests),
                    idle=frozenset(positions), positions=positions,
                    excluded=excluded, skim=skim, params={}, rng=rng_at())


def test_default_match_instant_is_fifo_closest():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    requests = [Request(0, 0, 0, 8, 5.0), Request(1, 1, 2, 6, 7.0)]
    positions = {10: 1, 11: 1}
    pairs = default_match(match_ctx("instant", requests, positions, skim))
    # earliest request first, closest (tie: lowest id) driver; then the next
    assert pairs == [(0, 10), (1, 11)]


def test_default_match_instant_respects_exclusions():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    requests = [Request(0, 0, 0, 8, 5.0)]
    positions = {10: 1, 11: 4}
    pairs = default_match(match_ctx("instant", requests, positions, skim,
                                    excluded=frozenset({(0, 10)})))
    assert pairs == [(0, 11)]


def test_default_match_instant_leaves_unmatchable_waiting():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    requests = [Request(0, 0, 0, 8, 5.0), Request(1, 1, 2, 6, 7.0)]
    positions = {10: 1}
    pairs = default_match(match_ctx("instant", requests, positions, skim))
    assert pairs == [(0, 10)]


def full_scan_instant(ctx):
    """The instant loop before it stopped early: every waiting request is
    scanned, and its barred drivers are filtered from the whole excluded
    set."""
    pairs = []
    available = set(ctx.idle)
    for request in ctx.requests:
        barred = frozenset(
            d for (rid, d) in ctx.excluded if rid == request.request_id
        )
        driver = platforms.match_instant(
            request, available, ctx.positions, ctx.skim, barred
        )
        if driver is not None:
            pairs.append((request.request_id, driver))
            available.discard(driver)
    return pairs


def test_default_match_instant_equals_full_scan():
    skim = build_skim(grid_city(4, 4, 100.0, 10.0))
    rng = rng_at(17)
    shapes = {"fewer drivers": 0, "no drivers": 0, "excluded": 0}
    for case in range(600):
        n_req = int(rng.integers(0, 12))
        n_drv = 0 if case % 7 == 0 else int(rng.integers(1, 10))
        requests = sorted(
            (Request(rid, rid, int(rng.integers(16)), 0,
                     float(rng.integers(0, 5)))
             for rid in rng.choice(100, size=n_req, replace=False).tolist()),
            key=lambda r: (r.t_request, r.request_id),
        )
        positions = {int(d): int(rng.integers(16))
                     for d in rng.choice(50, size=n_drv, replace=False)}
        excluded = frozenset(
            (r.request_id, d) for r in requests for d in positions
            if rng.random() < 0.3
        ) | frozenset({(999, 0)})           # a pair naming no waiting request
        ctx = match_ctx("instant", requests, positions, skim, excluded)
        assert default_match(ctx) == full_scan_instant(ctx), case
        shapes["fewer drivers"] += n_req > n_drv > 0
        shapes["no drivers"] += n_drv == 0
        shapes["excluded"] += len(excluded) > 1
    assert min(shapes.values()) >= 50, shapes


def test_default_match_batched_minimizes_total():
    skim = build_skim(grid_city(2, 4, 100.0, 10.0))
    # drivers at nodes 0 and 3; requests at 1 and 2: optimal pairs are
    # (request at 1, driver at 0) and (request at 2, driver at 3)
    requests = [Request(0, 0, 1, 5, 5.0), Request(1, 1, 2, 5, 6.0)]
    positions = {20: 0, 21: 3}
    pairs = default_match(match_ctx("batched", requests, positions, skim))
    assert sorted(pairs) == [(0, 20), (1, 21)]


# ------------------------------------------------------------ context types

CONTEXT_FIELDS = [
    (lambda: out_ctx(1, 5.0, True),
     ("driver_id", "spec", "day", "learned_income_per_hour",
      "participated_yesterday", "params", "rng")),
    (lambda: decline_ctx(100.0),
     ("driver_id", "spec", "position", "request", "platform_id", "pickup_eta",
      "fare", "payout", "params", "rng")),
    (lambda: repos_ctx(0, {3: 1}),
     ("driver_id", "position", "open_requests", "n_nodes", "params", "rng")),
    (lambda: trav_out_ctx(None),
     ("traveller_id", "request", "day", "yesterday_outcome", "params", "rng")),
    (lambda: mode_ctx(100.0),
     ("traveller_id", "offer", "params", "rng")),
    (lambda: choice_ctx([offer()]),
     ("traveller_id", "offers", "params", "rng")),
    (lambda: match_ctx("instant", [Request(0, 0, 0, 8, 5.0)], {10: 1}, None),
     ("platform_id", "mode", "requests", "idle", "positions", "excluded",
      "skim", "params", "rng")),
    (offer,
     ("platform_id", "driver_id", "request_id", "pickup_eta", "trip_time",
      "trip_distance", "fare")),
]


@pytest.mark.parametrize("make,fields", CONTEXT_FIELDS, ids=[
    "DriverOutCtx", "DriverDeclineCtx", "DriverReposCtx", "TravOutCtx",
    "TravModeCtx", "PlatformChoiceCtx", "MatchCtx", "Offer"])
def test_context_is_an_immutable_named_tuple(make, fields):
    ctx = make()
    before = tuple(ctx)
    assert type(ctx)._fields == fields
    assert tuple(ctx) == tuple(getattr(ctx, f) for f in fields)
    assert ctx[0] == getattr(ctx, fields[0])
    with pytest.raises(AttributeError):
        setattr(ctx, fields[0], 99)
    with pytest.raises(AttributeError):
        ctx.not_a_field = 1
    changed = ctx._replace(**{fields[0]: 99})
    assert getattr(changed, fields[0]) == 99
    assert type(changed) is type(ctx) and changed[1:] == ctx[1:]
    assert all(now is was for now, was in zip(ctx, before))


# ---------------------------------------------------------------- registry

def test_build_decision_set_defaults():
    ds = build_decision_set({}, {})
    assert isinstance(ds, DecisionSet)
    assert ds.f_trav_mode is default_trav_mode
    assert ds.f_match is default_match


def test_build_decision_set_by_name():
    ds = build_decision_set(
        {"f_trav_mode": "max_wait", "f_driver_repos": "repos_to_demand"},
        {"max_wait_s": 600.0},
    )
    assert ds.f_trav_mode is default_trav_mode
    assert ds.f_driver_repos is repos_to_demand


def test_build_decision_set_unknown_module():
    with pytest.raises(ConfigError, match="f_trav_mode"):
        build_decision_set({"f_trav_mode": "nope"}, {})


def test_build_decision_set_missing_required_param():
    with pytest.raises(ConfigError, match="max_wait_s"):
        build_decision_set({"f_trav_mode": "max_wait"}, {})
    with pytest.raises(ConfigError, match="decline_eta_s"):
        build_decision_set({"f_driver_decline": "decline_far_pickup"}, {})


def test_register_custom_module():
    def always_decline(ctx):
        return True

    register("f_driver_decline", "test_always_decline", always_decline)
    ds = build_decision_set({"f_driver_decline": "test_always_decline"}, {})
    assert ds.f_driver_decline is always_decline


def test_register_rejects_bad_signature():
    with pytest.raises(ConfigError, match="one positional"):
        register("f_trav_out", "test_bad", lambda a, b: True)
    with pytest.raises(ConfigError, match="one positional"):
        register("f_trav_out", "test_bad2", lambda: True)


def test_register_rejects_unknown_slot():
    with pytest.raises(ConfigError, match="f_nonsense"):
        register("f_nonsense", "x", lambda ctx: None)
