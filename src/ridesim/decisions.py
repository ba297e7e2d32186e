"""Pluggable agent decision modules.

Every choice point in the traveller, driver and platform routines calls a
hook from a DecisionSet, always on a real agent's state. Hooks are pure
functions of a context, an immutable ``NamedTuple`` carrying read-only views,
the read-only behaviour parameter map and the run's decision random
sub-stream; replacing one never requires touching the engine. A context is
also indexable and iterable in field order, and ``ctx._replace(...)``
returns a changed copy.

The engine checks every answer: ``f_driver_out``, ``f_driver_decline``,
``f_trav_out`` and ``f_trav_mode`` return True or False, ``f_platform_choice``
an index into its offers, ``f_driver_repos`` None or a node id, and
``f_match`` an iterable of distinct (request_id, driver_id) pairs of waiting
requests and idle drivers. A bad answer stops the run with a
``SimulationError``: ``t=<time>: <slot> returned <answer> for <agent>,
expected <what>``.

Modules are selected by name from scenario config, e.g.
``"decisions": {"f_trav_mode": "max_wait"}``. User code can add its own with
:func:`register`.
"""

import inspect
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, NamedTuple, Optional

import numpy as np

from ridesim import platforms
from ridesim.errors import ConfigError
from ridesim.platforms import Offer
from ridesim.scenario import DECISION_SLOTS, DriverSpec, Request


# ----------------------------------------------------------- hook contexts

class DriverOutCtx(NamedTuple):
    """Day-start participation choice for one driver."""
    driver_id: int
    spec: DriverSpec
    day: int
    learned_income_per_hour: Optional[float]    # None on day 0
    participated_yesterday: Optional[bool]
    params: Mapping
    rng: np.random.Generator


class DriverDeclineCtx(NamedTuple):
    """Accept-or-decline choice for a matched request."""
    driver_id: int
    spec: DriverSpec
    position: int
    request: Request
    platform_id: int
    pickup_eta: float
    fare: float
    payout: float
    params: Mapping
    rng: np.random.Generator


class DriverReposCtx(NamedTuple):
    """Idle-driver repositioning choice, made after each completed ride.

    ``open_requests`` maps an origin node to the number of requests waiting
    there (nodes with none are absent). It is a read-only live view of the
    engine's queue counts, valid only during the call: copy it to keep it.
    """
    driver_id: int
    position: int
    open_requests: Mapping      # node -> count of currently waiting requests
    n_nodes: int
    params: Mapping
    rng: np.random.Generator


class TravOutCtx(NamedTuple):
    """Opt-out-before-requesting choice."""
    traveller_id: int
    request: Request
    day: int
    yesterday_outcome: Optional[str]
    params: Mapping
    rng: np.random.Generator


class TravModeCtx(NamedTuple):
    """Accept-or-reject choice on the offer picked by f_platform_choice."""
    traveller_id: int
    offer: Offer
    params: Mapping
    rng: np.random.Generator


class PlatformChoiceCtx(NamedTuple):
    """Choice among simultaneous offers from competing platforms."""
    traveller_id: int
    offers: tuple
    params: Mapping
    rng: np.random.Generator


class MatchCtx(NamedTuple):
    """One platform's matching problem at an instant pass or window boundary.

    The hook runs on instant passes (instant platforms) or at window
    boundaries (batched platforms), and only when the platform has an idle
    driver and a request waits. ``requests`` holds the waiting requests in
    (t_request, request_id) order. ``idle`` and ``positions`` are read-only
    live views of the engine's idle drivers, valid only during the call.
    """
    platform_id: int
    mode: str                   # "instant" or "batched"
    requests: tuple             # waiting Request objects, (t_request, id) order
    idle: AbstractSet           # idle driver ids
    positions: Mapping          # idle driver_id -> node
    excluded: frozenset         # (request_id, driver_id) pairs barred this pass
    skim: object
    params: Mapping
    rng: np.random.Generator


@dataclass(frozen=True)
class DecisionSet:
    f_driver_out: Callable
    f_driver_decline: Callable
    f_driver_repos: Callable
    f_trav_out: Callable
    f_trav_mode: Callable
    f_platform_choice: Callable
    f_match: Callable


# ---------------------------------------------------------------- defaults

def default_driver_out(ctx: DriverOutCtx) -> bool:
    """Day 0: everyone works. Later days: stay in while smoothed income
    clears the reservation wage ``behaviour.reservation_wage_per_hour``; a
    driver who was out re-enters with the exploration probability
    ``behaviour.epsilon``."""
    if ctx.day == 0 or ctx.learned_income_per_hour is None:
        return False
    if ctx.learned_income_per_hour >= ctx.params["reservation_wage_per_hour"]:
        return False
    if ctx.participated_yesterday:
        return True
    return not bool(ctx.rng.random() < ctx.params["epsilon"])


def default_driver_decline(ctx: DriverDeclineCtx) -> bool:
    return False


def decline_far_pickup(ctx: DriverDeclineCtx) -> bool:
    """Decline when the pickup leg exceeds behaviour.decline_eta_s."""
    return ctx.pickup_eta > ctx.params["decline_eta_s"]


def default_driver_repos(ctx: DriverReposCtx) -> Optional[int]:
    return None


def repos_to_demand(ctx: DriverReposCtx) -> Optional[int]:
    """Head for the node with the most waiting requests; ties go to the
    lowest node id; stay put when nothing waits or already there."""
    best = None
    best_count = 0
    for node in sorted(ctx.open_requests):
        count = ctx.open_requests[node]
        if count > best_count:
            best, best_count = node, count
    if best is None or best == ctx.position:
        return None
    return best


def default_trav_out(ctx: TravOutCtx) -> bool:
    return False


def opt_out_if_unserved(ctx: TravOutCtx) -> bool:
    """Skip requesting after going unserved the previous day."""
    return ctx.yesterday_outcome == "UNSERVED"


def default_trav_mode(ctx: TravModeCtx) -> bool:
    """Accept, unless behaviour.max_wait_s is set and the pickup estimate
    exceeds it (the boundary itself is acceptable). Also registered as the
    ``max_wait`` module, which requires behaviour.max_wait_s."""
    max_wait = ctx.params.get("max_wait_s")
    if max_wait is None:
        return True
    return ctx.offer.pickup_eta <= max_wait


def default_platform_choice(ctx: PlatformChoiceCtx) -> int:
    """Cheapest offer; ties by shorter pickup, then lower platform id."""
    best = 0
    for i in range(1, len(ctx.offers)):
        a, b = ctx.offers[i], ctx.offers[best]
        if (a.fare, a.pickup_eta, a.platform_id) < (b.fare, b.pickup_eta, b.platform_id):
            best = i
    return best


def default_match(ctx: MatchCtx) -> list:
    """Built-in matcher: first-come-first-served closest-driver pairing in
    instant mode, the optimal bipartite assignment in batched mode. Returns
    (request_id, driver_id) pairs."""
    if ctx.mode == "batched":
        assignment = platforms.match_batch(
            ctx.requests, ctx.idle, ctx.positions, ctx.skim)
        return [p for p in assignment.pairs if p not in ctx.excluded]
    barred = {}
    for rid, d in ctx.excluded:
        barred.setdefault(rid, set()).add(d)
    pairs = []
    available = set(ctx.idle)
    for request in ctx.requests:
        if not available:
            break
        driver = platforms.match_instant(
            request, available, ctx.positions, ctx.skim,
            frozenset(barred.get(request.request_id, ())),
        )
        if driver is not None:
            pairs.append((request.request_id, driver))
            available.discard(driver)
    return pairs


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class _Module:
    fn: Callable
    requires: tuple


_REGISTRY: dict = {}


def register(slot: str, name: str, fn: Callable, requires: tuple = ()) -> None:
    """Make a decision module selectable from config by (slot, name).

    The function must accept exactly one positional argument (the context).
    Re-registering a (slot, name) pair replaces the module.
    """
    if slot not in DECISION_SLOTS:
        raise ConfigError(f"decisions.{slot}", "unknown decision hook")
    sig = inspect.signature(fn)
    positional = [
        p for p in sig.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.default is p.empty
    ]
    if len(positional) != 1:
        raise ConfigError(
            f"decisions.{slot}",
            f'module "{name}" must take exactly one positional argument, '
            f"got signature {sig}",
        )
    _REGISTRY[(slot, name)] = _Module(fn=fn, requires=tuple(requires))


def available_modules(slot: str) -> list:
    return sorted(name for s, name in _REGISTRY if s == slot)


for _slot, _name, _fn, _requires in [
    ("f_driver_out", "default", default_driver_out, ()),
    ("f_driver_out", "learned_participation", default_driver_out, ()),
    ("f_driver_decline", "default", default_driver_decline, ()),
    ("f_driver_decline", "decline_far_pickup", decline_far_pickup, ("decline_eta_s",)),
    ("f_driver_repos", "default", default_driver_repos, ()),
    ("f_driver_repos", "repos_to_demand", repos_to_demand, ()),
    ("f_trav_out", "default", default_trav_out, ()),
    ("f_trav_out", "opt_out_if_unserved", opt_out_if_unserved, ()),
    ("f_trav_mode", "default", default_trav_mode, ()),
    ("f_trav_mode", "max_wait", default_trav_mode, ("max_wait_s",)),
    ("f_platform_choice", "default", default_platform_choice, ()),
    ("f_match", "default", default_match, ()),
]:
    register(_slot, _name, _fn, _requires)


def build_decision_set(selection: Mapping, behaviour: Mapping) -> DecisionSet:
    """Resolve config module names into a fully populated DecisionSet.

    Unnamed slots get their defaults. Raises a config error for unknown
    module names and for missing behaviour scalars a chosen module requires.
    """
    selection = selection or {}
    chosen = {}
    for slot in DECISION_SLOTS:
        name = selection.get(slot, "default")
        module = _REGISTRY.get((slot, name))
        if module is None:
            raise ConfigError(
                f"decisions.{slot}",
                f'unknown module "{name}"; available: '
                f"{', '.join(available_modules(slot))}",
            )
        for param in module.requires:
            if param not in behaviour:
                raise ConfigError(
                    f"decisions.{slot}",
                    f'module "{name}" requires behaviour.{param}',
                )
        chosen[slot] = module.fn
    return DecisionSet(**chosen)
