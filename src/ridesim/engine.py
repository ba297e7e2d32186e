"""The discrete-event core: clock, event queue, agent routines, event log.

One run simulates a single day. Travellers plan, request, receive offers and
ride; drivers work shifts, serve matched requests and optionally reposition;
platforms match the one queue of waiting requests with their own idle
drivers, instantly or per batch window. Every observable step appends to an
event log from which all KPIs derive.

Event ordering: the queue pops by (time, phase, agent kind, agent id, seq).
Phases at one timestamp run state changes first (arrivals, shift edges),
then platform matching, then traveller reactions to offers, then the horizon
wrap-up, so matching always sees every state change at time t before agents
react to its outcome. Boarding and alighting that take no time run inline
in the step that starts them instead of going through the queue: nothing
can sort between the two steps, so the order is the same.
"""

import bisect
import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from ridesim import platforms as plat
from ridesim.decisions import (
    DecisionSet,
    DriverDeclineCtx,
    DriverOutCtx,
    DriverReposCtx,
    MatchCtx,
    PlatformChoiceCtx,
    TravModeCtx,
    TravOutCtx,
)
from ridesim.errors import RidesimError, SimulationError
from ridesim.platforms import PlatformState
from ridesim.scenario import ScenarioConfig, ScenarioInputs
from ridesim.seeds import substream
from ridesim.util import fmt_num

TRAVELLER = "TRAVELLER"
DRIVER = "DRIVER"
PLATFORM = "PLATFORM"
_KIND_RANK = {PLATFORM: 0, DRIVER: 1, TRAVELLER: 2}

# phases within one timestamp
_PH_STATE = 0      # arrivals, shift edges, request submissions
_PH_MATCH = 1      # platform matching passes and batch boundaries
_PH_REACT = 2      # travellers resolving their pending offers
_PH_FINAL = 3      # horizon wrap-up

# traveller statuses a day may end in
_FINAL_STATUSES = {"arrived", "opted_out", "unserved", "rejected_waiting"}

# hooks whose answer must be True or False, checked in ``_Sim.hook``
_YES_NO = frozenset({"f_driver_out", "f_trav_out", "f_driver_decline", "f_trav_mode"})


def _is_index(answer, n):
    """Whether a hook's answer is an int in [0, n); a bool is not."""
    return isinstance(answer, int) and not isinstance(answer, bool) and 0 <= answer < n


class EventRecord(NamedTuple):
    """One logged transition. The optional fields carry the event's details;
    ``kpi`` owns which of them each event writes to the ``meta`` column."""
    day: int
    t: float
    agent_kind: str
    agent_id: int
    event: str
    node: int
    request_id: Optional[int] = None
    platform_id: Optional[int] = None
    driver_id: Optional[int] = None
    eta_s: Optional[float] = None
    fare: Optional[float] = None
    payout: Optional[float] = None
    cut: Optional[float] = None
    dist_m: Optional[float] = None
    target: Optional[int] = None
    reason: Optional[str] = None


_NO_DETAIL = (None,) * 10   # blanks that pad positional details up to a later field


@dataclass(frozen=True)
class DriverCarry:
    """Cross-day driver memory fed back into f_driver_out."""
    learned_income: Optional[float]
    participated_yesterday: Optional[bool]


@dataclass(frozen=True)
class DayState:
    """What a day learns from the days before it: driver id -> DriverCarry,
    and traveller id -> yesterday's outcome (``kpi.TravellerKpi.outcome``)."""
    drivers: Mapping = field(default_factory=dict)
    traveller_outcomes: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class DayResult:
    """One simulated day. Participation, earnings and traveller outcomes are
    read from ``log`` by the ``kpi`` builders."""
    day: int
    log: tuple


class _TravellerSim:
    __slots__ = ("request", "status", "offers", "rejections")

    def __init__(self, request):
        self.request = request
        self.status = "planning"
        self.offers = []
        self.rejections = 0


class _DriverSim:
    __slots__ = ("spec", "position", "wants_off", "serving")

    def __init__(self, spec):
        self.spec = spec
        self.position = spec.home_node
        self.wants_off = False
        self.serving = None           # request currently aboard or en route


def run_day(
    config: ScenarioConfig,
    inputs: ScenarioInputs,
    decisions: DecisionSet,
    day: int = 0,
    day_state: DayState = DayState(),
) -> DayResult:
    """Simulate one day; returns the day and its event log.

    Identical (config, inputs, decisions, day, day_state) produce an
    identical log. Hooks draw only from the day's decision sub-stream.
    """
    return _Sim(config, inputs, decisions, day, day_state).run()


class _Sim:
    def __init__(self, config, inputs, decisions, day, day_state):
        self.inputs = inputs
        self.decisions = decisions
        self.day = day
        self.day_state = day_state
        self.skim = inputs.skim
        self.horizon = config.horizon_s
        self.params = MappingProxyType(dict(config.behaviour))
        self.rng = substream(config.seed, "decisions", day)
        self.log = []
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.platforms = {      # platform id -> state, in id order
            p.platform_id: PlatformState(spec=p)
            for p in sorted(config.platforms, key=lambda p: p.platform_id)
        }
        self.travellers = {     # request id -> traveller, in traveller id order
            r.request_id: _TravellerSim(r)
            for r in sorted(inputs.requests, key=lambda r: r.traveller_id)
        }
        self.drivers = {d.driver_id: _DriverSim(d) for d in inputs.drivers}
        # the one request queue every platform matches from
        self.waiting = []              # Requests, (t_request, request_id) order
        self.waiting_keys = []         # their (t_request, request_id), index for index
        self.waiting_ids = set()       # request ids in ``waiting``
        self.open_counts = {}          # origin node -> requests waiting there
        self.open_view = MappingProxyType(self.open_counts)
        self.excluded = set()          # (request_id, driver_id), cleared per timestamp
        self.excluded_t = 0.0
        self.resolve_pending = None    # timestamp of a scheduled instant pass
        # states of the platforms an instant pass matches, in id order
        self.instant = [s for s in self.platforms.values()
                        if s.spec.matching == "instant"]
        self.last_boundary = {}        # platform id -> timestamp last fired

    # ------------------------------------------------------------ plumbing

    def push(self, t, phase, kind, agent_id, fn):
        heapq.heappush(self.heap, (t, phase, _KIND_RANK[kind], agent_id, self.seq, fn))
        self.seq += 1

    def record(self, kind, agent_id, event, node, *detail):
        """Log one event at the current time; ``detail`` fills the optional
        ``EventRecord`` fields positionally, in field order."""
        self.log.append(EventRecord(
            self.day, self.now, kind, agent_id, event, node, *detail))

    def hook(self, slot, ctx, kind, agent_id):
        """Call one decision hook for one agent; the only place the engine
        calls a hook. An exception it raises that is not a ``RidesimError``
        becomes a ``SimulationError`` naming the slot, the agent and the
        simulated time, chained from the original. A yes/no hook's answer
        must be True or False; f_match's must be iterable, and is returned as
        a list; callers check the other answers."""
        try:
            answer = getattr(self.decisions, slot)(ctx)
            if slot == "f_match":
                try:
                    it = iter(answer)
                except TypeError:
                    self.bad_answer(slot, answer, kind, agent_id,
                                    "an iterable of (request_id, driver_id) pairs")
                answer = list(it)     # a generator's body runs here, wrapped too
        except RidesimError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"t={fmt_num(self.now)}: {slot} raised {type(exc).__name__} for "
                f"{kind} {agent_id}: {exc}"
            ) from exc
        if slot in _YES_NO and not isinstance(answer, bool):
            self.bad_answer(slot, answer, kind, agent_id, "True or False")
        return answer

    def bad_answer(self, slot, answer, kind, agent_id, expected):
        self.fail(f"{slot} returned {answer!r} for {kind} {agent_id}, "
                  f"expected {expected}")

    def fail(self, message):
        raise SimulationError(f"t={fmt_num(self.now)}: {message}")

    # ------------------------------------------------------------- set-up

    def run(self) -> DayResult:
        carry = self.day_state.drivers
        for d_id in sorted(self.drivers):
            driver = self.drivers[d_id]
            c = carry.get(d_id)
            ctx = DriverOutCtx(
                driver_id=d_id,
                spec=driver.spec,
                day=self.day,
                learned_income_per_hour=c.learned_income if c else None,
                participated_yesterday=c.participated_yesterday if c else None,
                params=self.params,
                rng=self.rng,
            )
            if self.hook("f_driver_out", ctx, "driver", d_id):
                self.push(driver.spec.shift_start, _PH_STATE, DRIVER, d_id,
                          lambda d=driver: self.on_driver_opt_out(d))
            else:
                self.push(driver.spec.shift_start, _PH_STATE, DRIVER, d_id,
                          lambda d=driver: self.on_shift_start(d))
                self.push(driver.spec.shift_end, _PH_STATE, DRIVER, d_id,
                          lambda d=driver: self.on_shift_end(d))
        for r in self.inputs.requests:
            trav = self.travellers[r.request_id]
            self.push(r.t_request, _PH_STATE, TRAVELLER, r.traveller_id,
                      lambda tr=trav: self.on_plan(tr))
        self.push(self.horizon, _PH_FINAL, PLATFORM, 0, self.on_horizon)

        while self.heap:
            t, _, _, _, _, fn = heapq.heappop(self.heap)
            if t < self.now - 1e-9:
                self.fail(f"event time went backwards ({t} < {self.now})")
            self.now = t
            if self.excluded and t != self.excluded_t:
                self.excluded.clear()
            self.excluded_t = t
            fn()
        return self._result()

    def _result(self):
        for trav in self.travellers.values():
            if trav.status not in _FINAL_STATUSES:
                self.fail(f"traveller {trav.request.traveller_id} finished in "
                          f"state {trav.status}")
        return DayResult(day=self.day, log=tuple(self.log))

    # -------------------------------------------------------- driver events

    def on_driver_opt_out(self, driver):
        self.record(DRIVER, driver.spec.driver_id, "OPTS_OUT", driver.position)

    def on_shift_start(self, driver):
        self.record(DRIVER, driver.spec.driver_id, "STARTS_SHIFT", driver.position)
        self._release_driver(driver)

    def on_shift_end(self, driver):
        driver.wants_off = True
        if self._is_idle(driver):
            self._remove_idle(driver)
            self.record(DRIVER, driver.spec.driver_id, "ENDS_SHIFT", driver.position)
        # busy drivers wrap up when their current task releases them

    def _is_idle(self, driver):
        """Whether the driver is free to match: a driver is in all of its
        platforms' idle maps or in none."""
        return any(driver.spec.driver_id in self.platforms[pid].idle
                   for pid in driver.spec.platform_ids)

    def _add_idle(self, driver):
        for pid in driver.spec.platform_ids:
            self.platforms[pid].idle[driver.spec.driver_id] = driver.position

    def _remove_idle(self, driver):
        for pid in driver.spec.platform_ids:
            self.platforms[pid].idle.pop(driver.spec.driver_id, None)

    def _release_driver(self, driver):
        """Put a driver up for matching, or send it home if its shift has
        ended: at shift start, after a ride with nowhere to reposition to,
        on a repositioning arrival, and after a lost or rejected offer."""
        if driver.wants_off:
            self.record(DRIVER, driver.spec.driver_id, "ENDS_SHIFT", driver.position)
            return
        self._add_idle(driver)
        self.schedule_matching()

    def move(self, driver, to_node, on_arrival):
        """Start a leg; the arrival callback receives the leg's skim distance
        and fires after its skim travel time."""
        d_id = driver.spec.driver_id
        dist = float(self.skim.distance[driver.position, to_node])
        tt = float(self.skim.travel_time[driver.position, to_node])
        self.push(self.now + tt, _PH_STATE, DRIVER, d_id,
                  lambda: on_arrival(dist))

    def _timed(self, base_key):
        """Service duration with optional uniform variability."""
        base = float(self.params.get(base_key, 0.0))
        spread = float(self.params.get("service_variability", 0.0))
        if base <= 0.0:
            return 0.0
        if spread <= 0.0:
            return base
        return base * (1.0 + float(self.rng.uniform(-spread, spread)))

    # ----------------------------------------------------- traveller events

    def on_plan(self, trav):
        t_id = trav.request.traveller_id
        self.record(TRAVELLER, t_id, "PLANS", trav.request.origin)
        ctx = TravOutCtx(
            traveller_id=t_id, request=trav.request, day=self.day,
            yesterday_outcome=self.day_state.traveller_outcomes.get(t_id),
            params=self.params, rng=self.rng,
        )
        if self.hook("f_trav_out", ctx, "traveller", t_id):
            trav.status = "opted_out"
            self.record(TRAVELLER, t_id, "OPTS_OUT", trav.request.origin)
            return
        trav.status = "waiting"
        self.record(TRAVELLER, t_id, "REQUESTS", trav.request.origin)
        self._enqueue(trav.request)
        self.schedule_matching()

    # ------------------------------------------------------------- queues

    def _enqueue(self, request):
        """Put a request on the queue that every platform matches from."""
        key = (request.t_request, request.request_id)
        i = bisect.bisect_right(self.waiting_keys, key)
        self.waiting_keys.insert(i, key)
        self.waiting.insert(i, request)
        self.waiting_ids.add(request.request_id)
        self.open_counts[request.origin] = self.open_counts.get(request.origin, 0) + 1

    def _dequeue(self, request):
        """Take a request off the queue; a no-op if it is not waiting."""
        if request.request_id not in self.waiting_ids:
            return
        i = bisect.bisect_left(self.waiting_keys, (request.t_request, request.request_id))
        del self.waiting_keys[i]
        del self.waiting[i]
        self.waiting_ids.remove(request.request_id)
        left = self.open_counts[request.origin] - 1
        if left:
            self.open_counts[request.origin] = left
        else:
            del self.open_counts[request.origin]

    # ------------------------------------------------------------- matching

    def schedule_matching(self):
        """Ensure an instant matching pass and any needed batch boundaries
        are on the event queue for the current state of the request queue
        and the idle maps. An instant pass is pushed only when a pair can
        form; every change that can make one calls this again at once."""
        if self.now <= self.horizon and self.resolve_pending != self.now \
                and self.waiting and any(s.idle for s in self.instant):
            self.resolve_pending = self.now
            self.push(self.now, _PH_MATCH, PLATFORM, 0, self.on_instant_pass)
        for pid, state in self.platforms.items():
            if state.spec.matching != "batched" or not self.waiting:
                continue
            if state.next_batch_at is not None:
                continue
            boundary = plat.next_batch_boundary(state.spec.batch_window_s, self.now)
            if boundary == self.last_boundary.get(pid):
                # this window already ran; late arrivals wait for the next
                boundary += state.spec.batch_window_s
            if boundary > self.horizon:
                continue
            state.next_batch_at = boundary
            self.push(boundary, _PH_MATCH, PLATFORM, pid,
                      lambda s=state: self.on_batch_boundary(s))

    def on_instant_pass(self):
        self.resolve_pending = None
        offered = []
        for state in self.instant:
            offered.extend(self._enact(state, self._run_match(state)))
        self._conclude_pass(offered)

    def on_batch_boundary(self, state):
        state.next_batch_at = None
        self.last_boundary[state.spec.platform_id] = self.now
        self._conclude_pass(self._enact(state, self._run_match(state)))
        if self.waiting:
            self.schedule_matching()

    def _run_match(self, state):
        """The platform's proposed (request_id, driver_id) pairs; f_match is
        not called when no driver is idle or no request waits."""
        if not state.idle or not self.waiting:
            return []
        pid = state.spec.platform_id
        ctx = MatchCtx(
            platform_id=pid,
            mode=state.spec.matching,
            requests=tuple(self.waiting),
            idle=state.idle.keys(),
            positions=MappingProxyType(state.idle),
            excluded=frozenset(self.excluded),
            skim=self.skim,
            params=self.params,
            rng=self.rng,
        )
        pairs = self.hook("f_match", ctx, "platform", pid)
        seen_r, seen_d = set(), set()
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                self.bad_answer("f_match", pair, "platform", pid,
                                "a (request_id, driver_id) pair")
            rid, did = pair
            try:
                twice = rid in seen_r or did in seen_d
            except TypeError:       # an unhashable id
                self.bad_answer("f_match", pair, "platform", pid,
                                "a pair of hashable ids")
            if twice:
                self.bad_answer("f_match", pair, "platform", pid,
                                "no request or driver paired twice")
            seen_r.add(rid)
            seen_d.add(did)
            if rid not in self.waiting_ids or did not in state.idle:
                self.bad_answer("f_match", pair, "platform", pid,
                                "a waiting request and a driver idle on the platform")
        return pairs

    def _enact(self, state, proposals):
        """Offer construction for one platform's proposed pairs. Returns the
        request ids that now hold a pending offer."""
        offered = []
        pid = state.spec.platform_id
        for rid, did in proposals:
            trav = self.travellers[rid]
            request = trav.request
            driver = self.drivers[did]
            offer = plat.make_offer(state.spec, request, did, driver.position,
                                    self.skim)
            self.record(DRIVER, did, "RECEIVES_REQUEST", driver.position,
                        rid, pid, None, offer.pickup_eta)
            ctx = DriverDeclineCtx(
                driver_id=did, spec=driver.spec, position=driver.position,
                request=request, platform_id=pid,
                pickup_eta=offer.pickup_eta, fare=offer.fare,
                payout=plat.settle(state.spec, offer.fare)[0],
                params=self.params, rng=self.rng,
            )
            if self.hook("f_driver_decline", ctx, "driver", did):
                self.record(DRIVER, did, "DECLINES_REQUEST", driver.position,
                            rid, pid)
                self.excluded.add((rid, did))
                self._count_rejection(trav)
                if state.spec.matching == "instant":
                    self.schedule_matching()
                continue
            self.record(DRIVER, did, "ACCEPTS_REQUEST", driver.position,
                        rid, pid, None, offer.pickup_eta)
            self._remove_idle(driver)
            if not trav.offers:
                self.push(self.now, _PH_REACT, TRAVELLER, request.traveller_id,
                          lambda tr=trav: self.on_offers(tr))
            trav.offers.append(offer)
            offered.append(rid)
        return offered

    def _conclude_pass(self, offered):
        """Move requests holding fresh offers out of the queue once every
        platform of the pass has seen it."""
        for rid in offered:
            trav = self.travellers[rid]
            self._dequeue(trav.request)
            if trav.status != "unserved":
                # a request can die of rejections in the same pass; its
                # reaction then only hands reserved drivers back
                trav.status = "offered"

    def _count_rejection(self, trav):
        trav.rejections += 1
        if trav.rejections >= self.params["max_rejections"]:
            self._fail_request(trav, reason="max_rejections")

    def _fail_request(self, trav, reason):
        self._dequeue(trav.request)
        trav.status = "unserved"
        self.record(TRAVELLER, trav.request.traveller_id, "UNSERVED",
                    trav.request.origin, *_NO_DETAIL[:9], reason)

    # ------------------------------------------------------ offer resolution

    def _record_offer(self, t_id, event, node, offer):
        self.record(TRAVELLER, t_id, event, node, None, offer.platform_id,
                    offer.driver_id, offer.pickup_eta, offer.fare)

    def on_offers(self, trav):
        t_id = trav.request.traveller_id
        offers = tuple(trav.offers)
        trav.offers = []
        if not offers:
            self.fail(f"traveller {t_id} woke with no offers")
        if trav.status == "unserved":
            # the request died of rejections in the same pass; just release
            for offer in offers:
                self._release_driver(self.drivers[offer.driver_id])
            return
        for offer in offers:
            self._record_offer(t_id, "RECEIVES_OFFER", trav.request.origin, offer)
        ctx = PlatformChoiceCtx(
            traveller_id=t_id, offers=offers, params=self.params, rng=self.rng,
        )
        choice = self.hook("f_platform_choice", ctx, "traveller", t_id)
        if not _is_index(choice, len(offers)):
            self.bad_answer("f_platform_choice", choice, "traveller", t_id,
                            f"an offer index in [0, {len(offers)})")
        chosen = offers[choice]
        for i, offer in enumerate(offers):
            if i != choice:
                self._release_driver(self.drivers[offer.driver_id])
        mode_ctx = TravModeCtx(
            traveller_id=t_id, offer=chosen, params=self.params, rng=self.rng,
        )
        if not self.hook("f_trav_mode", mode_ctx, "traveller", t_id):
            self._record_offer(t_id, "REJECTS_OFFER", trav.request.origin, chosen)
            self.excluded.add((chosen.request_id, chosen.driver_id))
            self._release_driver(self.drivers[chosen.driver_id])
            trav.status = "rejected_waiting"
            self._count_rejection(trav)
            if trav.status != "unserved":
                self._enqueue(trav.request)
                self.schedule_matching()
            return
        self._record_offer(t_id, "ACCEPTS_OFFER", trav.request.origin, chosen)
        state = self.platforms[chosen.platform_id]
        match_event = "BATCH_MATCH" if state.spec.matching == "batched" else "MATCH"
        self.record(PLATFORM, chosen.platform_id, match_event, -1,
                    chosen.request_id, None, chosen.driver_id,
                    chosen.pickup_eta, chosen.fare)
        trav.status = "matched"
        driver = self.drivers[chosen.driver_id]
        driver.serving = chosen
        self.move(driver, trav.request.origin,
                  lambda dist, d=driver: self.on_pickup_arrival(d, dist))

    # ------------------------------------------------------------ the ride

    def on_pickup_arrival(self, driver, dist):
        offer = driver.serving
        request = self.travellers[offer.request_id].request
        d_id = driver.spec.driver_id
        driver.position = request.origin
        self.record(DRIVER, d_id, "ARRIVES_PICKUP", request.origin,
                    request.request_id, offer.platform_id, *_NO_DETAIL[:5], dist)
        boarding = self._timed("t_board_s")
        if boarding == 0.0:
            self.on_departure(driver)
            return
        self.push(self.now + boarding, _PH_STATE, DRIVER, d_id,
                  lambda: self.on_departure(driver))

    def on_departure(self, driver):
        offer = driver.serving
        trav = self.travellers[offer.request_id]
        request = trav.request
        d_id = driver.spec.driver_id
        self.record(DRIVER, d_id, "DEPARTS_WITH_TRAVELLER", request.origin,
                    request.request_id, offer.platform_id)
        trav.status = "in_vehicle"
        self.record(TRAVELLER, request.traveller_id, "PICKED_UP", request.origin,
                    None, offer.platform_id, d_id)
        self.move(driver, request.destination,
                  lambda dist, d=driver: self.on_service_arrival(d, dist))

    def on_service_arrival(self, driver, dist):
        request = self.travellers[driver.serving.request_id].request
        driver.position = request.destination
        alight = self._timed("t_alight_s")
        if alight == 0.0:
            self.on_ride_complete(driver, dist)
            return
        self.push(self.now + alight, _PH_STATE, DRIVER, driver.spec.driver_id,
                  lambda: self.on_ride_complete(driver, dist))

    def on_ride_complete(self, driver, dist):
        offer = driver.serving
        trav = self.travellers[offer.request_id]
        request = trav.request
        d_id = driver.spec.driver_id
        payout, cut = plat.settle(self.platforms[offer.platform_id].spec, offer.fare)
        self.record(DRIVER, d_id, "COMPLETES_RIDE", request.destination,
                    request.request_id, offer.platform_id, None, None,
                    offer.fare, payout, cut, dist)
        trav.status = "arrived"
        self.record(TRAVELLER, request.traveller_id, "ARRIVES",
                    request.destination)
        driver.serving = None
        target = None if driver.wants_off else self._consult_repos(driver)
        if target is None:
            self._release_driver(driver)
            return
        self.record(DRIVER, d_id, "STARTS_REPOSITIONING", driver.position,
                    *_NO_DETAIL[:8], target)
        self.move(driver, target,
                  lambda dist2, d=driver, to=target: self.on_repos_arrival(d, to, dist2))

    def _consult_repos(self, driver):
        d_id, n = driver.spec.driver_id, self.inputs.net.n
        ctx = DriverReposCtx(
            driver_id=d_id, position=driver.position,
            open_requests=self.open_view, n_nodes=n,
            params=self.params, rng=self.rng,
        )
        target = self.hook("f_driver_repos", ctx, "driver", d_id)
        if target is not None and not _is_index(target, n):
            self.bad_answer("f_driver_repos", target, "driver", d_id,
                            f"None or a node id in [0, {n})")
        return None if target == driver.position else target

    def on_repos_arrival(self, driver, node, dist):
        driver.position = node
        self.record(DRIVER, driver.spec.driver_id, "ARRIVES_REPOSITION", node,
                    *_NO_DETAIL[:7], dist)
        self._release_driver(driver)

    # ------------------------------------------------------------- horizon

    def on_horizon(self):
        for trav in self.travellers.values():
            if trav.status == "waiting":
                self._fail_request(trav, reason="horizon")
            elif trav.status == "rejected_waiting":
                self._dequeue(trav.request)
            elif trav.status == "offered":
                self.fail(f"traveller {trav.request.traveller_id} still holds "
                          "offers at the horizon")
