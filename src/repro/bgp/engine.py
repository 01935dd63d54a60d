"""Discrete-event BGP propagation engine.

Models message latency, per-update processing delay and per-session MRAI
batching — the ingredients that produce the convergence-time and
path-exploration behaviour Figure 6 of the paper measures.  The engine owns
a single priority queue; speakers are pure state machines.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bgp.messages import (
    Announcement,
    ASPath,
    Withdrawal,
    clear_interned_paths,
)
from repro.bgp.policy import SpeakerConfig
from repro.bgp.rib import Route
from repro.bgp.speaker import BGPSpeaker
from repro.errors import SimulationError
from repro.net.addr import Prefix
from repro.topology.as_graph import ASGraph


@dataclass
class EngineConfig:
    """Timing model knobs (seconds)."""

    #: Inter-AS one-way message latency range.
    link_delay_min: float = 0.01
    link_delay_max: float = 0.12
    #: Per-update processing delay range at the receiver.
    proc_delay_min: float = 0.002
    proc_delay_max: float = 0.05
    #: MRAI: minimum spacing between successive announcements of the same
    #: prefix on one session.  Real routers default to ~30 s with jitter.
    mrai: float = 30.0
    #: Jitter factor range applied per session (cisco-style 0.75-1.0).
    mrai_jitter_min: float = 0.75
    mrai_jitter_max: float = 1.0
    #: Withdrawals are conventionally not rate-limited (WRATE off).
    mrai_applies_to_withdrawals: bool = False
    seed: int = 0


@dataclass(slots=True)
class RouteChange:
    """One Loc-RIB change, recorded for collectors and loss replay."""

    time: float
    asn: int
    prefix: Prefix
    old: Optional[Route]
    new: Optional[Route]


class _Session:
    """Directed adjacency state (MRAI + last advertisement sent)."""

    __slots__ = ("mrai", "last_sent_time", "sent", "timer_pending")

    def __init__(self, mrai: float) -> None:
        self.mrai = mrai
        #: prefix -> time of last announcement sent on this session.
        self.last_sent_time: Dict[Prefix, float] = {}
        #: prefix -> last Announcement (or None for withdrawal/state unsent).
        self.sent: Dict[Prefix, Optional[Announcement]] = {}
        #: prefixes with an MRAI expiry event already queued.
        self.timer_pending: Set[Prefix] = set()


class BGPEngine:
    """Runs BGP over an :class:`ASGraph` until quiescence."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[EngineConfig] = None,
        speaker_configs: Optional[Dict[int, SpeakerConfig]] = None,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self._rng = random.Random(self.config.seed)
        self.now = 0.0
        self._queue: List[Tuple[float, int, tuple]] = []
        self._seq = itertools.count()
        self.speakers: Dict[int, BGPSpeaker] = {}
        self._sessions: Dict[Tuple[int, int], _Session] = {}
        #: per directed session, the latest delivery time scheduled so
        #: far; arrivals are clamped to it so updates on one session are
        #: delivered in send order (BGP runs over TCP — a later
        #: withdrawal must never overtake an earlier announcement).
        #: Differential fuzzing found the reordering artifact: stale
        #: Adj-RIB-In entries left by crossed messages get re-selected
        #: into the Loc-RIB when a perturbation withdraws the best route.
        self._arrival_floor: Dict[Tuple[int, int], float] = {}
        self.change_log: List[RouteChange] = []
        #: total updates (announcements + withdrawals) sent per directed
        #: session; Table 2's per-router load estimates read this.
        self.updates_sent: Dict[Tuple[int, int], int] = {}
        #: optional hook fired on every Loc-RIB change.
        self.on_change: Optional[Callable[[RouteChange], None]] = None
        #: optional chaos hook consulted per transmitted update; returns
        #: None (deliver normally), "drop" or "duplicate".  Wired up by
        #: :class:`repro.faults.injector.FaultInjector`.
        self.fault_hook: Optional[Callable[[int, int, object],
                                           Optional[str]]] = None
        #: BGP session resets performed (chaos accounting).
        self.session_resets = 0
        #: optional observability bus (duck-typed; see repro.obs.events).
        self.obs = None
        #: prefix -> PrefixSolution while the state is *analytic*
        #: (installed by warm_start / apply_delta and not since perturbed
        #: by event-path activity).  None: the delta path must fall back.
        self._analytic: Optional[Dict[Prefix, object]] = None
        #: adjacency index cached for repro.bgp.delta (topology is
        #: immutable for the engine's lifetime).
        self._delta_adjacency = None
        #: cached speaker-config gate verdict for repro.bgp.delta
        #: (False: not yet computed; configs are fixed at construction).
        self._delta_config_reason: object = False
        #: origination -> PrefixSolution memo for repro.bgp.delta
        #: (solutions are pure in the origination once the topology is
        #: fixed); cleared with the analytic flag.
        self._delta_solutions: Dict[object, object] = {}
        #: asn -> prefixes whose forwarding next hop changed there since
        #: the last consume_fib_dirty().  None: unknown — rebuild
        #: everything.
        self._fib_dirty: Optional[Dict[int, Set[Prefix]]] = None
        speaker_configs = speaker_configs or {}
        for asn in graph.ases():
            neighbor_rels = {
                n: graph.relationship(asn, n) for n in graph.neighbors(asn)
            }
            self.speakers[asn] = BGPSpeaker(
                asn, neighbor_rels, speaker_configs.get(asn)
            )
            for neighbor in neighbor_rels:
                jitter = self._rng.uniform(
                    self.config.mrai_jitter_min, self.config.mrai_jitter_max
                )
                self._sessions[(asn, neighbor)] = _Session(
                    self.config.mrai * jitter
                )

    # ------------------------------------------------------------------
    # Event queue plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, event: tuple) -> None:
        if time < self.now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past ({time} < {self.now})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), event))

    def reseed(self, seed: int) -> None:
        """Replace the engine's RNG stream (timing jitter draws).

        Trial runners call this on a restored snapshot so each trial's
        message/processing delays flow from its own derived seed instead
        of continuing whichever stream the snapshot froze — the property
        that makes trial results independent of execution order.  The
        AS-path intern table is reset for the same reason: interned
        tuples must not leak object sharing (and thereby pickle-level
        byte differences) across trial boundaries.
        """
        self._rng = random.Random(seed)
        clear_interned_paths()

    def _link_delay(self) -> float:
        return self._rng.uniform(
            self.config.link_delay_min, self.config.link_delay_max
        )

    def _proc_delay(self) -> float:
        return self._rng.uniform(
            self.config.proc_delay_min, self.config.proc_delay_max
        )

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------
    def originate(
        self,
        asn: int,
        prefix: Prefix,
        path: Optional[ASPath] = None,
        per_neighbor: Optional[Dict[int, Optional[ASPath]]] = None,
        communities=(),
        avoid=(),
        med: int = 0,
    ) -> None:
        """(Re-)announce *prefix* from *asn* with the given path config.

        Call between :meth:`run` invocations; the change is injected at the
        current simulation time and flushed to all of the origin's sessions.
        *avoid* attaches an AVOID_PROBLEM(X, P) hint (the idealized
        primitive; see :mod:`repro.bgp.messages`).
        """
        self._invalidate_analytic()
        speaker = self.speakers[asn]
        old_best = speaker.best(prefix)
        speaker.originate(
            prefix, path=path, per_neighbor=per_neighbor, med=med,
            communities=communities, avoid=avoid,
        )
        new_best = speaker.best(prefix)
        if new_best != old_best:
            self._log_change(asn, prefix, old_best, new_best)
        self._flush_all_sessions(asn, prefix)

    def withdraw_origin(self, asn: int, prefix: Prefix) -> None:
        """Stop originating *prefix* at *asn*."""
        self._invalidate_analytic()
        speaker = self.speakers[asn]
        speaker.stop_originating(prefix)
        self._record_change(asn, prefix)
        self._flush_all_sessions(asn, prefix)

    def reset_session(self, as_a: int, as_b: int) -> bool:
        """Tear down and re-establish the BGP session between two ASes.

        Both sides forget everything learned from the other (the implicit
        withdrawals of a session loss), propagate any resulting best-route
        changes, then the fresh session re-advertises each side's full
        desired export from scratch — the re-advertisement burst real
        resets produce.  Call :meth:`run` afterwards to quiesce.  Returns
        False (no-op) if the ASes are not BGP neighbors.
        """
        if (as_a, as_b) not in self._sessions:
            return False
        self._invalidate_analytic()
        for src, dst in ((as_a, as_b), (as_b, as_a)):
            session = self._sessions[(src, dst)]
            session.last_sent_time.clear()
            session.sent.clear()
            # Pending MRAI expiries for the old session may still fire;
            # _flush_session is idempotent so they become no-ops.
            session.timer_pending.clear()
        for src, dst in ((as_a, as_b), (as_b, as_a)):
            receiver = self.speakers[dst]
            for prefix, old_best, new_best in receiver.forget_neighbor(src):
                self._log_change(dst, prefix, old_best, new_best)
                self._flush_all_sessions(dst, prefix)
        for src, dst in ((as_a, as_b), (as_b, as_a)):
            speaker = self.speakers[src]
            # Locally-originated prefixes are installed in the table too,
            # so its prefix list is the complete desired-export universe.
            for prefix in sorted(
                speaker.table.prefixes(),
                key=lambda p: (p.base, p.length),
            ):
                self._flush_session(src, dst, prefix)
        self.session_resets += 1
        if self.obs is not None:
            self.obs.emit(
                "bgp.session-reset", self.now, "bgp.engine",
                subject=f"AS{as_a}<->AS{as_b}", as_a=as_a, as_b=as_b,
            )
        return True

    def warm_start(self, result) -> None:
        """Install a solver-computed converged state (no events run).

        *result* is a :class:`repro.bgp.solver.SolverResult`.  Afterwards
        the engine is at quiescence: every Loc-RIB/Adj-RIB-In entry and
        every session's advertised state match what event-driven
        convergence of the same originations would have produced, so all
        subsequent perturbations (new originations, poisons, session
        resets) behave identically.  The clock stays at its current value
        and ``last_sent_time`` stays empty — the converged announcements
        were "sent long ago", so no MRAI timer gates the first
        post-warm-start update, just as a long-quiesced event engine
        behaves.  The convergence process itself is not simulated, so
        ``change_log``/``updates_sent`` record nothing for it.

        Requires a fresh engine (nothing originated, no queued events).
        """
        if self._queue:
            raise SimulationError(
                "warm_start requires an idle engine (events pending)"
            )
        for org in result.originations:
            # State-only origination: no change log, no session flush —
            # the solved session state below already reflects it.
            self.speakers[org.asn].originate(
                org.prefix,
                path=org.path,
                per_neighbor=org.per_neighbor_dict(),
                med=org.med,
            )
        sessions = self._sessions
        for solution in result.solutions:
            prefix = solution.prefix
            best = solution.best
            for receiver, routes in solution.adj_in.items():
                self.speakers[receiver].table.load(
                    prefix, routes, best.get(receiver)
                )
            for session_key, announcement in solution.sent.items():
                sessions[session_key].sent[prefix] = announcement
        self._analytic = {s.prefix: s for s in result.solutions}
        self._fib_dirty = None
        if self.obs is not None:
            self.obs.emit(
                "bgp.warm-start", self.now, "bgp.engine",
                subject=f"{len(result.solutions)} prefixes",
                prefixes=len(result.solutions),
            )

    def advance_to(self, time: float) -> None:
        """Move the idle engine clock forward to *time*.

        Lets an external controller (LIFEGUARD's loop) keep the BGP clock
        in sync with measurement time between routing events.  Only legal
        while the event queue is empty.
        """
        if self._queue:
            raise SimulationError("cannot advance clock with pending events")
        if time < self.now:
            raise SimulationError(
                f"cannot move clock backwards ({time} < {self.now})"
            )
        self.now = time

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or *until* is reached).

        Returns the simulation time afterwards.  BGP under Gao-Rexford
        policies (even with poisoned paths) converges, so the queue always
        drains; a safety valve raises if it does not.
        """
        processed = 0
        limit = 5_000_000
        queue = self._queue
        pop = heapq.heappop
        batch: List[tuple] = []
        while queue:
            time, _, event = queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            pop(queue)
            self.now = time
            # Batch events sharing a timestamp (MRAI expiries cluster at
            # `last + mrai`): one heap inspection per event instead of a
            # full loop iteration.  Heap order already yields equal times
            # in sequence order, so semantics are unchanged.
            batch.append(event)
            while queue and queue[0][0] == time:
                batch.append(pop(queue)[2])
            for event in batch:
                self._dispatch(event)
            processed += len(batch)
            batch.clear()
            if processed > limit:
                raise SimulationError(
                    "BGP simulation did not quiesce (possible policy "
                    "dispute wheel)"
                )
        return self.now

    def _dispatch(self, event: tuple) -> None:
        kind = event[0]
        if kind == "deliver":
            _, src, dst, update = event
            self._deliver(src, dst, update)
        elif kind == "mrai":
            _, src, dst, prefix = event
            session = self._sessions[(src, dst)]
            session.timer_pending.discard(prefix)
            if self.obs is not None:
                self.obs.emit(
                    "bgp.mrai-flush", self.now, "bgp.engine",
                    subject=str(prefix), src=src, dst=dst,
                )
            self._flush_session(src, dst, prefix)
        elif kind == "damping-reuse":
            _, asn, prefix, neighbor = event
            self._damping_reuse(asn, prefix, neighbor)
        else:  # pragma: no cover - internal invariant
            raise SimulationError(f"unknown event {kind!r}")

    def _deliver(self, src: int, dst: int, update) -> None:
        speaker = self.speakers[dst]
        old_best = speaker.best(update.prefix)
        prefix, changed = speaker.process(update, now=self.now)
        self._schedule_damping_reuse(dst, speaker)
        if not changed:
            return
        self._log_change(dst, prefix, old_best, speaker.best(prefix))
        self._flush_all_sessions(dst, prefix)

    def _schedule_damping_reuse(self, asn: int, speaker: BGPSpeaker) -> None:
        for prefix, neighbor, when in speaker.drain_pending_reuse():
            self._push(
                max(when, self.now),
                ("damping-reuse", asn, prefix, neighbor),
            )

    def _damping_reuse(self, asn: int, prefix: Prefix, neighbor: int) -> None:
        speaker = self.speakers[asn]
        old_best = speaker.best(prefix)
        _, changed = speaker.release_damped(prefix, neighbor, self.now)
        self._schedule_damping_reuse(asn, speaker)
        if not changed:
            return
        self._log_change(asn, prefix, old_best, speaker.best(prefix))
        self._flush_all_sessions(asn, prefix)

    def _record_change(self, asn: int, prefix: Prefix) -> None:
        speaker = self.speakers[asn]
        self._log_change(asn, prefix, None, speaker.best(prefix))

    def _log_change(
        self,
        asn: int,
        prefix: Prefix,
        old: Optional[Route],
        new: Optional[Route],
    ) -> None:
        change = RouteChange(
            time=self.now, asn=asn, prefix=prefix, old=old, new=new
        )
        self.change_log.append(change)
        if self._fib_dirty is not None:
            old_nh = old.neighbor if old is not None else None
            new_nh = new.neighbor if new is not None else None
            if old_nh != new_nh:
                # Only a next-hop change alters the AS's FIB trie; a
                # path-only change keeps its interval table valid.
                self._fib_dirty.setdefault(asn, set()).add(prefix)
        if self.obs is not None:
            self.obs.emit(
                "bgp.decision-change", self.now, "bgp.engine",
                subject=str(prefix), asn=asn,
                old_path=list(old.as_path) if old else None,
                new_path=list(new.as_path) if new else None,
            )
        if self.on_change is not None:
            self.on_change(change)

    # ------------------------------------------------------------------
    # Session flushing with MRAI
    # ------------------------------------------------------------------
    def _flush_all_sessions(self, asn: int, prefix: Prefix) -> None:
        for neighbor in self.speakers[asn].neighbors:
            self._flush_session(asn, neighbor, prefix)

    def _flush_session(self, src: int, dst: int, prefix: Prefix) -> None:
        session = self._sessions[(src, dst)]
        desired = self.speakers[src].desired_export(prefix, dst)
        sent = session.sent.get(prefix)
        if desired == sent:
            return
        is_withdrawal = desired is None
        rate_limited = (
            not is_withdrawal or self.config.mrai_applies_to_withdrawals
        )
        if rate_limited:
            last = session.last_sent_time.get(prefix)
            if last is not None and self.now < last + session.mrai:
                if prefix not in session.timer_pending:
                    session.timer_pending.add(prefix)
                    self._push(
                        last + session.mrai, ("mrai", src, dst, prefix)
                    )
                return
        self._transmit(src, dst, prefix, desired, session)

    def _transmit(
        self,
        src: int,
        dst: int,
        prefix: Prefix,
        desired: Optional[Announcement],
        session: _Session,
    ) -> None:
        if desired is None:
            if session.sent.get(prefix) is None:
                return
            update: object = Withdrawal(prefix=prefix, sender=src)
        else:
            update = desired
        session.sent[prefix] = desired
        session.last_sent_time[prefix] = self.now
        self.updates_sent[(src, dst)] = (
            self.updates_sent.get((src, dst), 0) + 1
        )
        if self.obs is not None:
            self.obs.emit(
                "bgp.update-sent", self.now, "bgp.engine",
                subject=str(prefix), src=src, dst=dst,
                update="withdraw" if desired is None else "announce",
                path=list(desired.as_path) if desired is not None else None,
            )
        deliveries = 1
        if self.fault_hook is not None:
            action = self.fault_hook(src, dst, update)
            if action == "drop":
                # The sender believes the update went out (session state
                # already says so); the receiver never sees it.  The
                # resulting RIB inconsistency persists until the next
                # update or session reset — exactly a real silent loss.
                deliveries = 0
            elif action == "duplicate":
                deliveries = 2
        floor = self._arrival_floor
        for _ in range(deliveries):
            arrival = self.now + self._proc_delay() + self._link_delay()
            prior = floor.get((src, dst))
            if prior is not None and arrival < prior:
                # FIFO per session: equal timestamps keep heap sequence
                # order, which is send order.
                arrival = prior
            floor[(src, dst)] = arrival
            self._push(arrival, ("deliver", src, dst, update))

    # ------------------------------------------------------------------
    # Incremental convergence (repro.bgp.delta)
    # ------------------------------------------------------------------
    def _invalidate_analytic(self) -> None:
        """Event-path activity: the analytic state map is no longer
        trustworthy for splicing (crossed messages can leave artifacts the
        per-prefix solutions do not describe), so the delta gate must
        refuse until the next warm_start.  The solution memo goes with
        it: event-path processing mutates Adj-RIB-In row dicts in place,
        and splicing shares those dicts with memoized solutions."""
        self._analytic = None
        self._delta_solutions.clear()

    def consume_fib_dirty(self) -> Optional[Dict[int, Set[Prefix]]]:
        """Per AS, the prefixes whose next hop changed since the last
        call (then reset).

        A prefix is listed even when its next hop later flipped back
        within the window; :func:`~repro.dataplane.fib.build_fibs`
        compares against the previous FIB, patches only the entries that
        really differ and keeps a flipped-back AS's trie.  Returns None
        when the engine cannot bound the change set (cold start, or
        state installed wholesale by :meth:`warm_start`) — the caller
        must rebuild every FIB, after which tracking restarts.
        """
        dirty = self._fib_dirty
        self._fib_dirty = {}
        return dirty

    def apply_delta(self, changes, stats=None):
        """Splice a change set into the analytic converged state.

        See :func:`repro.bgp.delta.apply_delta`; raises
        :class:`~repro.bgp.delta.DeltaUnsupported` when gated.
        """
        from repro.bgp.delta import apply_delta

        return apply_delta(self, changes, stats=stats)

    def try_apply_delta(self, changes, stats=None):
        """:meth:`apply_delta`, or None with fallback accounting."""
        from repro.bgp.delta import try_apply_delta

        return try_apply_delta(self, changes, stats=stats)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        """Loc-RIB best at *asn* for exactly *prefix*."""
        return self.speakers[asn].best(prefix)

    def as_path(self, asn: int, prefix: Prefix) -> Optional[ASPath]:
        """Selected AS path from *asn* for *prefix* (None if unreachable)."""
        best = self.speakers[asn].best(prefix)
        return best.as_path if best else None

    def ases_using(self, prefix: Prefix, via: int) -> List[int]:
        """ASes whose selected route for *prefix* traverses AS *via*."""
        return [
            asn
            for asn, speaker in self.speakers.items()
            if asn != via and speaker.uses_as(prefix, via)
        ]

    def forwarding_next_hops(self, prefix: Prefix) -> Dict[int, int]:
        """AS-level next hop per AS for *prefix* (origin maps to itself)."""
        out: Dict[int, int] = {}
        for asn, speaker in self.speakers.items():
            best = speaker.best(prefix)
            if best is not None:
                out[asn] = best.neighbor
        return out

    def avoid_notifications(self) -> Dict[int, int]:
        """Per-AS count of received AVOID_PROBLEM hints naming that AS."""
        return {
            asn: speaker.avoid_notifications
            for asn, speaker in self.speakers.items()
            if speaker.avoid_notifications
        }

    def total_updates_sent(self) -> int:
        """Total updates transmitted on all sessions so far."""
        return sum(self.updates_sent.values())

    def changes_since(self, t0: float) -> List[RouteChange]:
        """Route changes recorded strictly after *t0*."""
        return [c for c in self.change_log if c.time > t0]
