"""The differential executor: one case, two backends, one verdict.

Protocol (mirrors the solver's poison-equivalence tests):

1. Gate — :func:`~repro.bgp.solver.solver_unsupported_reason` on a fresh
   engine.  A rejection is a *budget* entry (conservative by design),
   not a failure.
2. Baselines — solver side: ``solve`` + ``warm_start`` on that fresh
   engine; event side: a second fresh engine (same ``engine_seed``, so
   identical construction-time MRAI jitter draws) originates everything
   and runs to quiescence.  No faults are active here: the solver sends
   no messages, so message faults during baseline convergence would be
   a legitimate, uninteresting divergence.
3. Align — both engines ``advance_to(now + 61)`` (past every 30 s MRAI
   window) and ``reseed`` with the same case-derived seed, making their
   subsequent timing-draw streams identical.  Converged state carries no
   absolute timestamps, so the differing clocks are unobservable.
4. Perturb — the case's action script runs on both sides, each action
   followed by ``run()``; the case's message-fault plan is attached to
   both engines through identically-seeded
   :class:`~repro.faults.injector.FaultInjector` instances, so drops
   and duplicates hit the same transmissions on both sides.
5. Diff — :func:`~repro.fuzz.diff.capture_state` of both engines,
   compared exactly on their canonical (key-sorted) int-keyed rows;
   JSON is rendered only for the differing rows a divergence reports.

When the case carries no message faults, a **third arm** replays the
action script through :mod:`repro.bgp.delta` on another warm-started
engine — per action, the delta gate either splices or skips the whole
arm (a skip is budget, like a gate rejection) — and its final state must
be byte-identical to the event engine's.  This is the standing CI check
for the splice-back invariant over arbitrary fuzzer-generated inputs,
not just the curated workloads.

``inject_divergence=True`` is the end-to-end test hook: it deletes one
solver-computed Loc-RIB selection before warm-start, which must surface
as a divergence, shrink to a minimal case and land in the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bgp.delta import (
    DeltaChange,
    apply_delta,
    delta_unsupported_reason,
)
from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import solve, solver_unsupported_reason
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.fuzz.case import FuzzCase
from repro.fuzz.diff import (
    canonical_blob,
    capture_state,
    diff_states,
    differing_keys,
)
from repro.net.addr import Prefix
from repro.runner.core import derive_seed

VERDICT_EQUAL = "equal"
VERDICT_DIVERGENCE = "divergence"
VERDICT_GATE_REJECTED = "gate-rejected"
VERDICT_CRASH = "crash"

#: Clock advance before perturbing: safely past the longest possible
#: MRAI window (30 s * jitter <= 1.0), so no timer from the baseline
#: phase gates the first perturbation update on either side.
SETTLE_SECONDS = 61.0


@dataclass
class CaseResult:
    """Outcome of one differential execution."""

    verdict: str
    #: gate reason, or ``ExcType: message`` for crashes.
    reason: Optional[str] = None
    #: which side crashed or diverged when it was not the solver-vs-event
    #: pair: "solver", "event", "setup" or "delta".
    crash_side: Optional[str] = None
    #: first differing keys as (key, solver value, event value).
    diff: List[Tuple[str, Optional[str], Optional[str]]] = field(
        default_factory=list
    )
    #: total number of differing keys (diff holds only the first few).
    diff_count: int = 0
    #: third-arm outcome: "equal" (delta state matched the event
    #: engine's), "skipped: <gate reason>", or None (arm not run — a
    #: fault plan was active, there were no actions, or the run ended
    #: before the arm).
    delta_arm: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.verdict in (VERDICT_DIVERGENCE, VERDICT_CRASH)

    def signature(self) -> Tuple[str, Optional[str], Optional[str]]:
        """What the shrinker must preserve: the failure mode, not the
        exact diff (shrinking legitimately changes which keys differ)."""
        crash_type = None
        if self.verdict == VERDICT_CRASH and self.reason:
            crash_type = self.reason.split(":", 1)[0]
        return (self.verdict, self.crash_side, crash_type)


def run_case(
    case: FuzzCase,
    *,
    inject_divergence: bool = False,
    stats=None,
    diff_limit: int = 8,
) -> CaseResult:
    """Run both backends on *case* and compare them byte-for-byte."""
    try:
        graph = case.build_graph()
        originations = case.resolved_originations()
        prefixes = case.prefixes()
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="setup"
        )

    solver_engine = BGPEngine(
        graph, EngineConfig(seed=case.engine_seed), case.speaker_configs()
    )
    reason = solver_unsupported_reason(solver_engine, originations)
    if reason is not None:
        return CaseResult(VERDICT_GATE_REJECTED, reason=reason)

    try:
        result = solve(solver_engine, originations, stats=stats)
        if inject_divergence:
            _tamper(result)
        solver_engine.warm_start(result)
        _perturb(solver_engine, case)
        solver_state = capture_state(solver_engine, prefixes)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="solver"
        )

    try:
        event_engine = BGPEngine(
            graph,
            EngineConfig(seed=case.engine_seed),
            case.speaker_configs(),
        )
        for org in originations:
            event_engine.originate(
                org.asn,
                org.prefix,
                path=org.path,
                per_neighbor=org.per_neighbor_dict(),
                med=org.med,
            )
        event_engine.run()
        _perturb(event_engine, case)
        event_state = capture_state(event_engine, prefixes)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="event"
        )

    if canonical_blob(solver_state) == canonical_blob(event_state):
        result = CaseResult(VERDICT_EQUAL)
        if case.actions and case.fault_plan().is_null:
            arm = _delta_arm(
                case,
                graph,
                event_state,
                prefixes,
                stats=stats,
                diff_limit=diff_limit,
            )
            if isinstance(arm, CaseResult):
                return arm
            result.delta_arm = arm
        return result
    return CaseResult(
        VERDICT_DIVERGENCE,
        diff=diff_states(solver_state, event_state, limit=diff_limit),
        diff_count=len(differing_keys(solver_state, event_state)),
    )


def _delta_arm(
    case: FuzzCase,
    graph,
    event_state,
    prefixes,
    *,
    stats=None,
    diff_limit: int = 8,
):
    """Replay the action script through ``repro.bgp.delta``.

    Returns the ``delta_arm`` string for an equal or skipped run, or a
    full :class:`CaseResult` (verdict crash/divergence, side "delta")
    when the arm fails.  Faulty plans never reach here: message faults
    are exactly what the delta gate exists to refuse.
    """
    try:
        engine = BGPEngine(
            graph,
            EngineConfig(seed=case.engine_seed),
            case.speaker_configs(),
        )
        engine.warm_start(solve(engine, case.resolved_originations()))
        engine.advance_to(engine.now + SETTLE_SECONDS)
        engine.reseed(derive_seed(case.seed, "fuzz-perturb"))
        for action in case.actions:
            change = _delta_change(action)
            reason = delta_unsupported_reason(engine, [change])
            if reason is not None:
                if stats is not None:
                    stats.count("fuzz.delta_arm_skips")
                return f"skipped: {reason}"
            apply_delta(engine, [change], stats=stats)
        delta_state = capture_state(engine, prefixes)
    except Exception as exc:
        return CaseResult(
            VERDICT_CRASH, reason=_crash_reason(exc), crash_side="delta"
        )
    if stats is not None:
        stats.count("fuzz.delta_arm_runs")
    if canonical_blob(delta_state) == canonical_blob(event_state):
        return "equal"
    return CaseResult(
        VERDICT_DIVERGENCE,
        crash_side="delta",
        diff=diff_states(delta_state, event_state, limit=diff_limit),
        diff_count=len(differing_keys(delta_state, event_state)),
        delta_arm="divergence",
    )


def _delta_change(action) -> DeltaChange:
    if action.op == "announce":
        return DeltaChange.originate(
            action.asn,
            Prefix(action.prefix),
            path=action.path,
            per_neighbor=action.per_neighbor,
            med=action.med,
        )
    if action.op == "withdraw":
        return DeltaChange.withdraw(action.asn, Prefix(action.prefix))
    if action.op == "reset":
        return DeltaChange.reset(action.asn, action.peer)
    raise SimulationError(f"fuzz case: unknown action {action.op!r}")


def _perturb(engine: BGPEngine, case: FuzzCase) -> None:
    """Steps 3-4 of the protocol, identical on both sides."""
    engine.advance_to(engine.now + SETTLE_SECONDS)
    engine.reseed(derive_seed(case.seed, "fuzz-perturb"))
    plan = case.fault_plan()
    if not plan.is_null:
        FaultInjector(plan).attach_engine(engine)
    try:
        for action in case.actions:
            if action.op == "announce":
                engine.originate(
                    action.asn,
                    Prefix(action.prefix),
                    path=action.path,
                    per_neighbor=action.per_neighbor,
                    med=action.med,
                )
            elif action.op == "withdraw":
                engine.withdraw_origin(action.asn, Prefix(action.prefix))
            elif action.op == "reset":
                engine.reset_session(action.asn, action.peer)
            else:
                raise SimulationError(
                    f"fuzz case: unknown action {action.op!r}"
                )
            engine.run()
    finally:
        engine.fault_hook = None


def _tamper(result) -> bool:
    """Corrupt a solver result deterministically (the known-divergence
    test hook): drop the highest-ASN Loc-RIB selection of the first
    prefix that has one.  Minimal surviving case: one link, one
    origination — well under the 8-AS shrink-quality bar."""
    for solution in result.solutions:
        if solution.best:
            victim = max(solution.best)
            del solution.best[victim]
            return True
    return False


def _crash_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
