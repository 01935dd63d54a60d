"""Which library entry points the traced run wraps, and as what layer.

Each entry point is rebound where its caller looks it up: a class
attribute for methods, the importing module's global for functions
imported by name (``repro.control.lifeguard.build_fibs``,
``repro.fuzz.campaign.run_case``, ...).  Layer names follow the
library's module layout.  :data:`PER_LAYER` is the full metric list the
traced run prints on every workload; a layer a workload never enters
reads 0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import repro.fuzz.campaign as campaign
import repro.fuzz.executor as executor
import repro.control.lifeguard as lifeguard_mod
import repro.runner.baseline as baseline
import repro.service.daemon as daemon
import repro.workloads.scenarios as scenarios
from repro.bgp.engine import BGPEngine
from repro.bgp.origin import OriginController
from repro.control.journal import RepairJournal
from repro.control.lifeguard import Lifeguard
from repro.dataplane import fib as fib_mod
from repro.dataplane.fib import DEFAULT_PREFIX, LOCAL
from repro.obs.events import EventBus
from repro.service.daemon import LifeguardService
from repro.traffic.impact import ImpactLedger
from repro.traffic.lpm import FlatLPM

from tracing import Tracer

STAGES = ("isolate", "verify", "retry", "check")

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("topology.generate_s", "s", "lower"),
    ("bgp.solver.gate_s", "s", "lower"),
    ("bgp.solver.solve_s", "s", "lower"),
    ("bgp.solver.prefixes", "count", "lower"),
    ("bgp.engine.init_s", "s", "lower"),
    ("bgp.engine.warm_start_s", "s", "lower"),
    ("dataplane.fib.build_s", "s", "lower"),
    ("dataplane.fib.entries", "count", "lower"),
    ("dataplane.fib.rebuild_s", "s", "lower"),
    ("dataplane.fib.dirty_ases", "count", "lower"),
    ("dataplane.fib.entries_rebuilt", "count", "lower"),
    ("dataplane.fib.entries_changed", "count", "lower"),
    ("dataplane.fib.useful_ratio", "ratio", "higher"),
    ("bgp.origin.announce_s", "s", "lower"),
    ("bgp.engine.run_s", "s", "lower"),
    ("bgp.engine.updates", "count", "lower"),
    ("bgp.delta.apply_s", "s", "lower"),
    ("bgp.delta.applied", "count", "higher"),
    ("bgp.delta.fallbacks", "count", "lower"),
    ("traffic.impact.observe_s", "s", "lower"),
    ("traffic.lpm.compile_s", "s", "lower"),
    ("traffic.lpm.compiles", "count", "lower"),
    ("traffic.matrix.build_s", "s", "lower"),
    ("control.lifeguard.begin_round_s", "s", "lower"),
    ("dataplane.probes.sent", "count", "lower"),
    ("dataplane.probes.cost_us", "us", "lower"),
]
for _stage in STAGES:
    PER_LAYER += [
        (f"control.lifeguard.stage_{_stage}_s", "s", "lower"),
        (f"control.lifeguard.stage_{_stage}_calls", "count", "lower"),
    ]
PER_LAYER += [
    ("control.lifeguard.prime_atlas_s", "s", "lower"),
    ("control.journal.append_s", "s", "lower"),
    ("control.journal.entries", "count", "lower"),
    ("control.journal.bytes", "bytes", "lower"),
    ("control.journal.rotations", "count", "lower"),
    ("control.recover_s", "s", "lower"),
    ("obs.events.emit_s", "s", "lower"),
    ("obs.events.emitted", "count", "lower"),
    ("service.round_s", "s", "lower"),
    ("service.queue_peak", "count", "lower"),
    ("service.timeouts", "count", "lower"),
    ("fuzz.gen.generate_s", "s", "lower"),
    ("fuzz.executor.run_case_s", "s", "lower"),
    ("fuzz.diff.capture_s", "s", "lower"),
    ("fuzz.useful_ratio", "ratio", "higher"),
    ("unattributed_s", "s", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class _FibCounts:
    """Entries rebuilt and changed per incremental FIB build.

    A FIB table is its AS's Loc-RIB next hops at build time, so each
    rebuilt table's contents are read from the Loc-RIB (a dict copy)
    rather than by walking the trie.  The contents are kept per AS,
    keyed by trie identity (clean ASes share their trie with the
    previous snapshot); a table first seen as *previous* is walked once.
    """

    def __init__(self) -> None:
        self._maps: Dict[int, tuple] = {}

    def _old(self, asn: int, trie) -> dict:
        if trie is None:
            return {}
        cached = self._maps.get(asn)
        if cached is not None and cached[0] is trie:
            return cached[1]
        return {p: hop for p, hop in trie.items() if p != DEFAULT_PREFIX}

    def _new(self, engine, asn: int, trie) -> dict:
        speaker = engine.speakers.get(asn)
        if trie is None or speaker is None:
            return {}
        hops = {
            prefix: LOCAL if route.neighbor == asn else route.neighbor
            for prefix, route in speaker.table.loc_rib().items()
        }
        self._maps[asn] = (trie, hops)
        return hops

    @staticmethod
    def layer(args: tuple, kwargs: dict) -> str:
        previous = _arg(args, kwargs, 1, "previous")
        dirty = _arg(args, kwargs, 2, "dirty_asns")
        if previous is not None and dirty is not None:
            return "dataplane.fib.rebuild"
        return "dataplane.fib.build"

    def before(self, args: tuple, kwargs: dict):
        return (
            _arg(args, kwargs, 1, "previous"),
            _arg(args, kwargs, 2, "dirty_asns"),
        )

    def after(self, tracer, token, result, args, kwargs) -> None:
        previous, dirty = token
        if previous is None or dirty is None:
            tracer.count(
                "dataplane.fib.entries",
                sum(len(t) for t in result.tables.values()),
            )
            return
        engine = args[0]
        rebuilt = changed = 0
        for asn in dirty:
            trie = result.tables.get(asn)
            old = self._old(asn, previous.tables.get(asn))
            new = self._new(engine, asn, trie)
            rebuilt += len(trie) if trie is not None else 0
            changed += sum(
                1 for key in old.keys() | new.keys()
                if old.get(key) != new.get(key)
            )
        tracer.count("dataplane.fib.dirty_ases", len(dirty))
        tracer.count("dataplane.fib.entries_rebuilt", rebuilt)
        tracer.count("dataplane.fib.entries_changed", changed)


def _probes_before(args, kwargs):
    return args[0].prober.probes_sent


def _probes_after(counter: str):
    def after(tracer, before, result, args, kwargs):
        sent = args[0].prober.probes_sent - before
        tracer.count("dataplane.probes.sent", sent)
        if counter:
            tracer.count(counter, sent)

    return after


def _updates_before(args, kwargs):
    return args[0].total_updates_sent()


def _updates_after(tracer, before, result, args, kwargs):
    tracer.count(
        "bgp.engine.updates", args[0].total_updates_sent() - before
    )


def _delta_after(tracer, token, result, args, kwargs):
    tracer.count(
        "bgp.delta.fallbacks" if result is None else "bgp.delta.applied"
    )


def _solve_after(tracer, token, result, args, kwargs):
    tracer.count("bgp.solver.prefixes", len(result.solutions))


def _compile_after(tracer, token, result, args, kwargs):
    tracer.count("traffic.lpm.compiles")


def _journal_before(args, kwargs):
    return args[0].rotations


def _journal_after(tracer, rotations, entry, args, kwargs):
    journal = args[0]
    tracer.count("control.journal.entries")
    tracer.count("control.journal.rotations", journal.rotations - rotations)
    if journal.path is not None:
        tracer.count(
            "control.journal.bytes",
            len(json.dumps(entry, sort_keys=True)) + 1,
        )


def _emit_after(tracer, token, result, args, kwargs):
    tracer.count("obs.events.emitted")


def build_tracer() -> Tracer:
    """A tracer over every layer boundary the workloads cross."""
    tracer = Tracer()
    wrap = tracer.wrap
    fib_counts = _FibCounts()

    wrap(scenarios, "build_internet", "topology.generate")
    for module in (baseline, executor):
        wrap(module, "solver_unsupported_reason", "bgp.solver.gate")
        wrap(module, "solve", "bgp.solver.solve", after=_solve_after)
    wrap(BGPEngine, "__init__", "bgp.engine.init")
    wrap(BGPEngine, "warm_start", "bgp.engine.warm_start")
    wrap(BGPEngine, "run", "bgp.engine.run",
         before=_updates_before, after=_updates_after)
    wrap(BGPEngine, "try_apply_delta", "bgp.delta.apply",
         after=_delta_after)
    wrap(executor, "apply_delta", "bgp.delta.apply", after=_delta_after)
    for module in (fib_mod, lifeguard_mod):
        wrap(module, "build_fibs", fib_counts.layer,
             before=fib_counts.before, after=fib_counts.after)
    for method in (
        "announce_baseline", "poison", "poison_selectively",
        "advertise_only_via", "avoid_problem", "steer_prepend",
        "suppress_providers", "unpoison", "restore",
    ):
        wrap(OriginController, method, "bgp.origin.announce")
    wrap(ImpactLedger, "observe", "traffic.impact.observe")
    wrap(ImpactLedger, "prime", "traffic.impact.observe")
    wrap(FlatLPM, "compile", "traffic.lpm.compile", after=_compile_after)
    wrap(daemon, "build_traffic_matrix", "traffic.matrix.build")
    wrap(Lifeguard, "begin_round", "control.lifeguard.begin_round",
         before=_probes_before,
         after=_probes_after("dataplane.probes.begin_round"))
    for stage in STAGES:
        wrap(Lifeguard, f"stage_{stage}",
             f"control.lifeguard.stage_{stage}",
             before=_probes_before, after=_probes_after(""))
    wrap(Lifeguard, "prime_atlas", "control.lifeguard.prime_atlas")
    wrap(Lifeguard, "recover", "control.recover")
    wrap(RepairJournal, "load", "control.recover")
    wrap(RepairJournal, "append", "control.journal.append",
         before=_journal_before, after=_journal_after)
    wrap(EventBus, "emit", "obs.events.emit", after=_emit_after)
    wrap(LifeguardService, "run_round", "service.round")
    wrap(campaign, "generate_case", "fuzz.gen.generate")
    wrap(campaign, "run_case", "fuzz.executor.run_case")
    for name in ("capture_state", "canonical_blob", "diff_states"):
        wrap(executor, name, "fuzz.diff.capture")
    return tracer


def layer_metrics(
    tracer: Tracer, units: list, untraced_wall: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced pass over *units*."""
    values: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    for layer, seconds in tracer.self_s.items():
        values[f"{layer}_s"] = seconds
    for stage in STAGES:
        values[f"control.lifeguard.stage_{stage}_calls"] = tracer.calls.get(
            f"control.lifeguard.stage_{stage}", 0
        )
    counts = tracer.counts
    for name, value in counts.items():
        if name in values:
            values[name] = value
    if counts.get("dataplane.fib.entries_rebuilt"):
        values["dataplane.fib.useful_ratio"] = (
            counts["dataplane.fib.entries_changed"]
            / counts["dataplane.fib.entries_rebuilt"]
        )
    round_probes = counts.get("dataplane.probes.begin_round", 0)
    if round_probes:
        values["dataplane.probes.cost_us"] = (
            1e6 * values["control.lifeguard.begin_round_s"] / round_probes
        )
    for unit in units:
        for name in ("service.queue_peak", "service.timeouts"):
            if name in unit.info:
                values[name] = max(values[name], unit.info[name])
    cases = sum(u.attempted for u in units if "equal" in u.info)
    if cases:
        compared = sum(
            u.info["equal"] + u.info["divergences"] for u in units
        )
        values["fuzz.useful_ratio"] = compared / cases
    wall = sum(u.timed_s for u in units)
    unattributed = wall - tracer.attributed_s() - tracer.bookkeeping_s
    values["unattributed_s"] = unattributed
    values["unattributed_share"] = unattributed / wall if wall else 0.0
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.overhead_ratio"] = (
        wall / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    values["trace.bookkeeping_s"] = tracer.bookkeeping_s
    unknown = set(values) - {name for name, _u, _b in PER_LAYER}
    if unknown:
        raise KeyError(f"layers missing from PER_LAYER: {sorted(unknown)}")
    return values
