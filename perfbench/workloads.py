"""The four benchmark workloads and their output checks.

Every workload is a closed loop over the library's public API with the
library's knobs at their defaults: the next unit starts only when the
previous one has finished.  A workload is built from its seed, set up
once (:meth:`setup`, repeatable so set-up time can be sampled), then
run one *unit* at a time (:meth:`unit`).  A unit times its own
operations with end-to-end timers only (no spans), takes a host-speed
sample after each (:class:`HostSpeed`) to normalize it, then checks its
outputs outside the timed region and returns a :class:`Unit`.

Checks never reuse the code path they verify: forwarding tables are
compared with the BGP Loc-RIBs through ``PrefixTrie`` reads, poisons
with the Loc-RIB and FIB of the poisoned ASes, and the service and the
fuzzer with their own reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bgp.origin import OriginController
from repro.control.journal import RepairJournal
from repro.dataplane import fib as fib_mod
from repro.dataplane.fib import LOCAL, FibSnapshot
from repro.fuzz import campaign
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.runner.baseline import converged_internet
from repro.runner.core import derive_seed
from repro.runner.stats import RunStats
from repro.service import LifeguardService, ServiceConfig
from repro.traffic.impact import ImpactLedger
from repro.traffic.matrix import build_traffic_matrix
from repro.workloads.outages import OutageArrivalConfig
from repro.workloads.scenarios import build_deployment

clock = time.perf_counter

#: Typical time of :func:`reference_kernel` between operations on the
#: host the bounds were set on (2-vCPU Xeon VM, Python 3.11.7).
#: Normalized times are wall times scaled to a host that runs the
#: kernel this fast; only ratios between runs carry meaning.
REFERENCE_KERNEL_S = 0.0035


#: The kernel's fixed input: a small table that stays in the caches.
_REFERENCE_TABLE = {i: (i * 7919) & 255 for i in range(4096)}


def reference_kernel(rounds: int = 48) -> int:
    """Fixed pure-Python work: table lookups and integer arithmetic in
    the interpreter loop, over a table small enough to stay cached.  It
    allocates nothing the collector tracks and touches little memory,
    so its time follows the host's CPU speed, not the collector's state
    or what the previous operation left in the caches.  Kernels that
    allocated, or read a table larger than the caches, varied with the
    process's own state and tracked the workloads worse than no kernel
    at all."""
    table = _REFERENCE_TABLE
    total = 0
    for _ in range(rounds):
        for key in range(0, 4096, 3):
            total += table[key]
    return total


class HostSpeed:
    """How fast the host runs right now, sampled next to every operation.

    The benchmark's host is a share of a machine whose speed drifts by
    tens of percent within a minute (a fixed loop measured 98-205 ms
    within one minute) and by ~40% over twenty.  Each sample
    times :func:`reference_kernel` once.  An operation's *slowdown* is
    the median of the two samples taken before it and the one taken
    just after it, over :data:`REFERENCE_KERNEL_S`; the median drops a
    sample that an interrupt stretched.  Dividing a wall time by the
    slowdown gives its *normalized* time.  Samples are taken outside the
    timed regions (``spent_s`` totals them, so callers that time around
    a sample can take it out).  A disabled gauge samples nothing and
    reports a slowdown of 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self.spent_s = 0.0
        if enabled:
            reference_kernel()  # the first call runs cold

    def sample(self) -> float:
        if not self.enabled:
            return REFERENCE_KERNEL_S
        start = clock()
        reference_kernel()
        seconds = clock() - start
        self.spent_s += seconds
        self.samples.append(seconds)
        return seconds

    def slowdown(self) -> float:
        """Slowdown over the operation that just ended."""
        if not self.enabled:
            return 1.0
        self.sample()
        return statistics.median(self.samples[-3:]) / REFERENCE_KERNEL_S


#: Seed of the fixed inputs of every workload (the seed ``repro bench``
#: uses).  Build, step, round and case costs differ by tens of percent
#: between topologies and case samples, so the workloads keep fixed
#: topologies (fixed pools) and draw only the order and timing of their
#: operations from the workload seed.
TOPOLOGY_SEED = 7


@dataclass
class Unit:
    """What one unit of a workload did."""

    #: per-operation latencies (seconds): builds, steps, rounds, campaigns.
    latencies: List[float]
    #: timed seconds of the unit (work throughput divides by this).
    timed_s: float
    #: the same, normalized to the reference host speed (see HostSpeed).
    norm_latencies: List[float]
    norm_timed_s: float
    #: work units done: builds, steps, simulated seconds, cases.
    work: float
    attempted: int
    failed: int
    #: digest of the unit's simulated results (never of wall times).
    digest: str
    #: which of the workload's distinct operations the unit ran (its
    #: slot in the cycle); None if every unit is distinct.
    key: Optional[int] = None
    #: failed checks, human-readable.
    problems: List[str] = field(default_factory=list)
    #: workload-specific figures for the info line.
    info: Dict[str, float] = field(default_factory=dict)


def sha(*parts) -> str:
    blob = hashlib.sha256()
    for part in parts:
        blob.update(repr(part).encode("utf-8"))
    return blob.hexdigest()


def flat_entries(items) -> list:
    """FIB ``(prefix, hop)`` entries as hashable ``((base, len), hop)``."""
    return [((p.base, p.length), hop) for p, hop in items]


def check_fibs(engine, fibs: FibSnapshot, prefixes) -> tuple:
    """Full check of a converged build; returns (problems, digest).

    Every AS must hold a Loc-RIB route for every originated prefix, and
    each FIB entry must name the Loc-RIB neighbor (``LOCAL`` for the
    originator).  The digest covers every FIB entry of every AS.
    """
    problems: List[str] = []
    digest = hashlib.sha256()
    for asn in sorted(engine.speakers):
        loc_rib = engine.speakers[asn].table.loc_rib()
        trie = fibs.tables.get(asn)
        items = list(trie.items()) if trie is not None else []
        entries = dict(items)
        for prefix in prefixes:
            route = loc_rib.get(prefix)
            if route is None:
                problems.append(f"AS{asn} has no route to {prefix}")
                continue
            want = LOCAL if route.neighbor == asn else route.neighbor
            got = entries.get(prefix)
            if got != want:
                problems.append(
                    f"AS{asn} FIB {prefix} -> {got}, Loc-RIB says {want}"
                )
        digest.update(repr((asn, flat_entries(items))).encode("utf-8"))
        if len(problems) > 20:
            break
    return problems, digest.hexdigest()


class Workload:
    """What run.py needs from a workload; defaults are no-ops."""

    name = ""
    #: every run completes at least this many units ...
    min_units = 1
    #: ... and stops only between cycles, so every run measures the same
    #: mix of operations.
    cycle = 1
    #: units covered by the identity digest (each run completes them).
    identity_units = 1
    #: ``op_tail_ms`` is the mean beyond this nearest-rank percentile.
    tail_q = 1.0
    #: samples host speed next to every operation; run.py replaces it.
    host = HostSpeed(enabled=False)

    def setup(self) -> None:
        """Build the state the first unit starts from (repeatable)."""

    def prepare(self, index: int) -> None:
        """Untimed work before unit *index*."""

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""


# ----------------------------------------------------------------------
# cold-build
# ----------------------------------------------------------------------
class ColdBuild(Workload):
    """A converged Internet from scratch: topology, solve, install, FIBs.

    Each unit is one build with no disk cache; one unit is one
    operation.  The builds of a cycle use :attr:`pool` distinct topology
    seeds derived from :data:`TOPOLOGY_SEED`, in an order drawn from the
    workload seed: build costs differ by about 20% between topologies,
    so a fresh sample per run would move the tail by more than its
    bound.  The scale is ``small`` (80 ASes, about 0.12 s a build), so
    a run repeats every build of the pool about twenty times.  Medium
    builds (1.5 s) spread 10-14% between runs of identical code, since
    they read more memory than the host-speed kernel and slow less than
    it on a busy host; large builds (13 s) fit only two to a run.
    """

    name = "cold-build"
    pool = 8
    cycle = min_units = pool
    tail_q = 0.75

    def __init__(self, seed: int, scale: str = "small") -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        self.order = list(range(self.pool))
        random.Random(derive_seed(self.seed, self.name)).shuffle(self.order)

    def unit(self, index: int) -> Unit:
        slot = self.order[index % self.pool]
        topo_seed = derive_seed(TOPOLOGY_SEED, self.name, slot)
        stats = RunStats()
        start = clock()
        base = converged_internet(self.scale, topo_seed, stats=stats)
        fibs = fib_mod.build_fibs(base.engine)
        seconds = clock() - start
        norm = seconds / self.host.slowdown()
        prefixes = [p for node in base.graph.nodes() for p in node.prefixes]
        problems, digest = check_fibs(base.engine, fibs, prefixes)
        fallbacks = stats.counters.get("solver.fallbacks", 0)
        if fallbacks:
            problems.append("baseline fell back to the event engine")
        return Unit(
            latencies=[seconds],
            timed_s=seconds,
            norm_latencies=[norm],
            norm_timed_s=norm,
            work=1,
            attempted=1,
            failed=1 if problems else 0,
            digest=sha(topo_seed, digest),
            key=slot,
            problems=problems[:5],
            info={"prefixes": len(prefixes)},
        )


# ----------------------------------------------------------------------
# repair-ladder
# ----------------------------------------------------------------------
#: ladder rungs, in order, replayed per target: the control loop's
#: escalation ladder (``repro.control.lifeguard.LADDER_STRATEGIES``)
#: followed by the unpoison that returns to the baseline.  Five rungs in
#: equal numbers keep the median step inside one rung's cluster instead
#: of on the boundary between two.
RUNGS = (
    "poison", "multi-poison", "prepend-steer", "selective-advertise",
    "unpoison",
)


class RepairLadder(Workload):
    """The escalation ladder through ``OriginController`` on warm state.

    Set-up converges one medium Internet (topology seed
    :data:`TOPOLOGY_SEED`) with a dual-homed origin.  Each unit is one
    step: an ``OriginController`` call, ``BGPEngine.run``, an incremental
    ``build_fibs`` from ``consume_fib_dirty`` and an
    ``ImpactLedger.observe``.  A cycle walks the three highest-degree
    transit ASes, in an order drawn from the workload seed, through all
    five rungs, so every fifth step returns to the baseline
    announcement.  Fifteen distinct steps repeated whole keep the median
    and p75 on one step kind instead of between two.
    """

    name = "repair-ladder"
    num_targets = 3
    cycle = num_targets * len(RUNGS)
    #: enough steps for ten beyond the p75.
    min_units = 3 * cycle
    identity_units = cycle
    tail_q = 0.75

    def __init__(self, seed: int, scale: str = "medium") -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        base = converged_internet(
            self.scale, TOPOLOGY_SEED, origin_providers=2
        )
        graph, engine = base.graph, base.engine
        self.engine = engine
        self.prefix = graph.node(base.origin_asn).prefixes[0]
        self.controller = OriginController(
            engine, base.origin_asn, self.prefix
        )
        providers = set(self.controller.providers)
        ranked = sorted(
            graph.transit_ases(), key=lambda a: (-graph.degree(a), a)
        )
        top = [
            asn for asn in ranked
            if asn != base.origin_asn and asn not in providers
        ][: self.num_targets]
        #: the multi-poison partner of each target: the next by degree.
        self.partner = {
            asn: top[(i + 1) % len(top)] for i, asn in enumerate(top)
        }
        self.targets = list(top)
        random.Random(derive_seed(self.seed, self.name)).shuffle(
            self.targets
        )
        self.fibs = fib_mod.build_fibs(engine)
        engine.consume_fib_dirty()
        self.ledger = ImpactLedger(
            build_traffic_matrix(graph, seed=TOPOLOGY_SEED)
        )
        self.controller.announce_baseline()
        engine.run()
        self.fibs = fib_mod.build_fibs(
            engine, self.fibs, engine.consume_fib_dirty()
        )
        self.ledger.observe(engine.now, self.fibs, None)
        self._table_digests: Dict[int, tuple] = {}
        self.baseline_digest = self.forwarding_digest()

    def forwarding_digest(self) -> str:
        """Digest of every FIB entry; per-AS digests are cached by trie
        identity, since incremental builds share clean ASes' tries."""
        cache = self._table_digests
        parts = []
        for asn, trie in sorted(self.fibs.tables.items()):
            cached = cache.get(asn)
            if cached is None or cached[0] is not trie:
                cached = (trie, sha(flat_entries(trie.items())))
                cache[asn] = cached
            parts.append((asn, cached[1]))
        return sha(parts)

    def _action(self, index: int):
        target = self.targets[(index // len(RUNGS)) % len(self.targets)]
        rung = RUNGS[index % len(RUNGS)]
        key = f"repair-{target}"
        controller = self.controller
        first = [controller.providers[0]]
        if rung == "poison":
            poisoned = (target,)
            return rung, poisoned, lambda: controller.poison(
                poisoned, key=key
            )
        if rung == "multi-poison":
            poisoned = (target, self.partner[target])
            return rung, poisoned, lambda: controller.poison(
                poisoned, key=key
            )
        if rung == "prepend-steer":
            return rung, (), lambda: controller.steer_prepend(first, key=key)
        if rung == "selective-advertise":
            return rung, (), lambda: controller.suppress_providers(
                first, key=key
            )
        return rung, (), lambda: controller.unpoison(key)

    def unit(self, index: int) -> Unit:
        engine = self.engine
        rung, poisoned, action = self._action(index)
        engine.advance_to(engine.now + 600.0)
        start = clock()
        action()
        engine.run()
        dirty = engine.consume_fib_dirty()
        self.fibs = fib_mod.build_fibs(engine, self.fibs, dirty)
        self.ledger.observe(engine.now, self.fibs, None)
        seconds = clock() - start
        norm = seconds / self.host.slowdown()

        problems = self.check(rung, poisoned)
        digest = self.forwarding_digest()
        if rung == "unpoison" and digest != self.baseline_digest:
            problems.append("unpoison did not restore baseline forwarding")
        return Unit(
            latencies=[seconds],
            timed_s=seconds,
            norm_latencies=[norm],
            norm_timed_s=norm,
            work=1,
            attempted=1,
            failed=1 if problems else 0,
            digest=sha(index, rung, digest),
            key=index % self.cycle,
            problems=problems[:5],
            info={"dirty_ases": len(dirty) if dirty is not None else -1},
        )

    def check(self, rung: str, poisoned) -> List[str]:
        """FIB agrees with Loc-RIB for the production prefix at every AS;
        poisoned ASes hold no route to it."""
        problems = []
        prefix = self.prefix
        for asn, speaker in sorted(self.engine.speakers.items()):
            route = speaker.best(prefix)
            trie = self.fibs.tables.get(asn)
            got = trie.exact(prefix) if trie is not None else None
            want = None
            if route is not None:
                want = LOCAL if route.neighbor == asn else route.neighbor
            if got != want:
                problems.append(
                    f"{rung}: AS{asn} FIB {got} != Loc-RIB {want}"
                )
            if asn in poisoned and (route is not None or got is not None):
                problems.append(f"{rung}: poisoned AS{asn} still routes")
        return problems


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Service(Workload):
    """``LifeguardService`` at the ``repro bench`` service sizing.

    Small scale, 9 helper vantage points and 125 targets (1180
    monitored pairs at :data:`TOPOLOGY_SEED`), a file-backed
    ``RepairJournal`` whose size cap forces rotation and compaction, and
    one controller crash with journal recovery halfway through the
    arrival window.  The workload seed drives the outage schedule and
    the traffic matrix.  Each unit is one whole service run on a freshly
    built deployment; its operations are monitor rounds.
    """

    name = "service"
    tail_q = 0.90
    #: sim seconds of arrivals; rounds then run until the repairs drain.
    duration = 3000.0
    journal_max_bytes = 64 * 1024

    def __init__(
        self,
        seed: int,
        scratch: str,
        scale: str = "small",
        helper_vps: int = 9,
        targets: int = 125,
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.scale = scale
        self.helper_vps = helper_vps
        self.targets = targets
        self.service = None
        self.run_dir: Optional[str] = None

    def close(self) -> None:
        """Release the current deployment's journal and its directory."""
        if self.service is not None:
            self.service.journal.close()
            self.service = None
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            self.run_dir = None

    def setup(self, index: int = 0) -> None:
        self.close()
        run_dir = tempfile.mkdtemp(dir=self.scratch)
        self.run_dir = run_dir
        bus = EventBus(metrics=MetricsRegistry())
        journal = RepairJournal(
            os.path.join(run_dir, "journal.jsonl"),
            max_bytes=self.journal_max_bytes,
        )
        scenario = build_deployment(
            scale=self.scale,
            seed=TOPOLOGY_SEED,
            num_helper_vps=self.helper_vps,
            num_targets=self.targets,
            obs=bus,
            journal=journal,
        )
        config = ServiceConfig(
            duration=self.duration,
            arrivals=OutageArrivalConfig(
                first_arrival=600.0, spacing=600.0, duration=900.0
            ),
            seed=derive_seed(self.seed, self.name, index),
            crash_at=self.duration / 2,
        )
        self.service = LifeguardService(scenario, config, obs=bus)
        self.service.start()

    def prepare(self, index: int) -> None:
        """A fresh deployment for every run after the first."""
        if index > 0:
            self.setup(index)

    def unit(self, index: int) -> Unit:
        service = self.service
        host = self.host
        rounds: List[float] = []
        slowdowns: List[float] = []
        run_round = service.run_round

        def timed_round(now: float) -> None:
            start = clock()
            run_round(now)
            rounds.append(clock() - start)
            slowdowns.append(host.slowdown())

        service.run_round = timed_round
        sampled = host.spent_s
        start = clock()
        report = service.run()
        seconds = clock() - start - (host.spent_s - sampled)
        del service.run_round
        norm_rounds = [r / f for r, f in zip(rounds, slowdowns)]
        # Work between rounds (crash, recovery, drain) runs at the mean
        # speed of the rounds around it.
        norm_seconds = sum(norm_rounds) + (seconds - sum(rounds)) / (
            sum(slowdowns) / len(slowdowns)
        )
        self.close()

        problems = []
        if report.abandoned:
            problems.append(f"{report.abandoned} abandoned repairs")
        if not report.drained:
            problems.append(f"not drained: {report.pending} pending")
        if report.crashes != 1:
            problems.append(f"{report.crashes} crashes, expected 1")
        if report.journal_rotations < 1:
            problems.append("journal never rotated")
        attempted = max(report.records, 1)
        failed = report.abandoned + (0 if report.drained else report.pending)
        if problems and not failed:
            # The run itself missed its shape (crash, rotation): all of
            # its repairs count as failed.
            failed = attempted
        return Unit(
            latencies=rounds,
            timed_s=seconds,
            norm_latencies=norm_rounds,
            norm_timed_s=norm_seconds,
            work=report.duration,
            attempted=attempted,
            failed=min(failed, attempted),
            digest=sha(report.digest, json.dumps(
                report.as_dict(), sort_keys=True
            )),
            problems=problems,
            info={
                "rounds": report.rounds,
                "monitored_pairs": report.monitored_pairs,
                "sim_speedup": report.duration / seconds,
                "journal_rotations": report.journal_rotations,
                "service.queue_peak": max(report.queue_peaks.values()),
                "service.timeouts": report.timeouts,
            },
        )


# ----------------------------------------------------------------------
# fuzz-diff
# ----------------------------------------------------------------------
class FuzzDiff(Workload):
    """Differential fuzzing campaigns: solver vs event engine vs delta.

    Each unit is one ``run_campaign`` of five medium-scale cases with one
    worker.  The campaigns come from a fixed pool of :attr:`pool`
    campaign seeds derived from :data:`TOPOLOGY_SEED`, visited in an
    order drawn from the workload seed: case costs are heavy-tailed, so
    a fresh sample of cases per run would move the medians by more than
    the bounds.  Divergences and crashes are failed cases; gate
    rejections are not.
    """

    name = "fuzz-diff"
    pool = 15
    cycle = min_units = pool
    identity_units = 4
    tail_q = 0.75
    cases = 5

    def __init__(
        self, seed: int, scale: str = "medium", inject: bool = False
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.inject = inject

    def setup(self) -> None:
        self.order = list(range(self.pool))
        random.Random(derive_seed(self.seed, self.name)).shuffle(self.order)

    def unit(self, index: int) -> Unit:
        slot = self.order[index % len(self.order)]
        campaign_seed = derive_seed(TOPOLOGY_SEED, self.name, slot)
        start = clock()
        report = campaign.run_campaign(
            seed=campaign_seed,
            cases=self.cases,
            scale=self.scale,
            workers=1,
            inject_divergence=self.inject,
        )
        seconds = clock() - start
        norm = seconds / self.host.slowdown()
        failed = report.divergences + report.crashes
        summary = {
            "equal": report.equal,
            "divergences": report.divergences,
            "crashes": report.crashes,
            "gate_rejected": report.gate_rejected,
        }
        return Unit(
            latencies=[seconds],
            timed_s=seconds,
            norm_latencies=[norm],
            norm_timed_s=norm,
            work=report.cases,
            attempted=report.cases,
            failed=failed,
            digest=sha(campaign_seed, sorted(summary.items())),
            key=slot,
            problems=[f"{failed} failed cases"] if failed else [],
            info=summary,
        )
