"""The compiled flat LPM is byte-identical to the PrefixTrie.

The flat table is the traffic layer's hot path, so its contract is
strict: for every address, ``FlatLPM.resolve`` (and the batch
``resolve_many``, with or without the numpy fast path) returns exactly
what ``PrefixTrie.lookup_value`` would.  The fuzz test sweeps random
laminar-by-construction tries and checks every interval boundary, where
off-by-one bugs live; a dedicated regression pins the ``0.0.0.0/0``
default-route entry that ``default_route_via_provider`` stubs install,
which exercises the table's outermost interval at both address-space
ends.  The ``origin_for`` tests cover the satellite fix replacing the
per-probe linear scan over ``FibSnapshot.origins`` with a cached trie.

The patch path is held to the same contract: a path-copied trie equals
a fresh build and leaves its source unchanged, a spliced table equals
``compile`` of the new trie interval for interval (tables are
canonical: no two adjacent values are equal), and an incremental
``build_fibs`` equals a full one after every repair step, ``origins``
included.
"""

import random

import pytest

from repro.bgp.engine import BGPEngine
from repro.bgp.messages import make_path
from repro.bgp.origin import OriginController
from repro.bgp.policy import SpeakerConfig
from repro.dataplane.fib import DEFAULT_PREFIX, LOCAL, build_fibs
from repro.net.addr import Prefix
from repro.net.trie import PrefixTrie
from repro.runner.baseline import converged_internet
from repro.topology.as_graph import ASGraph
from repro.topology.relationships import Relationship
from repro.traffic.lpm import FlatFibSet, FlatLPM

_SPACE = 1 << 32

P = Prefix("10.100.0.0/16")


def _mask(length):
    return ((1 << length) - 1) << (32 - length) if length else 0


def _random_trie(rng, entries):
    trie = PrefixTrie()
    for _ in range(entries):
        length = rng.randint(0, 32)
        base = rng.getrandbits(32) & _mask(length)
        trie[Prefix(base, length)] = rng.randint(-1, 500)
    return trie


def _nested_prefix(rng, existing):
    """A random prefix, usually nested inside (or equal to) one of
    *existing*, sometimes the /0."""
    roll = rng.random()
    if roll < 0.05:
        return Prefix(0, 0)
    if existing and roll < 0.75:
        parent = rng.choice(existing)
        length = rng.randint(parent.length, min(32, parent.length + 6))
        extra = rng.getrandbits(32) & _mask(length) & ~_mask(parent.length)
        return Prefix(parent.base | extra, length)
    length = rng.randint(1, 24)
    return Prefix(rng.getrandbits(32) & _mask(length), length)


def _hop(rng):
    # A small value palette (LOCAL included) makes equal neighbours,
    # the case canonical merging handles, common.
    return rng.choice([LOCAL, 1, 2, 3])


def _nested_trie(rng, entries):
    trie = PrefixTrie()
    prefixes = []
    for _ in range(entries):
        prefix = _nested_prefix(rng, prefixes)
        prefixes.append(prefix)
        trie[prefix] = _hop(rng)
    return trie


def _random_updates(rng, trie, count):
    """Adds, value changes and removals (some of absent prefixes)."""
    present = [p for p, _v in trie.items()]
    updates = {}
    for _ in range(count):
        roll = rng.random()
        if present and roll < 0.35:
            updates[rng.choice(present)] = None
        elif present and roll < 0.7:
            updates[rng.choice(present)] = _hop(rng)
        else:
            prefix = _nested_prefix(rng, present)
            updates[prefix] = None if roll > 0.95 else _hop(rng)
    return updates


def _boundary_addresses(trie):
    """Every interval edge: starts, ends, and their off-by-one shadows."""
    out = {0, _SPACE - 1}
    for prefix, _value in trie.items():
        start = prefix.base
        end = start + prefix.num_addresses
        for a in (start - 1, start, end - 1, end):
            if 0 <= a < _SPACE:
                out.add(a)
    return sorted(out)


class TestFlatLPMFuzz:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_trie_at_every_boundary(self, seed):
        rng = random.Random(seed)
        trie = _random_trie(rng, entries=rng.randint(1, 60))
        flat = FlatLPM.compile(trie)
        addrs = _boundary_addresses(trie)
        addrs += [rng.getrandbits(32) for _ in range(64)]
        expected = [trie.lookup_value(a) for a in addrs]
        assert [flat.resolve(a) for a in addrs] == expected
        assert flat.resolve_many(addrs) == expected

    @pytest.mark.parametrize("numpy_flag", ["0", "1"])
    def test_numpy_and_bisect_paths_agree(self, numpy_flag, monkeypatch):
        monkeypatch.setenv("REPRO_TRAFFIC_NUMPY", numpy_flag)
        rng = random.Random(99)
        trie = _random_trie(rng, entries=40)
        flat = FlatLPM.compile(trie)
        # Well past the >=32 batch threshold that arms the numpy path.
        addrs = _boundary_addresses(trie)[:40] or [0]
        addrs = addrs * 3
        assert flat.resolve_many(addrs) == [
            trie.lookup_value(a) for a in addrs
        ]

    def test_empty_trie_resolves_none_everywhere(self):
        flat = FlatLPM.compile(PrefixTrie())
        assert flat.resolve(0) is None
        assert flat.resolve(_SPACE - 1) is None
        assert len(flat) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_compiled_table_is_canonical(self, seed):
        rng = random.Random(seed)
        trie = _nested_trie(rng, entries=rng.randint(1, 60))
        values = [v for _b, v in FlatLPM.compile(trie).intervals()]
        assert all(a != b for a, b in zip(values, values[1:]))

    def test_adjacent_equal_siblings_merge(self):
        # Both /9 halves of 10/8 forward like each other: one interval.
        trie = PrefixTrie()
        trie[Prefix("0.0.0.0/0")] = 1
        trie[Prefix("10.0.0.0/9")] = 2
        trie[Prefix("10.128.0.0/9")] = 2
        start = Prefix("10.0.0.0/8").base
        assert FlatLPM.compile(trie).intervals() == [
            (0, 1), (start, 2), (start + (1 << 24), 1),
        ]

    def test_intervals_cover_the_space_in_order(self):
        rng = random.Random(5)
        flat = FlatLPM.compile(_random_trie(rng, entries=30))
        bases = [b for b, _ in flat.intervals()]
        assert bases[0] == 0
        assert bases == sorted(bases)
        assert len(set(bases)) == len(bases)


class TestDefaultRouteBoundary:
    """The 0.0.0.0/0 entry is the table's outermost interval."""

    def _default_routed_fibs(self):
        # O(1) and the stub S(3) both buy transit from 2; S
        # default-routes, and the origin poisons S so S's BGP route
        # for P disappears — only the /0 keeps its packets flowing.
        g = ASGraph()
        g.add_as(1, tier=3)
        g.add_as(2, tier=2)
        g.add_as(3, tier=3)
        g.assign_prefix(1, P)
        g.assign_prefix(2, Prefix("10.102.0.0/16"))
        g.assign_prefix(3, Prefix("10.103.0.0/16"))
        g.add_link(1, 2, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        engine = BGPEngine(
            g,
            speaker_configs={
                3: SpeakerConfig(default_route_via_provider=True)
            },
        )
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[3]))
        engine.originate(2, Prefix("10.102.0.0/16"))
        engine.originate(3, Prefix("10.103.0.0/16"))
        engine.run()
        return build_fibs(engine)

    def test_flat_table_honours_the_default_entry(self):
        fibs = self._default_routed_fibs()
        trie = fibs.tables[3]
        assert trie.exact(DEFAULT_PREFIX) == 2
        flat = FlatLPM.compile(trie)
        # The poisoned prefix falls through to the provider default...
        assert flat.resolve(P.address(1)) == 2
        # ...as do both extreme ends of the address space.
        assert flat.resolve(0) == 2
        assert flat.resolve(_SPACE - 1) == 2
        # More-specific entries still win over the /0.
        assert flat.resolve(Prefix("10.103.0.0/16").address(1)) == LOCAL
        assert flat.resolve(Prefix("10.102.0.0/16").address(1)) == 2

    def test_flat_table_matches_trie_everywhere(self):
        fibs = self._default_routed_fibs()
        trie = fibs.tables[3]
        flat = FlatLPM.compile(trie)
        addrs = _boundary_addresses(trie)
        assert flat.resolve_many(addrs) == [
            trie.lookup_value(a) for a in addrs
        ]


class TestFlatFibSet:
    def test_tables_memoised_per_snapshot(self):
        fibs = TestDefaultRouteBoundary()._default_routed_fibs()
        fibset = FlatFibSet(fibs)
        assert fibset.table(3) is fibset.table(3)
        assert fibset.table(999) is None
        assert fibset.resolve(999, 0) is None
        assert fibset.resolve_many(999, [0, 1]) == [None, None]

    def test_attach_invalidates_compiled_tables(self):
        builder = TestDefaultRouteBoundary()
        first = builder._default_routed_fibs()
        second = builder._default_routed_fibs()
        fibset = FlatFibSet(first)
        table = fibset.table(3)
        fibset.attach(first)  # same snapshot: cache kept
        assert fibset.table(3) is table
        fibset.attach(second)  # new snapshot: recompiled
        assert fibset.table(3) is not table

    def test_resolve_matches_snapshot_next_hop(self):
        fibs = TestDefaultRouteBoundary()._default_routed_fibs()
        fibset = FlatFibSet(fibs)
        addr = P.address(7)
        for asn in fibs.tables:
            assert fibset.resolve(asn, addr) == fibs.next_hop_as(
                asn, addr
            )


class TestPatchPath:
    """Path-copied tries and spliced flat tables, fuzzed: random nested
    tries (with the /0 and LOCAL) under random update sequences."""

    @pytest.mark.parametrize("seed", range(25))
    def test_patch_sequence_matches_fresh_builds(self, seed):
        rng = random.Random(seed)
        trie = _nested_trie(rng, entries=rng.randint(0, 50))
        flat = FlatLPM.compile(trie)
        for _step in range(6):
            before = list(trie.items())
            updates = _random_updates(rng, trie, rng.randint(1, 6))
            expected = dict(before)
            for prefix, value in updates.items():
                if value is None:
                    expected.pop(prefix, None)
                else:
                    expected[prefix] = value
            fresh = PrefixTrie()
            for prefix, value in expected.items():
                fresh[prefix] = value
            patched = trie.patched(updates)
            assert list(patched.items()) == list(fresh.items())
            assert len(patched) == len(fresh)
            # Persistence: the source trie still holds what it held.
            assert list(trie.items()) == before
            assert len(trie) == len(before)
            flat = flat.spliced(patched, updates)
            assert flat.intervals() == FlatLPM.compile(fresh).intervals()
            assert len(flat) == len(fresh)
            addrs = _boundary_addresses(fresh)
            assert flat.resolve_many(addrs) == [
                fresh.lookup_value(a) for a in addrs
            ]
            trie = patched

    def test_splice_leaves_the_source_table_alone(self):
        rng = random.Random(3)
        trie = _nested_trie(rng, entries=40)
        flat = FlatLPM.compile(trie)
        before = flat.intervals()
        updates = _random_updates(rng, trie, 5)
        flat.spliced(trie.patched(updates), updates)
        assert flat.intervals() == before


def _snapshot_entries(fibs):
    return {asn: list(trie.items()) for asn, trie in fibs.tables.items()}


def _assert_equals_full_build(engine, incremental):
    full = build_fibs(engine)
    assert _snapshot_entries(incremental) == _snapshot_entries(full)
    assert incremental.origins == full.origins


def _three_as_graph():
    # O(1) and the stub 3 both buy transit from 2.
    g = ASGraph()
    g.add_as(1, tier=3)
    g.add_as(2, tier=2)
    g.add_as(3, tier=3)
    g.assign_prefix(1, P)
    g.assign_prefix(2, Prefix("10.102.0.0/16"))
    g.assign_prefix(3, Prefix("10.103.0.0/16"))
    g.add_link(1, 2, Relationship.PROVIDER)
    g.add_link(3, 2, Relationship.PROVIDER)
    return g


class TestIncrementalFibReuse:
    """Entry-granular refresh: an incremental ``build_fibs`` patches only
    the changed (AS, prefix) entries, shares clean ASes' trie objects
    with the previous snapshot, and ``attach`` splices the patched ASes'
    compiled tables (``patches``) instead of dropping them
    (``invalidations``)."""

    @staticmethod
    def _engine():
        g = _three_as_graph()
        engine = BGPEngine(g)
        for node in g.nodes():
            for prefix in node.prefixes:
                engine.originate(node.asn, prefix)
        engine.run()
        return engine

    @staticmethod
    def _poison_3(engine):
        # Poisoning AS3 evicts its route for P (a next-hop change at 3);
        # AS2 keeps next hop 1, so its trie must survive untouched.
        engine.originate(1, P, path=make_path(1, prepend=2, poison=[3]))
        engine.run()

    @staticmethod
    def _unpoison(engine):
        engine.originate(1, P)
        engine.run()

    def _compiled(self, fibs):
        fibset = FlatFibSet(fibs)
        tables = {asn: fibset.table(asn) for asn in fibs.tables}
        return fibset, tables

    def test_incremental_attach_keeps_clean_tables(self):
        engine = self._engine()
        engine.consume_fib_dirty()
        first = build_fibs(engine)
        fibset, tables = self._compiled(first)
        self._poison_3(engine)
        dirty = engine.consume_fib_dirty()
        assert dirty == {3: {P}}
        second = build_fibs(engine, first, dirty_asns=dirty)
        _assert_equals_full_build(engine, second)
        assert second.tables[1] is first.tables[1]
        assert second.tables[2] is first.tables[2]
        assert second.tables[3] is not first.tables[3]
        assert second.tables[3].exact(P) is None
        assert first.tables[3].exact(P) == 2  # the old snapshot is frozen
        fibset.attach(second)
        assert fibset.invalidations == 0
        assert fibset.patches == 1
        assert fibset.table(1) is tables[1]
        assert fibset.table(2) is tables[2]
        assert fibset.table(3) is not tables[3]
        assert fibset.table(3).intervals() == FlatLPM.compile(
            second.tables[3]
        ).intervals()

    def test_flipped_back_as_keeps_its_trie(self):
        engine = self._engine()
        engine.consume_fib_dirty()
        first = build_fibs(engine)
        fibset, tables = self._compiled(first)
        self._poison_3(engine)
        self._unpoison(engine)
        dirty = engine.consume_fib_dirty()
        assert P in dirty[3]  # changed twice inside the window
        second = build_fibs(engine, first, dirty_asns=dirty)
        _assert_equals_full_build(engine, second)
        for asn in first.tables:
            assert second.tables[asn] is first.tables[asn]
        fibset.attach(second)
        assert fibset.invalidations == 0
        assert fibset.patches == 0
        assert fibset.table(3) is tables[3]

    def test_broken_lineage_recompiles(self):
        engine = self._engine()
        engine.consume_fib_dirty()
        first = build_fibs(engine)
        fibset, tables = self._compiled(first)
        self._poison_3(engine)
        second = build_fibs(engine, first, engine.consume_fib_dirty())
        self._unpoison(engine)
        third = build_fibs(engine, second, engine.consume_fib_dirty())
        _assert_equals_full_build(engine, third)
        # third's AS3 trie was patched from second's, which this set
        # never saw: its table is dropped and compiled afresh.
        fibset.attach(third)
        assert fibset.invalidations == 1
        assert fibset.patches == 0
        assert fibset.table(3).intervals() == tables[3].intervals()

    def test_empty_dirty_set_returns_previous_snapshot(self):
        engine = self._engine()
        first = build_fibs(engine)
        assert build_fibs(engine, first, dirty_asns={}) is first

    def test_tracked_dirty_cone_matches_full_rebuild(self):
        engine = self._engine()
        # Cold start: the change set is unbounded until first consumed.
        assert engine.consume_fib_dirty() is None
        first = build_fibs(engine)
        fibset, _tables = self._compiled(first)
        self._poison_3(engine)
        dirty = engine.consume_fib_dirty()
        assert dirty is not None and 3 in dirty
        assert 2 not in dirty
        incremental = build_fibs(engine, first, dirty_asns=dirty)
        full = build_fibs(engine)
        for asn in full.tables:
            trie = full.tables[asn]
            addrs = _boundary_addresses(trie)
            assert FlatLPM.compile(
                incremental.tables[asn]
            ).resolve_many(addrs) == [
                trie.lookup_value(a) for a in addrs
            ], f"incremental FIB differs at AS{asn}"
        for asn in set(first.tables) - set(dirty):
            assert incremental.tables[asn] is first.tables[asn]
        fibset.attach(incremental)
        assert fibset.invalidations == 0
        assert fibset.patches == len(incremental.lineage) == len(dirty)


class TestIncrementalOrigins:
    def test_moas_withdrawal_keeps_the_remaining_claim(self):
        # AS1 and AS3 both originate P; AS3 (the later speaker) holds
        # the claim until it withdraws, then AS1's must remain.
        engine = BGPEngine(_three_as_graph())
        engine.originate(1, P)
        engine.originate(3, P)
        engine.run()
        engine.consume_fib_dirty()
        first = build_fibs(engine)
        assert first.origins == {P: 3}
        engine.withdraw_origin(3, P)
        engine.run()
        incremental = build_fibs(engine, first, engine.consume_fib_dirty())
        _assert_equals_full_build(engine, incremental)
        assert incremental.origins == {P: 1}
        assert incremental.origin_for(P.address(5)) == 1
        assert first.origins == {P: 3}

    def test_repair_ladder_matches_full_builds(self):
        """poison -> multi-poison -> unpoison on a small converged
        Internet: after every step the incremental snapshot equals a
        full build entry for entry, and every compiled table is spliced
        to what compile gives."""
        base = converged_internet("small", 3, origin_providers=2)
        graph, engine = base.graph, base.engine
        prefix = graph.node(base.origin_asn).prefixes[0]
        controller = OriginController(engine, base.origin_asn, prefix)
        fibs = build_fibs(engine)
        engine.consume_fib_dirty()
        controller.announce_baseline()
        engine.run()
        fibs = build_fibs(engine, fibs, engine.consume_fib_dirty())
        fibset = FlatFibSet(fibs)
        for asn in fibs.tables:
            fibset.table(asn)
        providers = set(controller.providers)
        targets = [
            asn
            for asn in sorted(
                graph.transit_ases(), key=lambda a: (-graph.degree(a), a)
            )
            if asn != base.origin_asn and asn not in providers
        ][:2]
        steps = (
            lambda: controller.poison(targets[:1], key="r"),
            lambda: controller.poison(targets, key="r"),
            lambda: controller.unpoison("r"),
        )
        for step in steps:
            step()
            engine.run()
            dirty = engine.consume_fib_dirty()
            assert dirty
            fibs = build_fibs(engine, fibs, dirty)
            _assert_equals_full_build(engine, fibs)
            fibset.attach(fibs)
            for asn, trie in fibs.tables.items():
                assert fibset.table(asn).intervals() == FlatLPM.compile(
                    trie
                ).intervals(), f"AS{asn}"
        assert fibset.invalidations == 0
        assert fibset.patches > 0


class TestOriginForIndex:
    """The satellite fix: origin_for is an LPM lookup, not a scan."""

    def test_matches_linear_scan(self, small_internet):
        _graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        probes = []
        for prefix in fibs.origins:
            probes.append(prefix.address(0))
            if prefix.num_addresses > 1:
                probes.append(prefix.address(1))
        probes.append(0)  # covered by no originated prefix
        for addr in probes:
            best = None
            for prefix, asn in fibs.origins.items():
                if addr in prefix and (
                    best is None or prefix.length > best[0]
                ):
                    best = (prefix.length, asn)
            assert fibs.origin_for(addr) == (best[1] if best else None)

    def test_index_rebuilt_when_origins_grow(self, small_internet):
        _graph, _topo, engine = small_internet
        fibs = build_fibs(engine)
        probe = Prefix("203.0.113.0/24")
        assert fibs.origin_for(probe.address(1)) is None
        fibs.origins[probe] = 64500
        assert fibs.origin_for(probe.address(1)) == 64500
