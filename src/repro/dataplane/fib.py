"""Per-AS FIB snapshots derived from the BGP engine's Loc-RIBs.

Each AS gets a longest-prefix-match trie mapping prefixes to the AS-level
next hop (or LOCAL for prefixes the AS originates).  The data plane
resolves the AS-level next hop to concrete routers with hot-potato egress
selection at forwarding time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

from repro.bgp.engine import BGPEngine
from repro.net.addr import Address, Prefix
from repro.net.trie import PrefixTrie
from repro.topology.relationships import Relationship

#: Sentinel next-hop meaning "this AS originates the prefix".
LOCAL = -1

#: The 0.0.0.0/0-equivalent entry default-routed ASes point at a provider.
DEFAULT_PREFIX = Prefix(0, 0)


@dataclass
class FibSnapshot:
    """Frozen forwarding state for the whole topology at one instant."""

    #: asn -> LPM trie of prefix -> next-hop asn (or LOCAL).
    tables: Dict[int, PrefixTrie] = field(default_factory=dict)
    #: prefix -> originating asn, for host-attachment decisions.
    origins: Dict[Prefix, int] = field(default_factory=dict)
    #: asn -> (the previous snapshot's trie this AS's trie was
    #: :meth:`~repro.net.trie.PrefixTrie.patched` from, the prefixes the
    #: patch changed); lets FlatFibSet splice instead of recompiling.
    lineage: Dict[int, Tuple[PrefixTrie, Tuple[Prefix, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Lazily built LPM index over ``origins`` (origin_for is per-probe).
    _origin_trie: Optional[PrefixTrie] = field(
        default=None, repr=False, compare=False
    )

    def next_hop_as(
        self, asn: int, destination: Union[int, str, Address]
    ) -> Optional[int]:
        """AS-level next hop at *asn* for *destination* (LOCAL, asn, None)."""
        table = self.tables.get(asn)
        if table is None:
            return None
        return table.lookup_value(destination)

    def origin_for(
        self, destination: Union[int, str, Address]
    ) -> Optional[int]:
        """The AS hosting *destination*, per most-specific originated prefix.

        Resolved by an LPM lookup against a trie built once per snapshot:
        this runs per probe, and the old linear scan over
        ``origins.items()`` was O(prefixes) per call.  The index is
        rebuilt if entries were added after the first lookup; snapshots
        are otherwise frozen once ``build_fibs`` returns.
        """
        trie = self._origin_trie
        if trie is None or len(trie) != len(self.origins):
            trie = PrefixTrie()
            for prefix, asn in self.origins.items():
                trie[prefix] = asn
            self._origin_trie = trie
        return trie.lookup_value(Address(destination))


def _build_as_fib(
    asn: int, speaker, origins: Dict[Prefix, int]
) -> PrefixTrie:
    """One AS's Loc-RIB as an LPM trie; locally-originated prefixes are
    recorded into *origins*."""
    trie: PrefixTrie = PrefixTrie()
    for prefix, route in speaker.table.loc_rib().items():
        if route.neighbor == asn:
            trie[prefix] = LOCAL
            origins[prefix] = asn
        else:
            trie[prefix] = route.neighbor
    if speaker.policy.config.default_route_via_provider:
        providers = sorted(
            nbr
            for nbr, rel in speaker.neighbors.items()
            if rel is Relationship.PROVIDER
        )
        if providers:
            trie[DEFAULT_PREFIX] = providers[0]
    return trie


def _fib_hop(asn: int, speaker, prefix: Prefix) -> Optional[int]:
    """The FIB value of *prefix* at *asn* per its Loc-RIB (None: no
    route)."""
    route = speaker.best(prefix)
    if route is None:
        return None
    return LOCAL if route.neighbor == asn else route.neighbor


def build_fibs(
    engine: BGPEngine,
    previous: Optional[FibSnapshot] = None,
    dirty_asns: Optional[Dict[int, Set[Prefix]]] = None,
) -> FibSnapshot:
    """Snapshot every speaker's Loc-RIB into forwarding tables.

    ASes configured with ``default_route_via_provider`` additionally get
    a least-specific default entry pointing at their lowest-numbered
    provider: even when a poison (or outage) evicts the BGP route for a
    prefix, their packets still leave toward the provider — the measured
    behavior that makes "unreachable" stubs keep delivering traffic.

    With *previous* (a snapshot of the same engine) and *dirty_asns*
    (asn -> prefixes whose next hop changed, from
    :meth:`BGPEngine.consume_fib_dirty`), the refresh is per entry and
    reads only the dirty prefixes' Loc-RIB next hops:

    - an AS whose hops all flipped back keeps its previous trie object;
    - any other dirty AS gets ``previous_trie.patched(updates)``, a path
      copy sharing every untouched subtree, recorded in the snapshot's
      ``lineage`` so :class:`~repro.traffic.lpm.FlatFibSet` can splice
      its compiled table instead of recompiling it;
    - clean ASes *share their trie object* with the previous snapshot.

    Tries are shared across snapshots, so every snapshot must be treated
    as frozen once this returns.  ``origins`` is updated per changed
    prefix and always equals a full rebuild's (the last originating
    speaker in ``engine.speakers`` order).  ``dirty_asns=None`` means
    the change set is unbounded — full rebuild.
    """
    if previous is not None and dirty_asns is not None:
        if not dirty_asns:
            return previous
        snapshot = FibSnapshot(
            tables=dict(previous.tables), origins=dict(previous.origins)
        )
        # A claim can only change where an AS gained or lost a local
        # route, and a lost claim was in previous.origins.
        reclaim: Set[Prefix] = set()
        for asn in sorted(dirty_asns):
            speaker = engine.speakers[asn]
            old = previous.tables[asn]
            updates: Dict[Prefix, Optional[int]] = {}
            for prefix in dirty_asns[asn]:
                hop = _fib_hop(asn, speaker, prefix)
                if hop == LOCAL or prefix in previous.origins:
                    reclaim.add(prefix)
                if old.exact(prefix) != hop:
                    updates[prefix] = hop
            if updates:
                snapshot.tables[asn] = old.patched(updates)
                snapshot.lineage[asn] = (old, tuple(updates))
        for prefix in reclaim:
            snapshot.origins.pop(prefix, None)
            for asn, speaker in reversed(engine.speakers.items()):
                if _fib_hop(asn, speaker, prefix) == LOCAL:
                    snapshot.origins[prefix] = asn
                    break
        return snapshot
    snapshot = FibSnapshot()
    for asn, speaker in engine.speakers.items():
        snapshot.tables[asn] = _build_as_fib(asn, speaker, snapshot.origins)
    return snapshot
