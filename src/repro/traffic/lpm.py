"""Compiled flat longest-prefix-match tables for batch resolution.

The per-packet :class:`~repro.net.trie.PrefixTrie` walks up to 32 Python
nodes per lookup, which is fine for a traceroute probe but hopeless for a
traffic matrix that needs to resolve thousands of destination addresses
per sample.  IPv4 prefixes form a laminar family (any two are nested or
disjoint), so a FIB trie flattens into a sorted table of half-open
address intervals, each carrying the next hop of its most specific
covering prefix.  Lookup is then one ``bisect`` per address — or one
vectorised ``searchsorted`` for a whole batch when numpy is available.

A property test (tests/test_traffic_lpm.py) pins the flat table
byte-identical to ``PrefixTrie.lookup`` over fuzz-generated FIBs,
including the ``0.0.0.0/0`` default-route entry that
``default_route_via_provider`` stubs install.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.net.addr import Address, Prefix
from repro.net.trie import PrefixTrie

try:  # pragma: no cover - exercised indirectly via the env toggle
    import numpy as _np
except Exception:  # pragma: no cover - numpy is optional
    _np = None

#: Exclusive upper bound of the IPv4 address space.
_ADDRESS_SPACE = 1 << 32

#: Palette sentinel for "no covering prefix" in the numpy fast path.
_NO_ROUTE = -(1 << 62)

#: "No interval before this one" while splicing at address 0.
_UNSET = object()


def _numpy_enabled() -> bool:
    """Whether the vectorised batch path is available and not disabled."""
    if _np is None:
        return False
    return os.environ.get("REPRO_TRAFFIC_NUMPY", "1") != "0"


def _sweep(
    entries: Iterable[Tuple[Prefix, Optional[int]]],
    lo: int,
    hi: int,
    outer: Optional[int],
) -> Tuple[List[int], List[Optional[int]]]:
    """Canonical interval table of *entries* over ``[lo, hi)``.

    *entries* lie inside the range, sorted by (base, length); *outer* is
    the value wherever none of them covers an address.  One stack sweep:
    entering a prefix opens an interval with its value, leaving it
    restores the enclosing prefix's value.  A prefix opening where its
    neighbour closed overwrites that boundary, and the boundary is
    dropped when that leaves it equal to the interval before it, so no
    two adjacent values are equal.
    """
    bases: List[int] = [lo]
    values: List[Optional[int]] = [outer]

    def emit(base: int, value: Optional[int]) -> None:
        if base >= hi:
            return
        if bases[-1] == base:
            if len(values) > 1 and values[-2] == value:
                bases.pop()
                values.pop()
            else:
                values[-1] = value
        elif values[-1] != value:
            bases.append(base)
            values.append(value)

    # Stack of (end_exclusive, value) for the prefixes currently open.
    stack: List[Tuple[int, Optional[int]]] = []
    for prefix, value in entries:
        start = prefix.base
        end = start + prefix.num_addresses
        while stack and stack[-1][0] <= start:
            closed_end, _ = stack.pop()
            emit(closed_end, stack[-1][1] if stack else outer)
        emit(start, value)
        stack.append((end, value))
    while stack:
        closed_end, _ = stack.pop()
        emit(closed_end, stack[-1][1] if stack else outer)
    return bases, values


class FlatLPM:
    """A PrefixTrie compiled to a sorted interval table.

    ``bases`` is a sorted list of interval starts covering [0, 2^32);
    ``values[i]`` is the next hop for addresses in
    ``[bases[i], bases[i+1])`` — ``None`` where no prefix covers the
    interval.  The table is canonical: no two adjacent ``values`` are
    equal, so a table has one form per forwarding function, whether
    :meth:`compile` built it or :meth:`spliced` patched it.
    """

    __slots__ = ("bases", "values", "size", "_np_bases", "_np_values")

    def __init__(
        self, bases: List[int], values: List[Optional[int]], size: int
    ):
        self.bases = bases
        self.values = values
        self.size = size
        self._np_bases = None
        self._np_values = None

    @classmethod
    def compile(cls, trie: PrefixTrie) -> "FlatLPM":
        """Flatten *trie* into an interval table."""
        entries = sorted(
            trie.items(), key=lambda kv: (kv[0].base, kv[0].length)
        )
        bases, values = _sweep(entries, 0, _ADDRESS_SPACE, None)
        return cls(bases, values, len(trie))

    def spliced(
        self, trie: PrefixTrie, prefixes: Iterable[Prefix]
    ) -> "FlatLPM":
        """A copy of this table re-swept from *trie* over *prefixes*.

        *trie* must differ from the trie this table was compiled from at
        most at *prefixes* (set, changed or removed).  Each prefix's
        ``[base, end)`` range is swept again from *trie*'s entries inside
        it, starting from the value of its nearest covering entry, and
        spliced in; the intervals outside every range are kept.  The
        result equals ``FlatLPM.compile(trie)`` interval for interval,
        at the cost of the changed subtrees instead of the whole trie.
        """
        bases = self.bases[:]
        values = self.values[:]
        for prefix in prefixes:
            lo = prefix.base
            hi = lo + prefix.num_addresses
            outer = None
            for cover, value in trie.covering(prefix):
                if cover.length < prefix.length:
                    outer = value
            seg_bases, seg_values = _sweep(
                trie.items_within(prefix), lo, hi, outer
            )
            i = bisect_left(bases, lo)
            j = bisect_right(bases, hi)
            if hi < _ADDRESS_SPACE:
                # The interval holding ``hi`` lies outside the range.
                seg_bases.append(hi)
                seg_values.append(values[j - 1])
            # Keep the table canonical across both splice edges.
            keep_bases: List[int] = []
            keep_values: List[Optional[int]] = []
            last: Any = values[i - 1] if i else _UNSET
            for base, value in zip(seg_bases, seg_values):
                if value != last:
                    keep_bases.append(base)
                    keep_values.append(value)
                    last = value
            bases[i:j] = keep_bases
            values[i:j] = keep_values
        return type(self)(bases, values, len(trie))

    def resolve(self, address: Union[int, str, Address]) -> Optional[int]:
        """Next hop for *address*, identical to ``trie.lookup_value``."""
        value = Address(address).value
        return self.values[bisect_right(self.bases, value) - 1]

    def resolve_many(
        self, addresses: Sequence[Union[int, str, Address]]
    ) -> List[Optional[int]]:
        """Batch-resolve *addresses*; one bisect (or searchsorted) each."""
        ints = [
            a if type(a) is int else Address(a).value  # noqa: E721
            for a in addresses
        ]
        if _numpy_enabled() and len(ints) >= 32:
            return self._resolve_many_numpy(ints)
        bases = self.bases
        values = self.values
        return [values[bisect_right(bases, a) - 1] for a in ints]

    def _resolve_many_numpy(self, ints: List[int]) -> List[Optional[int]]:
        if self._np_bases is None:
            self._np_bases = _np.asarray(self.bases, dtype=_np.int64)
            self._np_values = _np.asarray(
                [_NO_ROUTE if v is None else v for v in self.values],
                dtype=_np.int64,
            )
        addrs = _np.asarray(ints, dtype=_np.int64)
        idx = _np.searchsorted(self._np_bases, addrs, side="right") - 1
        hits = self._np_values[idx].tolist()
        return [None if v == _NO_ROUTE else v for v in hits]

    def __len__(self) -> int:
        return self.size

    def intervals(self) -> List[Tuple[int, Optional[int]]]:
        """The (base, value) boundary list, for inspection and tests."""
        return list(zip(self.bases, self.values))


class FlatFibSet:
    """Lazily compiled flat tables over a :class:`FibSnapshot`.

    Compiled tables are cached per AS, keyed on the AS's *trie object*.
    Snapshots hold their tries by strong reference, so object identity
    is a safe cache key.  On :meth:`attach` to a newer snapshot:

    - an AS whose trie is the same object keeps its table (incremental
      ``build_fibs`` shares clean ASes' tries with the previous
      snapshot);
    - an AS whose trie was patched from the very trie its table came
      from (the snapshot's ``lineage``) gets the table
      :meth:`FlatLPM.spliced` over the changed prefixes only — no
      :meth:`FlatLPM.compile`;
    - any other AS (the lineage is broken, e.g. an attach skipped a
      snapshot, or the trie was rebuilt whole) drops its table, which
      is compiled again on next use.

    Tables are canonical, so a spliced table is the very interval list
    ``compile`` would give for the new trie.
    """

    def __init__(self, fibs: Any = None) -> None:
        self._fibs = fibs
        self._tables: Dict[int, Optional[FlatLPM]] = {}
        #: asn -> the trie each cached table was compiled from.
        self._sources: Dict[int, Any] = {}
        #: tables dropped by attach() because their AS's trie changed
        #: without a usable lineage (regression instrumentation:
        #: unchanged ASes must not churn).
        self.invalidations = 0
        #: tables attach() spliced in place of a recompile.
        self.patches = 0

    @property
    def fibs(self) -> Any:
        return self._fibs

    def attach(self, fibs: Any) -> None:
        """Point at *fibs*, splicing or dropping the tables of ASes whose
        trie changed."""
        if fibs is self._fibs:
            return
        new_tables = fibs.tables if fibs is not None else {}
        lineage = fibs.lineage if fibs is not None else {}
        for asn in list(self._tables):
            source = self._sources.get(asn)
            trie = new_tables.get(asn)
            if trie is source:
                continue
            table = self._tables[asn]
            patch = lineage.get(asn)
            if table is not None and trie and patch and patch[0] is source:
                self._tables[asn] = table.spliced(trie, patch[1])
                self._sources[asn] = trie
                self.patches += 1
            else:
                del self._tables[asn]
                self._sources.pop(asn, None)
                self.invalidations += 1
        self._fibs = fibs

    def table(self, asn: int) -> Optional[FlatLPM]:
        """The compiled table for *asn* (None when the AS has no FIB)."""
        if asn not in self._tables:
            trie = self._fibs.tables.get(asn) if self._fibs else None
            self._tables[asn] = FlatLPM.compile(trie) if trie else None
            self._sources[asn] = trie
        return self._tables[asn]

    def resolve(
        self, asn: int, address: Union[int, str, Address]
    ) -> Optional[int]:
        table = self.table(asn)
        return table.resolve(address) if table else None

    def resolve_many(
        self, asn: int, addresses: Sequence[Union[int, str, Address]]
    ) -> List[Optional[int]]:
        table = self.table(asn)
        if table is None:
            return [None] * len(addresses)
        return table.resolve_many(addresses)
