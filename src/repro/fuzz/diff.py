"""State capture and exact comparison of two engines.

Scope (and what is deliberately excluded) follows the solver's
equivalence contract:

* ``locrib/AS<n>/<prefix>`` — the selected route (path, neighbor,
  local-pref, MED) at every AS for every prefix in *prefixes*,
  including origin self-routes;
* ``fwd/<prefix>/AS<n>`` — the AS-level forwarding next hop, for the
  same (AS, prefix) pairs;
* ``wire/AS<a>->AS<b>/<prefix>`` — the last announcement standing on
  each directed session, for *every* prefix on the session, not only
  those in *prefixes*: a delta splice that corrupts a neighbouring
  prefix's wire state must not slip past a check scoped to the prefix
  it repaired.  Withdrawn/never-sent ``None`` entries are dropped: the
  event engine leaves ``None`` tombstones where the solver records
  nothing, and both mean "nothing advertised".

Adj-RIB-In is *not* compared: message crossing on sessions without
per-session FIFO ordering leaves documented stale entries in the event
engine (see the solver module docstring) that never affect decisions.

A capture is an int-keyed map: rows ``("locrib", asn, base, length)``,
``("fwd", base, length, asn)`` and ``("wire", src, dst, base, length)``
map to tuples of ints (``fwd`` rows to the next-hop ASN).  Every leaf is
an ``int``, so tuple equality is exactly equality of the canonical JSON
encodings the string keys above name; those strings and JSON values are
rendered only for the rows :func:`diff_states` reports.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.net.addr import Prefix

#: capture row key -> value tuple (see the module docstring).
StateMap = Dict[Tuple, object]


def capture_state(engine, prefixes: Sequence[Prefix]) -> StateMap:
    """Flatten one engine's observable routing state.

    Loc-RIB and forwarding rows cover *prefixes*; wire rows cover every
    prefix on every session (see the module docstring for why).
    """
    # Paths go through tuple() (free for the engine's own tuples): an
    # origination configured with a list path must compare equal to the
    # same tuple path, as their JSON encodings do.
    state: StateMap = {}
    keyed = [(prefix, prefix.base, prefix.length) for prefix in prefixes]
    for asn, speaker in engine.speakers.items():
        best_of = speaker.table.best
        for prefix, base, length in keyed:
            best = best_of(prefix)
            if best is not None:
                state["locrib", asn, base, length] = (
                    tuple(best.as_path),
                    best.neighbor,
                    best.local_pref,
                    best.med,
                )
                state["fwd", base, length, asn] = best.neighbor
    for (src, dst), session in engine._sessions.items():
        for prefix, announcement in session.sent.items():
            if announcement is not None:
                state["wire", src, dst, prefix.base, prefix.length] = (
                    tuple(announcement.as_path),
                    announcement.med,
                )
    return state


def canonical_blob(state: StateMap) -> Mapping[Tuple, object]:
    """The exact comparison form of a capture: a read-only snapshot.

    Mapping equality is order-independent and compares every row's key
    and value, so two blobs are equal exactly when the captures are —
    without sorting rows or encoding them.
    """
    return MappingProxyType(dict(state))


def render_key(key: Tuple) -> str:
    """The ``locrib/…``, ``fwd/…`` or ``wire/…`` text of a capture key."""
    kind = key[0]
    if kind == "locrib":
        _, asn, base, length = key
        return f"locrib/AS{asn}/{Prefix(base, length)}"
    if kind == "fwd":
        _, base, length, asn = key
        return f"fwd/{Prefix(base, length)}/AS{asn}"
    _, src, dst, base, length = key
    return f"wire/AS{src}->AS{dst}/{Prefix(base, length)}"


def differing_keys(a: StateMap, b: StateMap) -> Set[Tuple]:
    """Keys present on one side only or with unequal values."""
    out = a.keys() ^ b.keys()
    for key, value in a.items():
        if key in b and b[key] != value:
            out.add(key)
    return out


def diff_states(
    solver_state: StateMap,
    event_state: StateMap,
    limit: int = 8,
) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """First *limit* differing rows as (key, solver value, event value).

    Rows come in the order of their rendered keys.  Values are their
    canonical JSON encodings (None: key absent on that side) so diff
    samples survive the trip through corpus JSON.
    """
    rendered = sorted(
        (render_key(key), key)
        for key in differing_keys(solver_state, event_state)
    )
    return [
        (
            text,
            json.dumps(solver_state[key]) if key in solver_state else None,
            json.dumps(event_state[key]) if key in event_state else None,
        )
        for text, key in rendered[:limit]
    ]
