"""The differential oracle (repro.fuzz.diff): exactness of the compact form.

Captures are int-keyed tuple maps compared as mappings; the string-keyed
canonical-JSON form is rendered only for reported diff rows.  These tests
pin that the compact comparison is exactly as strict as the JSON blob
comparison it replaced, and that reported rows are byte-identical to the
string-keyed implementation kept here as the reference.
"""

import json
import random

import pytest

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import solve
from repro.fuzz import generate_case
from repro.fuzz.diff import (
    canonical_blob,
    capture_state,
    diff_states,
    differing_keys,
    render_key,
)
from repro.net.addr import Prefix


# -- the string-keyed reference implementation -------------------------


def reference_capture(engine, prefixes):
    state = {}
    for asn in sorted(engine.speakers):
        speaker = engine.speakers[asn]
        for prefix in prefixes:
            best = speaker.best(prefix)
            if best is not None:
                state[f"locrib/AS{asn}/{prefix}"] = [
                    list(best.as_path),
                    best.neighbor,
                    best.local_pref,
                    best.med,
                ]
    for prefix in prefixes:
        for asn, next_hop in sorted(
            engine.forwarding_next_hops(prefix).items()
        ):
            state[f"fwd/{prefix}/AS{asn}"] = next_hop
    for (src, dst), session in sorted(engine._sessions.items()):
        for prefix, announcement in session.sent.items():
            if announcement is not None:
                state[f"wire/AS{src}->AS{dst}/{prefix}"] = [
                    list(announcement.as_path),
                    announcement.med,
                ]
    return state


def reference_blob(state):
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def reference_diff(solver_state, event_state, limit=8):
    out = []
    for key in sorted(set(solver_state) | set(event_state)):
        a = solver_state.get(key)
        b = event_state.get(key)
        if a == b:
            continue
        out.append(
            (
                key,
                None if key not in solver_state else json.dumps(a),
                None if key not in event_state else json.dumps(b),
            )
        )
        if len(out) >= limit:
            break
    return out


def render(state):
    """A compact capture in the reference's string-keyed JSON form."""
    return {
        render_key(key): json.loads(json.dumps(value))
        for key, value in state.items()
    }


# -- engines -----------------------------------------------------------


def _event_engine(case):
    """*case*'s originations converged by the event engine."""
    engine = BGPEngine(
        case.build_graph(),
        EngineConfig(seed=case.engine_seed),
        case.speaker_configs(),
    )
    for org in case.resolved_originations():
        engine.originate(
            org.asn,
            org.prefix,
            path=org.path,
            per_neighbor=org.per_neighbor_dict(),
            med=org.med,
        )
    engine.run()
    return engine


def _engines():
    """(label, engine, prefixes): event-run engines of a few generated
    cases, plus a solver-seeded one (it differs in ``None`` tombstones
    and builds its state by another path)."""
    cases = [generate_case(4, index, "small") for index in range(3)]
    out = [
        (f"event-{index}", _event_engine(case), case.prefixes())
        for index, case in enumerate(cases)
    ]
    warm = BGPEngine(
        cases[0].build_graph(),
        EngineConfig(seed=cases[0].engine_seed),
        cases[0].speaker_configs(),
    )
    warm.warm_start(solve(warm, cases[0].resolved_originations()))
    out.append(("solver-0", warm, cases[0].prefixes()))
    return out


@pytest.fixture(scope="module")
def engines():
    return _engines()


@pytest.fixture(scope="module")
def captures(engines):
    return [capture_state(engine, prefixes) for _, engine, prefixes in engines]


# -- perturbations -----------------------------------------------------


def _bump(value, rng):
    """*value* with one int leaf changed (paths may also grow/shrink)."""
    if isinstance(value, int):
        return value + rng.choice((-1, 1, 7))
    path, *rest = value
    choice = rng.randrange(3 + len(rest))
    if choice == 0:
        at = rng.randrange(len(path))
        path = path[:at] + (path[at] + 1,) + path[at + 1 :]
    elif choice == 1:
        path = path + (path[-1],)
    elif choice == 2:
        path = path[1:] if len(path) > 1 else path + path
    else:
        position = choice - 3
        rest[position] += rng.choice((-1, 1, 100))
    return (path, *rest)


def _perturb(state, rng):
    """A copy of *state* with one row changed, dropped, added or kept."""
    out = dict(state)
    key = rng.choice(sorted(out))
    op = rng.choice(("change", "change", "drop", "add", "keep"))
    if op == "change":
        out[key] = _bump(out[key], rng)
    elif op == "drop":
        del out[key]
    elif op == "add":
        # Same row at an ASN the topology does not have.
        slot = {"locrib": 1, "fwd": 3, "wire": 2}[key[0]]
        moved = key[:slot] + (key[slot] + 1000,) + key[slot + 1 :]
        out[moved] = out[key]
    return out


class TestReference:
    def test_compact_capture_renders_to_the_reference(self, engines, captures):
        for (label, engine, prefixes), state in zip(engines, captures):
            reference = reference_capture(engine, prefixes)
            old = render(state)
            assert old == reference, label
            assert reference_blob(old) == reference_blob(reference), label

    def test_every_leaf_is_an_int(self, captures):
        # Python equality of int tuples is JSON-text equality; a float,
        # bool or list leaf would make the two comparisons disagree.
        def leaves(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for state in captures:
            assert state
            for key, value in state.items():
                assert type(value) in (int, tuple), key
                for leaf in leaves(value):
                    assert type(leaf) is int, (key, value)

    def test_capture_formats_no_prefix(self, engines, monkeypatch):
        def refuse(self):
            raise AssertionError("capture formatted a prefix")

        monkeypatch.setattr(Prefix, "__str__", refuse)
        _, engine, prefixes = engines[0]
        assert capture_state(engine, prefixes)


class TestStrictness:
    @staticmethod
    def _pairs(captures, seed, count, max_steps):
        """Every pair of captures, then *count* (capture, perturbed copy)
        pairs of 1..*max_steps* perturbations each."""
        rng = random.Random(seed)
        pairs = [(a, b) for a in captures for b in captures]
        for _ in range(count):
            base = other = rng.choice(captures)
            for _ in range(rng.randint(1, max_steps)):
                other = _perturb(other, rng)
            pairs.append((base, other))
        return pairs

    def test_blob_equality_matches_json_blob_equality(self, captures):
        for a, b in self._pairs(captures, 20120813, 120, 1):
            reference = reference_blob(render(a)) == reference_blob(render(b))
            assert (canonical_blob(a) == canonical_blob(b)) == reference
            assert (canonical_blob(a) != canonical_blob(b)) != reference

    def test_diff_rows_are_byte_identical(self, captures):
        for a, b in self._pairs(captures, 7, 60, 12):
            old_a, old_b = render(a), render(b)
            for limit in (1, 8):
                assert diff_states(a, b, limit=limit) == reference_diff(
                    old_a, old_b, limit=limit
                )
            every = reference_diff(old_a, old_b, limit=len(old_a | old_b))
            assert diff_states(a, b, limit=len(every) + 1) == every
            assert len(differing_keys(a, b)) == len(every)

    def test_blob_is_a_snapshot(self, captures):
        state = dict(captures[0])
        blob = canonical_blob(state)
        state.pop(next(iter(state)))
        assert blob == canonical_blob(captures[0])
        assert blob != canonical_blob(state)


class TestWireScope:
    def test_unrelated_prefix_wire_corruption_is_caught(self):
        # The wire rows cover every prefix on every session: a splice
        # that corrupts a prefix it was not asked about still diverges.
        case = generate_case(4, 0, "small")
        clean, broken = _event_engine(case), _event_engine(case)
        watched, *others = case.prefixes()
        assert others, "the case must carry a second prefix"
        assert canonical_blob(capture_state(clean, [watched])) == (
            canonical_blob(capture_state(broken, [watched]))
        )

        for (src, dst), session in sorted(broken._sessions.items()):
            hits = [p for p in others if session.sent.get(p) is not None]
            if hits:
                prefix = hits[0]
                sent = session.sent[prefix]
                session.sent[prefix] = type(sent)(
                    prefix=prefix,
                    as_path=sent.as_path + (sent.as_path[-1],),
                    med=sent.med,
                )
                break
        else:
            pytest.fail("no session carries an unwatched prefix")

        a = capture_state(clean, [watched])
        b = capture_state(broken, [watched])
        assert canonical_blob(a) != canonical_blob(b)
        rows = diff_states(a, b)
        assert [row[0] for row in rows] == [
            f"wire/AS{src}->AS{dst}/{prefix}"
        ]
