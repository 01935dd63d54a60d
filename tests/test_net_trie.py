"""Unit tests for the longest-prefix-match trie."""

import pytest

from repro.net.addr import Address, Prefix
from repro.net.trie import PrefixTrie


@pytest.fixture
def trie():
    t = PrefixTrie()
    t[Prefix("10.0.0.0/8")] = "eight"
    t[Prefix("10.1.0.0/16")] = "sixteen"
    t[Prefix("10.1.2.0/24")] = "twentyfour"
    return t


class TestLookup:
    def test_longest_match_wins(self, trie):
        prefix, value = trie.lookup("10.1.2.3")
        assert value == "twentyfour"
        assert prefix == Prefix("10.1.2.0/24")

    def test_falls_back_to_covering(self, trie):
        assert trie.lookup_value("10.1.9.9") == "sixteen"
        assert trie.lookup_value("10.9.9.9") == "eight"

    def test_miss_returns_none(self, trie):
        assert trie.lookup("11.0.0.1") is None

    def test_default_route(self):
        t = PrefixTrie()
        t[Prefix("0.0.0.0/0")] = "default"
        assert t.lookup_value("203.0.113.7") == "default"

    def test_lookup_accepts_address_objects(self, trie):
        assert trie.lookup_value(Address("10.1.2.3")) == "twentyfour"


class TestMutation:
    def test_insert_replaces(self, trie):
        trie[Prefix("10.0.0.0/8")] = "new"
        assert trie.exact(Prefix("10.0.0.0/8")) == "new"
        assert len(trie) == 3

    def test_remove(self, trie):
        trie.remove(Prefix("10.1.2.0/24"))
        assert trie.lookup_value("10.1.2.3") == "sixteen"
        assert len(trie) == 2

    def test_remove_missing_raises(self, trie):
        with pytest.raises(KeyError):
            trie.remove(Prefix("10.3.0.0/16"))

    def test_remove_then_lookup_sibling_unaffected(self, trie):
        trie.remove(Prefix("10.1.0.0/16"))
        assert trie.lookup_value("10.1.2.3") == "twentyfour"

    def test_len_and_bool(self):
        t = PrefixTrie()
        assert not t
        t[Prefix("10.0.0.0/8")] = 1
        assert t and len(t) == 1


class TestTraversal:
    def test_items_enumerates_everything(self, trie):
        assert dict(trie.items()) == {
            Prefix("10.0.0.0/8"): "eight",
            Prefix("10.1.0.0/16"): "sixteen",
            Prefix("10.1.2.0/24"): "twentyfour",
        }

    def test_covering_ordering(self, trie):
        covers = trie.covering(Prefix("10.1.2.0/24"))
        assert [p for p, _ in covers] == [
            Prefix("10.0.0.0/8"),
            Prefix("10.1.0.0/16"),
            Prefix("10.1.2.0/24"),
        ]

    def test_contains(self, trie):
        assert Prefix("10.1.0.0/16") in trie
        assert Prefix("10.2.0.0/16") not in trie

    def test_items_within(self, trie):
        assert [p for p, _ in trie.items_within(Prefix("10.1.0.0/16"))] == [
            Prefix("10.1.0.0/16"),
            Prefix("10.1.2.0/24"),
        ]
        assert list(trie.items_within(Prefix("10.1.2.0/25"))) == []
        assert list(trie.items_within(Prefix("10.2.0.0/16"))) == []
        assert list(trie.items_within(Prefix(0, 0))) == list(trie.items())


class TestPatched:
    """Path-copying updates; the property sweep over random nested
    tries and update sequences is in tests/test_traffic_lpm.py."""

    def test_sets_changes_and_removes(self, trie):
        patched = trie.patched(
            {
                Prefix("10.1.2.0/24"): None,
                Prefix("10.0.0.0/8"): "EIGHT",
                Prefix("10.1.2.128/25"): "twentyfive",
                Prefix("10.9.0.0/16"): None,  # absent: a no-op
            }
        )
        assert dict(patched.items()) == {
            Prefix("10.0.0.0/8"): "EIGHT",
            Prefix("10.1.0.0/16"): "sixteen",
            Prefix("10.1.2.128/25"): "twentyfive",
        }
        assert len(patched) == 3
        assert patched.lookup_value("10.1.2.3") == "sixteen"
        assert patched.lookup_value("10.1.2.200") == "twentyfive"

    def test_removals_prune_empty_branches(self, trie):
        emptied = trie.patched({prefix: None for prefix in trie.keys()})
        assert len(emptied) == 0
        assert emptied._root.children == [None, None]

    def test_source_unchanged(self, trie):
        before = list(trie.items())
        trie.patched({Prefix("10.1.0.0/16"): None, Prefix(0, 0): "dflt"})
        assert list(trie.items()) == before
        assert len(trie) == 3
        assert trie.lookup_value("1.2.3.4") is None

    def test_untouched_subtrees_are_shared(self, trie):
        trie[Prefix("192.168.0.0/16")] = "other"
        patched = trie.patched({Prefix("10.1.2.0/24"): "new"})
        # 192/16 hangs off the root's 1-child, 10/8 off its 0-child.
        assert patched._root.children[1] is trie._root.children[1]
        assert patched._root.children[0] is not trie._root.children[0]
