"""Binary trie over IPv4 prefixes with longest-prefix-match lookup.

Used for FIBs (forwarding tables) and for the sentinel-prefix logic, where a
less-specific covering prefix must keep working when the more-specific
production prefix is poisoned away.
"""

from __future__ import annotations

from typing import (
    Dict, Generic, Iterator, List, Mapping, Optional, Tuple, TypeVar, Union,
)

from repro.net.addr import Address, Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False

    def copy(self) -> "_Node[V]":
        twin: _Node[V] = _Node()
        twin.children = self.children[:]
        twin.value = self.value
        twin.has_value = self.has_value
        return twin


def _prune(path: List[Tuple[_Node, int]]) -> None:
    """Unlink the now-empty nodes at the bottom of *path* (parent, bit)."""
    for parent, bit in reversed(path):
        child = parent.children[bit]
        if child is not None and not child.has_value and not any(
            child.children
        ):
            parent.children[bit] = None
        else:
            break


class PrefixTrie(Generic[V]):
    """Maps :class:`Prefix` keys to arbitrary values with LPM lookup."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @staticmethod
    def _bits(prefix: Prefix) -> Iterator[int]:
        base = prefix.base
        for depth in range(prefix.length):
            yield (base >> (31 - depth)) & 1

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at *prefix*."""
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def remove(self, prefix: Prefix) -> None:
        """Remove *prefix*; raises KeyError if absent."""
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(str(prefix))
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune now-empty branches so long-lived tries don't leak nodes.
        _prune(path)

    def patched(
        self, updates: Mapping[Prefix, Optional[V]]
    ) -> "PrefixTrie[V]":
        """A new trie equal to this one with *updates* applied.

        Each update sets a prefix's value, or removes the prefix when the
        value is None (removing an absent prefix is a no-op).  Path
        copying: only the nodes on the updated prefixes' paths are
        copied and every untouched subtree is shared, so this trie is
        left unchanged.  Because of that sharing both tries must be
        treated as frozen: an in-place ``insert``/``remove`` on either
        would show through the other.
        """
        root = self._root.copy()
        # Nodes copied or created by this patch, safe to write.
        fresh = {id(root)}
        size = self._size
        for prefix, value in updates.items():
            path: List[Tuple[_Node[V], int]] = []
            node = root
            for bit in self._bits(prefix):
                child = node.children[bit]
                if child is None and value is None:
                    break
                if child is None or id(child) not in fresh:
                    child = _Node() if child is None else child.copy()
                    fresh.add(id(child))
                    node.children[bit] = child
                path.append((node, bit))
                node = child
            else:
                if value is not None:
                    if not node.has_value:
                        size += 1
                    node.value = value
                    node.has_value = True
                elif node.has_value:
                    node.value = None
                    node.has_value = False
                    size -= 1
                    _prune(path)
        trie: PrefixTrie[V] = PrefixTrie()
        trie._root = root
        trie._size = size
        return trie

    def exact(self, prefix: Prefix) -> Optional[V]:
        """The value stored exactly at *prefix*, or None."""
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._root
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return False
            node = child
        return node.has_value

    def __getitem__(self, prefix: Prefix) -> V:
        value = self.exact(prefix)
        if value is None and prefix not in self:
            raise KeyError(str(prefix))
        return value  # type: ignore[return-value]

    def lookup(
        self, address: Union[int, str, Address]
    ) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for *address*.

        Returns the (prefix, value) of the most specific covering entry, or
        None when nothing covers the address (no default route installed).
        """
        value = Address(address).value
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[assignment]
        for depth in range(32):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[assignment]
        if best is None:
            return None
        length, found = best
        mask = Prefix._mask_for(length)
        return Prefix(value & mask, length), found

    def lookup_value(self, address: Union[int, str, Address]) -> Optional[V]:
        """Like :meth:`lookup` but returns only the value."""
        hit = self.lookup(address)
        return hit[1] if hit else None

    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """All entries that cover *prefix*, most specific last."""
        node = self._root
        out: List[Tuple[Prefix, V]] = []
        if node.has_value:
            out.append((Prefix(0, 0), node.value))  # type: ignore[arg-type]
        depth = 0
        for bit in self._bits(prefix):
            child = node.children[bit]
            if child is None:
                return out
            node = child
            depth += 1
            if node.has_value:
                mask = Prefix._mask_for(depth)
                out.append(
                    (Prefix(prefix.base & mask, depth), node.value)
                )  # type: ignore[arg-type]
        return out

    @staticmethod
    def _walk(
        node: _Node[V], base: int, depth: int
    ) -> Iterator[Tuple[Prefix, V]]:
        if node.has_value:
            yield Prefix(base, depth), node.value  # type: ignore[misc]
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                yield from PrefixTrie._walk(
                    child, base | (bit << (31 - depth)), depth + 1
                )

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all (prefix, value) pairs in trie order, which is
        (base, length) order."""
        yield from self._walk(self._root, 0, 0)

    def items_within(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """The entries at or inside *prefix*, in trie order."""
        node: Optional[_Node[V]] = self._root
        for bit in self._bits(prefix):
            node = node.children[bit]  # type: ignore[union-attr]
            if node is None:
                return
        yield from self._walk(node, prefix.base, prefix.length)

    def keys(self) -> List[Prefix]:
        """All stored prefixes."""
        return [prefix for prefix, _ in self.items()]

    def to_dict(self) -> Dict[Prefix, V]:
        """Snapshot as a plain dict."""
        return dict(self.items())
