"""Crit-bit tree over 64-bit key space (version-1 keys zero-extended).

Every internal node holds the index of its critical bit and two embedded
entries, one per bit value. An entry is either a leaf (key + inline value)
or a link to a deeper node; leafness lives in the parent's diff word
(bits 8 and 9), the bit index in its low byte, so the record is exactly
{i32, 2 x {key, slot}}:

  node v1 manual         {diff i32, 2 x {key u32, slot 16B}}        44 B
  node v2 manual change  {diff i32, 2 x {key u64, slot 16B}}        52 B
  node v2 manual add     {diff i32, 2 x {key u32, slot, name}}      76 B
  node auto              {diff i32, 2 x extendible entry (48 B)}   100 B

The pool root embeds one entry of the same shape at offset 48 (leaf flag
at offset 0), so a single-key tree allocates no nodes. Critical bits are
numbered from the most significant: bit(key, b) = (key >> (63-b)) & 1,
and diff values strictly increase along every path.
"""

from __future__ import annotations

import struct

from ..leds import packed_struct
from ..pool import ObjectId
from .base import MapKernel, check_key, encode_value

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

ROOT_ENTRY_OFF = 48


def bit_of(key: int, b: int) -> int:
    return (key >> (63 - b)) & 1


def crit_bit(a: int, b: int) -> int:
    return 64 - (a ^ b).bit_length()


class CritBitKernel(MapKernel):
    kind = "ctree"
    ROOT_SIZE = 96
    ENTRY_NAME = "ctree_entry"
    ENTRY_FIELDS = (("key", "u32"), ("slot", "oid"))

    # root: is_leaf u64 @0, count u64 @32, embedded entry @48

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.stride = self.entry_size
        self.node_size = 4 + 2 * self.stride
        # one visit of the root: (is_leaf, key, slot words); of a node:
        # (diff word, key 0, slot 0 words, key 1, slot 1 words)
        self.root_codec = packed_struct(
            [(0, "Q")] + self.entry_parts(ROOT_ENTRY_OFF, "key", "slot"))
        self.node = packed_struct([(0, "I")] + self.entry_parts(4, "key", "slot")
                                + self.entry_parts(4 + self.stride, "key", "slot"))

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        tx.write(self.root, 0, _U64.pack(0))
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))

    # -- entry plumbing -------------------------------------------------------

    def _diff_word(self, node: ObjectId) -> int:
        return _U32.unpack(self.pool.load(node, 0, 4))[0]

    def _make_entry(self, key: int, slot: bytes) -> bytes:
        return self.entry.pack(key, slot).ljust(self.stride, b"\0")

    def _descend(self, key: int):
        """Walk to the leaf entry key's bits select, one read per node.
        Returns the path of (holder, entry offset, is_leaf, holder's diff
        word) ending at a leaf (the root's word is None), the leaf's key and
        its value word."""
        _, is_leaf, k, s0, s1 = self._root_entry()
        path = [(self.root, ROOT_ENTRY_OFF, is_leaf, None)]
        while not is_leaf:
            node = ObjectId(s0, s1)
            word, entries = self._entries(node)
            off, is_leaf, k, s0, s1 = entries[bit_of(key, word & 0xFF)]
            path.append((node, off, is_leaf, word))
        return path, k, s0

    def _root_entry(self):
        """One read of the root's entry: (offset, is_leaf, key, slot words)."""
        is_leaf, key, s0, s1 = self.pool.read(self.root, self.root_codec)
        return ROOT_ENTRY_OFF, is_leaf == 1, key, s0, s1

    def _entries(self, node: ObjectId):
        """One read of a node: its diff word and, per entry, (offset, is_leaf,
        key, slot words)."""
        word, k0, a0, a1, k1, b0, b1 = self.pool.read(node, self.node)
        return word, ((4, bool(word >> 8 & 1), k0, a0, a1),
                      (4 + self.stride, bool(word >> 9 & 1), k1, b0, b1))

    def _set_entry_leafness(self, tx, holder: ObjectId, off: int, leaf: bool) -> None:
        if holder == self.root:
            tx.write(self.root, 0, _U64.pack(1 if leaf else 0))
        else:
            i = (off - 4) // self.stride
            word = self._diff_word(holder)
            word = (word | (1 << (8 + i))) if leaf else (word & ~(1 << (8 + i)))
            tx.write(holder, 0, _U32.pack(word))

    # -- operations -------------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        if self.count() == 0:
            tx.write(self.root, ROOT_ENTRY_OFF,
                     self._make_entry(key, encode_value(value)))
            tx.write(self.root, 0, _U64.pack(1))
            self._extend_new(tx, self.root, ROOT_ENTRY_OFF)
            self._bump_count(tx, 1)
            return True

        path, leafkey, _ = self._descend(key)
        if leafkey == key:
            self._confirm(path[-1][0], key, path[-1][1])
            return False
        b = crit_bit(leafkey, key)

        # the displacement point: the first entry on key's path that is a
        # leaf or links to a node splitting below b
        j = 0
        while not path[j][2] and (path[j + 1][3] & 0xFF) <= b:
            j += 1
        holder, off, is_leaf, _ = path[j]

        displaced = self._relocated(tx, self.pool.load(holder, off, self.stride))
        i = bit_of(key, b)
        node = tx.alloc_zeroed(self.node_size)
        word = b | (1 << (8 + i)) | ((1 << (8 + (1 - i))) if is_leaf else 0)
        fresh = self._make_entry(key, encode_value(value))
        entries = (fresh, displaced) if i == 0 else (displaced, fresh)
        tx.write(node, 0, _U32.pack(word) + entries[0] + entries[1])
        tx.write(holder, off, self._make_entry(0, node.pack()))
        self._set_entry_leafness(tx, holder, off, False)
        self._extend_new(tx, node, 4 + i * self.stride)
        self._bump_count(tx, 1)
        return True

    def remove(self, tx, key: int) -> bool:
        if self.count() == 0:
            return False
        path, leafkey, _ = self._descend(key)
        holder, off, _, word = path[-1]
        if leafkey != key:
            return False
        self._confirm(holder, key, off)
        self._free_entry(tx, holder, off)
        if len(path) == 1:
            tx.write(self.root, 0, _U64.pack(0))
            self._bump_count(tx, -1)
            return True
        node = holder
        j = (off - 4) // self.stride
        sib_off = 4 + (1 - j) * self.stride
        sib_leaf = bool(word >> (8 + (1 - j)) & 1)
        sibling = self._relocated(tx, self.pool.load(node, sib_off, self.stride))
        g_holder, g_off = path[-2][:2]
        tx.write(g_holder, g_off, sibling)
        self._set_entry_leafness(tx, g_holder, g_off, sib_leaf)
        tx.free(node)
        self._bump_count(tx, -1)
        return True

    def lookup(self, key: int):
        if self.count() == 0:
            return None
        path, leafkey, value = self._descend(key)
        if leafkey != key:
            return None
        self._confirm(path[-1][0], key, path[-1][1])
        return value

    def scan(self):
        if self.count() == 0:
            return

        def walk(holder, off, is_leaf, key, s0, s1):
            if is_leaf:
                yield self._observed(holder, key, off), s0
                return
            node = ObjectId(s0, s1)
            for entry in self._entries(node)[1]:
                yield from walk(node, *entry)

        yield from walk(self.root, *self._root_entry())

    def validate(self) -> None:
        if self.count() == 0:
            return
        keys: list[int] = []

        def walk(holder, off, is_leaf, key, s0, s1, fixed_bits, parent_diff):
            if is_leaf:
                for b, v in fixed_bits:
                    assert bit_of(key, b) == v, f"key {key} violates bit {b}={v}"
                self._peek_key64(holder, key, off)
                keys.append(key)
                return
            node = ObjectId(s0, s1)
            word, entries = self._entries(node)
            d = word & 0xFF
            assert d < 64, f"bit index out of range: {d}"
            assert d > parent_diff, "critical bits not increasing along path"
            for bit, entry in enumerate(entries):
                walk(node, *entry, fixed_bits + [(d, bit)], d)

        walk(self.root, *self._root_entry(), [], -1)
        assert keys == sorted(keys), "in-order walk not ascending"
        assert len(keys) == len(set(keys)), "duplicate keys"
        assert len(keys) == self.count(), f"count {self.count()} != leaves {len(keys)}"


    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, old_root: ObjectId, temp: ObjectId, ms, old, new) -> None:
        """Clone node-for-node bottom-up, widening leaf keys; one store per record."""
        count = _U64.unpack_from(pool.load(old_root, cls.COUNT_OFF, 8))[0]
        root_leaf = _U64.unpack_from(pool.load(old_root, 0, 8))[0] == 1
        new_node_size = 4 + 2 * new.size

        def clone_entry(holder, off, is_leaf) -> bytes:
            key, slot = old.unpack_from(pool.load(holder, off, old.size))
            if is_leaf:
                return new.pack(key, slot)
            old_node = ObjectId.unpack(slot)
            word = _U32.unpack_from(pool.load(old_node, 0, 4))[0]
            e0 = clone_entry(old_node, 4, bool(word >> 8 & 1))
            e1 = clone_entry(old_node, 4 + old.size, bool(word >> 9 & 1))
            new_node = tx.alloc_zeroed(new_node_size)
            tx.write(new_node, 0, _U32.pack(word) + e0 + e1)
            ms.nodes_migrated += 1
            ms.bytes_node_records += new_node_size
            tx.free(old_node)
            return new.pack(0, new_node.pack())

        if count > 0:
            entry = clone_entry(old_root, ROOT_ENTRY_OFF, root_leaf)
            tx.write(temp, ROOT_ENTRY_OFF, entry)
        tx.write(temp, 0, _U64.pack(1 if root_leaf else 0))
        tx.write(temp, cls.COUNT_OFF, _U64.pack(count))
