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

from ..pool import ObjectId
from .base import MapKernel, check_key, decode_value, encode_value

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
        self.slot_in_entry = self.entry.offsets["slot"]
        self.node_size = 4 + 2 * self.stride

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        tx.write(self.root, 0, _U64.pack(0))
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))

    # -- entry plumbing -------------------------------------------------------

    def _entry_slot(self, holder: ObjectId, off: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(holder, off + self.slot_in_entry, 16))

    def _diff_word(self, node: ObjectId) -> int:
        return _U32.unpack(self.pool.load(node, 0, 4))[0]

    def _root_is_leaf(self) -> bool:
        return _U64.unpack(self.pool.load(self.root, 0, 8))[0] == 1

    def _make_entry(self, key: int, slot: bytes) -> bytes:
        return self.entry.pack(key, slot).ljust(self.stride, b"\0")

    def _descend(self, key: int):
        """Walk to the leaf entry key's bits select; returns the path of
        (holder, entry offset, is_leaf) ending at a leaf."""
        path = [(self.root, ROOT_ENTRY_OFF, self._root_is_leaf())]
        while not path[-1][2]:
            holder, off, _ = path[-1]
            node = self._entry_slot(holder, off)
            word = self._diff_word(node)
            i = bit_of(key, word & 0xFF)
            path.append((node, 4 + i * self.stride, bool(word >> (8 + i) & 1)))
        return path

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

        leaf_holder, leaf_off, _ = self._descend(key)[-1]
        leafkey = self._key(leaf_holder, leaf_off)
        if leafkey == key:
            self._confirm(leaf_holder, key, leaf_off)
            return False
        b = crit_bit(leafkey, key)

        # find the displacement point: first entry whose subtree splits below b
        holder, off, is_leaf = self.root, ROOT_ENTRY_OFF, self._root_is_leaf()
        while not is_leaf:
            node = self._entry_slot(holder, off)
            word = self._diff_word(node)
            if (word & 0xFF) > b:
                break
            i = bit_of(key, word & 0xFF)
            holder, off, is_leaf = node, 4 + i * self.stride, bool(word >> (8 + i) & 1)

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
        path = self._descend(key)
        holder, off, _ = path[-1]
        if self._key(holder, off) != key:
            return False
        self._confirm(holder, key, off)
        self._free_entry(tx, holder, off)
        if len(path) == 1:
            tx.write(self.root, 0, _U64.pack(0))
            self._bump_count(tx, -1)
            return True
        node = holder
        j = (off - 4) // self.stride
        word = self._diff_word(node)
        sib_off = 4 + (1 - j) * self.stride
        sib_leaf = bool(word >> (8 + (1 - j)) & 1)
        sibling = self._relocated(tx, self.pool.load(node, sib_off, self.stride))
        g_holder, g_off, _ = path[-2]
        tx.write(g_holder, g_off, sibling)
        self._set_entry_leafness(tx, g_holder, g_off, sib_leaf)
        tx.free(node)
        self._bump_count(tx, -1)
        return True

    def lookup(self, key: int):
        if self.count() == 0:
            return None
        holder, off, _ = self._descend(key)[-1]
        if self._key(holder, off) != key:
            return None
        self._confirm(holder, key, off)
        return decode_value(self.pool.load(holder, off + self.slot_in_entry, 16))

    def scan(self):
        if self.count() == 0:
            return

        def walk(holder, off, is_leaf):
            if is_leaf:
                value = decode_value(self.pool.load(holder, off + self.slot_in_entry, 16))
                yield self._observed_key(holder, off), value
                return
            node = self._entry_slot(holder, off)
            word = self._diff_word(node)
            yield from walk(node, 4, bool(word >> 8 & 1))
            yield from walk(node, 4 + self.stride, bool(word >> 9 & 1))

        yield from walk(self.root, ROOT_ENTRY_OFF, self._root_is_leaf())

    def validate(self) -> None:
        if self.count() == 0:
            return
        keys: list[int] = []

        def walk(holder, off, is_leaf, fixed_bits, parent_diff):
            if is_leaf:
                key = self._key(holder, off)
                for b, v in fixed_bits:
                    assert bit_of(key, b) == v, f"key {key} violates bit {b}={v}"
                self._peek_key64(holder, key, off)
                keys.append(key)
                return
            node = self._entry_slot(holder, off)
            word = self._diff_word(node)
            d = word & 0xFF
            assert d < 64, f"bit index out of range: {d}"
            assert d > parent_diff, "critical bits not increasing along path"
            walk(node, 4, bool(word >> 8 & 1), fixed_bits + [(d, 0)], d)
            walk(node, 4 + self.stride, bool(word >> 9 & 1), fixed_bits + [(d, 1)], d)

        walk(self.root, ROOT_ENTRY_OFF, self._root_is_leaf(), [], -1)
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
