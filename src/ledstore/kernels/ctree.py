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

from .. import leds
from ..pool import ObjectId
from .base import MapKernel, check_key, decode_value, encode_value

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

ROOT_ENTRY_OFF = 48


def bit_of(key: int, b: int) -> int:
    return (key >> (63 - b)) & 1


def crit_bit(a: int, b: int) -> int:
    return 64 - (a ^ b).bit_length()


def auto_entry_type(change: str | None) -> leds.TypeDescriptor:
    desc = leds.define_type("ctree_entry", [("key", "u32"), ("slot", "oid")])
    if change == "change":
        desc = leds.append_extension(
            desc, [("key64", "u64")], {"op": "copy_fields", "map": {"key64": "key"}}
        )
    elif change == "add":
        desc = leds.append_extension(desc, [("name", "bytes16")], {"op": "zero"})
    return desc


class CritBitKernel(MapKernel):
    kind = "ctree"
    ROOT_SIZE = 96

    # root: is_leaf u64 @0, count u64 @32, embedded entry @48

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        if self.mode == "auto":
            self.entry_desc = auto_entry_type(self.change if self.version == 2 else None)
            self.stride, self.key_is64 = self.entry_desc.base_size, False
            self.slot_in_entry = 4
            self.link_in_entry = self.entry_desc.link_offset
        elif self.version == 1:
            self.stride, self.key_is64, self.slot_in_entry = 20, False, 4
        elif self.change == "change":
            self.stride, self.key_is64, self.slot_in_entry = 24, True, 8
        else:
            self.stride, self.key_is64, self.slot_in_entry = 36, False, 4
        self.node_size = 4 + 2 * self.stride

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        tx.write(self.root, 0, _U64.pack(0))
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))

    # -- entry plumbing -------------------------------------------------------

    def _entry_key(self, holder: ObjectId, off: int) -> int:
        raw = self.pool.load(holder, off, 8 if self.key_is64 else 4)
        return (_U64 if self.key_is64 else _U32).unpack(raw)[0]

    def _entry_slot(self, holder: ObjectId, off: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(holder, off + self.slot_in_entry, 16))

    def _diff_word(self, node: ObjectId) -> int:
        return _U32.unpack(self.pool.load(node, 0, 4))[0]

    def _root_is_leaf(self) -> bool:
        return _U64.unpack(self.pool.load(self.root, 0, 8))[0] == 1

    def _make_entry(self, key: int, slot: bytes) -> bytes:
        head = (_U64 if self.key_is64 else _U32).pack(key) + slot
        return head + bytes(self.stride - len(head))

    def _moved_entry(self, tx, raw: bytes) -> bytes:
        """Entry relocation; honors the shallow-copy toggle in auto mode."""
        if self.mode == "auto" and not self.shallow_copy:
            link = ObjectId.unpack(raw, self.link_in_entry)
            if not link.is_null():
                clone = leds.clone_extension_chain(tx, self.pool, link, self.entry_desc)
                leds.free_extension_chain(tx, self.pool, link, self.entry_desc)
                raw = raw[: self.link_in_entry] + clone.pack()
                self.pool.stats.deep_copies += 1
        return raw

    def _confirm(self, holder: ObjectId, off: int, key: int) -> None:
        if self.key64_ext:
            k64 = leds.read_field(self.pool, holder, self.entry_desc, "key64", base_off=off)
            assert k64 == key, "key64 invariant violated"

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
            if self.key64_ext:
                leds.ensure_extension(tx, self.pool, self.root, self.entry_desc, 1,
                                      base_off=ROOT_ENTRY_OFF)
            self._bump_count(tx, 1)
            return True

        leaf_holder, leaf_off, _ = self._descend(key)[-1]
        leafkey = self._entry_key(leaf_holder, leaf_off)
        if leafkey == key:
            self._confirm(leaf_holder, leaf_off, key)
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

        displaced = self._moved_entry(tx, self.pool.load(holder, off, self.stride))
        i = bit_of(key, b)
        node = tx.alloc_zeroed(self.node_size)
        word = b | (1 << (8 + i)) | ((1 << (8 + (1 - i))) if is_leaf else 0)
        fresh = self._make_entry(key, encode_value(value))
        entries = (fresh, displaced) if i == 0 else (displaced, fresh)
        tx.write(node, 0, _U32.pack(word) + entries[0] + entries[1])
        tx.write(holder, off, self._make_entry(0, node.pack()))
        self._set_entry_leafness(tx, holder, off, False)
        if self.key64_ext:
            leds.ensure_extension(tx, self.pool, node, self.entry_desc, 1,
                                  base_off=4 + i * self.stride)
        self._bump_count(tx, 1)
        return True

    def remove(self, tx, key: int) -> bool:
        if self.count() == 0:
            return False
        path = self._descend(key)
        holder, off, _ = path[-1]
        if self._entry_key(holder, off) != key:
            return False
        self._confirm(holder, off, key)
        if self.mode == "auto":
            link = ObjectId.unpack(self.pool.load(holder, off + self.link_in_entry, 16))
            if not link.is_null():
                leds.free_extension_chain(tx, self.pool, link, self.entry_desc)
        if len(path) == 1:
            tx.write(self.root, 0, _U64.pack(0))
            self._bump_count(tx, -1)
            return True
        node = holder
        j = (off - 4) // self.stride
        word = self._diff_word(node)
        sib_off = 4 + (1 - j) * self.stride
        sib_leaf = bool(word >> (8 + (1 - j)) & 1)
        sibling = self._moved_entry(tx, self.pool.load(node, sib_off, self.stride))
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
        if self._entry_key(holder, off) != key:
            return None
        self._confirm(holder, off, key)
        return decode_value(self.pool.load(holder, off + self.slot_in_entry, 16))

    def _observed_key(self, holder: ObjectId, off: int) -> int:
        if self.key64_ext:
            return leds.read_field(self.pool, holder, self.entry_desc, "key64", base_off=off)
        return self._entry_key(holder, off)

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
                key = self._entry_key(holder, off)
                for b, v in fixed_bits:
                    assert bit_of(key, b) == v, f"key {key} violates bit {b}={v}"
                if self.key64_ext:
                    k64 = _peek_entry_key64(self.pool, holder,
                                            off + self.link_in_entry)
                    if k64 is not None:
                        assert k64 == key, "key64 invariant violated"
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


def _peek_entry_key64(pool, holder, link_abs_in_record):
    uuid, target = struct.unpack_from("<QQ", pool.buf, holder.offset + link_abs_in_record)
    if uuid == 0 and target == 0:
        return None
    return _U64.unpack_from(pool.buf, target)[0]


# -- manual migration --------------------------------------------------------

def migrate(pool, tx, old_root: ObjectId, temp: ObjectId, ms, change: str) -> None:
    """Clone node-for-node bottom-up, widening leaf keys; one store per record."""
    count = _U64.unpack_from(pool.load(old_root, 32, 8))[0]
    root_leaf = _U64.unpack_from(pool.load(old_root, 0, 8))[0] == 1

    old_stride, old_slot = 20, 4
    if change == "change":
        new_stride, key_fmt = 24, _U64
    else:
        new_stride, key_fmt = 36, _U32
    new_node_size = 4 + 2 * new_stride

    def widen(key: int, slot: bytes) -> bytes:
        head = key_fmt.pack(key) + slot
        return head + bytes(new_stride - len(head))

    def clone_entry(holder, off, is_leaf) -> bytes:
        raw = pool.load(holder, off, old_stride)
        key = _U32.unpack_from(raw)[0]
        slot = raw[old_slot : old_slot + 16]
        if is_leaf:
            return widen(key, slot)
        old_node = ObjectId.unpack(slot)
        word = _U32.unpack_from(pool.load(old_node, 0, 4))[0]
        e0 = clone_entry(old_node, 4, bool(word >> 8 & 1))
        e1 = clone_entry(old_node, 4 + old_stride, bool(word >> 9 & 1))
        new_node = tx.alloc_zeroed(new_node_size)
        tx.write(new_node, 0, _U32.pack(word) + e0 + e1)
        ms.nodes_migrated += 1
        ms.bytes_node_records += new_node_size
        tx.free(old_node)
        return widen(0, new_node.pack())

    if count > 0:
        entry = clone_entry(old_root, ROOT_ENTRY_OFF, root_leaf)
        tx.write(temp, ROOT_ENTRY_OFF, entry)
    tx.write(temp, 0, _U64.pack(1 if root_leaf else 0))
    tx.write(temp, 32, _U64.pack(count))
