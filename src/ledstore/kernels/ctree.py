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

The pool root embeds one entry of the same shape in a 48-byte slot, as
wide as the widest entry (ROOT_FIELDS), so a single-key tree allocates no
nodes. Critical bits are numbered from the most significant: bit(key, b)
= (key >> (63-b)) & 1, and diff values strictly increase along every path.
"""

from __future__ import annotations

import struct

from ..layout import ObjectId, packed_struct
from .base import OID_WORDS, MapKernel, check_key, encode_value

_U32 = struct.Struct("<I")


def bit_of(key: int, b: int) -> int:
    return (key >> (63 - b)) & 1


def crit_bit(a: int, b: int) -> int:
    return 64 - (a ^ b).bit_length()


def node_codec(stride: int):
    """One read of a node whose entries are `stride` bytes: (diff word,
    entry 0 bytes, entry 1 bytes)."""
    return packed_struct([(0, "I"), (4, f"{stride}s"), (4 + stride, f"{stride}s")])


class CritBitKernel(MapKernel):
    kind = "ctree"
    ROOT_SIZE = 96
    ENTRY_NAME = "ctree_entry"
    ENTRY_FIELDS = (("key", "u32"), ("slot", "oid"))
    ROOT_FIELDS = (("is_leaf", "u64"), ("count", "u64", 32), ("entry", "bytes48", 48))

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.stride = self.entry_size
        self.node_size = 4 + 2 * self.stride
        # one read of the root (ROOT): (is_leaf, count, entry slot bytes); of
        # a node: node_codec; an entry's key and slot words are decoded from
        # its bytes by `head`
        self.node = node_codec(self.stride)
        self.head = packed_struct(self.entry_parts(0, "key", "slot"))

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        self._write_root(tx, self.root, is_leaf=0, count=0)

    # -- entry plumbing -------------------------------------------------------

    def _make_entry(self, key: int, slot: bytes) -> bytes:
        return self.entry.pack(key, slot).ljust(self.stride, b"\0")

    def _link(self, raw: bytes):
        return () if self.desc is None else OID_WORDS.unpack_from(raw, self.desc.link_offset)

    def _descend(self, key: int, root_leaf: bool, raw: bytes):
        """Walk from the root's entry to the leaf entry key's bits select,
        one read per node. Returns the path of (holder, entry offset,
        is_leaf, holder's diff word, entry bytes, sibling entry bytes) ending
        at a leaf (the root's word is its is_leaf flag, its sibling None),
        the leaf's key and its value word."""
        is_leaf = root_leaf
        path = [(self.root, self.ROOT.offsets["entry"], is_leaf, int(root_leaf), raw, None)]
        k, s0, s1 = self.head.unpack_from(raw)
        while not is_leaf:
            node = ObjectId(s0, s1)
            word, raw0, raw1 = self.pool.read(node, self.node)
            if bit_of(key, word & 0xFF):
                is_leaf = bool(word & 0x200)
                path.append((node, 4 + self.stride, is_leaf, word, raw1, raw0))
                k, s0, s1 = self.head.unpack_from(raw1)
            else:
                is_leaf = bool(word & 0x100)
                path.append((node, 4, is_leaf, word, raw0, raw1))
                k, s0, s1 = self.head.unpack_from(raw0)
        return path, k, s0

    def _put_entry(self, tx, holder: ObjectId, off: int, word, entry: bytes,
                   leaf: bool) -> None:
        """Store an entry and its leaf flag: the root's is_leaf word (`word`
        is its old value) or a bit of the holder's diff word, written only
        when it changes; a node's word and its first entry are one span."""
        if holder == self.root:
            tx.write(holder, off, entry)
            if leaf != word:
                self._write_root(tx, holder, is_leaf=leaf)
            return
        bit = 1 << (8 + (off - 4) // self.stride)
        new = (word | bit) if leaf else (word & ~bit)
        if new == word:
            tx.write(holder, off, entry)
        elif off == 4:
            tx.write(holder, 0, _U32.pack(new) + entry)
        else:
            tx.write(holder, 0, _U32.pack(new))
            tx.write(holder, off, entry)

    # -- operations -------------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        root_leaf, count, raw = self.pool.read(self.root, self.ROOT)
        if count == 0:
            entry_off = self.ROOT.offsets["entry"]
            tx.write(self.root, entry_off, self._make_entry(key, encode_value(value)))
            self._write_root(tx, self.root, is_leaf=1)
            self._extend_new(self.root, entry_off)
            self._set_count(tx, 1)
            return True

        path, leafkey, _ = self._descend(key, root_leaf == 1, raw)
        if leafkey == key:
            holder, off, _, _, raw, _ = path[-1]
            self._confirm(holder, key, off, self._link(raw))
            return False
        b = crit_bit(leafkey, key)

        # the displacement point: the first entry on key's path that is a
        # leaf or links to a node splitting below b
        j = 0
        while not path[j][2] and (path[j + 1][3] & 0xFF) <= b:
            j += 1
        holder, off, is_leaf, word, raw, _ = path[j]

        displaced = self._relocated(tx, raw[:self.stride])  # the root's slot is wider
        i = bit_of(key, b)
        node = tx.alloc_zeroed(self.node_size)
        new_word = b | (1 << (8 + i)) | ((1 << (8 + (1 - i))) if is_leaf else 0)
        fresh = self._make_entry(key, encode_value(value))
        entries = (fresh, displaced) if i == 0 else (displaced, fresh)
        tx.write(node, 0, _U32.pack(new_word) + entries[0] + entries[1])
        self._put_entry(tx, holder, off, word, self._make_entry(0, node.pack()), False)
        self._extend_new(node, 4 + i * self.stride)
        self._set_count(tx, count + 1)
        return True

    def remove(self, tx, key: int) -> bool:
        root_leaf, count, raw = self.pool.read(self.root, self.ROOT)
        if count == 0:
            return False
        path, leafkey, _ = self._descend(key, root_leaf == 1, raw)
        holder, off, _, word, raw, sibling = path[-1]
        if leafkey != key:
            return False
        link = self._confirm(holder, key, off, self._link(raw))
        self._free_entry(tx, holder, link, off)
        if len(path) == 1:
            self._write_root(tx, self.root, is_leaf=0)
            self._set_count(tx, count - 1)
            return True
        sib_leaf = bool(word >> (8 + (4 + self.stride - off) // self.stride) & 1)
        g_holder, g_off, _, g_word = path[-2][:4]
        self._put_entry(tx, g_holder, g_off, g_word, self._relocated(tx, sibling), sib_leaf)
        tx.free(holder)
        self._set_count(tx, count - 1)
        return True

    def lookup(self, key: int):
        root_leaf, count, raw = self.pool.read(self.root, self.ROOT)
        if count == 0:
            return None
        path, leafkey, value = self._descend(key, root_leaf == 1, raw)
        if leafkey != key:
            return None
        holder, off, _, _, raw, _ = path[-1]
        self._confirm(holder, key, off, self._link(raw))
        return value

    def _leaves(self):
        """Depth-first over every leaf entry, entry 0 first, one read per
        node: yields (holder, entry offset, key, value word, the (bit,
        value) pairs fixed on its path, the entry's bytes)."""
        root_leaf, count, raw = self.pool.read(self.root, self.ROOT)

        def walk(holder, off, is_leaf, raw, fixed_bits):
            key, s0, s1 = self.head.unpack_from(raw)
            if is_leaf:
                yield holder, off, key, s0, fixed_bits, raw
                return
            node = ObjectId(s0, s1)
            word, raw0, raw1 = self.pool.read(node, self.node)
            d = word & 0xFF
            yield from walk(node, 4, bool(word & 0x100), raw0, fixed_bits + [(d, 0)])
            yield from walk(node, 4 + self.stride, bool(word & 0x200), raw1, fixed_bits + [(d, 1)])

        if count:
            yield from walk(self.root, self.ROOT.offsets["entry"], root_leaf == 1, raw, [])

    def scan(self):
        for holder, off, key, value, _, raw in self._leaves():
            self._confirm(holder, key, off, self._link(raw))
            yield key, value

    def validate(self) -> None:
        keys: list[int] = []
        for holder, off, key, _, fixed_bits, _ in self._leaves():
            bits = [b for b, _ in fixed_bits]
            assert all(b < 64 for b in bits), f"bit index out of range: {bits}"
            assert bits == sorted(set(bits)), "critical bits not increasing along path"
            for b, v in fixed_bits:
                assert bit_of(key, b) == v, f"key {key} violates bit {b}={v}"
            self._peek_key64(holder, key, off)
            keys.append(key)
        count = self.count()
        assert keys == sorted(keys), "in-order walk not ascending"
        assert len(keys) == len(set(keys)), "duplicate keys"
        assert len(keys) == count, f"count {count} != leaves {len(keys)}"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Clone node-for-node bottom-up, widening leaf keys; one store per
        record. Each old node is read once, as {word, entry 0, entry 1}."""
        leaf_word, count, raw = pool.read(root, cls.ROOT)
        root_leaf = leaf_word == 1
        new_node_size = 4 + 2 * new.size
        old_node_codec = node_codec(old.size)

        def clone_entry(raw, is_leaf) -> bytes:
            key, slot = old.unpack_from(raw)
            if is_leaf:
                return new.pack(key, slot)
            old_node = ObjectId.unpack(slot)
            word, raw0, raw1 = pool.read(old_node, old_node_codec)
            e0 = clone_entry(raw0, bool(word >> 8 & 1))
            e1 = clone_entry(raw1, bool(word >> 9 & 1))
            new_node = tx.alloc_zeroed(new_node_size)
            tx.write(new_node, 0, _U32.pack(word) + e0 + e1)
            ms.nodes_migrated += 1
            ms.bytes_node_records += new_node_size
            tx.free(old_node)
            return new.pack(0, new_node.pack())

        if count > 0:  # else dead entry bytes stay, as after a remove: unread at count 0
            tx.write(root, cls.ROOT.offsets["entry"], clone_entry(raw, root_leaf))
        cls._write_root(tx, root, is_leaf=int(root_leaf), count=count)
