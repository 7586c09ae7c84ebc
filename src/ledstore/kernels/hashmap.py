"""Chained hash map over a persistent bucket array (10 buckets initially).

Record shapes (packed, little-endian):

  node v1 manual         {key u32, value 16B, next 16B}            36 B
  node v2 manual change  {key u64, value 16B, next 16B}            40 B
  node v2 manual add     {key u32, value 16B, next 16B, name 16B}  52 B
  node auto              v1 fields + trailing extension link       64 B record

The bucket array is a plain vector of 16-byte node ids, grown x8 whenever
the load factor passes 4; growth relinks every node and swaps the array,
so bucket membership is always bucket_index(key, nbuckets).
"""

from __future__ import annotations

import struct

from .. import leds
from ..pool import NULL_OID, ObjectId
from .base import (
    MapKernel,
    check_key,
    decode_value,
    encode_value,
)

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

INITIAL_BUCKETS = 10
GROWTH = 8
MAX_LOAD = 4

_M64 = (1 << 64) - 1


def bucket_index(key: int, nbuckets: int) -> int:
    h = (key * 0x9E3779B97F4A7C15) & _M64
    h ^= h >> 29
    return h % nbuckets


def auto_node_type(change: str | None) -> leds.TypeDescriptor:
    desc = leds.define_type(
        "hashmap_node", [("key", "u32"), ("value", "oid"), ("next", "oid")]
    )
    if change == "change":
        desc = leds.append_extension(
            desc, [("key64", "u64")], {"op": "copy_fields", "map": {"key64": "key"}}
        )
    elif change == "add":
        desc = leds.append_extension(desc, [("name", "bytes16")], {"op": "zero"})
    return desc


class HashMapKernel(MapKernel):
    kind = "hashmap"

    # root: buckets oid @0, nbuckets u64 @16, count u64 @32
    NBUCKETS_OFF = 16

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        if self.mode == "auto":
            self.desc = auto_node_type(self.change if self.version == 2 else None)
            self.key_off = 0
            self.val_off = 4
            self.next_off = 20
            self.node_size = self.desc.base_size
            self.key_is64 = False
        elif self.version == 1:
            self.key_off, self.val_off, self.next_off = 0, 4, 20
            self.node_size, self.key_is64 = 36, False
        elif self.change == "change":
            self.key_off, self.val_off, self.next_off = 0, 8, 24
            self.node_size, self.key_is64 = 40, True
        else:  # manual v2 add
            self.key_off, self.val_off, self.next_off = 0, 4, 20
            self.name_off, self.node_size, self.key_is64 = 36, 52, False

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        buckets = tx.alloc_zeroed(INITIAL_BUCKETS * 16)
        tx.write(self.root, 0, buckets.pack())
        tx.write(self.root, self.NBUCKETS_OFF, _U64.pack(INITIAL_BUCKETS))
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))

    def _buckets(self) -> tuple[ObjectId, int]:
        raw = self.pool.load(self.root, 0, 24)
        return ObjectId.unpack(raw), _U64.unpack_from(raw, 16)[0]

    def _node_key(self, oid: ObjectId) -> int:
        raw = self.pool.load(oid, self.key_off, 8 if self.key_is64 else 4)
        return (_U64 if self.key_is64 else _U32).unpack(raw)[0]

    def _node_next(self, oid: ObjectId) -> ObjectId:
        return ObjectId.unpack(self.pool.load(oid, self.next_off, 16))

    def _confirm(self, oid: ObjectId, key: int) -> None:
        """Positive match in auto-change mode reads key64 through the extension."""
        if self.key64_ext:
            k64 = leds.read_field(self.pool, oid, self.desc, "key64")
            assert k64 == key, "key64 invariant violated"

    # -- operations ----------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        buckets, nbuckets = self._buckets()
        idx = bucket_index(key, nbuckets)
        head = ObjectId.unpack(self.pool.load(buckets, idx * 16, 16))
        cur = head
        while not cur.is_null():
            if self._node_key(cur) == key:
                self._confirm(cur, key)
                return False
            cur = self._node_next(cur)

        node = tx.alloc_zeroed(self.node_size)
        if self.key_is64:
            record = _U64.pack(key) + encode_value(value) + head.pack()
        else:
            record = _U32.pack(key) + encode_value(value) + head.pack()
        if self.inline_name:
            record += bytes(16)  # name, zero-filled
        tx.write(node, 0, record)
        tx.write(buckets, idx * 16, node.pack())
        if self.key64_ext:
            leds.ensure_extension(tx, self.pool, node, self.desc, 1)
        self._bump_count(tx, 1)
        if self.count() > nbuckets * MAX_LOAD:
            self._rehash(tx, buckets, nbuckets)
        return True

    def remove(self, tx, key: int) -> bool:
        buckets, nbuckets = self._buckets()
        idx = bucket_index(key, nbuckets)
        prev = None
        cur = ObjectId.unpack(self.pool.load(buckets, idx * 16, 16))
        while not cur.is_null():
            if self._node_key(cur) == key:
                self._confirm(cur, key)
                nxt = self._node_next(cur)
                if prev is None:
                    tx.write(buckets, idx * 16, nxt.pack())
                else:
                    tx.write(prev, self.next_off, nxt.pack())
                if self.mode == "auto":
                    leds.free_extendible(tx, self.pool, cur, self.desc)
                else:
                    tx.free(cur)
                self._bump_count(tx, -1)
                return True
            prev, cur = cur, self._node_next(cur)
        return False

    def lookup(self, key: int):
        buckets, nbuckets = self._buckets()
        cur = ObjectId.unpack(self.pool.load(buckets, bucket_index(key, nbuckets) * 16, 16))
        while not cur.is_null():
            if self._node_key(cur) == key:
                self._confirm(cur, key)
                return decode_value(self.pool.load(cur, self.val_off, 16))
            cur = self._node_next(cur)
        return None

    def _entry_key(self, oid: ObjectId) -> int:
        if self.key64_ext:
            return leds.read_field(self.pool, oid, self.desc, "key64")
        return self._node_key(oid)

    def scan(self):
        buckets, nbuckets = self._buckets()
        for idx in range(nbuckets):
            cur = ObjectId.unpack(self.pool.load(buckets, idx * 16, 16))
            while not cur.is_null():
                yield self._entry_key(cur), decode_value(self.pool.load(cur, self.val_off, 16))
                cur = self._node_next(cur)

    def _rehash(self, tx, old_buckets: ObjectId, old_n: int) -> None:
        new_n = old_n * GROWTH
        new_buckets = tx.alloc_zeroed(new_n * 16)
        heads = [NULL_OID] * new_n
        for idx in range(old_n):
            cur = ObjectId.unpack(self.pool.load(old_buckets, idx * 16, 16))
            while not cur.is_null():
                nxt = self._node_next(cur)
                widx = bucket_index(self._node_key(cur), new_n)
                tx.write(cur, self.next_off, heads[widx].pack())
                heads[widx] = cur
                cur = nxt
        tx.write(new_buckets, 0, b"".join(h.pack() for h in heads))
        tx.free(old_buckets)
        tx.write(self.root, 0, new_buckets.pack())
        tx.write(self.root, self.NBUCKETS_OFF, _U64.pack(new_n))

    def validate(self) -> None:
        buckets, nbuckets = self._buckets()
        expected = self.count()
        seen: set[int] = set()
        for idx in range(nbuckets):
            cur = ObjectId.unpack(self.pool.load(buckets, idx * 16, 16))
            while not cur.is_null():
                key = self._node_key(cur)
                assert bucket_index(key, nbuckets) == idx, f"key {key} in wrong bucket"
                assert key not in seen, f"duplicate key {key}"
                seen.add(key)
                assert len(seen) <= expected, "cycle or count drift"
                if self.key64_ext:
                    k64 = _peek_key64(self.pool, cur, self.desc)
                    if k64 is not None:
                        assert k64 == key, "key64 invariant violated"
                cur = self._node_next(cur)
        assert len(seen) == expected, f"count {expected} != scanned {len(seen)}"


def _peek_key64(pool, oid, desc):
    """Uncounted diagnostic read of a materialized key64; None if unextended."""
    uuid, target = struct.unpack_from("<QQ", pool.buf, oid.offset + desc.link_offset)
    if uuid == 0 and target == 0:
        return None
    return _U64.unpack_from(pool.buf, target)[0]


# -- manual migration --------------------------------------------------------

def migrate(pool, tx, old_root: ObjectId, temp: ObjectId, ms, change: str) -> None:
    """Rebuild every chain in the v2 layout, tail-first so each new node is
    written with exactly one store; old nodes and the old array are freed."""
    raw = pool.load(old_root, 0, 40)
    old_buckets = ObjectId.unpack(raw)
    nbuckets = _U64.unpack_from(raw, 16)[0]
    count = _U64.unpack_from(pool.load(old_root, 32, 8))[0]

    new_buckets = tx.alloc_zeroed(nbuckets * 16)
    heads = []
    for idx in range(nbuckets):
        chain = []
        cur = ObjectId.unpack(pool.load(old_buckets, idx * 16, 16))
        while not cur.is_null():
            node = pool.load(cur, 0, 36)
            chain.append((_U32.unpack_from(node)[0], node[4:20]))
            nxt = ObjectId.unpack(node, 20)
            tx.free(cur)
            cur = nxt
        head = NULL_OID
        for key, value in reversed(chain):
            if change == "change":
                record = _U64.pack(key) + value + head.pack()
            else:
                record = _U32.pack(key) + value + head.pack() + bytes(16)
            head = tx.alloc_zeroed(len(record))
            tx.write(head, 0, record)
            ms.nodes_migrated += 1
            ms.bytes_node_records += len(record)
        heads.append(head)
    tx.write(new_buckets, 0, b"".join(h.pack() for h in heads))
    tx.free(old_buckets)

    tx.write(temp, 0, new_buckets.pack())
    tx.write(temp, 16, _U64.pack(nbuckets))
    tx.write(temp, 32, _U64.pack(count))
