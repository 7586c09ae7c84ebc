"""Skip list with a fixed cap of 4 levels; every record carries 4 link slots.

Record shapes:

  node v1 manual         {key u32, value 16B, next[4]}             84 B
  node v2 manual change  {key u64, value 16B, next[4]}             88 B
  node v2 manual add     {key u32, value 16B, next[4], name 16B}  100 B
  node auto              v1 fields + trailing extension link      112 B record

A node's height (1..4, p=0.5 promotion) is implicit: it appears in the
level-i chain iff i < height, and unused next slots stay null. The head
sentinel is a full node record with an unused key.

Navigating a 4-level list is linear in n, which is unusable at desk scale
in pure Python, so each kernel instance keeps a volatile per-level sorted
index (rebuilt by one scan on attach). The index only picks predecessors;
every link read at a modification site and every link write is performed
against the persistent records, so the stored structure stands alone.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left, insort

from .. import leds
from ..pool import NULL_OID, ObjectId
from .base import MapKernel, check_key, decode_value, encode_value

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

LEVELS = 4


def auto_node_type(change: str | None) -> leds.TypeDescriptor:
    fields = [("key", "u32"), ("value", "oid")] + [(f"next{i}", "oid") for i in range(LEVELS)]
    desc = leds.define_type("skiplist_node", fields)
    if change == "change":
        desc = leds.append_extension(
            desc, [("key64", "u64")], {"op": "copy_fields", "map": {"key64": "key"}}
        )
    elif change == "add":
        desc = leds.append_extension(desc, [("name", "bytes16")], {"op": "zero"})
    return desc


class SkipListKernel(MapKernel):
    kind = "skiplist"

    # root: head oid @0, count u64 @32

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        if self.mode == "auto":
            self.desc = auto_node_type(self.change if self.version == 2 else None)
            self.key_off, self.val_off, self.next0 = 0, 4, 20
            self.node_size, self.key_is64 = self.desc.base_size, False
        elif self.version == 1:
            self.key_off, self.val_off, self.next0 = 0, 4, 20
            self.node_size, self.key_is64 = 84, False
        elif self.change == "change":
            self.key_off, self.val_off, self.next0 = 0, 8, 24
            self.node_size, self.key_is64 = 88, True
        else:
            self.key_off, self.val_off, self.next0 = 0, 4, 20
            self.node_size, self.key_is64 = 100, False
        if self.rng is None:
            self.rng = random.Random(0x51C1)
        # volatile navigation index
        self.head = NULL_OID
        self.by_key: dict[int, ObjectId] = {}
        self.height: dict[int, int] = {}
        self.level_keys: list[list[int]] = [[] for _ in range(LEVELS)]

    def _next_off(self, level: int) -> int:
        return self.next0 + 16 * level

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        head = tx.alloc_zeroed(self.node_size)
        tx.write(self.root, 0, head.pack())
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))
        self.head = head

    def _load_structure(self) -> None:
        self.head = self._root_oid_field(0)
        self.by_key.clear()
        self.height.clear()
        self.level_keys = [[] for _ in range(LEVELS)]
        for level in range(LEVELS):
            cur = self._node_next(self.head, level)
            while not cur.is_null():
                key = self._node_key(cur)
                self.level_keys[level].append(key)
                if level == 0:
                    self.by_key[key] = cur
                self.height[key] = level + 1
                cur = self._node_next(cur, level)

    def _node_key(self, oid: ObjectId) -> int:
        raw = self.pool.load(oid, self.key_off, 8 if self.key_is64 else 4)
        return (_U64 if self.key_is64 else _U32).unpack(raw)[0]

    def _node_next(self, oid: ObjectId, level: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(oid, self._next_off(level), 16))

    def _pred(self, level: int, key: int) -> ObjectId:
        keys = self.level_keys[level]
        pos = bisect_left(keys, key)
        return self.head if pos == 0 else self.by_key[keys[pos - 1]]

    def _confirm(self, oid: ObjectId, key: int) -> None:
        if self.key64_ext:
            k64 = leds.read_field(self.pool, oid, self.desc, "key64")
            assert k64 == key, "key64 invariant violated"

    # -- operations ----------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        if key in self.by_key:
            self._confirm(self.by_key[key], key)
            return False
        h = 1
        while h < LEVELS and self.rng.random() < 0.5:
            h += 1
        node = tx.alloc_zeroed(self.node_size)
        preds = [self._pred(level, key) for level in range(h)]
        succs = [self._node_next(preds[level], level) for level in range(h)]
        key_part = _U64.pack(key) if self.key_is64 else _U32.pack(key)
        links = b"".join(s.pack() for s in succs) + bytes(16 * (LEVELS - h))
        record = key_part + encode_value(value) + links
        if self.inline_name:
            record += bytes(16)
        tx.write(node, 0, record)
        for level in range(h):
            tx.write(preds[level], self._next_off(level), node.pack())
        if self.key64_ext:
            leds.ensure_extension(tx, self.pool, node, self.desc, 1)
        self.by_key[key] = node
        self.height[key] = h
        for level in range(h):
            insort(self.level_keys[level], key)
        self._bump_count(tx, 1)
        return True

    def remove(self, tx, key: int) -> bool:
        node = self.by_key.get(key)
        if node is None:
            return False
        self._confirm(node, key)
        for level in range(self.height[key]):
            pred = self._pred(level, key)
            tx.write(pred, self._next_off(level), self._node_next(node, level).pack())
            keys = self.level_keys[level]
            keys.pop(bisect_left(keys, key))
        if self.mode == "auto":
            leds.free_extendible(tx, self.pool, node, self.desc)
        else:
            tx.free(node)
        del self.by_key[key]
        del self.height[key]
        self._bump_count(tx, -1)
        return True

    def lookup(self, key: int):
        node = self.by_key.get(key)
        if node is None:
            return None
        self._confirm(node, key)
        return decode_value(self.pool.load(node, self.val_off, 16))

    def _entry_key(self, oid: ObjectId) -> int:
        if self.key64_ext:
            return leds.read_field(self.pool, oid, self.desc, "key64")
        return self._node_key(oid)

    def scan(self):
        cur = self._node_next(self.head, 0)
        while not cur.is_null():
            yield self._entry_key(cur), decode_value(self.pool.load(cur, self.val_off, 16))
            cur = self._node_next(cur, 0)

    def validate(self) -> None:
        level_sets: list[set[int]] = []
        for level in range(LEVELS):
            keys = []
            cur = self._node_next(self.head, level)
            while not cur.is_null():
                keys.append(self._node_key(cur))
                assert len(keys) <= self.count() + 1, "cycle in chain"
                cur = self._node_next(cur, level)
            assert keys == sorted(keys), f"level {level} out of order"
            assert len(keys) == len(set(keys)), f"level {level} has duplicates"
            level_sets.append(set(keys))
            assert keys == self.level_keys[level], f"volatile index drift at level {level}"
        for level in range(1, LEVELS):
            assert level_sets[level] <= level_sets[level - 1], "level not a subset"
        assert len(level_sets[0]) == self.count(), "count drift"


# -- manual migration --------------------------------------------------------

def migrate(pool, tx, old_root: ObjectId, temp: ObjectId, ms, change: str) -> None:
    """Clone node-for-node, heights preserved, built tail-first so each new
    record (88 or 100 bytes) is written with a single store."""
    old_head = ObjectId.unpack(pool.load(old_root, 0, 16))
    count = _U64.unpack_from(pool.load(old_root, 32, 8))[0]

    def old_next(oid, level):
        return ObjectId.unpack(pool.load(oid, 20 + 16 * level, 16))

    entries = []          # (key, value bytes) in ascending order
    heights = {}
    cur = old_next(old_head, 0)
    while not cur.is_null():
        raw = pool.load(cur, 0, 20)
        entries.append((_U32.unpack_from(raw)[0], raw[4:20]))
        nxt = old_next(cur, 0)
        tx.free(cur)
        cur = nxt
    for level in range(1, LEVELS):
        cur = old_next(old_head, level)
        while not cur.is_null():
            heights[_U32.unpack_from(pool.load(cur, 0, 4))[0]] = level + 1
            cur = old_next(cur, level)
    tx.free(old_head)

    new_size = 88 if change == "change" else 100
    tails = [NULL_OID] * LEVELS
    for key, value in reversed(entries):
        h = heights.get(key, 1)
        links = b"".join(t.pack() for t in tails[:h]) + bytes(16 * (LEVELS - h))
        if change == "change":
            record = _U64.pack(key) + value + links
        else:
            record = _U32.pack(key) + value + links + bytes(16)
        node = tx.alloc_zeroed(new_size)
        tx.write(node, 0, record)
        ms.nodes_migrated += 1
        ms.bytes_node_records += len(record)
        for level in range(h):
            tails[level] = node

    head = tx.alloc_zeroed(new_size)
    head_links = b"".join(t.pack() for t in tails)
    link0 = 24 if change == "change" else 20
    tx.write(head, link0, head_links)
    tx.write(temp, 0, head.pack())
    tx.write(temp, 32, _U64.pack(count))
