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
from bisect import bisect_left, insort

from ..layout import NULL_OID, ObjectId, define_record, packed_struct
from .base import OID_WORDS, MapKernel, check_key, encode_value

LEVELS = 4


class SkipListKernel(MapKernel):
    kind = "skiplist"
    ENTRY_NAME = "skiplist_node"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid")) + tuple(
        (f"next{i}", "oid") for i in range(LEVELS))
    ROOT_FIELDS = (("head", "oid"), ("count", "u64", 32))

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.next0 = self.entry.offsets["next0"]
        # one node visit: (key, value word, _, then two words per next link,
        # then the link words in the auto lane)
        self.node = packed_struct(self.entry_parts(
            0, "key", "value", *(f"next{i}" for i in range(LEVELS))) + self.link_parts(0))
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
        head = tx.alloc_zeroed(self.entry_size)
        self._write_root(tx, self.root, head=head, count=0)
        self.head = head

    def _load_structure(self) -> None:
        self.head = ObjectId(*self.pool.read(self.root, self.ROOT)[:2])
        self.by_key.clear()
        self.height.clear()
        self.level_keys = [[] for _ in range(LEVELS)]
        for level in range(LEVELS):
            cur = self._node_next(self.head, level)
            while not cur.is_null():
                key, _, _, *links = self.pool.read(cur, self.node)
                self.level_keys[level].append(key)
                if level == 0:
                    self.by_key[key] = cur
                self.height[key] = level + 1
                cur = self._link(links, level)

    @staticmethod
    def _link(words, level: int) -> ObjectId:
        return ObjectId(words[2 * level], words[2 * level + 1])

    def _node_next(self, oid: ObjectId, level: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(oid, self._next_off(level), 16))

    def _pred(self, level: int, key: int) -> ObjectId:
        keys = self.level_keys[level]
        pos = bisect_left(keys, key)
        return self.head if pos == 0 else self.by_key[keys[pos - 1]]

    def _pred_runs(self, key: int, h: int) -> list[tuple[ObjectId, int, int]]:
        """(pred, first level, end level) per distinct predecessor of `key`
        over levels 0..h-1; one node precedes key on a contiguous run of
        levels, so each run's next slots are one span."""
        runs = []
        for level in range(h):
            pred = self._pred(level, key)
            if runs and runs[-1][0] == pred:
                runs[-1][2] = level + 1
            else:
                runs.append([pred, level, level + 1])
        return runs

    def _auto_link(self, node: ObjectId):
        """An indexed node's link words, read only when _confirm needs them."""
        return self.pool.read(node, OID_WORDS, self.desc.link_offset) if self.key64_ext else ()

    # -- operations ----------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        if key in self.by_key:
            node = self.by_key[key]
            self._confirm(node, key, 0, self._auto_link(node))
            return False
        h = 1
        while h < LEVELS and self.rng.random() < 0.5:
            h += 1
        count = self.count()
        node = tx.alloc_zeroed(self.entry_size)
        runs = self._pred_runs(key, h)
        succs = []
        for pred, lo, hi in runs:
            words = self.pool.read(pred, self.node)[3:]
            succs += [self._link(words, level).pack() for level in range(lo, hi)]
        tx.write(node, 0, self.entry.pack(key, encode_value(value), *succs))
        for pred, lo, hi in runs:
            tx.write(pred, self._next_off(lo), node.pack() * (hi - lo))
        self._extend_new(node)
        self.by_key[key] = node
        self.height[key] = h
        for level in range(h):
            insort(self.level_keys[level], key)
        self._set_count(tx, count + 1)
        return True

    def remove(self, tx, key: int) -> bool:
        node = self.by_key.get(key)
        if node is None:
            return False
        count = self.count()
        rec = self.pool.read(node, self.node)
        link = self._confirm(node, key, 0, rec[3 + 2 * LEVELS:])
        h = self.height[key]
        for pred, lo, hi in self._pred_runs(key, h):
            tx.write(pred, self._next_off(lo),
                     b"".join(self._link(rec[3:], level).pack() for level in range(lo, hi)))
        for level in range(h):
            keys = self.level_keys[level]
            keys.pop(bisect_left(keys, key))
        self._free_entry(tx, node, link)
        del self.by_key[key]
        del self.height[key]
        self._set_count(tx, count - 1)
        return True

    def lookup(self, key: int):
        node = self.by_key.get(key)
        if node is None:
            return None
        rec = self.pool.read(node, self.node)
        self._confirm(node, key, 0, rec[3 + 2 * LEVELS:])
        return rec[1]

    def scan(self):
        cur = self._node_next(self.head, 0)
        while not cur.is_null():
            key, value, _, *links = self.pool.read(cur, self.node)
            self._confirm(cur, key, 0, links[2 * LEVELS:])
            yield key, value
            cur = self._link(links, 0)

    def validate(self) -> None:
        level_sets: list[set[int]] = []
        for level in range(LEVELS):
            keys = []
            cur = self._node_next(self.head, level)
            while not cur.is_null():
                key, _, _, *links = self.pool.read(cur, self.node)
                keys.append(key)
                assert len(keys) <= self.count() + 1, "cycle in chain"
                cur = self._link(links, level)
            assert keys == sorted(keys), f"level {level} out of order"
            assert len(keys) == len(set(keys)), f"level {level} has duplicates"
            level_sets.append(set(keys))
            assert keys == self.level_keys[level], f"volatile index drift at level {level}"
        for level in range(1, LEVELS):
            assert level_sets[level] <= level_sets[level - 1], "level not a subset"
        assert len(level_sets[0]) == self.count(), "count drift"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Clone node-for-node, heights preserved, built tail-first so each new
        record is written with a single store."""
        uuid, off, count = pool.read(root, cls.ROOT)
        old_head = ObjectId(uuid, off)
        # old nodes are read field by field: {key, value}, the key, one link
        old_entry = define_record(old.fields[:2])
        old_key = define_record(old.fields[:1])

        def old_next(oid, level):
            return ObjectId.unpack(pool.load(oid, old.offsets[f"next{level}"], 16))

        entries = []          # (key, value bytes) in ascending order
        heights = {}
        cur = old_next(old_head, 0)
        while not cur.is_null():
            entries.append(old_entry.unpack_from(pool.load(cur, 0, old_entry.size)))
            nxt = old_next(cur, 0)
            tx.free(cur)
            cur = nxt
        for level in range(1, LEVELS):
            cur = old_next(old_head, level)
            while not cur.is_null():
                key, = old_key.unpack_from(pool.load(cur, 0, old_key.size))
                heights[key] = level + 1
                cur = old_next(cur, level)
        tx.free(old_head)

        tails = [NULL_OID] * LEVELS
        for key, value in reversed(entries):
            h = heights.get(key, 1)
            record = new.pack(key, value, *(t.pack() for t in tails[:h]))
            node = tx.alloc_zeroed(new.size)
            tx.write(node, 0, record)
            ms.nodes_migrated += 1
            ms.bytes_node_records += len(record)
            for level in range(h):
                tails[level] = node

        head = tx.alloc_zeroed(new.size)
        tx.write(head, new.offsets["next0"], b"".join(t.pack() for t in tails))
        cls._write_root(tx, root, head=head, count=count)
