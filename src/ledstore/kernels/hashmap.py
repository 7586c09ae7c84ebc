"""Chained hash map over a persistent bucket array (10 buckets initially).

Record shapes (packed, little-endian):

  node v1 manual         {key u32, value 16B, next 16B}            36 B
  node v2 manual change  {key u64, value 16B, next 16B}            40 B
  node v2 manual add     {key u32, value 16B, next 16B, name 16B}  52 B
  node auto              v1 fields + trailing extension link       64 B record

The bucket array is a plain vector of 16-byte node ids, grown x8 whenever
the load factor passes 4; growth relinks every node and swaps the array,
so bucket membership is always bucket_index(key, nbuckets).

Insert, remove and lookup walk one chain; every whole-map walk goes through
`_chains`: one read of the bucket array, then one read per node.
"""

from __future__ import annotations

import struct

from ..layout import NULL_OID, ObjectId, packed_struct
from .base import OID_WORDS, MapKernel, check_key, encode_value, word_parts

INITIAL_BUCKETS = 10
GROWTH = 8
MAX_LOAD = 4

_M64 = (1 << 64) - 1


def bucket_index(key: int, nbuckets: int) -> int:
    h = (key * 0x9E3779B97F4A7C15) & _M64
    h ^= h >> 29
    return h % nbuckets


def _chains(pool, buckets: ObjectId, nbuckets: int, codec, at: int = 3):
    """(bucket index, node id, its values decoded by `codec`) for every node
    in bucket and chain order; `codec`'s values `at` and `at + 1` are next."""
    words = iter(pool.read(buckets, struct.Struct(f"<{2 * nbuckets}Q")))
    for idx, link in enumerate(zip(words, words)):
        while link != (0, 0):
            node = ObjectId(*link)
            rec = pool.read(node, codec)
            yield idx, node, rec
            link = rec[at:at + 2]


class HashMapKernel(MapKernel):
    kind = "hashmap"
    ENTRY_NAME = "hashmap_node"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid"), ("next", "oid"))
    ROOT_FIELDS = (("buckets", "oid"), ("nbuckets", "u64"), ("count", "u64", 32))

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.next_off = self.entry.offsets["next"]
        # one chain-node visit: (key, value word, _, next uuid, next offset,
        # then the link words in the auto lane)
        self.node = packed_struct(self.entry_parts(0, "key", "value", "next")
                                  + self.link_parts(0))

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        buckets = tx.alloc_zeroed(INITIAL_BUCKETS * 16)
        self._write_root(tx, self.root, buckets=buckets, nbuckets=INITIAL_BUCKETS, count=0)

    def _head(self, buckets: ObjectId, idx: int) -> ObjectId:
        return ObjectId(*self.pool.read(buckets, OID_WORDS, idx * 16))

    # -- operations ----------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        buckets, nbuckets, count = self._begin()
        idx = bucket_index(key, nbuckets)
        head = cur = self._head(buckets, idx)
        while cur != NULL_OID:
            rec = self.pool.read(cur, self.node)
            if rec[0] == key:
                self._confirm(cur, key, 0, rec[5:])
                return False
            cur = ObjectId(rec[3], rec[4])

        node = tx.alloc_zeroed(self.entry_size)
        tx.write(node, 0, self.entry.pack(key, encode_value(value), head.pack()))
        tx.write(buckets, idx * 16, node.pack())
        self._extend_new(node)
        self._set_count(tx, count + 1)
        if count + 1 > nbuckets * MAX_LOAD:
            self._rehash(tx, buckets, nbuckets)
        return True

    def remove(self, tx, key: int) -> bool:
        buckets, nbuckets, count = self._begin()
        idx = bucket_index(key, nbuckets)
        prev = None
        cur = self._head(buckets, idx)
        while cur != NULL_OID:
            rec = self.pool.read(cur, self.node)
            nxt = ObjectId(rec[3], rec[4])
            if rec[0] == key:
                link = self._confirm(cur, key, 0, rec[5:])
                if prev is None:
                    tx.write(buckets, idx * 16, nxt.pack())
                else:
                    tx.write(prev, self.next_off, nxt.pack())
                self._free_entry(tx, cur, link)
                self._set_count(tx, count - 1)
                return True
            prev, cur = cur, nxt
        return False

    def lookup(self, key: int):
        buckets, nbuckets, _ = self._begin()
        cur = self._head(buckets, bucket_index(key, nbuckets))
        while cur != NULL_OID:
            rec = self.pool.read(cur, self.node)
            if rec[0] == key:
                self._confirm(cur, key, 0, rec[5:])
                return rec[1]
            cur = ObjectId(rec[3], rec[4])
        return None

    def scan(self):
        buckets, nbuckets, _ = self._begin()
        for _, node, rec in _chains(self.pool, buckets, nbuckets, self.node):
            self._confirm(node, rec[0], 0, rec[5:])
            yield rec[0], rec[1]

    def _rehash(self, tx, old_buckets: ObjectId, old_n: int) -> None:
        new_n = old_n * GROWTH
        new_buckets = tx.alloc_zeroed(new_n * 16)
        heads = [NULL_OID] * new_n
        for _, node, rec in _chains(self.pool, old_buckets, old_n, self.node):
            widx = bucket_index(rec[0], new_n)
            tx.write(node, self.next_off, heads[widx].pack())
            heads[widx] = node
        tx.write(new_buckets, 0, b"".join(h.pack() for h in heads))
        tx.free(old_buckets)
        self.ROOT.put(tx, self.root, (*new_buckets, new_n), 0b111)  # buckets, nbuckets

    def validate(self) -> None:
        buckets, nbuckets, expected = self._begin()
        seen: set[int] = set()
        for idx, node, (key, *_) in _chains(self.pool, buckets, nbuckets, self.node):
            assert bucket_index(key, nbuckets) == idx, f"key {key} in wrong bucket"
            assert key not in seen, f"duplicate key {key}"
            seen.add(key)
            assert len(seen) <= expected, "cycle or count drift"
            self._peek_key64(node, key)
        assert len(seen) == expected, f"count {expected} != scanned {len(seen)}"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Rebuild every chain in the v2 layout, tail-first so each new node is
        written with exactly one store; old nodes and the old array are freed.
        `_chains` reads each old node once, as {key, value bytes, next}."""
        uuid, off, nbuckets, count = pool.read(root, cls.ROOT)
        old_buckets = ObjectId(uuid, off)
        walk = packed_struct([(f.offset, f.fmt) for f in old.fields[:2]]
                             + word_parts([old.field("next")]))

        new_buckets = tx.alloc_zeroed(nbuckets * 16)
        chains = [[] for _ in range(nbuckets)]
        for idx, node, (key, value, *_) in _chains(pool, old_buckets, nbuckets, walk, 2):
            chains[idx].append((key, value))
            tx.free(node)
        heads = []
        for chain in chains:
            head = NULL_OID
            for key, value in reversed(chain):
                record = new.pack(key, value, head.pack())
                head = tx.alloc_zeroed(new.size)
                tx.write(head, 0, record)
                ms.nodes_migrated += 1
                ms.bytes_node_records += len(record)
            heads.append(head)
        tx.write(new_buckets, 0, b"".join(h.pack() for h in heads))
        tx.free(old_buckets)

        cls._write_root(tx, root, buckets=new_buckets, nbuckets=nbuckets, count=count)
