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
in pure Python, so each kernel instance keeps a volatile index: `by_key`,
`height` and one sorted key list, `keys`. A key's predecessor on level i
is the nearest earlier key whose height is above i, or the head; one walk
back from the key's place finds them all, about 2^i steps for level i.
The index only picks predecessors; every link read at a modification site
and every link write is performed against the persistent records, so the
stored structure stands alone. An abort rolls back the records but not the
index, so insert, remove, lookup and validate rebuild it once the handle's
abort count (`PoolHandle.aborts`) has moved.

The index is built by one walk of level 0 (`_index`, which `migrate`
shares): one read per node, count + 2 translations with the pool root and
the head. A node is on level i >= 1 iff it is the node that the previous
level-i member's next[i] names, the head's for the first member. Levels
nest, so the test stops at the first level that misses. When level 0 ends,
every level's expected next must be null. If one is not, the level-i chain
names a node that level 0 does not reach after the last level-i member (a
node off level i-1, or a backward link), and the walk raises OutOfBounds
rather than index the list silently. It reads at most count + 1 nodes, so
a longer level 0, a cycle included, raises too. `validate` walks each
level on its own and compares it with the index.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from ..errors import OutOfBounds
from ..layout import NULL_OID, ObjectId, packed_struct
from .base import OID_WORDS, MapKernel, check_key, encode_value, word_parts

LEVELS = 4


def _index(pool, head: ObjectId, count: int, codec, at: int, recs: list | None = None):
    """Walk level 0 from `head` once, one `pool.read` per node (the head's
    included) through `codec`, whose first value is the key and whose values
    from index `at` on are next[0..3] as word pairs. Heights follow the
    module docstring's membership rule, and its end-of-walk check raises
    OutOfBounds; so does a level 0 longer than the root's `count`, which
    also ends a cycle. Returns ({key: node id}, {key: height}), both in list
    order; each node's decoded values are appended to `recs` when one is
    given (migrate's case: attach keeps none)."""
    links = [slice(at + 2 * level, at + 2 * level + 2) for level in range(LEVELS)]
    link0 = links[0]
    rec = pool.read(head, codec)
    # the next member expected on each level; the trailing None ends the test
    expect = [rec[link] for link in links] + [None]
    by_key, height = {}, {}
    cur = expect[0]
    for _ in range(count + 1):
        if cur == (0, 0):
            break
        node = ObjectId(*cur)
        rec = pool.read(node, codec)
        if recs is not None:
            recs.append(rec)
        key = rec[0]
        by_key[key] = node
        h = 1
        while expect[h] == cur:
            expect[h] = rec[links[h]]
            h += 1
        height[key] = h
        cur = rec[link0]
    else:
        raise OutOfBounds(f"level 0 holds more than count = {count} nodes")
    for level in range(1, LEVELS):
        if expect[level] != (0, 0):
            raise OutOfBounds(f"level {level} names node {expect[level][1]}, which level 0 "
                              f"does not reach after that level's last member")
    return by_key, height


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
        # attach's walk: the key, then two words per next link
        self.walk = packed_struct(self.entry_parts(0, "key", *(f"next{i}" for i in range(LEVELS))))
        if self.rng is None:
            self.rng = random.Random(0x51C1)
        self.head = NULL_OID
        self.by_key: dict[int, ObjectId] = {}
        self.height: dict[int, int] = {}
        self.keys: list[int] = []
        self.built = pool.aborts  # the handle's abort count when the index was built

    def _next_off(self, level: int) -> int:
        return self.next0 + 16 * level

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        head = tx.alloc_zeroed(self.entry_size)
        self._write_root(tx, self.root, head=head, count=0)
        self.head = head

    def _load_structure(self) -> None:
        """Rebuild the index in one walk of level 0 (`_index`)."""
        self.built = self.pool.aborts
        u, o, count = self.pool.read(self.root, self.ROOT)
        self.head = ObjectId(u, o)
        self.by_key, self.height = _index(self.pool, self.head, count, self.walk, 1)
        self.keys = list(self.by_key)

    @staticmethod
    def _link(words, level: int) -> ObjectId:
        return ObjectId(words[2 * level], words[2 * level + 1])

    def _node_next(self, oid: ObjectId, level: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(oid, self._next_off(level), 16))

    def _pred_runs(self, key: int, h: int) -> list[tuple[ObjectId, int, int]]:
        """(pred, first level, end level) per distinct predecessor of `key`
        over levels 0..h-1; one node precedes key on a contiguous run of
        levels, so each run's next slots are one span."""
        keys, height = self.keys, self.height
        runs, lo, pos = [], 0, bisect_left(keys, key)
        while pos:
            pos -= 1
            k = keys[pos]
            hk = height[k]
            if hk >= h:
                runs.append((self.by_key[k], lo, h))
                return runs
            if hk > lo:
                runs.append((self.by_key[k], lo, hk))
                lo = hk
        runs.append((self.head, lo, h))
        return runs

    # -- operations ----------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        if self.built != self.pool.aborts:
            self._load_structure()
        if key in self.by_key:
            node = self.by_key[key]  # its link words are read only when _confirm needs them
            self._confirm(node, key, 0, self.pool.read(node, OID_WORDS, self.desc.link_offset)
                          if self.key64_ext else ())
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
        insort(self.keys, key)
        self._set_count(tx, count + 1)
        return True

    def remove(self, tx, key: int) -> bool:
        if self.built != self.pool.aborts:
            self._load_structure()
        node = self.by_key.get(key)
        if node is None:
            return False
        count = self.count()
        rec = self.pool.read(node, self.node)
        link = self._confirm(node, key, 0, rec[3 + 2 * LEVELS:])
        for pred, lo, hi in self._pred_runs(key, self.height[key]):
            tx.write(pred, self._next_off(lo),
                     b"".join(self._link(rec[3:], level).pack() for level in range(lo, hi)))
        self.keys.pop(bisect_left(self.keys, key))
        self._free_entry(tx, node, link)
        del self.by_key[key]
        del self.height[key]
        self._set_count(tx, count - 1)
        return True

    def lookup(self, key: int):
        if self.built != self.pool.aborts:
            self._load_structure()
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
        if self.built != self.pool.aborts:
            self._load_structure()
        keys, count = self.keys, self.count()
        assert keys == sorted(set(keys)) and len(keys) == len(self.by_key), "index out of order"
        for level in range(LEVELS):
            walked = []
            cur = self._node_next(self.head, level)
            while not cur.is_null():
                key, _, _, *links = self.pool.read(cur, self.node)
                assert self.by_key.get(key) == cur, f"volatile index drift at key {key}"
                walked.append(key)
                assert len(walked) <= count + 1, "cycle in chain"
                cur = self._link(links, level)
            assert walked == [k for k in keys if self.height[k] > level], \
                f"volatile index drift at level {level}"
        assert len(keys) == count, "count drift"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Clone node-for-node, heights preserved, built tail-first so each new
        record is written with a single store. The old list is read in one
        walk of level 0 (`_index`), one read per old node: {key, value
        bytes, next links}; heights come from the links."""
        uuid, off, count = pool.read(root, cls.ROOT)
        old_head = ObjectId(uuid, off)
        walk = packed_struct([(f.offset, f.fmt) for f in old.fields[:2]] + word_parts(
            [old.field(f"next{level}") for level in range(LEVELS)]))

        recs = []
        by_key, height = _index(pool, old_head, count, walk, 2, recs)
        for node in by_key.values():
            tx.free(node)
        tx.free(old_head)

        tails = [NULL_OID] * LEVELS
        for key, value, *_ in reversed(recs):
            h = height[key]
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
