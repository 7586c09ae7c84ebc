"""B-tree of order 8: up to 8 children and 7 live keys per node, with the
record shape declaring 8 item slots (the last is an always-free spare).

Record shapes (items array at +4, children after it):

  v1 manual         {n i32, 8 x {key u32, value 16B}, 8 links}   292 B
  v2 manual change  {n i32, 8 x {key u64, value 16B}, 8 links}   324 B
  v2 manual add     {n i32, 8 x {key u32, value, name}, 8 links} 420 B
  auto              {n i32, 8 x extendible item (48 B), 8 links} 516 B

In auto mode the embedded key-value item is the extendible unit: each item
slot carries its own trailing extension link, so one migration is one
24-byte {key64} record plus a 16-byte link store regardless of how many
items share the node. Items that move between nodes during splits, borrows
and merges either transfer their extension link verbatim (the shallow-copy
optimization) or move the chain to a clone with leds.deep_copy, which frees
the originals (the unoptimized deep copy), selected by the kernel's
shallow_copy flag. In-node shifts always transfer: the source slot dies.

An operation edits decoded nodes and marks what it changed (ITEMS, CHILDREN
and N below); MapKernel._flush stores each marked node once: insert just
before the new item's key64 extension is built (it reads the item from the
file), remove at its end, skipping nodes the remove freed. `_read` (and
`migrate`, for old nodes) refuses an item count outside [0, MAX_KEYS]: OutOfBounds.
"""

from __future__ import annotations

import struct
from bisect import bisect_left

from ..errors import OutOfBounds
from ..layout import ObjectId, RecordLayout
from .base import OID_WORDS, U64, MapKernel, check_key, encode_value

_I32 = struct.Struct("<i")

SLOTS = 8
MAX_KEYS = 7
MIN_KEYS = 3
ITEMS_OFF = 4


def node_shape(stride: int) -> tuple[int, int]:
    """(children offset, node size) for item slots of `stride` bytes."""
    children_off = ITEMS_OFF + SLOTS * stride
    return children_off, children_off + SLOTS * 16


# a node decodes to [n, key_0, rest_0, ..., key_7, rest_7, child words]: value
# 1 + 2i is item i's key, 2 + 2i its remaining bytes raw, and child j's id is
# the two words at KIDS + 2j
KIDS = 1 + 2 * SLOTS
COUNTS = range(MAX_KEYS + 1)  # the item counts a node may hold
# MapKernel._mark bits: N the count, ITEMS/CHILDREN[lo][hi] items/children lo..hi-1
N = 1
ITEMS = [[(1 << 1 + 2 * hi) - (1 << 1 + 2 * lo) for hi in range(SLOTS + 1)] for lo in range(SLOTS)]
CHILDREN = [[(1 << KIDS + 2 * hi) - (1 << KIDS + 2 * lo) for hi in range(SLOTS + 1)]
            for lo in range(SLOTS)]


def _kid(rec: list, j: int) -> ObjectId:
    return ObjectId(rec[KIDS + 2 * j], rec[KIDS + 2 * j + 1])


def _has_kids(rec: list) -> bool:
    return bool(rec[KIDS] or rec[KIDS + 1])


class BTreeKernel(MapKernel):
    kind = "btree"
    ENTRY_NAME = "btree_item"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid"))
    ROOT_FIELDS = (("tree", "oid"), ("count", "u64", 32))

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.stride = self.entry_size
        self.children_off, self.node_size = node_shape(self.stride)
        key = self.entry.field("key")
        rest = f"{self.stride - key.size}s"
        self.node = RecordLayout(
            [(0, "i")] + [part for i in range(SLOTS) for part in (
                (self._item_off(i), key.fmt), (self._item_off(i) + key.size, rest))]
            + [(self.children_off + j * 16, "QQ") for j in range(SLOTS)])
        self.value_at = self.entry.offsets["value"] - key.size  # in an item's rest
        self.rest_link = None if self.desc is None else self.desc.link_offset - key.size
        self.zero_rec = self.node.unpack_from(bytes(self.node.size))

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        self._write_root(tx, self.root, tree=tx.alloc_zeroed(self.node_size), count=0)

    def _item_off(self, i: int) -> int:
        return ITEMS_OFF + i * self.stride

    # -- decoded nodes (MapKernel._rec, _mark, _flush) ---------------------------

    def _rec(self, x: int) -> list:
        """MapKernel._rec, decoding through _read."""
        rec = self._recs.get(x)
        if rec is None:
            rec = self._recs[x] = self._read(x)
        return rec

    def _read(self, x: int) -> list:
        """The values of the node at payload offset `x`, read and bounded:
        every node read goes through here; a count outside COUNTS is OutOfBounds."""
        rec = list(self.pool.read(ObjectId(self.pool.pool_uuid, x), self.node))
        if rec[0] not in COUNTS:
            raise OutOfBounds(f"B-tree node at {x} holds {rec[0]} items (at most {MAX_KEYS})")
        return rec

    def _moved(self, tx, rest: bytes) -> bytes:
        """An item's rest for a slot in another node (see _relocated)."""
        return self._relocated(tx, rest, self.rest_link)

    def _link(self, rec: list, i: int):
        return None if self.desc is None else OID_WORDS.unpack_from(rec[2 + 2 * i], self.rest_link)

    # -- search ------------------------------------------------------------------

    def _find(self, troot: ObjectId, key: int):
        """Key's item, one read per visited node: (node, its values, pos) or None.
        Insert, remove and lookup start here, dropping the last op's nodes and marks."""
        self._recs = {}
        self._dirty = {}
        cur = troot
        while True:
            rec = self._recs[cur[1]] = self._read(cur[1])
            n = rec[0]
            pos = bisect_left(rec[1 : 1 + 2 * n : 2], key)
            if pos < n and rec[1 + 2 * pos] == key:
                return cur, rec, pos
            if not _has_kids(rec):
                return None
            cur = _kid(rec, pos)

    def lookup(self, key: int):
        found = self._find(self._begin()[0], key)
        if found is None:
            return None
        node, rec, pos = found
        self._confirm(node, key, self._item_off(pos), self._link(rec, pos))
        return U64.unpack_from(rec[2 + 2 * pos], self.value_at)[0]

    # -- insert --------------------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        troot, count = self._begin()
        found = self._find(troot, key)
        if found is not None:
            node, rec, pos = found
            self._confirm(node, key, self._item_off(pos), self._link(rec, pos))
            return False
        if self._rec(troot[1])[0] == MAX_KEYS:
            new_root = tx.alloc_zeroed(self.node_size)
            rec = self._recs[new_root[1]] = list(self.zero_rec)
            rec[KIDS], rec[KIDS + 1] = troot
            self._mark(new_root[1], CHILDREN[0][1])
            self._split_child(tx, new_root, rec, 0)
            self._write_root(tx, self.root, tree=new_root)
            troot = new_root
        self._insert_nonfull(tx, troot, key, value)
        self._set_count(tx, count + 1)
        return True

    def _insert_nonfull(self, tx, cur: ObjectId, key: int, value: int) -> None:
        while True:
            rec = self._rec(cur[1])
            n = rec[0]
            pos = bisect_left(rec[1 : 1 + 2 * n : 2], key)
            if not _has_kids(rec):
                rec[3 + 2 * pos : 3 + 2 * n] = rec[1 + 2 * pos : 1 + 2 * n]
                rec[1 + 2 * pos] = key
                rec[2 + 2 * pos] = encode_value(value).ljust(len(rec[2]), b"\0")
                rec[0] = n + 1
                self._mark(cur[1], N | ITEMS[pos][n + 1])
                self._flush(tx)  # _extend_new reads the item from the file
                self._extend_new(cur, self._item_off(pos))
                return
            if self._rec(_kid(rec, pos)[1])[0] == MAX_KEYS:
                self._split_child(tx, cur, rec, pos)
                if key > rec[1 + 2 * pos]:
                    pos += 1
            cur = _kid(rec, pos)

    def _split_child(self, tx, parent: ObjectId, prec: list, i: int) -> None:
        child = _kid(prec, i)
        crec = self._rec(child[1])
        right = tx.alloc_zeroed(self.node_size)
        rrec = self._recs[right[1]] = list(self.zero_rec)
        for j in range(MIN_KEYS):
            src = 1 + 2 * (MIN_KEYS + 1 + j)
            rrec[1 + 2 * j], rrec[2 + 2 * j] = crec[src], self._moved(tx, crec[src + 1])
        rrec[0] = MIN_KEYS
        self._mark(right[1], N | ITEMS[0][MIN_KEYS])
        if _has_kids(crec):
            rrec[KIDS : KIDS + 2 * (MIN_KEYS + 1)] = crec[KIDS + 2 * (MIN_KEYS + 1) : KIDS + 2 * SLOTS]
            self._mark(right[1], CHILDREN[0][MIN_KEYS + 1])
        pn = prec[0]
        prec[3 + 2 * i : 3 + 2 * pn] = prec[1 + 2 * i : 1 + 2 * pn]
        prec[KIDS + 2 * (i + 2) : KIDS + 2 * (pn + 2)] = prec[KIDS + 2 * (i + 1) : KIDS + 2 * (pn + 1)]
        mid = 1 + 2 * MIN_KEYS
        prec[1 + 2 * i], prec[2 + 2 * i] = crec[mid], self._moved(tx, crec[mid + 1])
        prec[KIDS + 2 * (i + 1)], prec[KIDS + 2 * (i + 1) + 1] = right
        prec[0] = pn + 1
        self._mark(parent[1], N | ITEMS[i][pn + 1] | CHILDREN[i + 1][pn + 2])
        crec[0] = MIN_KEYS
        self._mark(child[1], N)

    # -- delete ----------------------------------------------------------------------

    def remove(self, tx, key: int) -> bool:
        troot, count = self._begin()
        found = self._find(troot, key)
        if found is None:
            return False
        node, rec, pos = found
        link = self._link(rec, pos)
        new_link = self._confirm(node, key, self._item_off(pos), link)
        if new_link != link:  # materialized: the stored rest has the new link
            rest, at = rec[2 + 2 * pos], self.rest_link
            rec[2 + 2 * pos] = rest[:at] + new_link.pack() + rest[at + 16:]
        self._delete_from(tx, troot, key)
        rec = self._rec(troot[1])
        if rec[0] == 0 and _has_kids(rec):
            self._write_root(tx, self.root, tree=_kid(rec, 0))
            tx.free(troot)
            self._drop(troot[1])
        self._flush(tx)
        self._set_count(tx, count - 1)
        return True

    def _delete_from(self, tx, cur: ObjectId, key: int) -> None:
        while True:
            rec = self._rec(cur[1])
            n = rec[0]
            pos = bisect_left(rec[1 : 1 + 2 * n : 2], key)
            if pos < n and rec[1 + 2 * pos] == key:
                break
            # not in this node
            if self._rec(_kid(rec, pos)[1])[0] == MIN_KEYS:
                pos = self._fill(tx, cur, rec, pos)
            cur = _kid(rec, pos)
        if not _has_kids(rec):
            self._free_entry(tx, cur, self._link(rec, pos), self._item_off(pos))
            rec[1 + 2 * pos : 2 * n - 1] = rec[3 + 2 * pos : 1 + 2 * n]
            rec[0] = n - 1
            self._mark(cur[1], N | ITEMS[pos][n - 1])
            return
        left, right = _kid(rec, pos), _kid(rec, pos + 1)
        if self._rec(left[1])[0] > MIN_KEYS:
            item = self._extract_edge(tx, left, last=True)
        elif self._rec(right[1])[0] > MIN_KEYS:
            item = self._extract_edge(tx, right, last=False)
        else:
            self._merge(tx, cur, rec, pos)
            self._delete_from(tx, left, key)
            return
        self._free_entry(tx, cur, self._link(rec, pos), self._item_off(pos))
        rec[1 + 2 * pos], rec[2 + 2 * pos] = item
        self._mark(cur[1], ITEMS[pos][pos + 1])

    def _extract_edge(self, tx, cur: ObjectId, *, last: bool) -> tuple:
        """Detach and return the max (or min) item of a subtree as (key, rest),
        refilling on the way down; the caller takes over the item's
        extension chain."""
        while True:
            rec = self._rec(cur[1])
            if not _has_kids(rec):
                break
            idx = rec[0] if last else 0
            if self._rec(_kid(rec, idx)[1])[0] == MIN_KEYS:
                idx = self._fill(tx, cur, rec, idx)
            cur = _kid(rec, idx)
        n = rec[0]
        i = n - 1 if last else 0
        item = rec[1 + 2 * i], rec[2 + 2 * i]
        rec[0] = n - 1
        if last:
            self._mark(cur[1], N)
        else:
            rec[1 : 2 * n - 1] = rec[3 : 1 + 2 * n]
            self._mark(cur[1], N | ITEMS[0][n - 1])
        return item

    def _fill(self, tx, parent: ObjectId, prec: list, i: int) -> int:
        """Give child i more than MIN_KEYS; returns its possibly shifted index."""
        if i > 0 and self._rec(_kid(prec, i - 1)[1])[0] > MIN_KEYS:
            self._borrow_prev(tx, parent, prec, i)
            return i
        if i < prec[0] and self._rec(_kid(prec, i + 1)[1])[0] > MIN_KEYS:
            self._borrow_next(tx, parent, prec, i)
            return i
        if i < prec[0]:
            self._merge(tx, parent, prec, i)
            return i
        self._merge(tx, parent, prec, i - 1)
        return i - 1

    def _borrow_prev(self, tx, parent: ObjectId, prec: list, i: int) -> None:
        child, sib = _kid(prec, i), _kid(prec, i - 1)
        crec, srec = self._rec(child[1]), self._rec(sib[1])
        cn, sn = crec[0], srec[0]
        crec[3 : 3 + 2 * cn] = crec[1 : 1 + 2 * cn]
        internal = _has_kids(crec)
        if internal:
            crec[KIDS + 2 : KIDS + 2 * (cn + 2)] = crec[KIDS : KIDS + 2 * (cn + 1)]
            crec[KIDS : KIDS + 2] = srec[KIDS + 2 * sn : KIDS + 2 * sn + 2]
        up = 1 + 2 * (i - 1)
        crec[1], crec[2] = prec[up], self._moved(tx, prec[up + 1])
        last = 1 + 2 * (sn - 1)
        prec[up], prec[up + 1] = srec[last], self._moved(tx, srec[last + 1])
        crec[0] = cn + 1
        srec[0] = sn - 1
        self._mark(child[1], N | ITEMS[0][cn + 1] | (CHILDREN[0][cn + 2] if internal else 0))
        self._mark(parent[1], ITEMS[i - 1][i])
        self._mark(sib[1], N)

    def _borrow_next(self, tx, parent: ObjectId, prec: list, i: int) -> None:
        child, sib = _kid(prec, i), _kid(prec, i + 1)
        crec, srec = self._rec(child[1]), self._rec(sib[1])
        cn, sn = crec[0], srec[0]
        at = 1 + 2 * i
        crec[1 + 2 * cn], crec[2 + 2 * cn] = prec[at], self._moved(tx, prec[at + 1])
        prec[at], prec[at + 1] = srec[1], self._moved(tx, srec[2])
        internal = _has_kids(crec)
        if internal:
            crec[KIDS + 2 * (cn + 1) : KIDS + 2 * (cn + 2)] = srec[KIDS : KIDS + 2]
            srec[KIDS : KIDS + 2 * sn] = srec[KIDS + 2 : KIDS + 2 * (sn + 1)]
        srec[1 : 2 * sn - 1] = srec[3 : 1 + 2 * sn]
        crec[0] = cn + 1
        srec[0] = sn - 1
        self._mark(child[1], N | ITEMS[cn][cn + 1])
        if internal:
            self._mark(child[1], CHILDREN[cn + 1][cn + 2])
            self._mark(sib[1], CHILDREN[0][sn])
        self._mark(parent[1], ITEMS[i][i + 1])
        self._mark(sib[1], N | ITEMS[0][sn - 1])

    def _merge(self, tx, parent: ObjectId, prec: list, i: int) -> None:
        left, right = _kid(prec, i), _kid(prec, i + 1)
        lrec, rrec = self._rec(left[1]), self._rec(right[1])
        ln, rn = lrec[0], rrec[0]
        at = 1 + 2 * i
        lrec[1 + 2 * ln], lrec[2 + 2 * ln] = prec[at], self._moved(tx, prec[at + 1])
        for j in range(rn):
            dst = 1 + 2 * (ln + 1 + j)
            lrec[dst], lrec[dst + 1] = rrec[1 + 2 * j], self._moved(tx, rrec[2 + 2 * j])
        lrec[0] = ln + 1 + rn
        self._mark(left[1], N | ITEMS[ln][ln + 1 + rn])
        if _has_kids(rrec):
            lrec[KIDS + 2 * (ln + 1) : KIDS + 2 * (ln + rn + 2)] = rrec[KIDS : KIDS + 2 * (rn + 1)]
            self._mark(left[1], CHILDREN[ln + 1][ln + rn + 2])
        pn = prec[0]
        prec[at : 2 * pn - 1] = prec[at + 2 : 1 + 2 * pn]
        prec[KIDS + 2 * (i + 1) : KIDS + 2 * pn] = prec[KIDS + 2 * (i + 2) : KIDS + 2 * (pn + 1)]
        prec[0] = pn - 1
        self._mark(parent[1], N | ITEMS[i][pn - 1] | CHILDREN[i + 1][pn])
        tx.free(right)
        self._drop(right[1])

    # -- scan / validate ------------------------------------------------------------

    def scan(self):
        def walk(cur):
            rec = self._read(cur[1])
            n, kids = rec[0], _has_kids(rec)
            for i in range(n):
                if kids:
                    yield from walk(_kid(rec, i))
                value = U64.unpack_from(rec[2 + 2 * i], self.value_at)[0]
                self._confirm(cur, rec[1 + 2 * i], self._item_off(i), self._link(rec, i))
                yield rec[1 + 2 * i], value
            if kids:
                yield from walk(_kid(rec, n))

        yield from walk(self._begin()[0])

    def validate(self) -> None:
        troot, count = self._begin()

        def check(cur, lo, hi, is_root):
            rec = self._read(cur[1])
            n = rec[0]
            keys = list(rec[1 : 1 + 2 * n : 2])
            if not is_root:
                assert n >= MIN_KEYS, f"node under occupancy: {n}"
            assert keys == sorted(set(keys)), "keys not strictly ascending"
            if keys:
                assert lo < keys[0] and keys[-1] < hi, "key range violated"
            for i in range(n):
                self._peek_key64(cur, keys[i], self._item_off(i))
            if not _has_kids(rec):
                return 1, n
            depth = None
            total = n
            bounds = [lo] + keys + [hi]
            for i in range(n + 1):
                d, c = check(_kid(rec, i), bounds[i], bounds[i + 1], False)
                assert depth is None or d == depth, "leaves at different depths"
                depth = d
                total += c
            return depth + 1, total

        _, total = check(troot, -1, 1 << 65, True)
        assert total == count, f"count {count} != walked {total}"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Clone the tree node-for-node (same shape, same occupancy); children
        first so every new record is written with a single store."""
        u, o, count = pool.read(root, cls.ROOT)
        old_children, old_size = node_shape(old.size)
        new_children, new_size = node_shape(new.size)

        def clone(old_node: ObjectId) -> ObjectId:
            raw = pool.load(old_node, 0, old_size)
            n = _I32.unpack_from(raw)[0]
            if n not in COUNTS:  # as in _read; the pass aborts before its commit
                raise OutOfBounds(f"B-tree node at {old_node[1]} holds {n} items")
            record = bytearray(new_size)
            _I32.pack_into(record, 0, n)
            for i in range(n):
                item = new.pack(*old.unpack_from(raw, ITEMS_OFF + i * old.size))
                dst = ITEMS_OFF + i * new.size
                record[dst : dst + new.size] = item
            first_child = ObjectId.unpack(raw, old_children)
            if not first_child.is_null():
                for i in range(n + 1):
                    child = ObjectId.unpack(raw, old_children + i * 16)
                    dst = new_children + i * 16
                    record[dst : dst + 16] = clone(child).pack()
            new_node = tx.alloc_zeroed(new_size)
            tx.write(new_node, 0, bytes(record))
            ms.nodes_migrated += 1
            ms.bytes_node_records += new_size
            tx.free(old_node)
            return new_node

        cls._write_root(tx, root, tree=clone(ObjectId(u, o)), count=count)
