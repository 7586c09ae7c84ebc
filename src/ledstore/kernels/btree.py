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
optimization) or clone-and-free the chain (the unoptimized deep copy),
selected by the kernel's shallow_copy flag. In-node shifts always transfer:
the source slot dies.
"""

from __future__ import annotations

import struct
from bisect import bisect_left

from ..leds import packed_struct
from ..pool import ObjectId
from .base import MapKernel, check_key, encode_value

_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")

SLOTS = 8
MAX_KEYS = 7
MIN_KEYS = 3
ITEMS_OFF = 4


def node_shape(stride: int) -> tuple[int, int]:
    """(children offset, node size) for item slots of `stride` bytes."""
    children_off = ITEMS_OFF + SLOTS * stride
    return children_off, children_off + SLOTS * 16


class BTreeKernel(MapKernel):
    kind = "btree"
    ENTRY_NAME = "btree_item"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid"))

    # root: tree root oid @0, count u64 @32

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.stride = self.entry_size
        self.children_off, self.node_size = node_shape(self.stride)
        # one node visit: n, then (key, value word, _) per item slot, then
        # every child id as two words
        item = [self.entry_parts(self._item_off(i), "key", "value") for i in range(SLOTS)]
        self.item_width = sum(len(codes) for _, codes in item[0])  # values per item
        self.node = packed_struct([(0, "i")] + sum(item, []) + [
            (self.children_off + j * 16, "QQ") for j in range(SLOTS)])

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        node = tx.alloc_zeroed(self.node_size)
        tx.write(node, 0, _I32.pack(0))
        tx.write(self.root, 0, node.pack())
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))

    def _tree_root(self) -> ObjectId:
        return self._root_oid_field(0)

    # -- node accessors --------------------------------------------------------

    def _n(self, node: ObjectId) -> int:
        return _I32.unpack(self.pool.load(node, 0, 4))[0]

    def _set_n(self, tx, node: ObjectId, n: int) -> None:
        tx.write(node, 0, _I32.pack(n))

    def _item_off(self, i: int) -> int:
        return ITEMS_OFF + i * self.stride

    def _item_raw(self, node: ObjectId, i: int) -> bytes:
        return self.pool.load(node, self._item_off(i), self.stride)

    def _put_item(self, tx, node: ObjectId, i: int, raw: bytes) -> None:
        tx.write(node, self._item_off(i), raw)

    def _move_item(self, tx, src: ObjectId, si: int, dst: ObjectId, di: int) -> None:
        """Between-node item move; honors the shallow-copy toggle in auto mode."""
        self._put_item(tx, dst, di, self._relocated(tx, self._item_raw(src, si)))

    def _make_item(self, key: int, value: int) -> bytes:
        return self.entry.pack(key, encode_value(value)).ljust(self.stride, b"\0")

    def _child(self, node: ObjectId, i: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(node, self.children_off + i * 16, 16))

    def _set_child(self, tx, node: ObjectId, i: int, child: ObjectId) -> None:
        tx.write(node, self.children_off + i * 16, child.pack())

    def _is_leaf(self, node: ObjectId) -> bool:
        return self._child(node, 0).is_null()

    def _visit(self, node: ObjectId):
        """One read of a node: n, its n keys and value words, and the words
        of every child id (see _kid), None for a leaf (child 0 null)."""
        rec = self.pool.read(node, self.node)
        n, w = rec[0], self.item_width
        kids = rec[1 + SLOTS * w :]
        leaf = not (kids[0] or kids[1])
        return n, rec[1 : 1 + n * w : w], rec[2 : 2 + n * w : w], None if leaf else kids

    @staticmethod
    def _kid(kids: tuple, i: int) -> ObjectId:
        return ObjectId(kids[2 * i], kids[2 * i + 1])

    # -- search ------------------------------------------------------------------

    def _find(self, key: int):
        """Key's item, one read per visited node: (node, pos, value) or None."""
        cur = self._tree_root()
        while True:
            n, keys, values, kids = self._visit(cur)
            pos = bisect_left(keys, key)
            if pos < n and keys[pos] == key:
                return cur, pos, values[pos]
            if kids is None:
                return None
            cur = self._kid(kids, pos)

    def lookup(self, key: int):
        found = self._find(key)
        if found is None:
            return None
        node, pos, value = found
        self._confirm(node, key, self._item_off(pos))
        return value

    # -- insert --------------------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        found = self._find(key)
        if found is not None:
            self._confirm(found[0], key, self._item_off(found[1]))
            return False
        troot = self._tree_root()
        if self._n(troot) == MAX_KEYS:
            new_root = tx.alloc_zeroed(self.node_size)
            self._set_child(tx, new_root, 0, troot)
            self._split_child(tx, new_root, 0)
            tx.write(self.root, 0, new_root.pack())
            troot = new_root
        self._insert_nonfull(tx, troot, key, value)
        self._bump_count(tx, 1)
        return True

    def _insert_nonfull(self, tx, cur: ObjectId, key: int, value: int) -> None:
        while True:
            n, keys, _, kids = self._visit(cur)
            pos = bisect_left(keys, key)
            if kids is None:
                for j in range(n - 1, pos - 1, -1):
                    self._put_item(tx, cur, j + 1, self._item_raw(cur, j))
                self._put_item(tx, cur, pos, self._make_item(key, value))
                self._set_n(tx, cur, n + 1)
                self._extend_new(tx, cur, self._item_off(pos))
                return
            child = self._kid(kids, pos)
            if self._n(child) == MAX_KEYS:
                self._split_child(tx, cur, pos)
                if key > self._visit(cur)[1][pos]:
                    pos += 1
                child = self._child(cur, pos)
            cur = child

    def _split_child(self, tx, parent: ObjectId, i: int) -> None:
        child = self._child(parent, i)
        right = tx.alloc_zeroed(self.node_size)
        for j in range(MIN_KEYS):
            self._move_item(tx, child, MIN_KEYS + 1 + j, right, j)
        if not self._is_leaf(child):
            for j in range(MIN_KEYS + 1):
                self._set_child(tx, right, j, self._child(child, MIN_KEYS + 1 + j))
        self._set_n(tx, right, MIN_KEYS)
        pn = self._n(parent)
        for j in range(pn - 1, i - 1, -1):
            self._put_item(tx, parent, j + 1, self._item_raw(parent, j))
        for j in range(pn, i, -1):
            self._set_child(tx, parent, j + 1, self._child(parent, j))
        self._move_item(tx, child, MIN_KEYS, parent, i)
        self._set_child(tx, parent, i + 1, right)
        self._set_n(tx, parent, pn + 1)
        self._set_n(tx, child, MIN_KEYS)

    # -- delete ----------------------------------------------------------------------

    def remove(self, tx, key: int) -> bool:
        found = self._find(key)
        if found is None:
            return False
        self._confirm(found[0], key, self._item_off(found[1]))
        troot = self._tree_root()
        self._delete_from(tx, troot, key)
        if self._n(troot) == 0 and not self._is_leaf(troot):
            tx.write(self.root, 0, self._child(troot, 0).pack())
            tx.free(troot)
        self._bump_count(tx, -1)
        return True

    def _delete_from(self, tx, cur: ObjectId, key: int) -> None:
        n, keys, _, kids = self._visit(cur)
        pos = bisect_left(keys, key)
        if pos < n and keys[pos] == key:
            if kids is None:
                self._free_entry(tx, cur, self._item_off(pos))
                for j in range(pos + 1, n):
                    self._put_item(tx, cur, j - 1, self._item_raw(cur, j))
                self._set_n(tx, cur, n - 1)
                return
            left, right = self._kid(kids, pos), self._kid(kids, pos + 1)
            if self._n(left) > MIN_KEYS:
                raw = self._extract_edge(tx, left, last=True)
                self._free_entry(tx, cur, self._item_off(pos))
                self._put_item(tx, cur, pos, raw)
            elif self._n(right) > MIN_KEYS:
                raw = self._extract_edge(tx, right, last=False)
                self._free_entry(tx, cur, self._item_off(pos))
                self._put_item(tx, cur, pos, raw)
            else:
                self._merge(tx, cur, pos)
                self._delete_from(tx, left, key)
            return
        # not in this node
        child = self._child(cur, pos)
        if self._n(child) == MIN_KEYS:
            pos = self._fill(tx, cur, pos)
            child = self._child(cur, pos)
        self._delete_from(tx, child, key)

    def _extract_edge(self, tx, cur: ObjectId, *, last: bool) -> bytes:
        """Detach and return the max (or min) item of a subtree, refilling on
        the way down; the caller takes over the item's extension chain."""
        while not self._is_leaf(cur):
            n = self._n(cur)
            idx = n if last else 0
            child = self._child(cur, idx)
            if self._n(child) == MIN_KEYS:
                idx = self._fill(tx, cur, idx)
                child = self._child(cur, idx)
            cur = child
        n = self._n(cur)
        i = n - 1 if last else 0
        raw = self._item_raw(cur, i)
        if not last:
            for j in range(1, n):
                self._put_item(tx, cur, j - 1, self._item_raw(cur, j))
        self._set_n(tx, cur, n - 1)
        return raw

    def _fill(self, tx, parent: ObjectId, i: int) -> int:
        """Give child i more than MIN_KEYS; returns its possibly shifted index."""
        if i > 0 and self._n(self._child(parent, i - 1)) > MIN_KEYS:
            self._borrow_prev(tx, parent, i)
            return i
        if i < self._n(parent) and self._n(self._child(parent, i + 1)) > MIN_KEYS:
            self._borrow_next(tx, parent, i)
            return i
        if i < self._n(parent):
            self._merge(tx, parent, i)
            return i
        self._merge(tx, parent, i - 1)
        return i - 1

    def _borrow_prev(self, tx, parent: ObjectId, i: int) -> None:
        child, sib = self._child(parent, i), self._child(parent, i - 1)
        cn, sn = self._n(child), self._n(sib)
        for j in range(cn - 1, -1, -1):
            self._put_item(tx, child, j + 1, self._item_raw(child, j))
        if not self._is_leaf(child):
            for j in range(cn, -1, -1):
                self._set_child(tx, child, j + 1, self._child(child, j))
            self._set_child(tx, child, 0, self._child(sib, sn))
        self._move_item(tx, parent, i - 1, child, 0)
        self._move_item(tx, sib, sn - 1, parent, i - 1)
        self._set_n(tx, child, cn + 1)
        self._set_n(tx, sib, sn - 1)

    def _borrow_next(self, tx, parent: ObjectId, i: int) -> None:
        child, sib = self._child(parent, i), self._child(parent, i + 1)
        cn, sn = self._n(child), self._n(sib)
        self._move_item(tx, parent, i, child, cn)
        self._move_item(tx, sib, 0, parent, i)
        if not self._is_leaf(child):
            self._set_child(tx, child, cn + 1, self._child(sib, 0))
            for j in range(1, sn + 1):
                self._set_child(tx, sib, j - 1, self._child(sib, j))
        for j in range(1, sn):
            self._put_item(tx, sib, j - 1, self._item_raw(sib, j))
        self._set_n(tx, child, cn + 1)
        self._set_n(tx, sib, sn - 1)

    def _merge(self, tx, parent: ObjectId, i: int) -> None:
        left, right = self._child(parent, i), self._child(parent, i + 1)
        ln, rn = self._n(left), self._n(right)
        self._move_item(tx, parent, i, left, ln)
        for j in range(rn):
            self._move_item(tx, right, j, left, ln + 1 + j)
        if not self._is_leaf(right):
            for j in range(rn + 1):
                self._set_child(tx, left, ln + 1 + j, self._child(right, j))
        self._set_n(tx, left, ln + 1 + rn)
        pn = self._n(parent)
        for j in range(i + 1, pn):
            self._put_item(tx, parent, j - 1, self._item_raw(parent, j))
        for j in range(i + 2, pn + 1):
            self._set_child(tx, parent, j - 1, self._child(parent, j))
        self._set_n(tx, parent, pn - 1)
        tx.free(right)

    # -- scan / validate ------------------------------------------------------------

    def scan(self):
        def walk(cur):
            n, keys, values, kids = self._visit(cur)
            for i in range(n):
                if kids:
                    yield from walk(self._kid(kids, i))
                yield self._observed(cur, keys[i], self._item_off(i)), values[i]
            if kids:
                yield from walk(self._kid(kids, n))

        yield from walk(self._tree_root())

    def validate(self) -> None:
        troot = self._tree_root()

        def check(cur, lo, hi, is_root):
            n, keys, _, kids = self._visit(cur)
            keys = list(keys)
            assert n <= MAX_KEYS, f"node over capacity: {n}"
            if not is_root:
                assert n >= MIN_KEYS, f"node under occupancy: {n}"
            assert keys == sorted(set(keys)), "keys not strictly ascending"
            if keys:
                assert lo < keys[0] and keys[-1] < hi, "key range violated"
            for i in range(n):
                self._peek_key64(cur, keys[i], self._item_off(i))
            if kids is None:
                return 1, n
            depth = None
            total = n
            bounds = [lo] + keys + [hi]
            for i in range(n + 1):
                d, c = check(self._kid(kids, i), bounds[i], bounds[i + 1], False)
                assert depth is None or d == depth, "leaves at different depths"
                depth = d
                total += c
            return depth + 1, total

        _, total = check(troot, -1, 1 << 65, True)
        assert total == self.count(), f"count {self.count()} != walked {total}"


    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, old_root: ObjectId, temp: ObjectId, ms, old, new) -> None:
        """Clone the tree node-for-node (same shape, same occupancy); children
        first so every new record is written with a single store."""
        old_tree = ObjectId.unpack(pool.load(old_root, 0, 16))
        count = _U64.unpack_from(pool.load(old_root, cls.COUNT_OFF, 8))[0]
        old_children, old_size = node_shape(old.size)
        new_children, new_size = node_shape(new.size)

        def clone(old_node: ObjectId) -> ObjectId:
            raw = pool.load(old_node, 0, old_size)
            n = _I32.unpack_from(raw)[0]
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

        new_tree = clone(old_tree)
        tx.write(temp, 0, new_tree.pack())
        tx.write(temp, cls.COUNT_OFF, _U64.pack(count))
