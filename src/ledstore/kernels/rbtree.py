"""Red-black tree with an allocated nil sentinel (its parent field is
scratch space during deletion, as in the textbook formulation).

Record shapes:

  node v1 manual         {key u32, value 16B, color u32, parent, left, right}   72 B
  node v2 manual change  {key u64, value 16B, color u32, parent, left, right}   76 B
  node v2 manual add     v1 fields + name 16B                                   88 B
  node auto              v1 fields + trailing extension link                    96 B record

Deletion moves the successor node itself (pointer surgery, no key/value
copy), so under the automatic model the only record that ever materializes
an extension per remove is the matched node.
"""

from __future__ import annotations

import struct

from ..leds import packed_struct
from ..pool import ObjectId
from .base import MapKernel, check_key, encode_value

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

RED = 0
BLACK = 1


class RBTreeKernel(MapKernel):
    kind = "rbtree"
    ENTRY_NAME = "rbtree_node"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid"), ("color", "u32"),
                    ("parent", "oid"), ("left", "oid"), ("right", "oid"))

    # root: tree root oid @0, nil oid @16, count u64 @32

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        off = self.entry.offsets
        self.color_off = off["color"]
        self.par_off, self.left_off, self.right_off = off["parent"], off["left"], off["right"]
        # one node visit: (key, value word, _, color, parent, left, right), oids as two words
        self.node = packed_struct(self.entry_parts(
            0, "key", "value", "color", "parent", "left", "right"))
        self.nil = None

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        nil = tx.alloc_zeroed(self.entry_size)
        tx.write(nil, 0, self._node_record(0, b"", BLACK, nil, nil, nil))
        tx.write(self.root, 0, nil.pack())
        tx.write(self.root, 16, nil.pack())
        tx.write(self.root, self.COUNT_OFF, _U64.pack(0))
        self.nil = nil

    def _load_structure(self) -> None:
        self.nil = self._root_oid_field(16)

    def _tree_root(self) -> ObjectId:
        return self._root_oid_field(0)

    # -- field access ---------------------------------------------------------

    def _node_record(self, key, value, color, parent, left, right) -> bytes:
        """A whole node's fields; the auto lane's link slot stays as allocated."""
        return self.entry.pack(key, value, color, parent.pack(), left.pack(), right.pack())

    def _color(self, oid: ObjectId) -> int:
        return _U32.unpack(self.pool.load(oid, self.color_off, 4))[0]

    def _oid_at(self, oid: ObjectId, off: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(oid, off, 16))

    # -- rotations -------------------------------------------------------------

    def _rotate(self, tx, x: ObjectId, left: bool) -> None:
        a_off, b_off = (self.left_off, self.right_off) if left else (self.right_off, self.left_off)
        y = self._oid_at(x, b_off)
        y_a = self._oid_at(y, a_off)
        tx.write(x, b_off, y_a.pack())
        if y_a != self.nil:
            tx.write(y_a, self.par_off, x.pack())
        xp = self._oid_at(x, self.par_off)
        tx.write(y, self.par_off, xp.pack())
        if xp == self.nil:
            tx.write(self.root, 0, y.pack())
        elif x == self._oid_at(xp, self.left_off):
            tx.write(xp, self.left_off, y.pack())
        else:
            tx.write(xp, self.right_off, y.pack())
        tx.write(y, a_off, x.pack())
        tx.write(x, self.par_off, y.pack())

    # -- operations --------------------------------------------------------------

    def _search(self, key: int):
        """Key's node, one read per visited node: (node, value, color, left,
        right) from the match's read, or None."""
        cur = self._tree_root()
        while cur != self.nil:
            k, value, _, color, _, _, lu, lo, ru, ro = self.pool.read(cur, self.node)
            if key == k:
                return cur, value, color, ObjectId(lu, lo), ObjectId(ru, ro)
            cur = ObjectId(lu, lo) if key < k else ObjectId(ru, ro)
        return None

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        y, y_key = self.nil, None
        x = self._tree_root()
        while x != self.nil:
            k, _, _, _, _, _, lu, lo, ru, ro = self.pool.read(x, self.node)
            if key == k:
                self._confirm(x, key)
                return False
            y, y_key = x, k
            x = ObjectId(lu, lo) if key < k else ObjectId(ru, ro)

        z = tx.alloc_zeroed(self.entry_size)
        tx.write(z, 0, self._node_record(key, encode_value(value), RED, y, self.nil, self.nil))
        if y == self.nil:
            tx.write(self.root, 0, z.pack())
        elif key < y_key:
            tx.write(y, self.left_off, z.pack())
        else:
            tx.write(y, self.right_off, z.pack())
        self._extend_new(tx, z)
        self._insert_fixup(tx, z)
        self._bump_count(tx, 1)
        return True

    def _insert_fixup(self, tx, z: ObjectId) -> None:
        while True:
            zp = self._oid_at(z, self.par_off)
            if zp == self.nil or self._color(zp) != RED:
                break
            zpp = self._oid_at(zp, self.par_off)
            zp_is_left = zp == self._oid_at(zpp, self.left_off)
            uncle = self._oid_at(zpp, self.right_off if zp_is_left else self.left_off)
            if uncle != self.nil and self._color(uncle) == RED:
                tx.write(zp, self.color_off, _U32.pack(BLACK))
                tx.write(uncle, self.color_off, _U32.pack(BLACK))
                tx.write(zpp, self.color_off, _U32.pack(RED))
                z = zpp
                continue
            if zp_is_left:
                if z == self._oid_at(zp, self.right_off):
                    z = zp
                    self._rotate(tx, z, left=True)
                    zp = self._oid_at(z, self.par_off)
                    zpp = self._oid_at(zp, self.par_off)
                tx.write(zp, self.color_off, _U32.pack(BLACK))
                tx.write(zpp, self.color_off, _U32.pack(RED))
                self._rotate(tx, zpp, left=False)
            else:
                if z == self._oid_at(zp, self.left_off):
                    z = zp
                    self._rotate(tx, z, left=False)
                    zp = self._oid_at(z, self.par_off)
                    zpp = self._oid_at(zp, self.par_off)
                tx.write(zp, self.color_off, _U32.pack(BLACK))
                tx.write(zpp, self.color_off, _U32.pack(RED))
                self._rotate(tx, zpp, left=True)
        troot = self._tree_root()
        if self._color(troot) != BLACK:
            tx.write(troot, self.color_off, _U32.pack(BLACK))

    def _transplant(self, tx, u: ObjectId, v: ObjectId) -> None:
        up = self._oid_at(u, self.par_off)
        if up == self.nil:
            tx.write(self.root, 0, v.pack())
        elif u == self._oid_at(up, self.left_off):
            tx.write(up, self.left_off, v.pack())
        else:
            tx.write(up, self.right_off, v.pack())
        tx.write(v, self.par_off, up.pack())  # nil's parent is legal scratch

    def remove(self, tx, key: int) -> bool:
        found = self._search(key)
        if found is None:
            return False
        z, _, z_color, z_left, z_right = found
        self._confirm(z, key)
        y, y_color = z, z_color
        if z_left == self.nil:
            x = z_right
            self._transplant(tx, z, z_right)
        elif z_right == self.nil:
            x = z_left
            self._transplant(tx, z, z_left)
        else:
            y = z_right
            while (nxt := self._oid_at(y, self.left_off)) != self.nil:
                y = nxt
            y_color = self._color(y)
            x = self._oid_at(y, self.right_off)
            if self._oid_at(y, self.par_off) == z:
                tx.write(x, self.par_off, y.pack())
            else:
                self._transplant(tx, y, x)
                tx.write(y, self.right_off, z_right.pack())
                tx.write(z_right, self.par_off, y.pack())
            self._transplant(tx, z, y)
            tx.write(y, self.left_off, z_left.pack())
            tx.write(z_left, self.par_off, y.pack())
            tx.write(y, self.color_off, _U32.pack(z_color))
        if y_color == BLACK:
            self._delete_fixup(tx, x)
        self._free_entry(tx, z)
        self._bump_count(tx, -1)
        return True

    def _delete_fixup(self, tx, x: ObjectId) -> None:
        while x != self._tree_root() and self._color(x) == BLACK:
            xp = self._oid_at(x, self.par_off)
            x_is_left = x == self._oid_at(xp, self.left_off)
            sib_off = self.right_off if x_is_left else self.left_off
            w = self._oid_at(xp, sib_off)
            if self._color(w) == RED:
                tx.write(w, self.color_off, _U32.pack(BLACK))
                tx.write(xp, self.color_off, _U32.pack(RED))
                self._rotate(tx, xp, left=x_is_left)
                w = self._oid_at(xp, sib_off)
            w_left = self._oid_at(w, self.left_off)
            w_right = self._oid_at(w, self.right_off)
            if self._color(w_left) == BLACK and self._color(w_right) == BLACK:
                tx.write(w, self.color_off, _U32.pack(RED))
                x = xp
                continue
            near, far = (w_right, w_left) if not x_is_left else (w_left, w_right)
            if self._color(far) == BLACK:
                tx.write(near, self.color_off, _U32.pack(BLACK))
                tx.write(w, self.color_off, _U32.pack(RED))
                self._rotate(tx, w, left=not x_is_left)
                w = self._oid_at(xp, sib_off)
                far = self._oid_at(w, sib_off)
            tx.write(w, self.color_off, _U32.pack(self._color(xp)))
            tx.write(xp, self.color_off, _U32.pack(BLACK))
            if far != self.nil:
                tx.write(far, self.color_off, _U32.pack(BLACK))
            self._rotate(tx, xp, left=x_is_left)
            break
        if self._color(x) != BLACK:
            tx.write(x, self.color_off, _U32.pack(BLACK))

    def lookup(self, key: int):
        found = self._search(key)
        if found is None:
            return None
        node, value = found[:2]
        self._confirm(node, key)
        return value

    def scan(self):
        stack = []
        cur = self._tree_root()
        while stack or cur != self.nil:
            while cur != self.nil:
                k, value, _, _, _, _, lu, lo, ru, ro = self.pool.read(cur, self.node)
                stack.append((cur, k, value, ObjectId(ru, ro)))
                cur = ObjectId(lu, lo)
            node, k, value, cur = stack.pop()
            yield self._observed(node, k), value

    def validate(self) -> None:
        troot = self._tree_root()
        if troot == self.nil:
            assert self.count() == 0, "count drift on empty tree"
            return

        def check(oid, lo, hi, parent):
            """(black height, size, color) of the subtree at `oid`; its parent
            link must be `parent` (None at the root). nil counts as black."""
            if oid == self.nil:
                return 1, 0, BLACK
            k, _, _, color, pu, po, lu, lo_, ru, ro = self.pool.read(oid, self.node)
            assert lo < k < hi, f"BST order violated at {k}"
            assert parent is None or ObjectId(pu, po) == parent, "parent link broken"
            bh_l, n_l, color_l = check(ObjectId(lu, lo_), lo, k, oid)
            bh_r, n_r, color_r = check(ObjectId(ru, ro), k, hi, oid)
            if color == RED:
                assert color_l == BLACK and color_r == BLACK, f"red node {k} has a red child"
            assert bh_l == bh_r, f"black heights differ under {k}"
            return bh_l + (1 if color == BLACK else 0), n_l + n_r + 1, color

        _, size, color = check(troot, -1, 1 << 65, None)
        assert color == BLACK, "root must be black"
        assert size == self.count(), f"count {self.count()} != walked {size}"


    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, old_root: ObjectId, temp: ObjectId, ms, old, new) -> None:
        """Clone the tree node-for-node bottom-up; one store per new record."""
        old_tree = ObjectId.unpack(pool.load(old_root, 0, 16))
        old_nil = ObjectId.unpack(pool.load(old_root, 16, 16))
        count = _U64.unpack_from(pool.load(old_root, cls.COUNT_OFF, 8))[0]

        nil = tx.alloc_zeroed(new.size)
        nil_id = nil.pack()
        tx.write(nil, 0, new.pack(0, b"", BLACK, nil_id, nil_id, nil_id))

        def clone(old_oid: ObjectId, new_parent: ObjectId) -> ObjectId:
            if old_oid == old_nil:
                return nil
            key, value, color, _, left, right = old.unpack_from(
                pool.load(old_oid, 0, old.size))
            node = tx.alloc_zeroed(new.size)
            left = clone(ObjectId.unpack(left), node)
            right = clone(ObjectId.unpack(right), node)
            record = new.pack(key, value, color, new_parent.pack(), left.pack(), right.pack())
            tx.write(node, 0, record)
            ms.nodes_migrated += 1
            ms.bytes_node_records += len(record)
            tx.free(old_oid)
            return node

        new_tree = clone(old_tree, nil)
        tx.free(old_nil)
        tx.write(temp, 0, new_tree.pack())
        tx.write(temp, 16, nil.pack())
        tx.write(temp, cls.COUNT_OFF, _U64.pack(count))
