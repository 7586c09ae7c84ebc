"""Red-black tree with an allocated nil sentinel, stored only by create and
migrate: nil's parent is scratch during deletion, and remove never flushes it.

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

from ..layout import ObjectId, RecordLayout
from .base import MapKernel, check_key

RED = 0
BLACK = 1

# a node decodes to (key, value words, color, parent, left, right, [link]),
# ids as (uuid, offset) words. Operations address nodes by payload offset
# (every id in a tree is in this pool) and edit these value indices:
COLOR, PARENT, LEFT, RIGHT = 3, 5, 7, 9
# the values each field's change marks (MapKernel._mark): its id's two words
_BITS = {COLOR: 1 << COLOR, PARENT: 3 << PARENT - 1, LEFT: 3 << LEFT - 1, RIGHT: 3 << RIGHT - 1}
_NEW = (1 << RIGHT + 1) - 1  # a new node: key through right


class RBTreeKernel(MapKernel):
    kind = "rbtree"
    ENTRY_NAME = "rbtree_node"
    ENTRY_FIELDS = (("key", "u32"), ("value", "oid"), ("color", "u32"),
                    ("parent", "oid"), ("left", "oid"), ("right", "oid"))
    ROOT_FIELDS = (("tree", "oid"), ("nil", "oid"), ("count", "u64"))

    def __init__(self, pool, **kw):
        super().__init__(pool, **kw)
        self.node = RecordLayout(self.entry_parts(
            0, "key", "value", "color", "parent", "left", "right") + self.link_parts(0))
        # a new node's values after `right`: the zeroed link words (auto lane)
        self.link_zeros = self.node.unpack_from(bytes(self.node.size))[10:]
        self.uuid = pool.pool_uuid
        self.nil = None
        self._troot = self._troot0 = None  # per operation: the tree root

    # -- structure ----------------------------------------------------------

    def _init_structure(self, tx) -> None:
        nil = tx.alloc_zeroed(self.entry_size)
        tx.write(nil, 0, self.entry.pack(0, b"", BLACK, nil.pack(), nil.pack(), nil.pack()))
        self._write_root(tx, self.root, tree=nil, nil=nil, count=0)
        self.nil = nil.offset

    def _load_structure(self) -> None:
        self.nil = self.pool.read(self.root, self.ROOT)[3]

    # -- decoded nodes (MapKernel._rec, _mark, _flush) -----------------------------

    def _begin(self) -> int:
        """Drop the last operation's nodes and marks; read the pool root."""
        self._recs = {}
        self._dirty = {}
        troot, _, _, count = super()._begin()
        self._troot = self._troot0 = troot[1]
        return count

    def _set(self, x: int, field: int, v: int) -> None:
        """Change one field of node `x`; _flush stores it."""
        self._rec(x)[field] = v
        self._mark(x, _BITS[field])

    def _end(self, tx, count: int) -> None:
        """Store the changed nodes, then the tree root if it moved, and the count."""
        self._flush(tx)
        if self._troot != self._troot0:
            self._write_root(tx, self.root, tree=ObjectId(self.uuid, self._troot))
        self._set_count(tx, count)

    def _search(self, key: int):
        """(key's node, its values, its parent), one read per visited node;
        for an absent key, (nil, the values of the parent a new node would
        get, that parent); (nil, None, nil) in an empty tree."""
        x, y, rec = self._troot, self.nil, None
        while x != self.nil:
            rec = self._rec(x)
            if key == rec[0]:
                break
            y, x = x, rec[LEFT] if key < rec[0] else rec[RIGHT]
        return x, rec, y

    # -- rotations -------------------------------------------------------------

    def _rotate(self, x: int, left: bool) -> None:
        a, b = (LEFT, RIGHT) if left else (RIGHT, LEFT)
        y = self._rec(x)[b]
        y_a = self._rec(y)[a]
        self._set(x, b, y_a)
        if y_a != self.nil:
            self._set(y_a, PARENT, x)
        xp = self._rec(x)[PARENT]
        self._set(y, PARENT, xp)
        if xp == self.nil:
            self._troot = y
        elif x == self._rec(xp)[LEFT]:
            self._set(xp, LEFT, y)
        else:
            self._set(xp, RIGHT, y)
        self._set(y, a, x)
        self._set(x, PARENT, y)

    # -- operations --------------------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        check_key(key)
        count = self._begin()
        nil, u = self.nil, self.uuid
        x, rec, y = self._search(key)
        if x != nil:
            self._confirm(ObjectId(u, x), key, 0, rec[10:])
            return False
        z = tx.alloc_zeroed(self.entry_size)
        self._recs[z.offset] = [key, value, 0, RED, u, y, u, nil, u, nil, *self.link_zeros]
        self._mark(z.offset, _NEW)
        if y == nil:
            self._troot = z.offset
        elif key < rec[0]:
            self._set(y, LEFT, z.offset)
        else:
            self._set(y, RIGHT, z.offset)
        self._insert_fixup(z.offset)
        self._end(tx, count + 1)
        self._extend_new(z)  # reads the key from the file, where _end stored it
        return True

    def _insert_fixup(self, z: int) -> None:
        nil, rec, put = self.nil, self._rec, self._set
        while True:
            zp = rec(z)[PARENT]
            if zp == nil or rec(zp)[COLOR] != RED:
                break
            zpp = rec(zp)[PARENT]
            zp_is_left = zp == rec(zpp)[LEFT]
            uncle = rec(zpp)[RIGHT if zp_is_left else LEFT]
            if uncle != nil and rec(uncle)[COLOR] == RED:
                put(zp, COLOR, BLACK)
                put(uncle, COLOR, BLACK)
                put(zpp, COLOR, RED)
                z = zpp
                continue
            inner = RIGHT if zp_is_left else LEFT
            if z == rec(zp)[inner]:
                z = zp
                self._rotate(z, left=zp_is_left)
                zp = rec(z)[PARENT]
                zpp = rec(zp)[PARENT]
            put(zp, COLOR, BLACK)
            put(zpp, COLOR, RED)
            self._rotate(zpp, left=not zp_is_left)
        if rec(self._troot)[COLOR] != BLACK:
            put(self._troot, COLOR, BLACK)

    def _transplant(self, u: int, v: int) -> None:
        up = self._rec(u)[PARENT]
        if up == self.nil:
            self._troot = v
        elif u == self._rec(up)[LEFT]:
            self._set(up, LEFT, v)
        else:
            self._set(up, RIGHT, v)
        self._set(v, PARENT, up)  # nil's parent is scratch: remove drops nil

    def remove(self, tx, key: int) -> bool:
        count = self._begin()
        z, zrec, _ = self._search(key)
        if z == self.nil:
            return False
        link = self._confirm(ObjectId(self.uuid, z), key, 0, zrec[10:])
        nil, rec, put = self.nil, self._rec, self._set
        z_color, z_left, z_right = zrec[COLOR], zrec[LEFT], zrec[RIGHT]
        y, y_color = z, z_color
        if z_left == nil:
            x = z_right
            self._transplant(z, z_right)
        elif z_right == nil:
            x = z_left
            self._transplant(z, z_left)
        else:
            y = z_right
            while (nxt := rec(y)[LEFT]) != nil:
                y = nxt
            y_color = rec(y)[COLOR]
            x = rec(y)[RIGHT]
            if rec(y)[PARENT] == z:
                put(x, PARENT, y)
            else:
                self._transplant(y, x)
                put(y, RIGHT, z_right)
                put(z_right, PARENT, y)
            self._transplant(z, y)
            put(y, LEFT, z_left)
            put(z_left, PARENT, y)
            put(y, COLOR, z_color)
        if y_color == BLACK:
            self._delete_fixup(x)
        self._drop(z)
        self._drop(nil)
        self._free_entry(tx, ObjectId(self.uuid, z), link)
        self._end(tx, count - 1)
        return True

    def _delete_fixup(self, x: int) -> None:
        nil, rec, put = self.nil, self._rec, self._set
        while x != self._troot and rec(x)[COLOR] == BLACK:
            xp = rec(x)[PARENT]
            x_is_left = x == rec(xp)[LEFT]
            sib = RIGHT if x_is_left else LEFT
            w = rec(xp)[sib]
            if rec(w)[COLOR] == RED:
                put(w, COLOR, BLACK)
                put(xp, COLOR, RED)
                self._rotate(xp, left=x_is_left)
                w = rec(xp)[sib]
            w_left, w_right = rec(w)[LEFT], rec(w)[RIGHT]
            if rec(w_left)[COLOR] == BLACK and rec(w_right)[COLOR] == BLACK:
                put(w, COLOR, RED)
                x = xp
                continue
            near, far = (w_right, w_left) if not x_is_left else (w_left, w_right)
            if rec(far)[COLOR] == BLACK:
                put(near, COLOR, BLACK)
                put(w, COLOR, RED)
                self._rotate(w, left=not x_is_left)
                w = rec(xp)[sib]
                far = rec(w)[sib]
            put(w, COLOR, rec(xp)[COLOR])
            put(xp, COLOR, BLACK)
            if far != nil:
                put(far, COLOR, BLACK)
            self._rotate(xp, left=x_is_left)
            break
        if rec(x)[COLOR] != BLACK:
            put(x, COLOR, BLACK)

    def lookup(self, key: int):
        self._begin()
        x, rec, _ = self._search(key)
        if x == self.nil:
            return None
        self._confirm(ObjectId(self.uuid, x), key, 0, rec[10:])
        return rec[1]

    def scan(self):
        self._begin()
        u, nil = self.uuid, self.nil
        stack = []
        cur = self._troot
        while stack or cur != nil:
            while cur != nil:
                rec = self.pool.read(ObjectId(u, cur), self.node)
                stack.append((cur, rec[0], rec[1], rec[RIGHT], rec[10:]))
                cur = rec[LEFT]
            node, k, value, cur, link = stack.pop()
            self._confirm(ObjectId(u, node), k, 0, link)
            yield k, value

    def validate(self) -> None:
        count = self._begin()
        u, nil, troot = self.uuid, self.nil, self._troot
        if troot == nil:
            assert count == 0, "count drift on empty tree"
            return

        def check(x, lo, hi, parent):
            """(black height, size, color) of the subtree at `x`; its parent
            link must be `parent` (None at the root). nil counts as black."""
            if x == nil:
                return 1, 0, BLACK
            rec = self.pool.read(ObjectId(u, x), self.node)
            k, color = rec[0], rec[COLOR]
            assert lo < k < hi, f"BST order violated at {k}"
            assert parent is None or rec[PARENT] == parent, "parent link broken"
            assert rec[PARENT - 1] == rec[LEFT - 1] == rec[RIGHT - 1] == u, "foreign link"
            bh_l, n_l, color_l = check(rec[LEFT], lo, k, x)
            bh_r, n_r, color_r = check(rec[RIGHT], k, hi, x)
            if color == RED:
                assert color_l == BLACK and color_r == BLACK, f"red node {k} has a red child"
            assert bh_l == bh_r, f"black heights differ under {k}"
            return bh_l + (1 if color == BLACK else 0), n_l + n_r + 1, color

        _, size, color = check(troot, -1, 1 << 65, None)
        assert color == BLACK, "root must be black"
        assert size == count, f"count {count} != walked {size}"

    # -- manual migration ------------------------------------------------------

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms, old, new) -> None:
        """Clone the tree node-for-node bottom-up; one store per new record."""
        tree_u, tree_o, nil_u, nil_o, count = pool.read(root, cls.ROOT)
        old_nil = ObjectId(nil_u, nil_o)

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

        new_tree = clone(ObjectId(tree_u, tree_o), nil)
        tx.free(old_nil)
        cls._write_root(tx, root, tree=new_tree, nil=nil, count=count)
