"""Shared machinery for the persistent map kernels.

Every kernel stores map entries as fixed-layout records inside one pool. It
declares its version-1 entry once, as ENTRY_NAME and ENTRY_FIELDS in leds
field codes, and MapKernel derives every other entry layout from that list
by one rule, for the two lanes:

  manual  a plain packed record (leds.define_record). Version 2 applies the
          layout edit in place: "change" widens `key` to u64 and shifts
          every later field, "add" appends `name bytes16`. Old pools are
          converted by the kernel's `migrate` pass, which decodes through
          the version-1 record and encodes through the version-2 one.
  auto    an extendible record (leds.define_type) over the version-1 fields,
          ending in a link slot. Version 2 keeps that base and appends the
          same edit as extension level 1: {key64 u64}, copied from `key`,
          or {name bytes16}, zero-filled.

Kernels read field offsets and the entry size from the derived layout, and
share the lane-dependent helpers below; each helper takes the entry's offset
in its holder (`base_off`), so entries embedded in B-tree and crit-bit nodes
use them too. In auto "change" mode the widened key lives in the {key64}
extension; insert paths keep key64 == zext(key32), so ordering and equality
of live keys can be decided from the base field alone and the extension is
read (materializing it) only to confirm a positive match. That keeps
lazy-migration counts equal to the number of matched entries.

The pool root is declared the same way, once per kernel, as ROOT_FIELDS:
MapKernel derives the record ROOT from it (oid fields as two u64 words),
and every read and write of the root, `migrate`'s included, goes through
ROOT. Every operation reads the pool root once (count, tree root, buckets
or nil together) and decodes each node it touches once, with one
`pool.read` through a codec the kernel derives in __init__ from `entry`
with `entry_parts` (oid fields as two u64 words) and, in the auto lane,
`link_parts`, never from literal record offsets. Insert and remove edit the
decoded values and store each contiguous changed span with one `tx.write`.
The B-tree and red-black tree keep an operation's decoded nodes in one dict
(`_rec`), mark what they change (`_mark`) and store each marked node
once per operation (`_flush`) unless it dropped it (`_drop`: a node it
freed, or the red-black tree's scratch nil). A matched
or scanned entry's decoded link words let `_confirm` read a materialized
key64 straight from its extension record and `_free_entry` free its chain
without reloading the link slot. An entry's chain moves and frees go
through leds: `_relocated` hands a non-null link to leds.deep_copy, and
`_free_entry` hands the link to leds.free_extendible.

Values are opaque 64-bit payloads stored in a 16-byte ObjectId-sized slot.
Keys must fit in 32 bits: version-1 records could not hold more, and the
zero-extension invariant depends on it.
"""

from __future__ import annotations

import struct
from contextlib import nullcontext

from .. import leds
from ..errors import ConfigError, OutOfBounds
from ..layout import NULL_OID, ObjectId, RecordLayout, define_record
from ..pool import PoolHandle
from ..txn import Transaction

U64 = struct.Struct("<Q")
OID_WORDS = struct.Struct("<QQ")  # a 16-byte oid slot (link, next, bucket) as two words

KEY_LIMIT = 1 << 32


def word_parts(fields, base_off: int = 0) -> list[tuple[int, str]]:
    """layout.packed_struct parts for `fields`, given in offset order, at
    `base_off` in their holder; oid fields decode as two u64 words."""
    return [(base_off + f.offset, "QQ" if f.kind == "objectid" else f.fmt) for f in fields]


def encode_value(v: int) -> bytes:
    return U64.pack(v) + bytes(8)


def check_key(key: int) -> int:
    if not 0 <= key < KEY_LIMIT:
        raise ConfigError(f"key {key} does not fit the 32-bit version-1 layout")
    return key


class MapKernel:
    """Base class: root bookkeeping, entry layouts and the operation surface."""

    kind = "?"
    ROOT_SIZE = 48
    ROOT_FIELDS: tuple = ()   # the pool root, (name, code[, offset]) in offset order
    ROOT: RecordLayout        # derived from ROOT_FIELDS for each kernel class
    ENTRY_NAME = "?"
    ENTRY_FIELDS: tuple = ()  # version-1 entry, (name, leds code) pairs

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        fields = define_record(cls.ROOT_FIELDS).fields
        cls.ROOT = RecordLayout(word_parts(fields), fields)

    def __init__(self, pool: PoolHandle, *, mode: str = "manual", version: int = 1,
                 change: str = "change", shallow_copy: bool = False, rng=None):
        if mode not in ("manual", "auto"):
            raise ConfigError(f"unknown mode {mode!r}")
        if version not in (1, 2):
            raise ConfigError(f"unknown layout version {version}")
        if change not in ("change", "add"):
            raise ConfigError(f"unknown layout edit {change!r}")
        self.pool = pool
        self.shallow_copy = shallow_copy
        self.rng = rng
        edit = change if version == 2 else None
        # entry_size is the allocated (or embedded) size
        if mode == "auto":
            self.desc = self.entry_type(edit)
            self.entry = self.entry_record()
            self.entry_size = self.desc.base_size
        else:
            self.desc = None
            self.entry = self.entry_record(edit)
            self.entry_size = self.entry.size
        # auto "change": key64 lives in an extension, see the module docstring
        self.key64_ext = mode == "auto" and edit == "change"
        self.key64_off = self.desc.resolve("key64")[1].offset if self.key64_ext else None
        self.root = NULL_OID

    @classmethod
    def entry_record(cls, edit: str | None = None) -> RecordLayout:
        """Manual-lane entry: version 1, or version 2 with `edit` applied in place."""
        fields = list(cls.ENTRY_FIELDS)
        if edit == "change":
            fields = [(name, "u64" if name == "key" else code) for name, code in fields]
        elif edit == "add":
            fields.append(("name", "bytes16"))
        elif edit is not None:
            raise ConfigError(f"unknown layout edit {edit!r}")
        return leds.define_record(fields)

    @classmethod
    def entry_type(cls, edit: str | None = None) -> leds.TypeDescriptor:
        """Auto-lane entry: the version-1 base, plus `edit` as extension level 1."""
        desc = leds.define_type(cls.ENTRY_NAME, cls.ENTRY_FIELDS)
        if edit == "change":
            desc = leds.append_extension(
                desc, [("key64", "u64")], {"op": "copy_fields", "map": {"key64": "key"}}
            )
        elif edit == "add":
            desc = leds.append_extension(desc, [("name", "bytes16")], {"op": "zero"})
        elif edit is not None:
            raise ConfigError(f"unknown layout edit {edit!r}")
        return desc

    @classmethod
    def migrate(cls, pool, tx, root: ObjectId, ms,
                old: RecordLayout, new: RecordLayout) -> None:
        """Manual version 1 -> 2 pass: rebuild the structure under the pool
        `root`, decoding entries through record `old` and encoding them
        through record `new`. It reads every old root field before it
        rewrites the root in place."""
        raise NotImplementedError

    # -- root helpers ------------------------------------------------------

    def create(self) -> None:
        """Allocate the root and empty structure (first run over a fresh pool)."""
        tx = self.pool._active_tx
        with nullcontext(tx) if tx is not None else Transaction(self.pool) as tx:
            self.root = self.pool.get_root(self.ROOT_SIZE)
            self._init_structure(tx)

    def attach(self) -> None:
        """Bind to an existing structure (reopened or migrated pool)."""
        root = self.pool.root_id
        if root.is_null():
            raise ConfigError("pool has no root object; call create() first")
        self.root = root
        self._load_structure()

    def _init_structure(self, tx) -> None:
        raise NotImplementedError

    @classmethod
    def _write_root(cls, tx, root: ObjectId, **values) -> None:
        """Store the named ROOT fields of `root`, one tx.write each, in
        declaration order."""
        for f in cls.ROOT.fields:
            if f.name in values:
                tx.write(root, f.offset, f.encode(values[f.name]))

    def _load_structure(self) -> None:
        pass

    def _begin(self) -> tuple:
        """Start an operation: one read of the pool root gives the id in its
        first field (tree root or bucket array) and the rest of ROOT's
        values (the count last)."""
        u, o, *rest = self.pool.read(self.root, self.ROOT)
        return ObjectId(u, o), *rest

    def _rec(self, x: int) -> list:
        """The values of the node at payload offset `x`, decoded by `self.node`,
        read at most once per operation (whose start empties `_recs`); its
        writes edit this list, then mark what they changed (_mark)."""
        rec = self._recs.get(x)
        if rec is None:
            rec = self._recs[x] = list(self.pool.read(ObjectId(self.pool.pool_uuid, x), self.node))
        return rec

    def _mark(self, x: int, bits: int) -> None:
        """Values of node `x` changed: value i if bit i of `bits` is set."""
        self._dirty[x] = self._dirty.get(x, 0) | bits

    def _drop(self, x: int) -> None:
        """_flush skips node `x`: the operation frees it, or (rbtree's nil) it is scratch."""
        self._dirty.pop(x, None)

    def _flush(self, tx) -> None:
        """Store each marked node, in marking order, with one RecordLayout.put
        (a store per run of adjacent marked values); clear the marks."""
        uuid, recs, put = self.pool.pool_uuid, self._recs, self.node.put
        for x, bits in self._dirty.items():
            put(tx, ObjectId(uuid, x), recs[x], bits)
        self._dirty = {}

    def count(self) -> int:
        return self.pool.read(self.root, U64, self.ROOT.offsets["count"])[0]

    def _set_count(self, tx, n: int) -> None:
        tx.write(self.root, self.ROOT.offsets["count"], U64.pack(n))

    # -- operation surface --------------------------------------------------

    def insert(self, tx, key: int, value: int) -> bool:
        raise NotImplementedError

    def remove(self, tx, key: int) -> bool:
        raise NotImplementedError

    def lookup(self, key: int):
        raise NotImplementedError

    def scan(self):
        """Yield (key, value), ordered for tree kinds."""
        raise NotImplementedError

    def validate(self) -> None:
        raise NotImplementedError

    # -- entry helpers: `holder` is the record, `base_off` the entry's offset in it

    def entry_parts(self, base_off: int, *names: str) -> list[tuple[int, str]]:
        """word_parts for entry fields at `base_off` in their holder, named
        in offset order."""
        return word_parts([self.entry.field(name) for name in names], base_off)

    def link_parts(self, base_off: int) -> list[tuple[int, str]]:
        """The auto-lane link slot of the entry at `base_off`, as two words;
        no part in the manual lane."""
        return [] if self.desc is None else [(base_off + self.desc.link_offset, "QQ")]

    def _confirm(self, holder: ObjectId, key: int, base_off: int, link):
        """A positive match in auto "change" mode checks key64, given the
        entry's decoded link words: a non-null link counts ensure_extension's
        check and its key64 must equal `key`; a null one is materialized from
        `key`, which is then not read back. Returns the entry's link as it now is."""
        if not self.key64_ext:
            return link
        if not (link[0] or link[1]):
            return leds.extension_record(self.pool, holder, self.desc, 1, base_off=base_off)
        self.pool.stats.checks += 1
        if self.pool.read(ObjectId(*link), U64, self.key64_off)[0] != key:
            raise OutOfBounds(f"key64 of key {key} at {holder.offset + base_off} differs")
        return link

    def _peek_key64(self, holder: ObjectId, key: int, base_off: int = 0) -> None:
        """Validation: a materialized key64 must equal `key`. The read is
        uncounted and materializes nothing."""
        if not self.key64_ext:
            return
        buf = self.pool.buf
        uuid, target = OID_WORDS.unpack_from(buf, holder.offset + base_off + self.desc.link_offset)
        if (uuid or target) and U64.unpack_from(buf, target)[0] != key:
            raise OutOfBounds(f"key64 of key {key} at {holder.offset + base_off} differs")

    def _extend_new(self, holder: ObjectId, base_off: int = 0) -> None:
        """A new entry in auto "change" mode gets its key64 at once."""
        if self.key64_ext:
            leds.ensure_extension(self.pool, holder, self.desc, 1, base_off=base_off)

    def _relocated(self, tx, raw: bytes, link_off: int | None = None) -> bytes:
        """An embedded entry's bytes for a new slot; the link slot sits at
        `link_off` in `raw` (default: the entry's own link offset). In the
        auto lane the extension link moves along (shallow copy) or, with
        shallow_copy off, a non-null one is replaced by the head of the
        chain's clone (leds.deep_copy)."""
        if self.desc is None or self.shallow_copy:
            return raw
        if link_off is None:
            link_off = self.desc.link_offset
        link = ObjectId.unpack(raw, link_off)
        if link.is_null():
            return raw
        clone = leds.deep_copy(tx, self.pool, link, self.desc)
        return raw[:link_off] + clone.pack() + raw[link_off + leds.LINK_SIZE:]

    def _free_entry(self, tx, holder: ObjectId, link, base_off: int | None = None) -> None:
        """Free an entry's extension chain, found from its decoded `link`
        words (leds.free_extendible), and a standalone record (no
        `base_off`) itself."""
        if self.desc is not None:
            leds.free_extendible(tx, self.pool, ObjectId(*link), self.desc)
        if base_off is None:
            tx.free(holder)
