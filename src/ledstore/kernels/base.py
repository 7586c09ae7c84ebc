"""Shared machinery for the persistent map kernels.

Every kernel stores map entries as fixed-layout records inside one pool and
exists in two lanes:

  manual  plain packed records; a version-2 layout is a different record
          shape and old pools are converted by an explicit migration pass
  auto    records are extendible (trailing link slot per extendible struct);
          version 2 appends an extension level instead of changing the base

Version-2 layout edits come in two flavors: "change" widens the key field
from 32 to 64 bits, "add" appends a 16-byte name array. In auto mode the
widened key lives in a {key64} extension whose init rule zero-extends the
stored 32-bit key; insert paths keep key64 == zext(key32), so ordering and
equality of live keys can be decided from the base field alone and the
extension is read (materializing it) only to confirm a positive match.
That keeps lazy-migration counts equal to the number of matched nodes.

Values are opaque 64-bit payloads stored in a 16-byte ObjectId-sized slot.
Keys must fit in 32 bits: version-1 records could not hold more, and the
zero-extension invariant depends on it.
"""

from __future__ import annotations

import struct

from ..errors import ConfigError
from ..pool import NULL_OID, ObjectId, PoolHandle
from ..txn import Transaction

VALUE_SIZE = 16
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

KEY_LIMIT = 1 << 32


def encode_value(v: int) -> bytes:
    return _U64.pack(v) + bytes(8)


def decode_value(raw: bytes) -> int:
    return _U64.unpack_from(raw)[0]


def check_key(key: int) -> int:
    if not 0 <= key < KEY_LIMIT:
        raise ConfigError(f"key {key} does not fit the 32-bit version-1 layout")
    return key


class MapKernel:
    """Base class: root bookkeeping and the common operation surface."""

    kind = "?"
    ROOT_SIZE = 48
    COUNT_OFF = 32  # u64 entry count, shared slot in every kernel's root

    def __init__(self, pool: PoolHandle, *, mode: str = "manual", version: int = 1,
                 change: str = "change", shallow_copy: bool = False, rng=None):
        if mode not in ("manual", "auto"):
            raise ConfigError(f"unknown mode {mode!r}")
        if version not in (1, 2):
            raise ConfigError(f"unknown layout version {version}")
        if change not in ("change", "add"):
            raise ConfigError(f"unknown layout edit {change!r}")
        self.pool = pool
        self.mode = mode
        self.version = version
        self.change = change
        self.shallow_copy = shallow_copy
        self.rng = rng
        # lane facts: auto v2 keeps key64 in an extension; manual v2 "add"
        # records carry the name array inline
        self.key64_ext = mode == "auto" and version == 2 and change == "change"
        self.inline_name = mode == "manual" and version == 2 and change == "add"
        self.root = NULL_OID

    # -- root helpers ------------------------------------------------------

    def create(self) -> None:
        """Allocate the root and empty structure (first run over a fresh pool)."""
        tx = self.pool._active_tx
        if tx is not None:
            self.root = self.pool.get_root(self.ROOT_SIZE)
            self._init_structure(tx)
        else:
            with Transaction(self.pool) as tx2:
                self.root = self.pool.get_root(self.ROOT_SIZE)
                self._init_structure(tx2)

    def attach(self) -> None:
        """Bind to an existing structure (reopened or migrated pool)."""
        root = self.pool.root_id
        if root.is_null():
            raise ConfigError("pool has no root object; call create() first")
        self.root = root
        self._load_structure()

    def _init_structure(self, tx) -> None:
        raise NotImplementedError

    def _load_structure(self) -> None:
        pass

    def _root_oid_field(self, off: int) -> ObjectId:
        return ObjectId.unpack(self.pool.load(self.root, off, 16))

    def count(self) -> int:
        return _U64.unpack_from(self.pool.load(self.root, self.COUNT_OFF, 8))[0]

    def _bump_count(self, tx, delta: int) -> None:
        n = self.count() + delta
        tx.write(self.root, self.COUNT_OFF, _U64.pack(n))

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

    def items(self) -> dict[int, int]:
        return dict(self.scan())
