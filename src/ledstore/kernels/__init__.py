"""Persistent map kernels and their migration/schema factories.

Five structures share one operation surface (insert/remove/lookup/scan/
validate): a 4-level skip list, a crit-bit tree, a B-tree of order 8, a
red-black tree, and a chained hash map. Each exists in a manual lane
(plain packed records, explicit migration pass between layout versions)
and an automatic lane (extendible records upgraded lazily on access).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..retention import MigrationPass
from . import btree, ctree, hashmap, rbtree, skiplist
from .base import MapKernel

KINDS = ("skiplist", "ctree", "btree", "rbtree", "hashmap")

_CLASSES = {
    "skiplist": skiplist.SkipListKernel,
    "ctree": ctree.CritBitKernel,
    "btree": btree.BTreeKernel,
    "rbtree": rbtree.RBTreeKernel,
    "hashmap": hashmap.HashMapKernel,
}


def _kernel_class(kind: str) -> type[MapKernel]:
    try:
        return _CLASSES[kind]
    except KeyError:
        raise ConfigError(f"unknown kernel kind {kind!r}") from None


def make_kernel(pool, kind: str, **kw) -> MapKernel:
    return _kernel_class(kind)(pool, **kw)


def make_manual_migrator(kind: str, change: str = "change") -> MigrationPass:
    """Version 1 -> 2 pass for one kernel kind and layout edit."""
    cls = _kernel_class(kind)
    old, new = cls.entry_record(), cls.entry_record(change)

    def transform(pool, tx, root, ms):
        cls.migrate(pool, tx, root, ms, old, new)

    return MigrationPass(from_version=1, to_version=2, transform=transform)


def make_auto_schema(kind: str, change: str | None):
    """Extendible type descriptors for one kernel kind.

    `change` of None yields the version-1 schema (no extension levels);
    "change" appends the widened-key level, "add" the name level. The base
    fingerprint is identical across all three, which is what lets a
    version-2 program open a version-1 pool.
    """
    return [_kernel_class(kind).entry_type(change)]


__all__ = [
    "KINDS",
    "MapKernel",
    "make_auto_schema",
    "make_kernel",
    "make_manual_migrator",
]
