"""Persistent object store with pluggable data-retention behavior.

The layers, bottom up:

  layout     packed record declarations; each on-file record is declared once
  pool       memory-mapped file heap with stable ObjectIds and a root object
  txn        undo-log transactions, crash injection, recovery
  leds       extendible type descriptors and lazy extension records
  retention  reset / manual-migration / automatic open policies
  kernels    persistent map structures (skiplist, ctree, btree, rbtree, hashmap)
  bench      workload harness, overhead equations, write ledger, CLI
"""

from .errors import (
    AlreadyExists,
    BadMagic,
    CapacityTooSmall,
    ConfigError,
    DoubleFree,
    FingerprintMismatch,
    ForeignPool,
    IoError,
    LayoutMismatch,
    MigrationMissing,
    NestedTransaction,
    NonContiguousLevel,
    NoSuchField,
    OutOfBounds,
    OutOfSpace,
    OverlappingFields,
    PoolError,
    PoolLocked,
    SimulatedCrash,
    TxRequired,
    TxStateError,
    UnknownLevel,
)
from .layout import NULL_OID, ObjectId
from .pool import (
    CrashPlan,
    PoolHandle,
    create_pool,
    delete_pool,
    open_pool,
    recover,
)
from .stats import WriteStats
from .txn import Transaction

__all__ = [
    "AlreadyExists",
    "BadMagic",
    "CapacityTooSmall",
    "ConfigError",
    "CrashPlan",
    "DoubleFree",
    "FingerprintMismatch",
    "ForeignPool",
    "IoError",
    "LayoutMismatch",
    "MigrationMissing",
    "NULL_OID",
    "NestedTransaction",
    "NonContiguousLevel",
    "NoSuchField",
    "ObjectId",
    "OutOfBounds",
    "OutOfSpace",
    "OverlappingFields",
    "PoolError",
    "PoolHandle",
    "PoolLocked",
    "SimulatedCrash",
    "Transaction",
    "TxRequired",
    "TxStateError",
    "UnknownLevel",
    "WriteStats",
    "create_pool",
    "delete_pool",
    "open_pool",
    "recover",
]
