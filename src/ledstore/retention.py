"""Open-time data-retention policies: reset, manual migration, or lazy upgrade.

A policy says what to do when the on-file layout generation differs from
what the running program expects:

  reset      any mismatch (name, version, magic) discards the pool and
             creates a fresh one; all data is rebuilt by the caller
  manual     a registered migration pass transforms every record from the
             stored version to the expected one before the pool is handed
             back; the pass runs in one transaction, so a crash mid-pass
             recovers to the untouched old state and the pass restarts
  automatic  the pool opens as-is after a base-layout fingerprint check;
             records upgrade lazily through their extension links on access
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .errors import (
    BadMagic,
    FingerprintMismatch,
    LayoutMismatch,
    MigrationMissing,
)
from .pool import PoolHandle, create_pool, delete_pool, open_pool

RESET = "reset"
MANUAL = "manual"
AUTOMATIC = "auto"


@dataclass
class MigrationStats:
    """What one migration pass did, measured at its store sites."""

    nodes_migrated: int = 0
    bytes_node_records: int = 0
    objects_freed: int = 0
    bytes_user: int = 0
    bytes_log: int = 0
    bytes_meta: int = 0
    duration_s: float = 0.0

    @property
    def bytes_per_node(self) -> float:
        return self.bytes_node_records / self.nodes_migrated if self.nodes_migrated else 0.0


@dataclass
class MigrationPass:
    """Transactional transform from one layout version to the next.

    `transform(pool, tx, root, stats)` walks the old structure under the
    pool root, builds the new one, frees old records, and rewrites the root
    in place, inside the runner's one transaction.
    """

    from_version: int
    to_version: int
    transform: object


@dataclass
class RetentionPolicy:
    model: str                      # reset | manual | auto
    layout_name: str
    layout_version: int = 2
    migration: MigrationPass | None = None
    schema_fingerprint: int | None = None
    create_capacity: int = 64 * 1024 * 1024   # reset model may build fresh pools

    def __post_init__(self):
        if self.model not in (RESET, MANUAL, AUTOMATIC):
            raise LayoutMismatch(f"unknown retention model {self.model!r}")
        if self.model == MANUAL and self.migration is None:
            raise MigrationMissing("manual policy needs a migration pass")
        if self.model == AUTOMATIC and self.schema_fingerprint is None:
            raise FingerprintMismatch("automatic policy needs a schema fingerprint")


def run_migration(pool: PoolHandle, mig: MigrationPass) -> MigrationStats:
    """Execute one pass in a single transaction and bump the layout version."""
    ms = MigrationStats()
    before = pool.stats.snapshot()
    t0 = time.perf_counter()
    with pool.tx_begin() as tx:
        mig.transform(pool, tx, pool.root_id, ms)
        pool.set_layout_version(mig.to_version)
    ms.duration_s = time.perf_counter() - t0
    delta = pool.stats.delta(before)
    ms.objects_freed = delta["n_frees"]
    ms.bytes_user = delta["bytes_user"]
    ms.bytes_log = delta["bytes_log"]
    ms.bytes_meta = delta["bytes_meta"]
    return ms


def open_with_policy(path: str, policy: RetentionPolicy) -> PoolHandle:
    """Open a pool under a retention policy; see the module docstring."""
    if policy.model == RESET:
        return _open_reset(path, policy)

    handle = open_pool(path, policy.layout_name)  # LayoutMismatch propagates
    try:
        stored = handle.layout_version
        if policy.model == MANUAL:
            if stored == policy.layout_version:
                return handle
            if stored > policy.layout_version:
                raise LayoutMismatch(
                    f"pool is at version {stored}, ahead of expected {policy.layout_version}"
                )
            mig = policy.migration
            if mig.from_version != stored or mig.to_version != policy.layout_version:
                raise MigrationMissing(
                    f"no pass covering v{stored} -> v{policy.layout_version}"
                )
            handle.last_migration = run_migration(handle, mig)
            return handle

        # automatic: fingerprint check, version bump, lazy upgrades on access
        stored_fp = handle.schema_fingerprint
        if stored_fp != 0 and stored_fp != policy.schema_fingerprint:
            raise FingerprintMismatch(
                f"pool base layouts {stored_fp:#x} != manifest {policy.schema_fingerprint:#x}"
            )
        if stored_fp == 0:
            raise FingerprintMismatch("pool records no base-layout fingerprint")
        if stored < policy.layout_version:
            handle.set_layout_version(policy.layout_version)
    except BaseException:  # a failed step, a full log included, leaks no handle or lock
        handle.close()
        raise
    return handle


def _open_reset(path: str, policy: RetentionPolicy) -> PoolHandle:
    if os.path.exists(path):
        try:
            handle = open_pool(path, policy.layout_name)
        except (LayoutMismatch, BadMagic):
            delete_pool(path)
        else:
            if handle.layout_version == policy.layout_version:
                return handle
            handle.close()
            delete_pool(path)
    handle = create_pool(path, policy.layout_name, policy.create_capacity)
    if policy.layout_version != 1:
        handle.set_layout_version(policy.layout_version)
    return handle
