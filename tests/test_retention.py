"""Retention policies: reset, manual migration pass, automatic fingerprint open."""

import random

import pytest

from ledstore import (
    FingerprintMismatch,
    LayoutMismatch,
    MigrationMissing,
    OutOfSpace,
    create_pool,
    open_pool,
)
from ledstore.kernels import make_auto_schema, make_kernel, make_manual_migrator
from ledstore.leds import manifest_fingerprint
from ledstore.retention import (
    AUTOMATIC,
    MANUAL,
    RESET,
    RetentionPolicy,
    open_with_policy,
    run_migration,
)

MIB = 1024 * 1024


def build_v1(path, kind="hashmap", mode="manual", keys=range(1, 101), name=None):
    pool = create_pool(path, name or f"{kind}-map", 32 * MIB)
    if mode == "auto":
        fp = manifest_fingerprint(make_auto_schema(kind, None))
        pool.set_schema_fingerprint(fp)
    k = make_kernel(pool, kind, mode=mode, rng=random.Random(1))
    k.create()
    for key in keys:
        with pool.tx_begin() as tx:
            k.insert(tx, key, key)
    return pool


class TestReset:
    def test_mismatch_discards_everything(self, tmp_path):
        path = str(tmp_path / "r.pool")
        build_v1(path, name="old-layout").close()
        policy = RetentionPolicy(RESET, "new-layout", layout_version=2,
                                 create_capacity=32 * MIB)
        pool = open_with_policy(path, policy)
        assert pool.allocated_objects == 0
        assert pool.layout_name == "new-layout"
        assert pool.layout_version == 2
        pool.close()

    def test_version_mismatch_also_resets(self, tmp_path):
        path = str(tmp_path / "r.pool")
        build_v1(path, name="same").close()
        pool = open_with_policy(path, RetentionPolicy(
            RESET, "same", layout_version=2, create_capacity=32 * MIB))
        assert pool.allocated_objects == 0
        pool.close()

    def test_matching_pool_kept(self, tmp_path):
        path = str(tmp_path / "r.pool")
        build_v1(path, name="same").close()
        pool = open_with_policy(path, RetentionPolicy(
            RESET, "same", layout_version=1, create_capacity=32 * MIB))
        assert pool.allocated_objects > 0  # data survived: nothing changed
        pool.close()

    def test_missing_file_created_fresh(self, tmp_path):
        path = str(tmp_path / "new.pool")
        pool = open_with_policy(path, RetentionPolicy(
            RESET, "fresh", layout_version=1, create_capacity=32 * MIB))
        assert pool.allocated_objects == 0
        pool.close()


class TestManual:
    def test_migration_runs_once_then_plain_open(self, tmp_path):
        path = str(tmp_path / "m.pool")
        build_v1(path, kind="hashmap").close()
        policy = RetentionPolicy(
            MANUAL, "hashmap-map", layout_version=2,
            migration=make_manual_migrator("hashmap", "change"))
        pool = open_with_policy(path, policy)
        assert pool.layout_version == 2
        assert pool.last_migration.nodes_migrated == 100
        k = make_kernel(pool, "hashmap", version=2, change="change")
        k.attach()
        assert dict(k.scan()) == {key: key for key in range(1, 101)}
        pool.close()

        pool = open_with_policy(path, policy)  # already v2: no pass
        assert not hasattr(pool, "last_migration")
        pool.close()

    def test_wrong_name_is_layout_mismatch(self, tmp_path):
        path = str(tmp_path / "m.pool")
        build_v1(path, name="other").close()
        policy = RetentionPolicy(
            MANUAL, "hashmap-map", layout_version=2,
            migration=make_manual_migrator("hashmap"))
        with pytest.raises(LayoutMismatch):
            open_with_policy(path, policy)

    def test_version_gap_needs_matching_pass(self, tmp_path):
        path = str(tmp_path / "m.pool")
        build_v1(path).close()
        policy = RetentionPolicy(
            MANUAL, "hashmap-map", layout_version=3,
            migration=make_manual_migrator("hashmap"))  # covers 1 -> 2 only
        with pytest.raises(MigrationMissing):
            open_with_policy(path, policy)

    def test_failed_pass_closes_the_handle(self, tmp_path):
        """A migration that fills the undo log raises OutOfSpace and releases
        the handle and its lock: the pool reopens untouched at version 1."""
        path = str(tmp_path / "m.pool")
        pool = create_pool(path, "hashmap-map", 32 * MIB, log_capacity=16 * 1024)
        k = make_kernel(pool, "hashmap")
        k.create()
        for key in range(1, 2500):  # no growth past 640 buckets; the FREE record overflows
            with pool.tx_begin() as tx:
                k.insert(tx, key, key)
        pool.close()
        policy = RetentionPolicy(
            MANUAL, "hashmap-map", layout_version=2,
            migration=make_manual_migrator("hashmap", "change"))
        with pytest.raises(OutOfSpace) as failure:  # its traceback keeps the frames alive
            open_with_policy(path, policy)
        with open_pool(path, "hashmap-map") as pool:  # PoolLocked if the handle leaked
            assert pool.layout_version == 1
            k = make_kernel(pool, "hashmap")
            k.attach()
            k.validate()
            assert k.count() == 2499
        assert "undo log full" in str(failure.value)

    def test_policy_without_pass_rejected(self):
        with pytest.raises(MigrationMissing):
            RetentionPolicy(MANUAL, "x", layout_version=2)

    def test_stats_measure_node_bytes(self, tmp_path):
        path = str(tmp_path / "m.pool")
        build_v1(path, kind="rbtree").close()
        policy = RetentionPolicy(
            MANUAL, "rbtree-map", layout_version=2,
            migration=make_manual_migrator("rbtree", "change"))
        pool = open_with_policy(path, policy)
        ms = pool.last_migration
        assert ms.nodes_migrated == 100
        assert ms.bytes_per_node == 76
        assert ms.bytes_user >= ms.bytes_node_records
        assert ms.objects_freed >= 100
        pool.close()


class TestAutomatic:
    def test_open_bumps_version_no_migration(self, tmp_path):
        path = str(tmp_path / "a.pool")
        build_v1(path, kind="hashmap", mode="auto").close()
        fp = manifest_fingerprint(make_auto_schema("hashmap", "change"))
        pool = open_with_policy(path, RetentionPolicy(
            AUTOMATIC, "hashmap-map", layout_version=2, schema_fingerprint=fp))
        assert pool.layout_version == 2
        assert pool.stats.allocations == 0  # nothing materialized yet
        k = make_kernel(pool, "hashmap", mode="auto", version=2, change="change")
        k.attach()
        assert k.lookup(5) == 5
        assert pool.stats.allocations == 1
        pool.close()

    def test_base_field_change_rejected(self, tmp_path):
        from ledstore import leds

        path = str(tmp_path / "a.pool")
        build_v1(path, kind="hashmap", mode="auto").close()
        # a manifest whose base lost a field: not expressible as extensions
        mutated = leds.define_type("hashmap_node", [("key", "u32"), ("next", "oid")])
        fp = manifest_fingerprint([mutated])
        with pytest.raises(FingerprintMismatch):
            open_with_policy(path, RetentionPolicy(
                AUTOMATIC, "hashmap-map", layout_version=2, schema_fingerprint=fp))

    def test_pool_without_fingerprint_rejected(self, tmp_path):
        path = str(tmp_path / "a.pool")
        build_v1(path, kind="hashmap", mode="manual").close()  # no fingerprint
        fp = manifest_fingerprint(make_auto_schema("hashmap", "change"))
        with pytest.raises(FingerprintMismatch):
            open_with_policy(path, RetentionPolicy(
                AUTOMATIC, "hashmap-map", layout_version=2, schema_fingerprint=fp))

    def test_policy_without_fingerprint_rejected(self):
        with pytest.raises(FingerprintMismatch):
            RetentionPolicy(AUTOMATIC, "x", layout_version=2)


class TestMigrationCrashSafety:
    def test_crash_mid_pass_recovers_old_state(self, tmp_path):
        from ledstore import CrashPlan, SimulatedCrash, recover

        path = str(tmp_path / "c.pool")
        build_v1(path, kind="hashmap", keys=range(1, 51)).close()

        from ledstore import open_pool
        pool = open_pool(path, "hashmap-map")
        pool.arm_crash(CrashPlan(trigger=100))  # lands mid-transform
        with pytest.raises(SimulatedCrash):
            run_migration(pool, make_manual_migrator("hashmap", "change"))

        pool = recover(path)
        assert pool.layout_version == 1  # rolled back to the old state
        k = make_kernel(pool, "hashmap", version=1)
        k.attach()
        k.validate()
        assert dict(k.scan()) == {key: key for key in range(1, 51)}
        # restart is a plain full pass
        ms = run_migration(pool, make_manual_migrator("hashmap", "change"))
        assert ms.nodes_migrated == 50
        pool.close()
