"""Acceptance gate: the seven deliverable criteria, each with its stated
tolerance and wall-clock budget. One summary line per criterion (and per
kernel where a criterion quantifies over kernels) is printed at the end of
the pytest run.
"""

import hashlib
import random
import struct
import time

import pytest
from conftest import recorded_commits

from ledstore import CrashPlan, SimulatedCrash, create_pool, open_pool, recover
from ledstore.bench import (
    WorkloadConfig,
    breakdown_report,
    run_experiment,
    sweep_working_set,
)
from ledstore.kernels import KINDS, make_kernel, make_manual_migrator
from ledstore.retention import run_migration

MIB = 1024 * 1024
N_FULL = 100_000

MANUAL_BYTES_PER_NODE = {
    "hashmap": 40, "skiplist": 88, "ctree": 52, "rbtree": 76, "btree": 324,
}
AUTO_BYTES_PER_NODE = 40
MANUAL_TOTAL_MIB = {"skiplist": 8.4, "rbtree": 7.2, "hashmap": 3.8}
AUTO_TOTAL_MIB = 3.8
PER_KEY_NODE_KINDS = ("skiplist", "rbtree", "hashmap")


def full_cfg(tmp_path, **kw):
    base = dict(kernel="hashmap", pattern="del", n=N_FULL, seed=20_26,
                layout="change", model="auto", trials=1,
                pool_dir=str(tmp_path / "scratch"))
    base.update(kw)
    return WorkloadConfig(**base)


@pytest.mark.parametrize("kind", KINDS)
def test_criterion_1_write_amplification(kind, tmp_path, acceptance_log):
    """Per-record migration bytes are byte-exact; totals within 2%."""
    t0 = time.perf_counter()
    rep = run_experiment(full_cfg(tmp_path, kernel=kind))
    elapsed = time.perf_counter() - t0

    assert rep.valid, "trial determinism or content check failed"
    manual = rep.counters["manual"]
    per_node = manual["bytes_node_records"] / manual["nodes_migrated"]
    assert per_node == MANUAL_BYTES_PER_NODE[kind], \
        f"{kind} manual per-node bytes {per_node}"
    assert rep.migrations > 0
    assert rep.migration_bytes_per_node == AUTO_BYTES_PER_NODE, \
        f"{kind} auto per-migration bytes {rep.migration_bytes_per_node}"

    detail = f"manual {per_node:.0f} B/node, auto {rep.migration_bytes_per_node:.0f} B/node"
    if kind in PER_KEY_NODE_KINDS:
        manual_mib = manual["bytes_node_records"] / MIB
        auto_mib = rep.migration_bytes / MIB
        assert abs(manual_mib - MANUAL_TOTAL_MIB[kind]) / MANUAL_TOTAL_MIB[kind] <= 0.02
        assert abs(auto_mib - AUTO_TOTAL_MIB) / AUTO_TOTAL_MIB <= 0.02
        detail += f", totals {manual_mib:.2f}/{auto_mib:.2f} MiB"
    assert elapsed < 120, f"{kind} took {elapsed:.0f}s, budget 120s"
    acceptance_log(
        f"criterion 1 [{kind}]: PASS ({detail}, {elapsed:.0f}s)")


def test_criterion_2_laziness_counting(tmp_path, acceptance_log):
    """Automatic migrations track the working set exactly; manual does not."""
    t0 = time.perf_counter()
    cfg = full_cfg(tmp_path)
    reports = sweep_working_set(cfg, ratios=(0.001, 0.01, 0.1, 1.0))
    elapsed = time.perf_counter() - t0

    auto_counts = [r.migrations for r in reports]
    assert auto_counts == [100, 1000, 10000, 100000], auto_counts
    manual_counts = [r.counters["manual"]["nodes_migrated"] for r in reports]
    assert manual_counts == [N_FULL] * 4, manual_counts
    assert all(r.valid for r in reports)
    assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
    acceptance_log(
        f"criterion 2: PASS (auto migrations {auto_counts}, manual always "
        f"{N_FULL}, {elapsed:.0f}s)")


def test_criterion_3_model_equivalence(tmp_path, acceptance_log):
    """Manual-migrated and lazily-upgraded content both equal the shadow
    replay, widened keys included, for every kernel and pattern."""
    t0 = time.perf_counter()
    for kind in KINDS:
        for pattern in ("del", "ins", "rand"):
            rep = run_experiment(full_cfg(
                tmp_path, kernel=kind, pattern=pattern, n=1000,
                pool_dir=str(tmp_path / f"eq-{kind}-{pattern}")))
            assert rep.valid, f"{kind}/{pattern} diverged from the shadow model"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.0f}s, budget 60s"
    acceptance_log(
        f"criterion 3: PASS (5 kernels x 3 patterns x 2 models == shadow, "
        f"{elapsed:.0f}s)")


def _crash_state(pool):
    """Digest of the live heap image: frontier-bounded bytes, root, liveness."""
    frontier = pool._frontier
    image = hashlib.sha256(pool.buf[pool.blocks_offset:frontier]).hexdigest()
    return (image, frontier, pool.live_bytes, bytes(pool.buf[96:120]))


def _crash_script(path, crash_at):
    """22-transaction run over a hashmap, migration pass included.

    `path` must be a copy of one base pool file: stored ObjectIds embed the
    pool identity token, so state digests only compare across runs that
    share it.
    """
    pool = open_pool(path, "hashmap-map")
    pool.arm_crash(CrashPlan(trigger=crash_at if crash_at else 10**9))
    kernel = make_kernel(pool, "hashmap", mode="manual", version=1)
    with recorded_commits(pool, _crash_state) as (boundaries, ordinals):
        try:
            kernel.create()                                   # tx 1
            for key in range(1, 13):                          # txs 2-13
                with pool.tx_begin() as tx:
                    kernel.insert(tx, key, key * 7)
            for key in (2, 5, 11):                            # txs 14-16
                with pool.tx_begin() as tx:
                    kernel.remove(tx, key)
            run_migration(pool, make_manual_migrator("hashmap", "change"))  # tx 17
            k2 = make_kernel(pool, "hashmap", mode="manual", version=2, change="change")
            k2.attach()
            for key in (100, 101, 102):                       # txs 18-20
                with pool.tx_begin() as tx:
                    k2.insert(tx, key, key)
            for key in (1, 100):                              # txs 21-22
                with pool.tx_begin() as tx:
                    k2.remove(tx, key)
        except SimulatedCrash:
            return boundaries, ordinals, pool._write_ordinal, True
    total = pool._write_ordinal
    pool.close()
    return boundaries, ordinals, total, False


def test_criterion_4_crash_atomicity_sweep(tmp_path, acceptance_log):
    """Every crash ordinal recovers to a transaction boundary, no leaks."""
    import shutil

    t0 = time.perf_counter()
    base = str(tmp_path / "base.pool")
    create_pool(base, "hashmap-map", 4 * MIB, log_capacity=512 * 1024).close()

    dry = str(tmp_path / "dry.pool")
    shutil.copyfile(base, dry)
    boundaries, ordinals, total_writes, crashed = _crash_script(dry, None)
    assert not crashed
    assert len(ordinals) >= 20, f"script ran only {len(ordinals)} transactions"

    for k in range(1, total_writes + 1):
        path = str(tmp_path / f"k{k}.pool")
        shutil.copyfile(base, path)
        _, _, _, crashed = _crash_script(path, k)
        assert crashed, f"ordinal {k} of {total_writes} did not crash"
        with recover(path) as pool:
            expected = sum(1 for c in ordinals if c < k)
            assert _crash_state(pool) == boundaries[expected], \
                f"crash at write {k}: state is not boundary {expected}"
            status, used = pool.log_state
            assert status == 0 and used == 0
        import os
        os.unlink(path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.0f}s, budget 300s"
    acceptance_log(
        f"criterion 4: PASS ({len(ordinals)} transactions, all "
        f"{total_writes} crash ordinals recover to a boundary, {elapsed:.0f}s)")


def test_criterion_5_layout_add_near_zero_cost(tmp_path, acceptance_log):
    """A field nobody reads costs the automatic model nothing upfront."""
    t0 = time.perf_counter()
    rep = run_experiment(full_cfg(tmp_path, layout="add"))
    elapsed = time.perf_counter() - t0

    assert rep.valid
    assert rep.migrations == 0, "untouched field must not materialize"
    assert rep.migration_bytes == 0
    manual = rep.counters["manual"]
    assert manual["nodes_migrated"] == N_FULL
    assert manual["bytes_node_records"] == N_FULL * 52  # full v2-add records
    # wall-clock overheads are hardware-dependent: reported, not asserted
    acceptance_log(
        f"criterion 5: PASS (auto: 0 extensions, 0 extra bytes; manual: "
        f"{manual['nodes_migrated']} records, {manual['bytes_node_records'] / MIB:.2f} MiB; "
        f"overheads manual {rep.overhead_manual_pct:.2f}% / "
        f"auto {rep.overhead_auto_pct:.2f}%, {elapsed:.0f}s)")


def test_criterion_6_breakdown_sanity(tmp_path, acceptance_log):
    """Allocation+init dominates the lazy-upgrade overhead; translation is
    a nonzero component and the cache strictly reduces its miss count."""
    t0 = time.perf_counter()
    cfg = full_cfg(tmp_path, n=50_000, trials=3)
    rep = breakdown_report(cfg)
    elapsed = time.perf_counter() - t0

    bd = rep.breakdown
    assert bd["alloc"] == max(bd.values()), f"allocation not dominant: {bd}"
    assert bd["translate"] > 0, f"translation fraction zero: {bd}"
    bc = rep.counters["breakdown"]
    assert bc["translations_cached"] < bc["translations_base"]
    assert abs(sum(bd.values()) - 1.0) < 1e-9
    assert elapsed < 120, f"took {elapsed:.0f}s, budget 120s"
    acceptance_log(
        f"criterion 6: PASS (alloc {bd['alloc']:.2f}, translate "
        f"{bd['translate']:.2f}, misses {bc['translations_base']} -> "
        f"{bc['translations_cached']}, {elapsed:.0f}s)")


@pytest.mark.parametrize("kind", KINDS)
def test_criterion_7_structure_fuzzing(kind, tmp_path, acceptance_log):
    """10,000 seeded ops keep validate() green after every single op."""
    t0 = time.perf_counter()
    pool = create_pool(str(tmp_path / "fuzz.pool"), f"{kind}-map", 64 * MIB)
    kernel = make_kernel(pool, kind, rng=random.Random(0xF0))
    kernel.create()
    rng = random.Random(0xACCE97 + struct.unpack("<I", kind.encode()[:4])[0])
    shadow = {}
    for _ in range(10_000):
        key = rng.randrange(1, 500)
        with pool.tx_begin() as tx:
            if key in shadow:
                assert kernel.remove(tx, key)
                del shadow[key]
            else:
                value = rng.getrandbits(63)
                assert kernel.insert(tx, key, value)
                shadow[key] = value
        kernel.validate()
    assert dict(kernel.scan()) == shadow
    pool.close()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"{kind} took {elapsed:.0f}s, budget 120s"
    acceptance_log(
        f"criterion 7 [{kind}]: PASS (10,000 ops validated, final scan == "
        f"shadow, {elapsed:.0f}s)")
