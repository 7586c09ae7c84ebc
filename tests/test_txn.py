"""Transactions: atomicity, abort completeness, crash injection, recovery."""

import hashlib
import os
import random
import signal
import struct
import subprocess
import sys
import zlib

import pytest
from conftest import recorded_commits

import ledstore
from ledstore import (
    CrashPlan,
    DoubleFree,
    NestedTransaction,
    OutOfBounds,
    OutOfSpace,
    SimulatedCrash,
    Transaction,
    TxStateError,
    create_pool,
    open_pool,
    recover,
)

MIB = 1024 * 1024


def record_crc(record, seed):
    """crc32 of an undo record with its crc field (bytes 4-7) zeroed."""
    return zlib.crc32(bytes(record[:4]) + bytes(4) + bytes(record[8:]), seed)


def heap_digest(handle):
    """Hash of the object region plus root header fields (not the log)."""
    region = bytes(handle.buf[handle.blocks_offset : handle.capacity])
    head = bytes(handle.buf[96:120])  # root_id + root_size
    return hashlib.sha256(head + region).hexdigest()


def heap_view(handle):
    """The handle's heap view: live blocks, free lists (sorted, empty ones
    dropped, since their order is not on file) and frontier."""
    free = {size: sorted(lst) for size, lst in handle._free_lists.items() if lst}
    return dict(handle._live), free, handle._frontier


def boundary(handle):
    """What a transaction boundary pins: the heap bytes and the heap view."""
    return heap_digest(handle), heap_view(handle)


def assert_view_is_scan(handle):
    """The heap view equals the one a fresh scan of the block headers builds."""
    view = heap_view(handle)
    handle._scan_heap()
    assert heap_view(handle) == view


@pytest.fixture(autouse=True)
def view_checked_after_abort(monkeypatch):
    """After every abort in this module, the heap view matches the file."""
    real_abort = Transaction.abort

    def abort(tx):
        real_abort(tx)
        assert_view_is_scan(tx.pool)

    monkeypatch.setattr(Transaction, "abort", abort)


class TestBasics:
    def test_abort_restores_bytes(self, pool):
        oid = pool.raw_alloc(32)
        pool.store(oid, 0, b"a" * 32)
        tx = pool.tx_begin()
        tx.write(oid, 0, b"b" * 32)
        assert pool.load(oid, 0, 32) == b"b" * 32
        tx.abort()
        assert pool.load(oid, 0, 32) == b"a" * 32

    def test_abort_releases_allocation(self, pool):
        live = pool.live_bytes
        count = pool.allocated_objects
        tx = pool.tx_begin()
        tx.alloc_zeroed(48)
        tx.abort()
        assert pool.live_bytes == live
        assert pool.allocated_objects == count

    def test_commit_survives_reopen(self, pool, pool_path):
        oid = pool.raw_alloc(16)
        shadow = {}
        tx = pool.tx_begin()
        tx.write(oid, 0, struct.pack("<Q", 77))
        shadow[oid] = struct.pack("<Q", 77) + bytes(8)
        tx.commit()
        pool.close()
        with open_pool(pool_path, "test-layout") as re:
            for o, data in shadow.items():
                assert re.load(o, 0, 16) == data

    def test_nested_rejected(self, pool):
        tx = pool.tx_begin()
        with pytest.raises(NestedTransaction):
            pool.tx_begin()
        tx.abort()

    def test_ops_after_commit_rejected(self, pool):
        oid = pool.raw_alloc(16)
        tx = pool.tx_begin()
        tx.commit()
        with pytest.raises(TxStateError):
            tx.write(oid, 0, b"x")
        with pytest.raises(TxStateError):
            tx.alloc_zeroed(16)
        with pytest.raises(TxStateError):
            tx.snapshot_range(oid, 0, 4)

    def test_abort_is_byte_identical(self, pool):
        """Heap image after abort equals the image before the transaction."""
        a = pool.raw_alloc(40)
        pool.store(a, 0, bytes(range(40)))
        b = pool.raw_alloc(24)
        pool.raw_free(b)  # leave a free-list block in play
        before = heap_digest(pool)
        tx = pool.tx_begin()
        c = tx.alloc_zeroed(24)  # reuses b's block
        tx.write(c, 0, b"\xee" * 24)
        tx.write(a, 8, b"\xdd" * 16)
        d = tx.alloc_zeroed(64)  # fresh block from the frontier
        tx.write(d, 0, b"\xcc" * 64)
        tx.free(a)
        tx.abort()
        assert heap_digest(pool) == before


class TestSnapshot:
    def test_snapshot_then_overwrite_then_abort(self, pool):
        oid = pool.raw_alloc(32)
        pool.store(oid, 0, b"orig" * 8)
        tx = pool.tx_begin()
        tx.snapshot_range(oid, 0, 32)
        tx.write(oid, 0, b"temp" * 8)
        tx.abort()
        assert pool.load(oid, 0, 32) == b"orig" * 8

    def test_log_size_delta(self, pool):
        """bytes_log grows by the snapshot length plus one record header."""
        oid = pool.raw_alloc(32)
        tx = pool.tx_begin()
        before_log = pool.stats.bytes_log
        used_before = tx._log_used
        tx.snapshot_range(oid, 0, 24)
        delta = pool.stats.bytes_log - before_log
        assert delta == tx._log_used - used_before  # oracle: bytes logged
        assert delta == 24 + 24  # payload + record header
        tx.abort()


class TestTxAllocFree:
    def test_alloc_zeroed_readable(self, pool):
        tx = pool.tx_begin()
        oid = tx.alloc_zeroed(24)
        assert pool.load(oid, 0, 24) == bytes(24)
        tx.commit()

    def test_crash_before_commit_reclaims_alloc(self, pool, pool_path):
        live = pool.live_bytes
        tx = pool.tx_begin()
        tx.alloc_zeroed(128)
        pool.arm_crash(CrashPlan(trigger=1))  # next persistent store crashes
        with pytest.raises(SimulatedCrash):
            tx.write(tx.alloc_zeroed(16), 0, b"x" * 16)
        with recover(pool_path) as re:
            assert re.live_bytes == live  # oracle: allocator live-bytes

    def test_free_in_tx_abort_keeps_object(self, pool):
        oid = pool.raw_alloc(24)
        pool.store(oid, 0, b"k" * 24)
        tx = pool.tx_begin()
        tx.free(oid)
        tx.abort()
        assert pool.load(oid, 0, 24) == b"k" * 24

    def test_free_in_tx_commit_reclaims(self, pool):
        oid = pool.raw_alloc(24)
        live = pool.live_bytes
        tx = pool.tx_begin()
        tx.free(oid)
        tx.commit()
        assert pool.live_bytes == live - 32  # rounded block size

    def test_full_log_alloc_keeps_free_block(self, tmp_path):
        handle = create_pool(str(tmp_path / "full.pool"), "full-log", MIB,
                             log_capacity=1024)
        freed = handle.raw_alloc(64)
        filler = handle.raw_alloc(1024)
        handle.raw_free(freed)
        tx = handle.tx_begin()
        tx.write(filler, 0, bytes(990))  # 24 + 990 of the 1024 log bytes
        with pytest.raises(OutOfSpace):
            tx.alloc_zeroed(64)
        tx.commit()
        with handle.tx_begin() as tx:
            assert tx.alloc_zeroed(64) == freed  # oracle: the free list kept it
        handle.close()

    def test_double_free_same_tx(self, pool):
        oid = pool.raw_alloc(24)
        tx = pool.tx_begin()
        tx.free(oid)
        with pytest.raises(DoubleFree):
            tx.free(oid)
        tx.abort()


class TestCopyBytes:
    def test_root_swap_crash_keeps_old_root(self, pool, pool_path):
        """Copy into the root then crash before commit: old bytes intact."""
        root = pool.get_root(64)
        pool.store(root, 0, b"R" * 64)
        tx = pool.tx_begin()
        temp = tx.alloc_zeroed(64)
        tx.write(temp, 0, b"N" * 64)
        tx.copy_bytes(root, 0, temp, 0, 64)
        pool.arm_crash(CrashPlan(trigger=1))
        with pytest.raises(SimulatedCrash):
            tx.write(temp, 0, b"!")
        with recover(pool_path) as re:
            assert re.load(re.root_id, 0, 64) == b"R" * 64  # oracle: shadow heap

    def test_zero_length_noop(self, pool):
        a = pool.raw_alloc(16)
        b = pool.raw_alloc(16)
        tx = pool.tx_begin()
        before = pool.stats.snapshot()
        tx.copy_bytes(a, 0, b, 0, 0)
        assert pool.stats.delta(before) == {k: 0 for k in before}
        tx.commit()

    def test_overlapping_self_copy(self, pool):
        oid = pool.raw_alloc(32)
        pool.store(oid, 0, bytes(range(32)))
        tx = pool.tx_begin()
        tx.copy_bytes(oid, 8, oid, 0, 24)
        tx.commit()
        assert pool.load(oid, 8, 24) == bytes(range(24))

    def test_copy_counts_user_bytes(self, pool):
        a = pool.raw_alloc(64)
        b = pool.raw_alloc(64)
        tx = pool.tx_begin()
        before = pool.stats.bytes_user
        tx.copy_bytes(a, 0, b, 0, 64)
        assert pool.stats.bytes_user == before + 64
        tx.commit()


class TestCrashRecovery:
    def test_trigger_beyond_run_completes(self, pool):
        pool.arm_crash(CrashPlan(trigger=10**9))
        oid = pool.raw_alloc(16)
        with pool.tx_begin() as tx:
            tx.write(oid, 0, b"fine")
        assert pool.load(oid, 0, 4) == b"fine"

    def test_recover_clean_pool_is_plain_open(self, pool, pool_path):
        oid = pool.raw_alloc(16)
        pool.store(oid, 0, b"data" * 4)
        root = pool.get_root(32)
        pool.close()
        with recover(pool_path) as re:
            assert re.root_id == root
            assert re.load(oid, 0, 16) == b"data" * 4

    def test_sigkill_mid_transaction_recovers(self, tmp_path):
        """A real process death: no simulated crash, no clean-up on the way out."""
        path = str(tmp_path / "killed.pool")
        child = (
            "import os, signal, sys\n"
            "from ledstore import create_pool\n"
            "pool = create_pool(sys.argv[1], 'kill-test', 1 << 20)\n"
            "with pool.tx_begin() as tx:\n"
            "    tx.write(pool.get_root(32), 0, b'committed' * 2)\n"
            "tx = pool.tx_begin()\n"
            "tx.write(pool.root_id, 8, b'uncommitted' * 2)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = os.path.dirname(os.path.dirname(ledstore.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", child, path], env=env,
                             capture_output=True, timeout=60)
        assert run.returncode == -signal.SIGKILL, run.stderr.decode()
        with recover(path) as re:
            assert re.load(re.root_id, 0, 32) == b"committed" * 2 + bytes(14)
            assert re.log_state == (0, 0)

    def test_corrupt_record_kind_refused_before_undo(self, pool, pool_path):
        a, b = pool.raw_alloc(16), pool.raw_alloc(16)
        tx = pool.tx_begin()
        tx.write(a, 0, b"A" * 16)
        tx.write(b, 0, b"B" * 16)
        pool.arm_crash(CrashPlan(trigger=1))
        with pytest.raises(SimulatedCrash):
            tx.write(a, 0, b"C" * 16)
        with open(pool_path, "r+b") as f:
            f.seek(pool.heap_offset)  # kind of the first undo record
            f.write(struct.pack("<I", 9))
        with pytest.raises(OutOfBounds):
            recover(pool_path)
        with open(pool_path, "rb") as f:
            f.seek(b.offset)
            assert f.read(16) == b"B" * 16  # the second record was not undone
        with pytest.raises(OutOfBounds):  # the refusal left no lock behind
            recover(pool_path)

    def test_record_target_past_file_end_refused(self, pool, pool_path):
        a = pool.raw_alloc(16)
        tx = pool.tx_begin()
        pool.arm_crash(CrashPlan(trigger=2))  # the record, then the store
        with pytest.raises(SimulatedCrash):
            tx.write(a, 0, b"A" * 16)
        capacity = pool.capacity
        with open(pool_path, "r+b") as f:
            f.seek(pool.heap_offset)
            record = bytearray(f.read(24 + 16))
            record[16:24] = struct.pack("<Q", capacity - 4)  # target of the SNAP
            struct.pack_into("<I", record, 4, record_crc(record, tx._tag))
            f.seek(pool.heap_offset)  # a consistent record: the bound refuses it
            f.write(record)
            f.seek(0)
            before = f.read()
        for _ in range(2):  # the refusal left no lock and applied nothing
            with pytest.raises(OutOfBounds):
                recover(pool_path)
            with open(pool_path, "rb") as f:
                assert f.read() == before

    def _scripted_run(self, path, crash_at=None):
        """Three-transaction script; returns boundary digests and commit ordinals."""
        handle = create_pool(path, "crash-test", MIB, log_capacity=256 * 1024)
        # arming resets the write ordinal, so arm in every run to keep the
        # dry run's commit ordinals aligned with the crash runs'
        handle.arm_crash(CrashPlan(trigger=crash_at if crash_at else 10**9))
        oids = []
        with recorded_commits(handle, boundary) as (boundaries, ordinals):
            try:
                with handle.tx_begin() as tx:
                    tx.free(tx.alloc_zeroed(48))  # released at once, then reused
                    for i in range(4):
                        oid = tx.alloc_zeroed(48)
                        tx.write(oid, 0, bytes([i + 1]) * 48)
                        oids.append(oid)
                with handle.tx_begin() as tx:
                    tx.write(oids[0], 0, b"\xaa" * 48)
                    tx.free(oids[1])
                with handle.tx_begin() as tx:
                    oid = tx.alloc_zeroed(48)  # reuse of the freed block
                    tx.write(oid, 0, b"\xbb" * 48)
                    tx.free(oids[2])
                    tx.write(oids[3], 8, b"\xcc" * 8)
            except SimulatedCrash:
                return boundaries, ordinals, handle._write_ordinal, True
        total = handle._write_ordinal
        handle.close()
        return boundaries, ordinals, total, False

    def test_every_crash_ordinal_lands_on_a_boundary(self, tmp_path):
        """Exhaustive sweep: recovery always matches the shadow boundary state."""
        dry = str(tmp_path / "dry.pool")
        boundaries, commit_ordinals, total_writes, crashed = self._scripted_run(dry)
        assert not crashed and len(boundaries) == 4

        for k in range(1, total_writes + 1):
            path = str(tmp_path / f"crash{k}.pool")
            _, _, _, crashed = self._scripted_run(path, crash_at=k)
            assert crashed, f"write {k} of {total_writes} should crash"
            with recover(path) as re:
                expected = sum(1 for c in commit_ordinals if c < k)
                assert boundary(re) == boundaries[expected], f"crash at {k}"
                assert_view_is_scan(re)
                status, used = re.log_state
                assert status == 0 and used == 0

    def test_randomized_scripts_recover_consistently(self, tmp_path):
        """Seeded random scripts: recovery state is always some boundary."""
        rng = random.Random(1234)
        for script_id in range(4):
            base = str(tmp_path / f"s{script_id}.pool")
            handle = create_pool(base, "fuzz", MIB, log_capacity=256 * 1024)
            handle.arm_crash(CrashPlan(trigger=10**9))
            live_objects = []
            ops = []
            for _ in range(8):
                n_ops = rng.randint(1, 5)
                ops.append([
                    (rng.choice(["alloc", "write", "free"]), rng.random())
                    for _ in range(n_ops)
                ])

            def run_script(h, objs):
                for tx_ops in ops:
                    with h.tx_begin() as tx:
                        for op, r in tx_ops:
                            if op == "alloc" or not objs:
                                size = 16 + int(r * 4) * 16
                                oid = tx.alloc_zeroed(size)
                                tx.write(oid, 0, bytes([int(r * 255)]) * 8)
                                objs.append(oid)
                            elif op == "write":
                                oid = objs[int(r * len(objs)) % len(objs)]
                                tx.write(oid, 0, bytes([int(r * 200)]) * 8)
                            else:
                                oid = objs.pop(int(r * len(objs)) % len(objs))
                                tx.free(oid)

            with recorded_commits(handle, boundary) as (boundaries, ordinals):
                run_script(handle, live_objects)
            total = handle._write_ordinal
            handle.close()

            for k in range(1, total + 1, 7):  # stride keeps the suite quick
                path = str(tmp_path / f"s{script_id}k{k}.pool")
                h = create_pool(path, "fuzz", MIB, log_capacity=256 * 1024)
                h.arm_crash(CrashPlan(trigger=k))
                try:
                    run_script(h, [])
                    h.close()
                except SimulatedCrash:
                    pass
                with recover(path) as re:
                    expected = sum(1 for c in ordinals if c < k)
                    assert boundary(re) == boundaries[expected]
                    assert_view_is_scan(re)


class TestSelfValidatingLog:
    """Records carry a tag and a crc chain; the state word moves at commit only."""

    @pytest.mark.parametrize("where", [24 + 5, 12], ids=["body", "tag"])
    def test_flipped_byte_refused_before_undo(self, pool, pool_path, where):
        """A flipped bit in the middle record of three, in its body or in its
        tag (which would otherwise end the scan there), is refused."""
        a, b, c = (pool.raw_alloc(16) for _ in range(3))
        tx = pool.tx_begin()
        for oid, fill in ((a, b"A"), (b, b"B"), (c, b"C")):
            tx.write(oid, 0, fill * 16)  # one 40-byte SNAP record each
        pool.arm_crash(CrashPlan(trigger=1))
        with pytest.raises(SimulatedCrash):
            tx.write(a, 0, b"D" * 16)
        with open(pool_path, "r+b") as f:
            f.seek(pool.heap_offset + 40 + where)
            flipped = f.read(1)[0] ^ 0x01
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([flipped]))
            f.seek(0)
            before = f.read()
        for _ in range(2):  # the refusal applied nothing and left no lock
            with pytest.raises(OutOfBounds):
                recover(pool_path)
            with open(pool_path, "rb") as f:
                assert f.read() == before

    def test_stale_records_of_a_committed_transaction_never_applied(self, pool, pool_path):
        oids = [pool.raw_alloc(16) for _ in range(6)]
        with pool.tx_begin() as tx:  # six 40-byte SNAP records
            for i, oid in enumerate(oids):
                tx.write(oid, 0, bytes([i + 1]) * 16)
        committed = [pool.load(oid, 0, 16) for oid in oids]
        tx = pool.tx_begin()
        tx.write(oids[0], 0, b"x" * 16)
        pool.arm_crash(CrashPlan(trigger=2))  # the second record, then its store
        with pytest.raises(SimulatedCrash):
            tx.write(oids[1], 0, b"y" * 16)
        with open(pool_path, "rb") as f:  # the third record is the committed one's
            f.seek(pool.heap_offset + 2 * 40)
            stale = struct.unpack("<IIIIQ", f.read(24))
        assert stale[3] == (pool.pool_uuid + tx._seq - 1) & 0xFFFFFFFF
        assert stale[4] == oids[2].offset
        with recover(pool_path) as re:
            assert [re.load(oid, 0, 16) for oid in oids] == committed

    @staticmethod
    def _three_snaps_then_crash(pool):
        """Three whole 40-byte SNAP records over prefilled blocks, then a crash
        before the fourth; returns the blocks, their contents and the tx."""
        oids = [pool.raw_alloc(16) for _ in range(4)]
        for i, oid in enumerate(oids):
            pool.store(oid, 0, bytes([0x61 + i]) * 16)
        prior = [pool.load(oid, 0, 16) for oid in oids]
        tx = pool.tx_begin()
        for oid in oids[:3]:
            tx.write(oid, 0, b"w" * 16)
        pool.arm_crash(CrashPlan(trigger=1))  # the fourth record
        with pytest.raises(SimulatedCrash):
            tx.write(oids[3], 0, b"w" * 16)
        return oids, prior, tx

    def test_torn_last_record_ends_the_log(self, pool, pool_path):
        """A process killed while copying a record can leave its header with
        only half of its body; that record ends the log and the whole ones
        before it roll back."""
        oids, prior, tx = self._three_snaps_then_crash(pool)
        with open(pool_path, "r+b") as f:
            f.seek(pool.heap_offset + 2 * 40 + 4)
            seed = struct.unpack("<I", f.read(4))[0]  # the third record's crc
            record = bytearray(struct.pack("<IIIIQ", 1, 0, 16, tx._tag, oids[3].offset)
                               + prior[3])
            struct.pack_into("<I", record, 4, record_crc(record, seed))
            f.seek(pool.heap_offset + 3 * 40)
            f.write(record[: 24 + 8])  # the header and half of the body
        with recover(pool_path) as re:
            assert [re.load(oid, 0, 16) for oid in oids] == prior
            assert re.log_state == (0, 0)

    @pytest.mark.parametrize("where", [4, 8], ids=["crc", "len"])
    def test_corrupt_crc_or_len_of_a_middle_record_refused(self, pool, pool_path, where):
        """A record that fails its crc is refused, not taken for a torn last
        one, when a later record chains from it: from the crc it carries
        (a corrupt len puts its end in the wrong place) or from the crc it
        should carry (its crc field is the corrupt one)."""
        self._three_snaps_then_crash(pool)
        with open(pool_path, "r+b") as f:
            f.seek(pool.heap_offset + 40 + where)
            flipped = f.read(1)[0] ^ 0x01
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([flipped]))
            f.seek(0)
            before = f.read()
        with pytest.raises(OutOfBounds):
            recover(pool_path)
        with open(pool_path, "rb") as f:
            assert f.read() == before

    def test_transaction_whose_tag_would_be_zero_is_skipped(self, pool, pool_path):
        """Zeroed log bytes carry tag 0, so no transaction may: a pool whose
        first transaction would have it opens, aborts and recovers."""
        pool.close()
        with open(pool_path, "r+b") as f:
            f.seek(88)
            uuid = struct.unpack("<Q", f.read(8))[0] | 0xFFFFFFFF  # tag(1) == 0
            f.seek(88)
            f.write(struct.pack("<Q", uuid))
        handle = open_pool(pool_path, "test-layout")
        oid = handle.raw_alloc(16)
        handle.store(oid, 0, b"o" * 16)
        tx = handle.tx_begin()
        assert tx._tag != 0 and tx._seq == 2
        tx.write(oid, 0, b"x" * 16)
        tx.abort()
        assert handle.load(oid, 0, 16) == b"o" * 16
        handle.close()
        with recover(pool_path) as re:
            assert re.load(oid, 0, 16) == b"o" * 16

    @staticmethod
    def _two_frees(path, crash_at=None):
        """One transaction that writes a block and frees two others."""
        handle = create_pool(path, "free-test", MIB)
        a, b, keep = (handle.raw_alloc(32) for _ in range(3))
        for oid in (a, b, keep):
            handle.store(oid, 0, b"\x5a" * 32)
        handle.arm_crash(CrashPlan(trigger=crash_at or 10**9))
        with recorded_commits(handle, boundary) as (boundaries, ordinals):
            try:
                with handle.tx_begin() as tx:
                    tx.write(keep, 0, b"k" * 8)
                    tx.free(a)
                    tx.free(b)
            except SimulatedCrash:
                return boundaries, ordinals, None, (a, b)
        total = handle._write_ordinal
        handle.close()
        return boundaries, ordinals, total, (a, b)

    def test_crash_between_commit_point_and_truncation_finishes_frees(self, tmp_path):
        boundaries, ordinals, total, _ = self._two_frees(str(tmp_path / "dry.pool"))
        (commit_point,) = ordinals
        assert total - commit_point == 3  # one store per free, then truncation
        for k in range(commit_point + 1, total + 1):
            path = str(tmp_path / f"k{k}.pool")
            _, _, finished, (a, b) = self._two_frees(path, crash_at=k)
            assert finished is None, f"store {k} should crash"
            with recover(path) as re:
                assert boundary(re) == boundaries[1], f"crash at {k}"
                assert_view_is_scan(re)
                assert re.log_state == (0, 0)
                for oid in (a, b):
                    header = struct.unpack_from("<QQ", re.buf, oid.offset - 16)
                    assert header == (32, 0xF4EEB10C)  # free
                    assert re.buf[oid.offset : oid.offset + 32] == bytes(32)

    def test_commit_without_frees_stores_the_state_word_once(self, pool):
        oid = pool.raw_alloc(16)

        def state_word():
            return struct.unpack_from("<Q", pool.buf, 144)[0]

        before = state_word()
        tx = pool.tx_begin()
        tx.write(oid, 0, b"w" * 16)
        tx.alloc_zeroed(32)
        assert state_word() == before  # nothing stored at begin or append
        stores = pool.stats.flush_events
        tx.commit()
        assert pool.stats.flush_events - stores == 1
        assert state_word() == tx._seq == before + 1  # idle | this transaction

    @staticmethod
    def _mark_next_block_free(pool) -> dict:
        """Give the block at the frontier a status word that only a free-list
        block may have; returns the stats before the allocation."""
        frontier = pool._frontier  # the next block's header, all zeros
        pool.buf[frontier + 8 : frontier + 16] = struct.pack("<Q", 0xF4EEB10C)
        return pool.stats.snapshot()

    def test_alloc_refuses_a_block_header_it_does_not_expect(self, pool):
        before = self._mark_next_block_free(pool)
        with pool.tx_begin() as tx:
            with pytest.raises(OutOfBounds):
                tx.alloc_zeroed(32)
        assert pool.stats.delta(before) == {k: 0 for k in before}  # nothing stored

    def test_raw_alloc_refuses_a_block_header_it_does_not_expect(self, pool):
        before = self._mark_next_block_free(pool)
        with pytest.raises(OutOfBounds):
            pool.raw_alloc(32)
        assert pool.stats.delta(before) == {k: 0 for k in before}  # nothing stored
        assert pool.allocated_objects == 0


class TestOneRecordPerEffect:
    """A transaction logs one ALLOC for its frontier blocks and one FREE for
    its deferred frees; a block it allocates and frees is logged once."""

    @staticmethod
    def _log_records(handle, tag):
        """(kind, len, target, body) of each record with `tag` from the log start."""
        records, off = [], handle.heap_offset
        while True:
            kind, _, length, rec_tag, target = struct.unpack_from("<IIIIQ", handle.buf, off)
            if rec_tag != tag:
                return records
            size = 0 if kind in (2, 4) else length
            records.append((kind, length, target, bytes(handle.buf[off + 24 : off + 24 + size])))
            off += 24 + size

    @pytest.mark.parametrize("k", [1, 3])
    def test_k_frees_log_one_free_record(self, pool, k):
        oids = [pool.raw_alloc(32) for _ in range(k)]
        tx = pool.tx_begin()
        for oid in oids:
            tx.free(oid)
        assert tx._log_used == 0  # a free logs nothing until commit
        logged = pool.stats.bytes_log
        tx.commit()
        assert pool.stats.bytes_log - logged == 24 + 8 * (k - 1)
        body = b"".join(struct.pack("<Q", oid.offset) for oid in oids[1:])
        assert self._log_records(pool, tx._tag) == [(3, 8 * (k - 1), oids[0].offset, body)]
        assert pool.allocated_objects == 0

    def test_alloc_then_free_logs_no_free_and_aborts_byte_identical(self, pool):
        keep = pool.raw_alloc(32)
        pool.store(keep, 0, b"k" * 32)
        pool.raw_free(pool.raw_alloc(48))  # a free-list block in play
        before = heap_digest(pool)
        tx = pool.tx_begin()
        reused, fresh = tx.alloc_zeroed(48), tx.alloc_zeroed(64)
        tx.write(reused, 0, b"r" * 48)
        tx.write(fresh, 0, b"f" * 64)
        tx.write(keep, 0, b"w" * 32)
        used = tx._log_used
        tx.free(reused)
        tx.free(fresh)
        assert tx._log_used == used and not tx._freed  # released at once, unlogged
        assert tx.alloc_zeroed(64) == fresh  # its block is free again, in place
        tx.abort()
        assert heap_digest(pool) == before

    def test_alloc_then_free_commits_without_a_commit_record(self, pool):
        tx = pool.tx_begin()
        tx.free(tx.alloc_zeroed(32))
        stores = pool.stats.flush_events
        tx.commit()
        assert pool.stats.flush_events - stores == 1  # IDLE only: nothing deferred
        assert pool.allocated_objects == 0
        assert_view_is_scan(pool)

    def test_frontier_allocations_log_one_record_and_roll_back_in_one_store(self, pool):
        pool.raw_alloc(16)
        before = heap_digest(pool)
        tx = pool.tx_begin()
        oids = [tx.alloc_zeroed(16 * (i + 1)) for i in range(5)]
        for oid in oids:
            tx.write(oid, 0, b"z" * 16)
        assert self._log_records(pool, tx._tag) == [(2, 16, oids[0].offset, b"")]
        stores = pool.stats.flush_events
        tx.abort()
        assert pool.stats.flush_events - stores == 2  # the run, then truncation
        assert heap_digest(pool) == before

    def test_rollback_cut_short_runs_again_to_the_same_bytes(self, tmp_path):
        """A block past the run's first, freed and taken again off the free
        list: at every crash ordinal of the abort, recovery runs the rollback
        again and lands on the pre-transaction heap, and the frontier hands
        out the same blocks zeroed."""
        for k in range(1, 10):
            path = str(tmp_path / f"rerun-{k}.pool")
            handle = create_pool(path, "rerun", MIB)
            handle.raw_alloc(16)
            before = heap_digest(handle)
            tx = handle.tx_begin()
            first, later = tx.alloc_zeroed(32), tx.alloc_zeroed(48)
            tx.write(later, 0, b"x" * 48)
            tx.free(later)
            assert tx.alloc_zeroed(48) == later  # a REUSE record past the ALLOC's
            tx.write(later, 0, b"y" * 48)
            handle.arm_crash(CrashPlan(trigger=k))
            try:
                tx.abort()
            except SimulatedCrash:
                crashed = True
            else:
                crashed = False
                handle.close()
            with recover(path) as re:
                assert heap_digest(re) == before
                assert (re.raw_alloc(32), re.raw_alloc(48)) == (first, later)
                assert re.load(first, 0, 32) == bytes(32)
                assert re.load(later, 0, 48) == bytes(48)
            if not crashed:
                return
        pytest.fail("the abort crashed at every ordinal tried")

    @staticmethod
    def _crash_after_commit_point(path):
        """Three blocks freed in one transaction, crashed at the first free's
        store after the commit point; returns the blocks and the tag."""
        handle = create_pool(path, "free-test", MIB)
        oids = [handle.raw_alloc(32) for _ in range(3)]
        for oid in oids:
            handle.store(oid, 0, b"\x5a" * 32)
        tx = handle.tx_begin()
        for oid in oids:
            tx.free(oid)
        handle.arm_crash(CrashPlan(trigger=3))  # FREE record, COMMITTING, first free
        with pytest.raises(SimulatedCrash):
            tx.commit()
        with open(path, "rb") as f:
            f.seek(144)  # the log-state word: committing, one 40-byte record
            assert struct.unpack("<Q", f.read(8))[0] == (2 << 56) | (24 + 16)
        return oids, tx._tag, handle.heap_offset

    def test_crash_after_commit_point_redoes_every_listed_free(self, tmp_path):
        path = str(tmp_path / "redo.pool")
        oids, _, _ = self._crash_after_commit_point(path)
        with recover(path) as re:
            assert re.log_state == (0, 0)
            assert re.allocated_objects == 0
            for oid in oids:
                assert struct.unpack_from("<QQ", re.buf, oid.offset - 16) == (32, 0xF4EEB10C)
                assert re.buf[oid.offset : oid.offset + 32] == bytes(32)

    @pytest.mark.parametrize("where", [0, 1], ids=["header-page", "past-end"])
    def test_listed_target_outside_block_region_refused(self, tmp_path, where):
        path = str(tmp_path / "bad.pool")
        _, tag, log = self._crash_after_commit_point(path)
        with open(path, "r+b") as f:
            f.seek(log)
            record = bytearray(f.read(24 + 16))
            bad = 64 if where == 0 else os.path.getsize(path)
            record[32:40] = struct.pack("<Q", bad)  # the last listed payload
            struct.pack_into("<I", record, 4, record_crc(record, tag))
            f.seek(log)
            f.write(record)
            f.seek(0)
            before = f.read()
        for _ in range(2):  # the refusal applied nothing and left no lock
            with pytest.raises(OutOfBounds):
                recover(path)
            with open(path, "rb") as f:
                assert f.read() == before

    @pytest.mark.parametrize("where", ["live", "free"], ids=["in-live-block", "in-free-payload"])
    def test_listed_target_that_is_not_a_payload_start_refused(self, tmp_path, where):
        """A crc-valid FREE record whose last listed offset lies 16 bytes into
        a live block (whose data reads as a 1 MiB block header) or into a
        free block's zeroed payload: recovery refuses it with OutOfBounds
        before its first redo store, and the file stays as it was."""
        path = str(tmp_path / "probe.pool")
        handle = create_pool(path, "free-test", MIB)
        live, spare = handle.raw_alloc(48), handle.raw_alloc(64)
        handle.store(live, 0, struct.pack("<QQ", MIB, 0xA110CA7E))
        handle.raw_free(spare)
        gone = [handle.raw_alloc(32) for _ in range(2)]
        tx = handle.tx_begin()
        for oid in gone:
            tx.free(oid)
        handle.arm_crash(CrashPlan(trigger=3))  # FREE record, COMMITTING, first free
        with pytest.raises(SimulatedCrash):
            tx.commit()
        with open(path, "r+b") as f:
            f.seek(handle.heap_offset)
            record = bytearray(f.read(24 + 8))
            bad = (live if where == "live" else spare).offset + 16
            record[24:32] = struct.pack("<Q", bad)
            struct.pack_into("<I", record, 4, record_crc(record, tx._tag))
            f.seek(handle.heap_offset)
            f.write(record)
            f.seek(0)
            before = f.read()
        for _ in range(2):
            with pytest.raises(OutOfBounds, match=f"listed free {bad}"):
                recover(path)
            with open(path, "rb") as f:
                assert f.read() == before

    def test_free_record_that_does_not_fit_aborts_the_commit(self, tmp_path):
        handle = create_pool(str(tmp_path / "full.pool"), "full-log", MIB,
                             log_capacity=1024)
        gone, filler = handle.raw_alloc(64), handle.raw_alloc(1024)
        before = heap_digest(handle)
        tx = handle.tx_begin()
        tx.write(filler, 0, b"f" * 990)  # 24 + 990 of the 1024 log bytes
        tx.free(gone)
        with pytest.raises(OutOfSpace):
            tx.commit()
        assert tx.state == "aborted" and handle._active_tx is None
        assert heap_digest(handle) == before
        with handle.tx_begin() as tx:
            tx.free(gone)
        assert handle.allocated_objects == 1
        handle.close()
