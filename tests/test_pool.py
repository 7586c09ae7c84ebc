"""Pool lifecycle, object ids, allocation, and the on-disk header format."""

import random
import struct
import zlib

import pytest

from ledstore import (
    NULL_OID,
    AlreadyExists,
    BadMagic,
    CapacityTooSmall,
    CrashPlan,
    DoubleFree,
    ForeignPool,
    IoError,
    LayoutMismatch,
    ObjectId,
    OutOfBounds,
    OutOfSpace,
    PoolLocked,
    SimulatedCrash,
    TxStateError,
    create_pool,
    delete_pool,
    open_pool,
    recover,
)
from ledstore import pool as pool_mod
from ledstore.pool import ST_ALLOCATED, ST_FREE

MIB = 1024 * 1024


class TestCreate:
    def test_fresh_pool_is_empty(self, pool):
        assert pool.allocated_objects == 0
        assert pool.root_id == NULL_OID
        assert pool.layout_name == "test-layout"
        assert pool.layout_version == 1

    def test_only_metadata_written_at_create(self, pool):
        assert pool.stats.bytes_user == 0
        assert pool.stats.bytes_meta > 0
        assert pool.stats.bytes_log == 0

    def test_capacity_too_small(self, tmp_path):
        with pytest.raises(CapacityTooSmall):
            create_pool(str(tmp_path / "p"), "x", 4096)

    def test_existing_file_rejected(self, tmp_path):
        p = str(tmp_path / "p")
        with open(p, "wb") as f:
            f.write(b"junk")
        with pytest.raises(AlreadyExists):
            create_pool(p, "x", MIB)

    def test_layout_name_length_limit(self, tmp_path):
        with pytest.raises(LayoutMismatch):
            create_pool(str(tmp_path / "p"), "n" * 64, 8 * MIB)

    def test_second_handle_locked_out(self, pool, pool_path):
        with pytest.raises(PoolLocked):
            open_pool(pool_path, "test-layout")


class TestHeaderFormat:
    """The documented little-endian byte layout of the header page."""

    def test_fixed_field_offsets(self, pool, pool_path):
        pool.close()
        with open(pool_path, "rb") as f:
            raw = f.read(4096)
        assert raw[0:8] == b"LEDSPOOL"
        assert struct.unpack_from("<I", raw, 8)[0] == 3  # format_version
        name = raw[16:80].rstrip(b"\0")
        assert name == b"test-layout"
        assert struct.unpack_from("<I", raw, 80)[0] == 1  # layout_version
        root = struct.unpack_from("<QQ", raw, 96)
        assert root == (0, 0)
        assert struct.unpack_from("<Q", raw, 112)[0] == 0  # root_size
        assert struct.unpack_from("<Q", raw, 120)[0] == 4096  # heap_offset
        assert struct.unpack_from("<Q", raw, 128)[0] == 8 * MIB  # capacity
        assert struct.unpack_from("<Q", raw, 88)[0] != 0  # pool uuid
        assert struct.unpack_from("<Q", raw, 136)[0] == 4096 + MIB  # blocks_offset
        assert struct.unpack_from("<Q", raw, 144)[0] == 0  # log state: idle, empty
        assert struct.unpack_from("<Q", raw, 152)[0] == MIB  # log_capacity: 1/8 of 8 MiB
        assert struct.unpack_from("<Q", raw, 160)[0] == 0  # fingerprint: none

    def test_block_header_before_payload(self, pool, pool_path):
        oid = pool.raw_alloc(24)
        pool.close()
        with open(pool_path, "rb") as f:
            f.seek(oid.offset - 16)
            size, status = struct.unpack("<QQ", f.read(16))
        assert (size, status) == (32, 0xA110CA7E)  # rounded size, allocated

    def test_undo_record_header_at_heap_offset(self, pool, pool_path):
        oid = pool.raw_alloc(32)
        tx = pool.tx_begin()
        pool.arm_crash(CrashPlan(trigger=2))  # the record, then the store
        with pytest.raises(SimulatedCrash):
            tx.write(oid, 8, b"x" * 16)
        with open(pool_path, "rb") as f:
            f.seek(4096)
            record = f.read(24 + 16)
            f.seek(144)
            log_state = struct.unpack("<Q", f.read(8))[0]
        tag = (pool.pool_uuid + 1) & 0xFFFFFFFF  # the pool's first transaction
        assert struct.unpack_from("<I", record, 0)[0] == 1  # kind: SNAP
        assert struct.unpack_from("<I", record, 8)[0] == 16  # len: the body's
        assert struct.unpack_from("<I", record, 12)[0] == tag
        assert struct.unpack_from("<Q", record, 16)[0] == oid.offset + 8  # target
        assert record[24:] == bytes(16)  # body: the prior bytes
        zeroed = record[:4] + bytes(4) + record[8:]
        assert struct.unpack_from("<I", record, 4)[0] == zlib.crc32(zeroed, tag)
        assert log_state == 0  # stored only at the commit point

    def test_heap_offset_default(self, pool):
        assert pool.heap_offset == 4096


class TestOpen:
    def test_round_trip_same_root(self, pool, pool_path):
        root = pool.get_root(64)
        pool.close()
        with open_pool(pool_path, "test-layout") as re:
            assert re.root_id == root

    def test_layout_mismatch(self, pool, pool_path):
        pool.close()
        with pytest.raises(LayoutMismatch):
            open_pool(pool_path, "other-layout")

    def test_bad_magic_on_zeros(self, tmp_path):
        p = str(tmp_path / "z")
        with open(p, "wb") as f:
            f.write(bytes(8192))
        with pytest.raises(BadMagic):
            open_pool(p, "x")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            open_pool(str(tmp_path / "nope"), "x")

    @staticmethod
    def _refused_twice(path):
        """Open raises BadMagic, and raises it again: the refusal left no lock."""
        for _ in range(2):
            with pytest.raises(BadMagic):
                open_pool(path, "test-layout")

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.pool")
        create_pool(path, "test-layout", MIB).close()
        with open(path, "r+b") as f:
            f.truncate(300 * 1024)  # header still says 1 MiB
        self._refused_twice(path)

    def test_foreign_format_version_rejected(self, pool, pool_path):
        pool.close()
        # version 1's undo log had no tags or checksums; version 2 logged a
        # FREE record per free, with no body
        for version in (1, 2, 99):
            with open(pool_path, "r+b") as f:
                f.seek(8)
                f.write(struct.pack("<I", version))
            self._refused_twice(pool_path)

    def test_undecodable_layout_name_rejected(self, pool, pool_path):
        pool.close()
        with open(pool_path, "r+b") as f:
            f.seek(16)  # layout name, not utf-8
            f.write(b"\xff\xfe")
        self._refused_twice(pool_path)

    def test_region_bounds_rejected(self, pool, pool_path):
        pool.close()
        with open(pool_path, "r+b") as f:
            f.seek(136)  # blocks_offset, past the end of the file
            f.write(struct.pack("<Q", 9 * MIB))
        self._refused_twice(pool_path)

    @pytest.mark.parametrize("moved", ["heap_offset", "blocks_offset"])
    def test_regions_off_the_grid_rejected(self, pool, pool_path, moved):
        """A region moved 8 bytes, the log resized to keep the regions in
        order: a heap off the 16-byte grid would hand out payloads off it."""
        pool.close()
        offsets = pool_mod.HEADER.offsets
        with open(pool_path, "r+b") as f:
            for name, delta in ((moved, 8), ("log_capacity", -8 if moved == "heap_offset" else 8)):
                f.seek(offsets[name])
                value, = struct.unpack("<Q", f.read(8))
                f.seek(offsets[name])
                f.write(struct.pack("<Q", value + delta))
        self._refused_twice(pool_path)

    def test_ids_stable_across_reopen(self, pool, pool_path):
        oids = [pool.raw_alloc(24) for _ in range(10)]
        payloads = {}
        for i, oid in enumerate(oids):
            data = bytes([i]) * 24
            pool.store(oid, 0, data)
            payloads[oid] = data
        pool.close()
        with open_pool(pool_path, "test-layout") as re:
            for oid, data in payloads.items():
                assert re.load(oid, 0, 24) == data


class TestRoot:
    def test_fresh_root_zeroed(self, pool):
        root = pool.get_root(64)
        assert not root.is_null()
        assert pool.load(root, 0, 64) == bytes(64)

    def test_idempotent(self, pool):
        a = pool.get_root(64)
        b = pool.get_root(64)
        assert a == b

    def test_smaller_request_returns_existing(self, pool):
        a = pool.get_root(64)
        assert pool.get_root(16) == a

    def test_grow_preserves_prefix_zero_tail(self, pool):
        a = pool.get_root(64)
        pattern = bytes(range(64))
        pool.store(a, 0, pattern)
        b = pool.get_root(128)
        assert b != a
        assert pool.load(b, 0, 64) == pattern  # oracle: byte comparison
        assert pool.load(b, 64, 64) == bytes(64)
        assert pool.root_size == 128

    def test_old_root_freed_on_grow(self, pool):
        pool.get_root(64)
        live = pool.live_bytes
        pool.get_root(256)
        assert pool.live_bytes == live - 64 + 256

    def test_failed_root_outside_a_transaction_ends_its_own(self, tmp_path):
        """A root that does not fit raises OutOfSpace and leaves no active
        transaction behind: the next one begins and the handle closes."""
        pool = create_pool(str(tmp_path / "small.pool"), "x", MIB)
        with pytest.raises(OutOfSpace):
            pool.get_root(2 * MIB)
        assert pool.root_id.is_null()
        with pool.tx_begin():
            pass
        root = pool.get_root(64)
        assert pool.root_id == root
        pool.close()


class TestTranslate:
    def test_deterministic(self, pool):
        oid = pool.raw_alloc(24)
        assert pool.translate(oid) == pool.translate(oid)

    def test_write_through_address_survives_reopen(self, pool, pool_path):
        oid = pool.raw_alloc(16)
        pool.store(oid, 0, struct.pack("<Q", 42))
        addr = pool.translate(oid)
        pool.close()
        # oracle: raw file inspection at the translated offset
        with open(pool_path, "rb") as f:
            f.seek(addr)
            assert struct.unpack("<Q", f.read(8))[0] == 42
        with open_pool(pool_path, "test-layout") as re:
            assert struct.unpack("<Q", re.load(oid, 0, 8))[0] == 42

    def test_null_rejected(self, pool):
        with pytest.raises(OutOfBounds):
            pool.translate(NULL_OID)

    def test_foreign_pool_rejected(self, pool):
        oid = pool.raw_alloc(16)
        alien = ObjectId(pool.pool_uuid ^ 0x5A5A, oid.offset)
        with pytest.raises(ForeignPool):
            pool.translate(alien)

    def test_translation_counted(self, pool):
        oid = pool.raw_alloc(16)
        before = pool.stats.translations
        pool.translate(oid)
        pool.translate(oid)
        assert pool.stats.translations == before + 2


class TestRead:
    WORDS = struct.Struct("<QQ")

    def test_one_translation_per_call(self, pool):
        oid = pool.raw_alloc(32)
        pool.store(oid, 16, self.WORDS.pack(7, 9))
        before = pool.stats.translations
        assert pool.read(oid, self.WORDS, 16) == (7, 9)
        assert pool.stats.translations == before + 1

    def test_record_past_payload_rejected(self, pool):
        oid = pool.raw_alloc(32)
        assert pool.read(oid, self.WORDS, 16) == (0, 0)
        with pytest.raises(OutOfBounds):
            pool.read(oid, self.WORDS, 24)
        with pytest.raises(OutOfBounds):
            pool.read(oid, self.WORDS, -8)

    def test_foreign_and_null_ids_rejected(self, pool):
        oid = pool.raw_alloc(16)
        with pytest.raises(ForeignPool):
            pool.read(ObjectId(pool.pool_uuid ^ 0x5A5A, oid.offset), self.WORDS)
        with pytest.raises(OutOfBounds):
            pool.read(NULL_OID, self.WORDS)

    def test_cached_repeat_counts_nothing(self, pool):
        oid = pool.raw_alloc(16)
        pool.set_translation_cache(True)
        with pool.tx_begin():
            before = pool.stats.translations
            pool.read(oid, self.WORDS)
            assert pool.stats.translations == before + 1
            pool.read(oid, self.WORDS)
            assert pool.stats.translations == before + 1

    def test_cached_id_refused_once_its_block_is_freed(self, pool):
        oid = pool.raw_alloc(16)
        pool.set_translation_cache(True)
        with pool.tx_begin() as tx:
            pool.read(oid, self.WORDS)  # cached by the transaction that frees it
            tx.free(oid)
        with pytest.raises(OutOfBounds):
            pool.read(oid, self.WORDS)
        with pool.tx_begin():
            with pytest.raises(OutOfBounds):
                pool.read(oid, self.WORDS)

    def test_id_cached_outside_refused_after_a_transaction_frees_it(self, pool):
        oid = pool.raw_alloc(16)
        pool.set_translation_cache(True)
        pool.translate(oid)  # cached outside any transaction
        with pool.tx_begin() as tx:
            tx.free(oid)  # resolves nothing
        with pytest.raises(OutOfBounds):
            pool.translate(oid)
        with pytest.raises(OutOfBounds):
            pool.store(oid, 0, b"x")

    def test_id_cached_outside_refused_after_raw_free(self, pool):
        oid = pool.raw_alloc(16)
        pool.set_translation_cache(True)
        pool.translate(oid)
        pool.raw_free(oid)
        with pytest.raises(OutOfBounds):
            pool.translate(oid)

    def test_cache_removed_validates_every_call(self, pool):
        oid = pool.raw_alloc(16)
        pool.set_translation_cache(True)
        pool.set_translation_cache(False)
        before = pool.stats.translations
        with pool.tx_begin():
            pool.read(oid, self.WORDS)
            pool.read(oid, self.WORDS)
        assert pool.stats.translations == before + 2


class TestAlloc:
    def test_zeroed(self, pool):
        oid = pool.raw_alloc(24)
        assert pool.load(oid, 0, 24) == bytes(24)

    def test_alignment(self, pool):
        for size in (1, 7, 16, 24, 100, 1000):
            oid = pool.raw_alloc(size)
            assert oid.offset % 16 == 0

    def test_live_bytes_back_to_baseline(self, pool):
        baseline = pool.live_bytes
        oids = [pool.raw_alloc(40) for _ in range(50)]
        assert pool.live_bytes > baseline
        for oid in oids:
            pool.raw_free(oid)
        assert pool.live_bytes == baseline

    def test_free_list_reuse(self, pool):
        a = pool.raw_alloc(40)
        pool.raw_free(a)
        b = pool.raw_alloc(40)
        assert b.offset == a.offset

    def test_double_free(self, pool):
        oid = pool.raw_alloc(24)
        pool.raw_free(oid)
        with pytest.raises(DoubleFree):
            pool.raw_free(oid)
        with pool.tx_begin() as tx:
            with pytest.raises(DoubleFree):
                tx.free(oid)

    def test_free_of_offset_that_was_never_a_payload(self, pool):
        oid = pool.raw_alloc(64)
        pool.raw_free(pool.raw_alloc(64))  # a free list is not empty
        inside = ObjectId(pool.pool_uuid, oid.offset + 16)
        past = ObjectId(pool.pool_uuid, pool._frontier + 16)
        for bad in (inside, past):
            before = pool.stats.snapshot()
            with pytest.raises(OutOfBounds):
                pool.raw_free(bad)
            with pool.tx_begin() as tx:
                with pytest.raises(OutOfBounds):
                    tx.free(bad)
                assert tx._log_used == 0  # no log record appended
            assert pool.stats.snapshot() == before  # nothing stored
        assert pool.allocated_objects == 1

    def test_freed_payload_zeroed(self, pool):
        oid = pool.raw_alloc(32)
        pool.store(oid, 0, b"\xff" * 32)
        addr = pool.translate(oid)
        pool.raw_free(oid)
        assert bytes(pool.buf[addr : addr + 32]) == bytes(32)

    def test_out_of_space(self, tmp_path):
        p = create_pool(str(tmp_path / "small.pool"), "x", MIB, log_capacity=256 * 1024)
        with pytest.raises(OutOfSpace):
            for _ in range(10000):
                p.raw_alloc(4096)
        p.close()

    def test_accounting_completeness(self, pool):
        """Every stored byte lands in exactly one bucket."""
        oid = pool.raw_alloc(64)
        pool.store(oid, 0, b"x" * 64)
        s = pool.stats
        assert s.bytes_total == s.bytes_user + s.bytes_log + s.bytes_meta
        assert s.bytes_user == 64


def block_walk(handle, off):
    """The block headers from `off` up to the first zero size, one block at a
    time: (live payload -> size items in heap order, size -> free payloads
    in heap order, where the walk ends)."""
    buf, capacity = handle.buf, handle.capacity
    live, free = [], {}
    while off + 16 <= capacity:
        size, status = struct.unpack_from("<QQ", buf, off)
        if size == 0:
            break
        assert size % 16 == 0 and off + 16 + size <= capacity
        assert status in (ST_ALLOCATED, ST_FREE)
        if status == ST_ALLOCATED:
            live.append((off + 16, size))
        else:
            free.setdefault(size, []).append(off + 16)
        off += 16 + size
    return live, free, off


def assert_scan_is_block_walk(handle):
    """A fresh scan builds the per-block walk's view, in its order: live
    blocks, every free list and the frontier."""
    handle._scan_heap()
    assert (list(handle._live.items()), handle._free_lists, handle._frontier) \
        == block_walk(handle, handle.blocks_offset)


def fill(handle, tail):
    """Allocate one block that leaves `tail` bytes after the last block."""
    handle.raw_alloc(handle.capacity - handle._frontier - 16 - tail)
    assert handle.capacity - handle._frontier == tail


class TestHeapScan:
    """_walk measures runs of equal block sizes with strided reads, and
    compares their status words in bulk; a per-block walk of the same
    headers is the reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_sizes_with_frees(self, tmp_path, seed):
        rng = random.Random(seed)
        path = str(tmp_path / "p.pool")
        h = create_pool(path, "x", MIB)
        sizes = rng.choice([(16,), (48, 112), (16, 32, 48, 1024), (16, 4096)])
        ids = []
        for _ in range(3000):
            if ids and rng.random() < 0.3:
                h.raw_free(ids.pop(rng.randrange(len(ids))))
            else:
                try:
                    ids.append(h.raw_alloc(rng.choice(sizes)))
                except OutOfSpace:
                    break
        assert_scan_is_block_walk(h)
        h.close()
        with recover(path) as re:
            assert_scan_is_block_walk(re)

    def test_free_runs_between_live_ones(self, pool):
        # 3,000 16-byte blocks: a run longer than the widest window (2,048)
        ids = [pool.raw_alloc(48) for _ in range(600)] + [pool.raw_alloc(16) for _ in range(3000)]
        ids += [pool.raw_alloc(64) for _ in range(10)] + [pool.raw_alloc(112)]
        freed = [*range(100, 400), 401, 403, 599, 600, 600 + 2047, 600 + 2048, 600 + 2049,
                 *range(3100, 3600), *range(3600, 3610)]  # the 64-byte run all free
        for i in freed:
            pool.raw_free(ids[i])
        assert_scan_is_block_walk(pool)
        assert [len(pool._free_lists[s]) for s in (48, 16, 64)] == [303, 504, 10]

    def test_run_longer_than_one_status_slice(self, pool):
        ids = [pool.raw_alloc(16) for _ in range(9000)]  # _STATUSES is 8,192
        for i in (0, 5, 8191, 8192, 8999):
            pool.raw_free(ids[i])
        assert_scan_is_block_walk(pool)
        for i in range(8193, 8999):  # the second slice all free
            pool.raw_free(ids[i])
        assert_scan_is_block_walk(pool)

    def test_run_length_reads_at_most_a_reach_past_the_run(self):
        """Windows double up to _REACH bytes: the last word a window reads
        lies no further than that past the run's last header."""
        heap = bytearray(8 * MIB)
        for i in range(1100):  # a run of 112-byte payloads, then zeros
            struct.pack_into("<QQ", heap, 128 * i, 112, ST_ALLOCATED)

        class Recorded:
            def __init__(self, view):
                self.view, self.last = view, 0

            def __getitem__(self, window):
                start, stop, step = window.indices(len(self.view))
                self.last = max(self.last, start + (stop - start - 1) // step * step)
                return self.view[window]

        with memoryview(heap) as whole, whole.cast("Q") as words:
            recorded = Recorded(words)
            assert pool_mod._run_length(recorded, 0, 16, len(heap) // 128, heap[:8]) == 1100
        assert 128 * 1100 <= 8 * recorded.last <= 128 * 1099 + pool_mod._REACH

    @pytest.mark.parametrize("capacity, tail", [(MIB, 0), (MIB + 8, 8)])
    def test_one_run_filled_to_capacity(self, tmp_path, capacity, tail):
        path = str(tmp_path / "p.pool")
        with create_pool(path, "x", capacity) as h:
            while h.capacity - h._frontier >= 32:  # 16-byte blocks tile the heap
                h.raw_alloc(16)
            assert h.capacity - h._frontier == tail
        with recover(path) as re:
            assert_scan_is_block_walk(re)
            assert re._frontier == capacity - tail

    @pytest.mark.parametrize("capacity, tail", [(MIB, 0), (MIB, 16), (MIB + 8, 8),
                                                (MIB + 8, 24)])
    def test_heap_filled_to_capacity(self, tmp_path, capacity, tail):
        """The last block ends at capacity, or the bytes after it hold no
        header (tail 8) or a zero one; a capacity off the 16-byte grid."""
        path = str(tmp_path / "p.pool")
        h = create_pool(path, "x", capacity)
        for size in (16, 16, 48, 16):
            h.raw_alloc(size)
        fill(h, tail)
        assert_scan_is_block_walk(h)
        assert h._frontier == capacity - tail
        h.close()
        with recover(path) as re:
            assert_scan_is_block_walk(re)
            assert re._frontier == capacity - tail

    @pytest.mark.parametrize("capacity", [MIB, MIB + 8])
    def test_abort_of_a_frontier_run_ending_at_the_last_block(self, tmp_path, capacity):
        path = str(tmp_path / "p.pool")
        h = create_pool(path, "x", capacity)
        kept = [h.raw_alloc(32) for _ in range(3)]
        h.raw_free(kept[1])
        before = list(h._live.items()), h._frontier
        start = h._frontier
        with pytest.raises(RuntimeError), h.tx_begin() as tx:
            for size in (32, 32, 32, 64):
                tx.alloc_zeroed(size)
            tx.alloc_zeroed(h.capacity - h._frontier - 16 - capacity % 16)
            assert h.capacity - h._frontier < 16 and h._frontier > start
            assert h._walk(start, {}, {}) == block_walk(h, start)[2] == h._frontier
            raise RuntimeError("abort")
        assert (list(h._live.items()), h._frontier) == before
        assert bytes(h.buf[start:capacity]) == bytes(capacity - start)
        assert_scan_is_block_walk(h)
        h.close()

    def test_abort_with_a_malformed_header_closes_the_handle(self, pool, pool_path):
        """The rollback lands; the refused scan ends the transaction and
        closes the handle, whose view still lists the rolled-back claim.
        With the header mended, a reopen refuses that claim's id."""
        kept = pool.raw_alloc(32)
        pool.store(kept, 0, b"k" * 32)
        pool.raw_alloc(32)
        frontier = pool._frontier
        tx = pool.tx_begin()
        tx.write(kept, 0, b"t" * 32)
        claimed = tx.alloc_zeroed(64)
        assert claimed.offset == frontier + 16
        status = kept.offset - 8
        pool.buf[status : kept.offset] = struct.pack("<Q", 0x1234)
        with pytest.raises(OutOfBounds, match=f"block header at {kept.offset - 16}"):
            tx.abort()
        assert tx.state == "aborted" and pool._active_tx is None and pool.closed
        with open(pool_path, "r+b") as f:
            f.seek(frontier)
            assert f.read(16 + 64) == bytes(16 + 64)  # the frontier run, zeroed
            f.seek(status)
            f.write(struct.pack("<Q", ST_ALLOCATED))
        with recover(pool_path) as re:
            assert re.load(kept, 0, 32) == b"k" * 32
            assert re._frontier == frontier
            with pytest.raises(OutOfBounds):
                re.load(claimed, 0, 64)

    @pytest.mark.parametrize("at", [1, 100])  # the second block, or one inside a long run
    @pytest.mark.parametrize("forged", ["size past capacity", "payload 16 past capacity",
                                        "status", "size off 16"])
    def test_malformed_block_header_refused(self, tmp_path, forged, at):
        """recover raises OutOfBounds, dropping its handle and lock: a second
        recover raises the same, and the pool can be deleted."""
        path = str(tmp_path / "p.pool")
        with create_pool(path, "x", MIB) as h:
            header = [h.raw_alloc(32) for _ in range(200)][at].offset - 16
        size, status = {"size past capacity": (MIB, ST_ALLOCATED), "status": (32, 0x1234),
                        "size off 16": (40, ST_ALLOCATED),
                        "payload 16 past capacity": (MIB - header, ST_ALLOCATED)}[forged]
        with open(path, "r+b") as f:
            f.seek(header)
            f.write(struct.pack("<QQ", size, status))
        for _ in range(2):
            with pytest.raises(OutOfBounds, match=f"block header at {header}"):
                recover(path)
        delete_pool(path)


class TestCrashPlan:
    """flush_events is the one store counter; an armed plan trips on an
    absolute ordinal of it, and a closed handle refuses every store."""

    def test_trips_the_kth_store_after_arming(self, pool, pool_path):
        oid = pool.raw_alloc(64)
        for i in range(5):  # earlier stores do not count toward the plan
            pool.store(oid, 0, bytes([i + 1]) * 8)
        before = pool.stats.flush_events
        pool.arm_crash(CrashPlan(trigger=3))
        pool.store(oid, 8, b"a" * 8)
        pool.store(oid, 16, b"b" * 8)
        assert pool._write_ordinal == 2
        with pytest.raises(SimulatedCrash, match="#3"):
            pool.store(oid, 24, b"c" * 8)
        assert pool.closed and pool.stats.flush_events == before + 2
        with pytest.raises(TxStateError):  # dead, not crashing again
            pool.store(oid, 32, b"d" * 8)
        with open(pool_path, "rb") as f:  # oracle: the file holds stores 1-2 only
            f.seek(oid.offset)
            assert f.read(32) == b"\x05" * 8 + b"a" * 8 + b"b" * 8 + bytes(8)

    def test_disarm_stops_the_trip(self, pool):
        oid = pool.raw_alloc(16)
        pool.arm_crash(CrashPlan(trigger=2))
        pool.store(oid, 0, b"a" * 8)
        pool.disarm_crash()
        for _ in range(4):
            pool.store(oid, 8, b"b" * 8)
        assert not pool.closed and pool._write_ordinal == 5

    def test_store_on_closed_handle_changes_no_counter(self, pool):
        oid = pool.raw_alloc(16)
        addr = pool.translate(oid)
        pool.close()
        before = pool.stats.snapshot(), pool._write_ordinal
        with pytest.raises(TxStateError):
            pool._store(addr, b"a" * 8, "user")
        assert (pool.stats.snapshot(), pool._write_ordinal) == before


class TestDelete:
    def test_delete_then_open_fails(self, pool, pool_path):
        pool.close()
        delete_pool(pool_path)
        with pytest.raises(IoError):
            open_pool(pool_path, "test-layout")

    def test_delete_then_create_fresh_uuid(self, pool, pool_path):
        old_uuid = pool.pool_uuid
        pool.close()
        delete_pool(pool_path)
        with create_pool(pool_path, "test-layout", 8 * MIB) as fresh:
            assert fresh.allocated_objects == 0
            assert fresh.pool_uuid != old_uuid

    def test_delete_missing(self, tmp_path):
        with pytest.raises(IoError):
            delete_pool(str(tmp_path / "missing"))

    def test_delete_refused_while_open(self, pool, pool_path):
        with pytest.raises(IoError):
            delete_pool(pool_path)
