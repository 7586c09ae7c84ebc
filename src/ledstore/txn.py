"""Failure-atomic transactions over a pool, with crash injection and recovery.

One flat undo log lives in the pool's log region. A record is one store: a
24-byte header, declared once as UNDO_RECORD below, then its body.

    {kind u32, crc u32, len u32, tag u32, target u64} + body

  SNAP  (kind 1): body = the `len` prior bytes at `target`; rollback
                  restores them.
  ALLOC (kind 2): no body; the transaction's first block taken at the heap
                  frontier, a `len`-byte payload at `target`. Its later
                  frontier blocks log nothing: rollback zeroes, in one store,
                  from this block's header up to the first zero block header
                  (pool._unclaim_run, which finds it with the heap scan's
                  walk), as only this transaction's claims move the
                  frontier meanwhile.
  REUSE (kind 4): no body; one block taken from a free list. Rollback
                  restores, in one store, its free block header and a zeroed
                  payload (pool._unclaim), unless the block lies at or past
                  the ALLOC's: the transaction took it at the frontier, freed
                  it and took it again, and the run's store zeroes it.
  FREE  (kind 3): body = u64 payload offsets, `len` = 8 per offset; the
                  transaction's deferred frees: `target` and the body's. One
                  is appended by `commit`, just before its commit point.

`tag` is (pool uuid + transaction number) mod 2^32; a number whose tag is 0
is skipped, as zeroed log bytes carry that tag. `crc` is zlib.crc32 of the
record with its crc field zeroed, seeded by the previous record's crc or,
for a transaction's first record, by the tag.

The log-state word (pool.py) is stored only at the commit point and at
truncation. Between transactions it is IDLE | n, n the last transaction
that ended; the next one, number m, logs from the start of the log. A
commit that frees nothing stores IDLE | m once, its commit point. One that
frees appends its FREE record, stores COMMITTING | bytes logged (its commit
point), then one store per free (the status word and the zeroed payload
together), then IDLE | m. A block freed by the transaction that allocated
it is released at once and logged nowhere: its ALLOC or REUSE rollback
restores it. A FREE record that does not fit the log aborts the commit.

Recovery under IDLE | n rolls back, in reverse order, m's records from the
start of the log (_parse_log says where they end), then stores IDLE | m.
A rollback cut short before that store runs again in full and lands on the
same bytes: the run's walk reads only block headers at or past its start,
where no other undo store writes; it refuses a malformed header with
OutOfBounds before the run's store. Under COMMITTING | used it redoes
every free the FREE record lists, idempotently (no block is reused before
truncation), once every listed block header has passed pool._redo_frees's
check. `abort` is that rollback, run on the live handle. Writes into
blocks allocated by the same transaction skip snapshotting: rollback
reclaims and zeroes the whole block anyway.

Block headers and the heap view belong to pool.py; this module logs around
its `_take`/`_claim`, `_release`, `_unclaim`, `_unclaim_run`, `_redo_frees`
and `_scan_heap`. Abort still rebuilds the whole view with `_scan_heap`,
whose cost grows with the runs of equal-size blocks, not the blocks.

`write` makes one state test, one `_resolve`, at most one snapshot, then the
store. The log keeps no range dedupe: a range written twice is logged twice.

Nesting is rejected; the handle owns at most one active transaction.
"""

from __future__ import annotations

from struct import Struct
from zlib import crc32

from .errors import DoubleFree, NestedTransaction, OutOfBounds, OutOfSpace, TxStateError
from .layout import define_record
from .pool import BLOCK, LOG_COMMITTING, LOG_IDLE, ObjectId, PoolHandle

REC_SNAP = 1
REC_ALLOC = 2
REC_FREE = 3
REC_REUSE = 4
_BODILESS = (REC_ALLOC, REC_REUSE)
_BODIED = (REC_SNAP, REC_FREE)

UNDO_RECORD = define_record([
    ("kind", "u32"), ("crc", "u32"), ("len", "u32"), ("tag", "u32"), ("target", "u64"),
])
_pack_record = UNDO_RECORD.codec.pack
_HDR = UNDO_RECORD.size  # bytes in a record header
_U32 = 0xFFFFFFFF  # transaction numbers and tags wrap at 2^32
_HEADS = [UNDO_RECORD.pack(kind)[:8] for kind in range(5)]  # kind, a zeroed crc field
_U64 = Struct("<Q")  # one FREE-record body entry
_pack_u64 = _U64.pack

TX_ACTIVE = "active"
TX_COMMITTED = "committed"
TX_ABORTED = "aborted"


class Transaction:
    """Undo-log scope: all-or-nothing stores, allocations, and frees."""

    _run_logged = False  # set once the first frontier block's ALLOC is logged

    def __init__(self, pool: PoolHandle):
        if pool._active_tx is not None:
            raise NestedTransaction("a transaction is already active on this handle")
        if pool.closed:
            raise TxStateError("handle is closed")
        self.pool = pool
        self.state = TX_ACTIVE
        self._seq = _next_seq(pool, pool._log_word()[1])
        self._tag = self._crc = (pool.pool_uuid + self._seq) & _U32
        self._log_used = 0
        self._fresh: set[int] = set()       # payload offsets allocated here
        self._freed: dict[int, None] = {}   # deferred frees' payload offsets, in order
        pool._active_tx = self

    # ------------------------------------------------------------------ log

    def _append(self, kind: int, target: int, length: int, body: bytes = b"") -> None:
        pool = self.pool
        total = _HDR + len(body)
        if self._log_used + total > pool.log_capacity:
            raise OutOfSpace(
                f"undo log full ({pool.log_capacity} bytes); "
                "larger log_capacity needed for this transaction"
            )
        crc = crc32(body, crc32(_pack_record(kind, 0, length, self._tag, target), self._crc))
        pool._store(pool.heap_offset + self._log_used,
                    _pack_record(kind, crc, length, self._tag, target) + body, "log")
        self._crc = crc
        self._log_used += total

    def _snap(self, addr: int, length: int) -> None:
        """Log the prior bytes of [addr, addr + length) for rollback."""
        self._append(REC_SNAP, addr, length, self.pool.buf[addr : addr + length])

    # ------------------------------------------------------------------ ops

    def snapshot_range(self, oid: ObjectId, off: int, length: int) -> None:
        """Log prior bytes so later in-place stores to the range can be undone."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        addr = self.pool._resolve(oid, off, length)
        if oid[1] not in self._fresh:
            self._snap(addr, length)

    def write(self, oid: ObjectId, off: int, data: bytes) -> None:
        """Snapshotted store into a payload."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        pool = self.pool
        addr = pool._resolve(oid, off, len(data))
        if oid[1] not in self._fresh:
            self._snap(addr, len(data))
        pool._store(addr, data, "user")

    def write_header(self, off: int, data: bytes) -> None:
        """Snapshotted store into the header page (root id, layout version)."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        self._snap(off, len(data))
        self.pool._store(off, data, "meta")

    def copy_bytes(
        self, dst: ObjectId, dst_off: int, src: ObjectId, src_off: int, length: int
    ) -> None:
        """memcpy between payloads; safe for overlap (reads before writing)."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        if length == 0:
            return
        src_addr = self.pool._resolve(src, src_off, length)
        data = bytes(self.pool.buf[src_addr : src_addr + length])
        self.write(dst, dst_off, data)

    def alloc_zeroed(self, size: int) -> ObjectId:
        """Zeroed allocation; a block whose header on file is not the one
        its record implies is refused with OutOfBounds (pool._take)."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        pool = self.pool
        payload, rsize, reused = pool._take(size)
        if reused:
            self._append(REC_REUSE, payload, rsize)
        elif not self._run_logged:
            self._append(REC_ALLOC, payload, rsize)
            self._run_logged = True
        self._fresh.add(payload)
        return pool._claim(payload, rsize, reused)

    def free(self, oid: ObjectId) -> None:
        """Free at commit, kept on abort/crash; a block this transaction
        allocated is released at once, as its rollback restores it anyway."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        offset = oid.offset
        if offset in self._freed:
            raise DoubleFree(f"offset {offset} already freed in this transaction")
        self.pool._check_owned_for_free(oid)
        if offset in self._fresh:
            self.pool._release(offset)
        else:
            self._freed[offset] = None

    # ------------------------------------------------------------------ outcome

    def commit(self) -> None:
        """Make the transaction durable; OutOfSpace, after an abort, when the
        log has no room for its FREE record."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        pool = self.pool
        if self._freed:
            first, *rest = self._freed
            try:
                self._append(REC_FREE, first, 8 * len(rest),
                             b"".join(map(_pack_u64, rest)) if rest else b"")
            except OutOfSpace:
                self.abort()
                raise
            pool._set_log_state(LOG_COMMITTING, self._log_used)  # commit point
            for payload in self._freed:
                pool._release(payload)
            pool._set_log_state(LOG_IDLE, self._seq)
        elif self._log_used:
            pool._set_log_state(LOG_IDLE, self._seq)  # commit point
        self._end(TX_COMMITTED)

    def abort(self) -> None:
        """Roll back exactly as crash recovery would, from the log on file.
        A heap scan that refuses a block header closes the handle, as
        recover() does, and still ends the transaction."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        pool = self.pool
        pool.aborts += 1  # a volatile index built before the rollback is stale
        recover_log(pool)
        try:
            pool._scan_heap()  # the heap view is rebuilt rather than journaled
        except BaseException:  # the rollback landed and the old view is stale: drop the handle
            pool._die()
            raise
        finally:
            self._end(TX_ABORTED)

    def _end(self, state: str) -> None:
        self.state = state
        self.pool._active_tx = None

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is not TX_ACTIVE:
            return
        if self.pool.closed:
            # simulated crash killed the handle; recovery owns the rollback
            self.state = TX_ABORTED
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def _next_seq(pool: PoolHandle, n: int) -> int:
    """The transaction after n, skipping any whose tag is 0: a zeroed header carries it."""
    seq = (n + 1) & _U32
    return seq if (pool.pool_uuid + seq) & _U32 else (seq + 1) & _U32


def _crc_as(buf, off: int, end: int, tag: int, seed: int) -> int | None:
    """The crc the record at `off` has with `tag`, chained from `seed`; None past `end`."""
    kind, _, length, _, target = UNDO_RECORD.unpack_from(buf, off)
    body_end = (start := off + _HDR) + (length if kind in _BODIED else 0)
    return None if body_end > end else crc32(
        buf[start:body_end], crc32(_pack_record(kind, 0, length, tag, target), seed))


def _ends_log(buf, off: int, end: int, tag: int, seed: int) -> bool:
    """Whether a record that failed its checks ends the log: it fails the chain
    from `seed` even with `tag` for its own (else a bound or its tag is bad) and
    has another tag or no record with `tag` chained after it, by either crc."""
    _, rec_crc, _, rec_tag, _ = UNDO_RECORD.unpack_from(buf, off)
    expect = _crc_as(buf, off, end, tag, seed)
    if expect == rec_crc or rec_tag != tag:
        return expect != rec_crc
    at, needle = UNDO_RECORD.offsets["tag"], tag.to_bytes(4, "little")
    q = off + _HDR + at - 1
    while (q := buf.find(needle, q + 1, end)) != -1:  # the next record, wherever it starts
        if UNDO_RECORD.unpack_from(buf, q - at)[1] in {
                _crc_as(buf, q - at, end, tag, s) for s in {rec_crc, expect} - {None}}:
            return False
    return True


def _parse_log(pool: PoolHandle, tag: int, used: int | None) -> list[tuple[int, int, int, int]]:
    """The records from the start of the log that carry `tag`, as (kind, target,
    len, body offset); with `used`, exactly `used` bytes of them. A SNAP range
    lies in the header page or the block region, other records' in the block
    region, and so does every payload a FREE record lists. A record failing a
    check raises OutOfBounds before any applies, unless, without `used`, it
    _ends_log: it is another transaction's, or this one's torn last record (its
    copy cut short), whose in-place store never ran."""
    records = []
    off, hdr = pool.heap_offset, _HDR
    end = off + (pool.log_capacity if used is None else used)
    blocks, capacity = pool.blocks_offset, pool.capacity
    first = blocks + BLOCK.size  # the lowest payload offset
    crc, unpack = tag, UNDO_RECORD.unpack_from
    with memoryview(pool.buf) as log:
        while off + hdr <= end:
            kind, rec_crc, length, rec_tag, target = unpack(log, off)
            body_end = off + hdr + (length if kind in _BODIED else 0)
            reach = target + length
            if kind == REC_SNAP:
                ok = reach <= pool.heap_offset or blocks <= target and reach <= capacity
            elif kind == REC_FREE:
                ok = (first <= target < capacity and body_end <= end and length % 8 == 0
                      and all(first <= t < capacity
                              for t, in _U64.iter_unpack(log[off + hdr : body_end])))
            else:
                ok = kind in _BODILESS and first <= target < capacity and reach <= capacity
            if (not ok or rec_tag != tag or body_end > end
                    or crc32(log[off + 8 : body_end], crc32(_HEADS[kind], crc)) != rec_crc):
                if used is None and _ends_log(pool.buf, off, end, tag, crc):
                    break
                raise OutOfBounds(f"corrupt undo record at {off}: kind {kind}, len {length}, "
                                  f"tag {rec_tag:#x} (want {tag:#x}), target {target}")
            crc = rec_crc
            records.append((kind, target, length, off + hdr))
            off = body_end
    if used is not None and off != end:
        raise OutOfBounds(f"undo records end at {off - pool.heap_offset}, log used {used}")
    return records


def recover_log(pool: PoolHandle) -> None:
    """Roll back an unfinished transaction or finish a committing one, then truncate."""
    status, low = pool._log_word()
    if status == LOG_IDLE and low <= _U32:
        seq = _next_seq(pool, low)
        records = _parse_log(pool, (pool.pool_uuid + seq) & _U32, None)
        if not records:
            return
        # blocks at or past the run's start are the run's, zeroed by its one store
        run = next((t for k, t, _, _ in records if k == REC_ALLOC), pool.capacity)
        for kind, target, length, body in reversed(records):
            if kind == REC_SNAP:
                pool._store(target, pool.buf[body : body + length], "meta")
            elif kind == REC_REUSE and target < run:
                pool._unclaim(target, length)
            elif kind == REC_ALLOC:
                pool._unclaim_run(target)
            # a FREE needs no undo: its frees wait for the commit point
    elif status == LOG_COMMITTING and 0 < low <= pool.log_capacity:
        tag = UNDO_RECORD.unpack_from(pool.buf, pool.heap_offset)[3]
        frees = []
        for kind, target, length, body in _parse_log(pool, tag, low):
            if kind == REC_FREE:
                frees.append(target)
                frees += (listed for listed, in _U64.iter_unpack(pool.buf[body : body + length]))
        pool._redo_frees(frees)
        seq = (tag - pool.pool_uuid) & _U32
    else:
        raise OutOfBounds(f"corrupt log state: status {status}, low bits {low}")
    pool._set_log_state(LOG_IDLE, seq)
