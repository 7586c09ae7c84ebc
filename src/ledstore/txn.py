"""Failure-atomic transactions over a pool, with crash injection and recovery.

One flat undo log lives in the pool's log region. Every record is a
header, declared once as UNDO_RECORD below, then its body:

    {kind u32, body_len u32, target u64, aux u64} + body

  SNAP  (kind 1): body = prior bytes at `target`; rollback restores them.
  ALLOC (kind 2): aux = rounded payload size, body = prior 16-byte block
                  header; rollback restores the header and zeroes the
                  payload (free blocks are kept zeroed, see pool.py).
  FREE  (kind 3): deferred free of the payload at `target`; executed only
                  after the commit point, idempotently re-executed if a
                  crash lands between commit and truncation.

The commit point is a single 8-byte store of the log-state word
(status=COMMITTING). Recovery rolls an ACTIVE log back in reverse order,
finishes a COMMITTING log forward, then truncates; a corrupt log (bad kind,
length, or a target outside its region) is refused before any record is
applied. `abort` is that same rollback, run on the live handle: the log on
file is the only undo state. Writes into blocks allocated by the same
transaction skip snapshotting: rollback reclaims and zeroes the whole block
anyway.

`write`, called once per changed span of a node, makes one state test, one
`_resolve`, at most one snapshot, then the store.

Nesting is rejected; the handle owns at most one active transaction.
"""

from __future__ import annotations

from .errors import (
    DoubleFree,
    NestedTransaction,
    OutOfBounds,
    OutOfSpace,
    TxStateError,
)
from .layout import define_record
from .pool import (
    BLOCK,
    LOG_ACTIVE,
    LOG_COMMITTING,
    LOG_IDLE,
    ObjectId,
    PoolHandle,
    ST_FREE,
)

REC_SNAP = 1
REC_ALLOC = 2
REC_FREE = 3

UNDO_RECORD = define_record([
    ("kind", "u32"), ("body_len", "u32"), ("target", "u64"), ("aux", "u64"),
])

TX_ACTIVE = "active"
TX_COMMITTED = "committed"
TX_ABORTED = "aborted"


class Transaction:
    """Undo-log scope: all-or-nothing stores, allocations, and frees."""

    def __init__(self, pool: PoolHandle):
        if pool._active_tx is not None:
            raise NestedTransaction("a transaction is already active on this handle")
        if pool.closed:
            raise TxStateError("handle is closed")
        self.pool = pool
        self.state = TX_ACTIVE
        self._log_used = 0
        self._fresh: set[int] = set()       # payload offsets allocated here
        self._freed: dict[int, int] = {}    # payload offset -> size, in free order
        self._covered: set[tuple[int, int]] = set()
        pool._active_tx = self
        pool._xlat_cache.clear()

    # ------------------------------------------------------------------ log

    def _append(self, kind: int, target: int, aux: int, body: bytes) -> None:
        pool = self.pool
        rec_off = pool.heap_offset + self._log_used
        total = UNDO_RECORD.size + len(body)
        if self._log_used + total > pool.log_capacity:
            raise OutOfSpace(
                f"undo log full ({pool.log_capacity} bytes); "
                "larger log_capacity needed for this transaction"
            )
        pool._store(rec_off, UNDO_RECORD.codec.pack(kind, len(body), target, aux) + body, "log")
        self._log_used += total
        pool._set_log_state(LOG_ACTIVE, self._log_used)

    def _snap(self, addr: int, length: int) -> None:
        """Log the prior bytes of [addr, addr + length) for rollback."""
        self._append(REC_SNAP, addr, 0, self.pool.buf[addr : addr + length])
        self._covered.add((addr, length))

    def _require_active(self) -> None:
        if self.state != TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")

    # ------------------------------------------------------------------ ops

    def snapshot_range(self, oid: ObjectId, off: int, length: int) -> None:
        """Log prior bytes so later in-place stores to the range can be undone."""
        self._require_active()
        addr = self.pool._resolve(oid, off, length)
        if oid[1] not in self._fresh:
            self._snap(addr, length)

    def write(self, oid: ObjectId, off: int, data: bytes, category: str = "user") -> None:
        """Snapshotted store into a payload."""
        if self.state is not TX_ACTIVE:
            raise TxStateError(f"transaction is {self.state}")
        pool = self.pool
        addr = pool._resolve(oid, off, len(data))
        if oid[1] not in self._fresh and (addr, len(data)) not in self._covered:
            self._snap(addr, len(data))
        pool._store(addr, data, category)

    def write_header(self, off: int, data: bytes) -> None:
        """Snapshotted store into the header page (root id, layout version)."""
        self._require_active()
        self._snap(off, len(data))
        self.pool._store(off, data, "meta")

    def copy_bytes(
        self, dst: ObjectId, dst_off: int, src: ObjectId, src_off: int, length: int
    ) -> None:
        """memcpy between payloads; safe for overlap (reads before writing)."""
        self._require_active()
        if length == 0:
            return
        src_addr = self.pool._resolve(src, src_off, length)
        data = bytes(self.pool.buf[src_addr : src_addr + length])
        self.write(dst, dst_off, data)

    def alloc_zeroed(self, size: int) -> ObjectId:
        self._require_active()
        pool = self.pool
        payload, rsize = pool._alloc.take(size, pool.capacity)
        old_hdr = bytes(pool.buf[payload - BLOCK.size : payload])
        self._append(REC_ALLOC, payload, rsize, old_hdr)
        self._fresh.add(payload)
        return pool._claim(payload, rsize)

    def free(self, oid: ObjectId) -> None:
        """Deferred free: the block is reclaimed at commit, kept on abort/crash."""
        self._require_active()
        pool = self.pool
        if oid.offset in self._freed:
            raise DoubleFree(f"offset {oid.offset} already freed in this transaction")
        pool._check_owned_for_free(oid)
        self._append(REC_FREE, oid.offset, 0, b"")
        self._freed[oid.offset] = pool._alloc.block_size[oid.offset]

    # ------------------------------------------------------------------ outcome

    def commit(self) -> None:
        self._require_active()
        pool = self.pool
        if self._log_used:
            # commit point: one 8-byte state-word store
            pool._set_log_state(LOG_COMMITTING, self._log_used)
            for payload, size in self._freed.items():
                pool._free_block(payload, size)
                pool._alloc.release(payload)
                pool.stats.n_frees += 1
            pool._set_log_state(LOG_IDLE, 0)
        self._end(TX_COMMITTED)

    def abort(self) -> None:
        """Roll back exactly as crash recovery would, from the log on file."""
        self._require_active()
        pool = self.pool
        recover_log(pool)
        # volatile allocator state is rebuilt rather than journaled
        pool._alloc.scan(pool.buf, pool.blocks_offset, pool.capacity)
        self._end(TX_ABORTED)

    def _end(self, state: str) -> None:
        self.state = state
        self.pool._active_tx = None
        self.pool._xlat_cache.clear()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != TX_ACTIVE:
            return
        if self.pool.closed:
            # simulated crash killed the handle; recovery owns the rollback
            self.state = TX_ABORTED
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def _in_bounds(pool: PoolHandle, kind: int, target: int, aux: int, body_len: int) -> bool:
    """A SNAP range lies in the header page or the block region; an ALLOC
    block (header included) or a FREE payload lies in the block region."""
    blocks, capacity = pool.blocks_offset, pool.capacity
    if kind == REC_SNAP:
        end = target + body_len
        return end <= pool.heap_offset or blocks <= target and end <= capacity
    first = blocks + BLOCK.size  # the lowest payload offset
    if kind == REC_ALLOC:
        return first <= target and target + aux <= capacity
    return kind == REC_FREE and first <= target < capacity


def _parse_log(pool: PoolHandle, used: int) -> list[tuple[int, int, int, bytes]]:
    """Decode and bound every record, raising OutOfBounds on a corrupt one;
    nothing is applied until the whole log has decoded."""
    records = []
    off, end, hdr = pool.heap_offset, pool.heap_offset + used, UNDO_RECORD.size
    while off < end:
        kind, body_len, target, aux = UNDO_RECORD.unpack_from(pool.buf, off)
        body_off, off = off + hdr, off + hdr + body_len
        if off > end or not _in_bounds(pool, kind, target, aux, body_len):
            raise OutOfBounds(f"corrupt undo record at {body_off - hdr}: "
                              f"kind {kind}, {body_len}-byte body, target {target}, "
                              f"aux {aux}, log used {used}")
        records.append((kind, target, aux, bytes(pool.buf[body_off:off])))
    return records


def recover_log(pool: PoolHandle) -> None:
    """Roll back an ACTIVE log or finish a COMMITTING one, then truncate."""
    status, used = pool.log_state
    if status == LOG_IDLE and used == 0:
        return
    if status not in (LOG_ACTIVE, LOG_COMMITTING) or used > pool.log_capacity:
        raise OutOfBounds(f"corrupt log state: status {status}, {used} bytes used")
    records = _parse_log(pool, used)
    if status == LOG_COMMITTING:
        for kind, target, _, _ in records:
            if kind == REC_FREE:
                size, st = BLOCK.unpack_from(pool.buf, target - BLOCK.size)
                if st != ST_FREE:  # else the free fully executed before the crash
                    pool._free_block(target, size)
    else:
        for kind, target, aux, body in reversed(records):
            if kind == REC_SNAP:
                pool._store(target, body, "meta")
            elif kind == REC_ALLOC:
                pool._store_zeros(target, aux, "meta")
                pool._store(target - BLOCK.size, body, "meta")
            # a FREE record needs no undo: the free was deferred to commit
    pool._set_log_state(LOG_IDLE, 0)
