"""Memory-mapped persistent object pool with stable 128-bit object ids.

File layout (all fields little-endian):

  [0, 4096)                      header page, fields in HEADER below
  [heap_offset, +log_capacity)   undo-log region (see txn.py)
  [blocks_offset, capacity)      object heap

The object heap is a sequence of blocks: a 16-byte block header {size u64
(the payload's), status u64} followed by the payload. Payloads are
16-byte aligned and sized in 16-byte multiples, so ObjectId offsets
(absolute file offset of a payload) are always 16-byte aligned. A zero
size marks the bump frontier. The handle's view of the heap, one map of
live blocks (payload offset -> size), exact-size free lists and the
frontier, is rebuilt from the block headers on open, recovery and abort,
so no allocator state needs to be persisted or kept crash-safe. The one
walk over the headers (`_walk`, which the rollback of a frontier run
shares) costs bytecodes per run of equal-size blocks, not per block, and
refuses a malformed header with OutOfBounds. Only PoolHandle's block-heap
methods read or write a block header or that view.

Free blocks always hold zeroed payloads: payloads are zeroed when a block
is returned to the allocator and when a pending allocation is rolled back.
That invariant is what lets abort and crash recovery restore byte-identical
heap images without snapshotting payloads.

The header's fields are declared once, as HEADER below, and the block
header as BLOCK; every read and write of either goes through its
declaration (layout.py). The log-state word is status byte << 56 | low
bits: IDLE | the number of the last transaction that ended, or COMMITTING |
the bytes of undo records its transaction logged. It is stored only at a
commit point and at truncation; the protocol is in txn.py.

Every access by ObjectId (`read`, `load`, `store`, `tx.write`) makes one
`_resolve`: id (pool identity, live payload) and byte range together, one
counted translation, like `pmemobj_direct` (the breakdown's translation
cache, `set_translation_cache`, replaces it on one handle). `read(oid, codec,
off)` decodes a record without copying bytes. Every store goes through
`_store`, whose one counter, `stats.flush_events`, a crash plan trips on.

Handles are single-threaded and exclusive: each holds a flock on its pool
file's descriptor (a second open raises PoolLocked), which the kernel drops
when the descriptor closes or the process dies, so no lock outlives a crash.

Open raises BadMagic, before mapping the file, unless the magic and
format_version match, the layout name is utf-8, capacity equals the file
size, and the regions tile:
HEADER_SIZE <= heap_offset, heap_offset + log_capacity == blocks_offset < capacity.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import secrets
import struct
from contextlib import nullcontext
from itertools import repeat

from .errors import (
    AlreadyExists,
    BadMagic,
    CapacityTooSmall,
    DoubleFree,
    ForeignPool,
    IoError,
    LayoutMismatch,
    OutOfBounds,
    OutOfSpace,
    PoolLocked,
    SimulatedCrash,
    TxStateError,
)
from .layout import ObjectId, define_record
from .stats import WriteStats

MAGIC = b"LEDSPOOL"
FORMAT_VERSION = 3
HEADER_SIZE = 4096
DEFAULT_HEAP_OFFSET = 4096
MIN_CAPACITY = 1 << 20
ALIGN = 16

# block status words
ST_ALLOCATED = 0xA110CA7E
ST_FREE = 0xF4EEB10C

# the header page's fields; the rest of the page is zero
HEADER = define_record([
    ("magic", "bytes8"),
    ("format_version", "u32"),
    ("layout_name", "bytes64", 16),  # utf-8, zero-padded
    ("layout_version", "u32"),
    ("pool_uuid", "u64", 88),        # never zero: zero means null
    ("root", "oid"),
    ("root_size", "u64"),
    ("heap_offset", "u64"),          # the log region starts here
    ("capacity", "u64"),             # the file size
    ("blocks_offset", "u64"),
    ("log_state", "u64"),
    ("log_capacity", "u64"),
    ("fingerprint", "u64"),          # base-layout fingerprint, 0 if none
])
BLOCK = define_record([("size", "u64"), ("status", "u64")])
_HEADER_NAMES = tuple(f.name for f in sorted(HEADER.fields, key=lambda f: f.offset))
_LOG_STATE = HEADER.offsets["log_state"]

# log-state status byte
LOG_IDLE = 0
LOG_COMMITTING = 2

_U64 = struct.Struct("<Q")
_FREE_STATUS = _U64.pack(ST_FREE)
_ALLOCATED_STATUS = _U64.pack(ST_ALLOCATED)
_STATUS_BACK = BLOCK.size - BLOCK.offsets["status"]  # the status word's distance before a payload

_NEVER = 1 << 63  # a trip ordinal no store count reaches
_REACH = 1 << 16  # bytes of heap one _run_length window spans, at most
_STATUSES = 1 << 13  # status words _enter_run compares in one slice, at most


def _round16(n: int) -> int:
    return (n + 15) & ~15


def _run_length(words, first: int, step: int, limit: int, word: bytes) -> int:
    """How many of the items words[first], words[first + step], ... (at most
    `limit`) hold `word`, counted from the first up to the first that does
    not. Strided slices read them in windows that double from one page of
    heap up to _REACH bytes, so no read lands more than _REACH past the
    run. In the first window that differs from n copies of `word`, the
    lowest set bit of its xor with them (both read as little-endian
    integers) falls in the first item that differs."""
    span = 8 * step  # bytes from one item to the next
    done, n, most = 0, max(1, 4096 // span), max(1, _REACH // span)
    while done < limit:
        n = min(n, limit - done)
        at = first + done * step
        got, want = words[at : at + n * step : step].tobytes(), word * n
        if got == want:
            done += n
            n = min(2 * n, most)
            continue
        diff = int.from_bytes(got, "little") ^ int.from_bytes(want, "little")
        return done + (((diff & -diff).bit_length() - 1) >> 6)
    return done


def _enter_run(words, base: int, off: int, size: int, capacity: int, live: dict,
               free_lists: dict) -> int:
    """_walk's step: enter the blocks of `size` in a row from the header
    at `off` (`words` is the heap from `base` as u64 words), and return the
    offset past them. _run_length counts them at C speed; their status
    words are compared _STATUSES at a time, so a stretch all allocated or
    all free enters the view in one call and only a mixed one is walked
    block by block."""
    stride = BLOCK.size + size
    at, step = (off - base) >> 3, stride >> 3
    n = _run_length(words, at, step, (capacity - off) // stride, _U64.pack(size))
    payload = off + BLOCK.size
    for lo in range(0, n, _STATUSES):
        k = min(_STATUSES, n - lo)
        got = words[at + 1 + lo * step : at + 1 + (lo + k) * step : step].tobytes()
        payloads = range(payload + lo * stride, payload + (lo + k) * stride, stride)
        if got == _ALLOCATED_STATUS * k:
            live.update(zip(payloads, repeat(size)))
        elif got == _FREE_STATUS * k:
            free_lists.setdefault(size, []).extend(payloads)
        else:
            for block, (status,) in zip(payloads, _U64.iter_unpack(got)):
                if status == ST_ALLOCATED:
                    live[block] = size
                elif status == ST_FREE:
                    free_lists.setdefault(size, []).append(block)
                else:
                    raise _malformed(block - BLOCK.size, size, status)
    return off + n * stride


def _malformed(off: int, size: int, status: int) -> OutOfBounds:
    return OutOfBounds(f"block header at {off} is {{size {size}, status {status:#x}}}")


def _field(buf, name: str):
    """One HEADER field of a header image, decoded."""
    f = HEADER.field(name)
    return f.decode(buf[f.offset : f.offset + f.size])


def _header(buf) -> dict:
    """Every HEADER field of a header image, by name, in one unpack (bytes
    fields and the root oid raw)."""
    return dict(zip(_HEADER_NAMES, HEADER.unpack_from(buf)))


def _encoded(name: str, value) -> tuple[int, bytes]:
    """A HEADER field's offset and `value` encoded for it."""
    f = HEADER.field(name)
    return f.offset, f.encode(value)


def _vacant_header(size: int, reused: bool) -> bytes:
    """The header before a block _take picks: {size, ST_FREE} on a free list,
    all zeros at the frontier."""
    return BLOCK.codec.pack(size, ST_FREE) if reused else bytes(BLOCK.size)


def _layout_name(raw: bytes) -> str:
    return raw.rstrip(b"\0").decode("utf-8")


class CrashPlan:
    """Fires a SimulatedCrash instead of performing the Nth persistent store."""

    __slots__ = ("trigger",)

    def __init__(self, trigger: int):
        if trigger < 1:
            raise ValueError("crash trigger must be >= 1")
        self.trigger = trigger


class PoolHandle:
    """An open, memory-mapped pool. Confine to one thread; one per file."""

    def __init__(self, fileobj, buf):
        self._file = fileobj
        self.buf = buf
        self.stats = WriteStats()
        self.closed = False
        self._active_tx = None
        self.aborts = 0                # transactions rolled back on this handle
        self._trip = _NEVER            # flush_events value whose store is refused
        self._arm_base = 0             # flush_events when the crash plan was armed

        self._live: dict[int, int] = {}   # payload offset -> rounded size, allocated blocks
        self._free_lists: dict[int, list[int]] = {}
        self._frontier = 0
        self._cache_header()

    def _cache_header(self) -> None:
        """Header fields are read on demand, except these hot ones."""
        h = _header(self.buf)
        self.pool_uuid, self.heap_offset = h["pool_uuid"], h["heap_offset"]
        self.capacity, self.blocks_offset = h["capacity"], h["blocks_offset"]
        self.log_capacity = h["log_capacity"]

    # ------------------------------------------------------------------ raw io

    def _store(self, off: int, data: bytes, category: str) -> None:
        """Single choke point for every persistent store: counted, crash-checked.
        One comparison covers both refusals: the armed crash ordinal and a
        closed handle (whose trip ordinal is 0)."""
        st = self.stats
        if st.flush_events >= self._trip:
            self._trip_store()
        self.buf[off : off + len(data)] = data
        if category == "user":
            st.bytes_user += len(data)
        elif category == "log":
            st.bytes_log += len(data)
        else:
            st.bytes_meta += len(data)
        st.flush_events += 1

    def _trip_store(self) -> None:
        if self.closed:
            raise TxStateError("handle is closed")
        ordinal = self._write_ordinal + 1
        self._die()
        raise SimulatedCrash(f"simulated crash at persistent write #{ordinal}")

    def _die(self) -> None:
        """Simulated process death: unmap, close the fd (dropping the lock)."""
        self.closed = True
        self._trip = 0
        self.buf.flush()
        self.buf.close()
        self._file.close()

    # ------------------------------------------------------------------ header

    @property
    def layout_name(self) -> str:
        return _layout_name(_field(self.buf, "layout_name"))

    @property
    def layout_version(self) -> int:
        return _field(self.buf, "layout_version")

    def set_layout_version(self, version: int) -> None:
        off, data = _encoded("layout_version", version)
        if self._active_tx is not None:
            self._active_tx.write_header(off, data)
        else:
            self._store(off, data, "meta")

    @property
    def schema_fingerprint(self) -> int:
        return _field(self.buf, "fingerprint")

    def set_schema_fingerprint(self, fp: int) -> None:
        self._store(*_encoded("fingerprint", fp), "meta")

    @property
    def root_id(self) -> ObjectId:
        return _field(self.buf, "root")

    @property
    def root_size(self) -> int:
        return _field(self.buf, "root_size")

    @property
    def log_state(self) -> tuple[int, int]:
        """(status, bytes of undo records); (0, 0) when the log is idle."""
        status, low = self._log_word()
        return (status, low) if status != LOG_IDLE else (0, 0)

    def _log_word(self) -> tuple[int, int]:
        word = _U64.unpack_from(self.buf, _LOG_STATE)[0]
        return word >> 56, word & ((1 << 56) - 1)

    def _set_log_state(self, status: int, used: int) -> None:
        self._store(_LOG_STATE, _U64.pack((status << 56) | used), "meta")

    # ------------------------------------------------------------------ oids

    def _resolve(self, oid: ObjectId, off: int, length: int) -> int:
        """Validate an id and the range [off, off + length) of its payload;
        return the range's address. Counts one translation."""
        size = self._live.get(oid[1])
        if size is None or oid[0] != self.pool_uuid:
            self._refuse(oid)
        self.stats.translations += 1
        if off < 0 or length < 0 or off + length > size:
            raise OutOfBounds(f"range [{off}, {off + length}) outside {size}-byte payload")
        return oid[1] + off

    def set_translation_cache(self, enabled: bool) -> None:
        """Install on this one handle a `_resolve` that caches each id's
        payload size, or remove it (the breakdown's `cached` variant). A hit
        trusts the earlier validation, like a direct pointer, and counts
        nothing; a miss counts one translation. The cache empties when
        `_active_tx` changes, which every resolve checks, and drops a block's
        entry when the block is freed."""
        self.__dict__.pop("_resolve", None)
        self.__dict__.pop("_release", None)
        if not enabled:
            return
        cache: dict[int, int] = {}  # payload offset -> size
        owner = self._active_tx

        def resolve(oid: ObjectId, off: int, length: int) -> int:
            nonlocal owner
            if self._active_tx is not owner:
                owner = self._active_tx
                cache.clear()
            size = cache.get(oid[1])
            if size is None:
                PoolHandle._resolve(self, oid, 0, 0)  # validates the id, counts the miss
                size = cache[oid[1]] = self._live[oid[1]]
            if off < 0 or length < 0 or off + length > size:
                raise OutOfBounds(f"range [{off}, {off + length}) outside {size}-byte payload")
            return oid[1] + off

        def release(payload: int) -> None:
            cache.pop(payload, None)
            PoolHandle._release(self, payload)

        self._resolve, self._release = resolve, release

    def _refuse(self, oid: ObjectId) -> None:
        """Raise the typed error for an id that does not name a live payload."""
        uuid, offset = oid
        if uuid == 0 and offset == 0:
            raise OutOfBounds("null ObjectId")
        if uuid != self.pool_uuid:
            raise ForeignPool(f"id from pool {uuid:#x}, this is {self.pool_uuid:#x}")
        raise OutOfBounds(f"offset {offset} is not an allocated payload")

    def translate(self, oid: ObjectId) -> int:
        """Resolve an ObjectId to its session address (absolute buffer offset)."""
        return self._resolve(oid, 0, 0)

    # ------------------------------------------------------------------ data access

    def read(self, oid: ObjectId, codec, off: int = 0) -> tuple:
        """Decode one record at `off` in a payload: one resolve, one counted
        translation, no byte copy. `codec` is a struct.Struct or a
        layout.RecordLayout; a record running past the payload is OutOfBounds."""
        return codec.unpack_from(self.buf, self._resolve(oid, off, codec.size))

    def load(self, oid: ObjectId, off: int, length: int) -> bytes:
        """Copy raw bytes out of a payload (one counted translation)."""
        addr = self._resolve(oid, off, length)
        return self.buf[addr : addr + length]

    def store(self, oid: ObjectId, off: int, data: bytes) -> None:
        """Direct (non-transactional) store. Refused while a transaction is open."""
        if self._active_tx is not None:
            raise TxStateError("use the active transaction's write()")
        self._store(self._resolve(oid, off, len(data)), data, "user")

    # ------------------------------------------------------------------ block heap

    def raw_alloc(self, size: int) -> ObjectId:
        """Immediate zeroed allocation, not crash-protected (transactions use
        tx.alloc_zeroed). Free blocks are kept zeroed, so only the header is stored."""
        if self._active_tx is not None:
            raise TxStateError("use the active transaction's alloc_zeroed()")
        return self._claim(*self._take(size))

    def _take(self, size: int) -> tuple[int, int, bool]:
        """Pick a block for `size` bytes: its payload offset, its rounded size,
        and whether it comes off a free list (else from the frontier). Changes
        nothing, on file or in the view, so a caller that fails before _claim
        loses no block. A header on file other than _vacant_header's is
        refused with OutOfBounds."""
        size = _round16(size)
        if not 0 < size < 1 << 32:  # an undo record holds the size in a u32
            raise OutOfSpace(f"allocation size rounds to {size}, outside (0, 2^32)")
        lst = self._free_lists.get(size)
        reused = bool(lst)
        payload = lst[-1] if reused else self._frontier + BLOCK.size
        if payload + size > self.capacity:
            raise OutOfSpace(f"heap exhausted: need {size} bytes at {self._frontier}, "
                             f"capacity {self.capacity}")
        found, expected = self.buf[payload - BLOCK.size : payload], _vacant_header(size, reused)
        if found != expected:
            raise OutOfBounds(f"block header at {payload - BLOCK.size} is {found.hex()}, "
                              f"expected {expected.hex()}")
        return payload, size, reused

    def _claim(self, payload: int, size: int, reused: bool) -> ObjectId:
        """Publish a block from _take: write its ST_ALLOCATED header, pop it
        off its free list or advance the frontier past it, hand out its id."""
        self._store(payload - BLOCK.size, BLOCK.codec.pack(size, ST_ALLOCATED), "meta")
        if reused:
            self._free_lists[size].pop()
        else:
            self._frontier = payload + size
        self._live[payload] = size
        self.stats.n_allocs += 1
        return ObjectId(self.pool_uuid, payload)

    def _unclaim(self, payload: int, size: int) -> None:
        """Roll a block claimed off a free list back on file, in one store: its
        free header and a zeroed payload. _scan_heap rebuilds the view."""
        self._store(payload - BLOCK.size, _vacant_header(size, True) + bytes(size), "meta")

    def _unclaim_run(self, payload: int) -> None:
        """Roll back a transaction's frontier allocations, the first at
        `payload`, in one store: zero from its block header up to the first
        zero block header (where _walk ends). Every block in that run is the
        transaction's: only a claim moves the frontier, and raw_alloc is
        refused while a transaction runs. The walk relies on stores landing
        in order. _scan_heap rebuilds the view."""
        start = payload - BLOCK.size
        if (end := self._walk(start, {}, {})) > start:
            self._store(start, bytes(end - start), "meta")

    def raw_free(self, oid: ObjectId) -> None:
        if self._active_tx is not None:
            raise TxStateError("use the active transaction's free()")
        self._check_owned_for_free(oid)
        self._release(oid.offset)

    def _release(self, payload: int) -> None:
        """Free a live block: one store of its ST_FREE status word, which sits
        right before the payload, and the zeroed payload; then the view."""
        size = self._live.pop(payload)
        self._store(payload - _STATUS_BACK, _FREE_STATUS + bytes(size), "meta")
        self._free_lists.setdefault(size, []).append(payload)
        self.stats.n_frees += 1

    def _redo_frees(self, payloads: list[int]) -> None:
        """Recovery's redo of a committed transaction's frees: _release's store
        for each listed payload, sized from its block header (the view is not
        built yet; a block may be free already). Every target is checked
        before the first store: its header's size must be a nonzero multiple
        of 16 that ends the payload within capacity, and its status
        ST_ALLOCATED or ST_FREE; else OutOfBounds, with the file untouched.
        A header forged inside a payload passes this check: nothing on file
        tells a block header from payload bytes that read as one."""
        buf, capacity, unpack = self.buf, self.capacity, BLOCK.unpack_from
        sizes = []
        for payload in payloads:
            size, status = unpack(buf, payload - BLOCK.size)
            if not (size and size % ALIGN == 0 and payload + size <= capacity
                    and status in (ST_ALLOCATED, ST_FREE)):
                raise OutOfBounds(f"listed free {payload} has block header "
                                  f"{{size {size}, status {status:#x}}}")
            sizes.append(size)
        for payload, size in zip(payloads, sizes):
            self._store(payload - _STATUS_BACK, _FREE_STATUS + bytes(size), "meta")

    def _check_owned_for_free(self, oid: ObjectId) -> None:
        if oid.pool_uuid != self.pool_uuid:
            raise ForeignPool("id belongs to a different pool")
        if oid.offset not in self._live:  # a free-list scan, on the error path only
            if any(oid.offset in lst for lst in self._free_lists.values()):
                raise DoubleFree(f"offset {oid.offset} is already free")
            raise OutOfBounds(f"offset {oid.offset} was never a payload")

    def _scan_heap(self) -> None:
        """Rebuild the heap view from the block headers on file (open,
        recovery, abort): no allocator state is persisted. A refused walk
        leaves the old view; recover() and abort then close the handle."""
        live, free_lists = {}, {}
        self._frontier = self._walk(self.blocks_offset, live, free_lists)
        self._live, self._free_lists = live, free_lists

    def _walk(self, off: int, live: dict, free_lists: dict) -> int:
        """Enter the blocks from the header at `off` up to the first zero
        size into `live` (payload -> size) and `free_lists` (size ->
        payloads), in heap order; return the offset where they end. A header
        with a size that is not a multiple of 16, a payload that ends past
        capacity, or a status other than ST_ALLOCATED or ST_FREE raises
        OutOfBounds. Stores nothing.

        Each run of equal-size blocks enters the view in one _enter_run, so
        a heap of a few long runs costs a few hundred bytecodes, whatever
        its block count."""
        buf, base, capacity = self.buf, self.blocks_offset, self.capacity
        if (off - base) % ALIGN:
            raise OutOfBounds(f"block walk from {off}, off the 16-byte grid from {base}")
        with memoryview(buf) as whole, \
                whole[base : capacity - (capacity - base) % 8].cast("Q") as words:
            while off + BLOCK.size <= capacity:
                size, status = BLOCK.unpack_from(buf, off)
                if not size:
                    break
                # _enter_run enters no block when the first one's payload ends past capacity
                if size % ALIGN or (end := _enter_run(words, base, off, size, capacity,
                                                      live, free_lists)) == off:
                    raise _malformed(off, size, status)
                off = end
        return off

    @property
    def live_bytes(self) -> int:
        return sum(self._live.values())

    @property
    def allocated_objects(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------ root object

    def get_root(self, requested_size: int) -> ObjectId:
        """Create or grow the pool's root object.

        A grown root keeps the old contents as a prefix and zero-fills the
        tail; the old root block is freed. Runs in the active transaction,
        or in an internal one, committed on return and aborted on any
        error, so the swap is failure-atomic either way.
        """
        if requested_size <= 0:
            raise OutOfBounds("root size must be positive")
        root = self.root_id
        if not root.is_null() and requested_size <= self.root_size:
            return root

        from .txn import Transaction

        tx = self._active_tx
        with nullcontext(tx) if tx is not None else Transaction(self) as tx:
            new_root = tx.alloc_zeroed(requested_size)
            if not root.is_null():
                tx.copy_bytes(new_root, 0, root, 0, min(self.root_size, requested_size))
                tx.free(root)
            tx.write_header(*_encoded("root", new_root))
            tx.write_header(*_encoded("root_size", requested_size))
        return new_root

    # ------------------------------------------------------------------ transactions

    def tx_begin(self):
        from .txn import Transaction

        return Transaction(self)

    @property
    def _write_ordinal(self) -> int:
        """Stores performed since the crash plan was armed (or the handle opened)."""
        return self.stats.flush_events - self._arm_base

    def arm_crash(self, plan: CrashPlan) -> None:
        """Refuse the plan.trigger-th store from now with a SimulatedCrash."""
        if not self.closed:
            self._arm_base = self.stats.flush_events
            self._trip = self._arm_base + plan.trigger - 1

    def disarm_crash(self) -> None:
        if not self.closed:
            self._trip = _NEVER

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        if self.closed:
            return
        if self._active_tx is not None:
            raise TxStateError("close with an open transaction")
        self._die()

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc) -> None:
        if not self.closed:
            self.close()


# ---------------------------------------------------------------------- locking

def _open_locked(path: str, mode: str):
    """Open the pool file and take the exclusive, non-blocking flock on it."""
    try:
        f = open(path, mode)
        fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        f.close()
        raise PoolLocked(f"{path} already has a live handle") from None
    except OSError as e:
        raise IoError(str(e)) from e
    return f


# ---------------------------------------------------------------------- lifecycle api

def _default_log_capacity(capacity: int) -> int:
    return min(max(capacity // 8, 256 * 1024), 64 * 1024 * 1024)


def create_pool(
    path: str,
    layout_name: str,
    capacity: int,
    *,
    log_capacity: int | None = None,
) -> PoolHandle:
    name_bytes = layout_name.encode("utf-8")
    name_size = HEADER.field("layout_name").size
    if len(name_bytes) > name_size - 1:
        raise LayoutMismatch(f"layout name longer than {name_size - 1} bytes")
    if capacity < MIN_CAPACITY:
        raise CapacityTooSmall(f"capacity {capacity} below minimum {MIN_CAPACITY}")
    if os.path.exists(path) and os.path.getsize(path) > 0:
        raise AlreadyExists(f"{path} exists and is not empty")
    if log_capacity is None:
        log_capacity = _default_log_capacity(capacity)
    log_capacity = _round16(log_capacity)
    blocks_offset = DEFAULT_HEAP_OFFSET + log_capacity
    if blocks_offset + BLOCK.size + ALIGN >= capacity:
        raise CapacityTooSmall("capacity leaves no room for the object heap")

    f = _open_locked(path, "w+b")
    try:
        f.truncate(capacity)
        buf = mmap.mmap(f.fileno(), capacity)
    except OSError as e:
        f.close()
        raise IoError(str(e)) from e

    handle = PoolHandle(f, buf)
    handle._frontier = blocks_offset
    uuid = secrets.randbits(64) | 1  # never zero: zero means null
    header = bytearray(HEADER_SIZE)
    for name, value in dict(
        magic=MAGIC, format_version=FORMAT_VERSION,
        layout_name=name_bytes.ljust(name_size, b"\0"), layout_version=1,
        pool_uuid=uuid, heap_offset=DEFAULT_HEAP_OFFSET, capacity=capacity,
        blocks_offset=blocks_offset, log_capacity=log_capacity,
    ).items():
        off, data = _encoded(name, value)
        header[off : off + len(data)] = data
    handle._store(0, bytes(header), "meta")
    handle._cache_header()
    return handle


def _check_header(path: str, head: bytes, size: int) -> None:
    """Raise BadMagic unless `head` is a sane header for a `size`-byte file."""
    if len(head) < HEADER_SIZE or (h := _header(head))["magic"] != MAGIC:
        raise BadMagic(f"{path} is not a pool file")
    if h["format_version"] != FORMAT_VERSION:
        raise BadMagic(f"{path} has format version {h['format_version']}, "
                       f"not {FORMAT_VERSION}")
    try:
        _layout_name(h["layout_name"])
    except UnicodeDecodeError:
        raise BadMagic(f"{path} has a layout name that is not utf-8") from None
    heap, capacity, blocks = h["heap_offset"], h["capacity"], h["blocks_offset"]
    log_capacity = h["log_capacity"]
    if capacity != size:
        raise BadMagic(f"{path} header says {capacity} bytes, the file holds {size}")
    if heap < HEADER_SIZE or heap + log_capacity != blocks or blocks >= capacity:
        raise BadMagic(f"{path} header regions out of order: heap {heap}, "
                       f"log {log_capacity} bytes, blocks {blocks}")
    if heap % ALIGN or blocks % ALIGN:
        raise BadMagic(f"{path} header regions off the 16-byte grid: heap {heap}, "
                       f"blocks {blocks}")


def _map_existing(path: str) -> PoolHandle:
    f = _open_locked(path, "r+b")
    try:
        _check_header(path, f.read(HEADER_SIZE), os.fstat(f.fileno()).st_size)
        return PoolHandle(f, mmap.mmap(f.fileno(), 0))
    except BaseException:
        f.close()
        raise


def open_pool(path: str, layout_name: str) -> PoolHandle:
    """Open an existing pool, recovering any interrupted transaction first."""
    handle = recover(path)
    stored = handle.layout_name
    if stored != layout_name:
        handle.close()
        raise LayoutMismatch(f"pool holds layout {stored!r}, requested {layout_name!r}")
    return handle


def recover(path: str) -> PoolHandle:
    """Open without the layout-name check, rolling back or finishing the log."""
    from .txn import recover_log

    handle = _map_existing(path)
    try:
        recover_log(handle)
        handle._scan_heap()
    except BaseException:
        handle._die()
        raise
    return handle


def delete_pool(path: str) -> None:
    """Unlink a pool file; PoolLocked while a live handle holds its lock."""
    _open_locked(path, "rb").close()
    try:
        os.unlink(path)
    except OSError as e:
        raise IoError(str(e)) from e
