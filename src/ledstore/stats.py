"""Byte and event accounting for a pool session.

Every store into the mapped file lands in exactly one byte bucket:

  bytes_user  payload bytes stored on behalf of the application
  bytes_log   undo-log record bytes (header + body)
  bytes_meta  allocator block headers, pool header words, log-state word,
              free-block zeroing, rollback restores

`flush_events` counts the stores themselves; it is the pool's one store
counter, which crash plans trip on. The remaining fields are event
counters used by the overhead-breakdown
reports: extension-record allocations (with their materialization bytes),
ObjectId translations (only misses while a handle's translation cache is on),
deep copies of extended records, and extension-link null checks.
"""

from __future__ import annotations


class WriteStats:
    __slots__ = (
        "bytes_user",
        "bytes_log",
        "bytes_meta",
        "flush_events",
        "allocations",
        "translations",
        "deep_copies",
        "checks",
        "ext_bytes",
        "n_allocs",
        "n_frees",
    )

    def __init__(self) -> None:
        self.bytes_user = 0
        self.bytes_log = 0
        self.bytes_meta = 0
        self.flush_events = 0
        # breakdown counters
        self.allocations = 0      # extension records materialized
        self.translations = 0     # ObjectId -> address resolutions
        self.deep_copies = 0      # extension-chain clones
        self.checks = 0           # extension-link null checks
        self.ext_bytes = 0        # bytes written to materialize extensions
        # allocator events
        self.n_allocs = 0
        self.n_frees = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        return {name: getattr(self, name) - since[name] for name in self.__slots__}

    @property
    def bytes_total(self) -> int:
        return self.bytes_user + self.bytes_log + self.bytes_meta

    def __repr__(self) -> str:
        return (
            f"WriteStats(user={self.bytes_user}, log={self.bytes_log}, "
            f"meta={self.bytes_meta}, flushes={self.flush_events}, "
            f"allocs={self.allocations}, xlat={self.translations}, "
            f"deep={self.deep_copies}, checks={self.checks})"
        )
