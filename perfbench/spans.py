"""Span tracing of ledstore's public layer functions, from outside the library.

`Tracer.install()` swaps each traced function for a wrapper that records a
span (name, parent, start, end) and calls the original; `uninstall()` puts
the originals back. Spans live in flat typed arrays, 24 bytes each, and are
written out once at the end with `dump()`. Nothing under `ledstore` changes.

A span's self time is its duration minus the durations of its direct
children. The client is single-threaded, so children never overlap and the
self times of all spans in a phase add up to the time its root spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import ledstore.leds as leds_mod
import ledstore.pool as pool_mod
import ledstore.retention as retention_mod
import ledstore.txn as txn_mod

# (owner, attribute, span name); an owner's attribute is patched in place
_LAYER_FUNCTIONS = (
    (pool_mod.PoolHandle, "load", "pool.load"),
    (pool_mod.PoolHandle, "store", "pool.store"),
    (pool_mod.PoolHandle, "tx_begin", "txn.begin"),
    (pool_mod, "open_pool", "pool.open_pool"),
    (pool_mod, "recover", "pool.recover"),
    (txn_mod.Transaction, "write", "txn.write"),
    (txn_mod.Transaction, "alloc_zeroed", "txn.alloc_zeroed"),
    (txn_mod.Transaction, "free", "txn.free"),
    (txn_mod.Transaction, "commit", "txn.commit"),
    (leds_mod, "ensure_extension", "leds.ensure_extension"),
    (leds_mod, "read_field", "leds.read_field"),
    (leds_mod, "deep_copy", "leds.deep_copy"),
    (leds_mod, "free_extendible", "leds.free_extendible"),
    (retention_mod, "open_with_policy", "retention.open_with_policy"),
    (retention_mod, "run_migration", "retention.run_migration"),
)

KERNEL_METHODS = ("insert", "remove", "lookup", "attach")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.phases: list[tuple[str, int, int]] = []   # (phase, first, stop)
        self._saved: list[tuple[object, str, object]] = []
        self._selfs: array | None = None

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _LAYER_FUNCTIONS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        # retention imported open_pool by name; route it through the wrapper
        self._saved.append((retention_mod, "open_pool", retention_mod.open_pool))
        retention_mod.open_pool = pool_mod.open_pool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_kernel(self, kernel) -> None:
        """Trace one kernel instance's public operations."""
        for method in KERNEL_METHODS:
            bound = getattr(kernel, method)
            setattr(kernel, method, self.wrap(f"kernels.{kernel.kind}.{method}", bound))

    @contextmanager
    def phase(self, label: str):
        first = len(self)
        try:
            yield
        finally:
            self.phases.append((label, first, len(self)))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span; computed once, after tracing has ended."""
        if self._selfs is not None:
            return self._selfs
        durations = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * len(durations)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        self._selfs = array("q", (d - c for d, c in zip(durations, child)))
        return self._selfs

    def summarize(self, label: str) -> dict[str, list[int]]:
        """name -> [calls, self ns] over every span of a phase."""
        selfs = self.self_times()
        out: dict[str, list[int]] = {}
        for phase, first, stop in self.phases:
            if phase != label:
                continue
            for i in range(first, stop):
                row = out.setdefault(self.names[self.name[i]], [0, 0])
                row[0] += 1
                row[1] += selfs[i]
        return out

    def dump(self, stem: str) -> None:
        """Write `<stem>.json` (names, phases, layout) and `<stem>.bin` (spans)."""
        with open(stem + ".bin", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        meta = {
            "spans": len(self),
            "names": self.names,
            "phases": self.phases,
            "columns": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "layout": "each column stored whole, in this order, native byte order",
        }
        with open(stem + ".json", "w") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")
