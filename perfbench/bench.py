"""Set-up, measured rounds, output checks and metrics for one workload.

A run builds the five version-1 pools (set-up, repeated `SETUP_REPS` times
and timed each time), then repeats rounds until its time is used up. A
round does, for each kernel in turn, on fresh copies of its version-1 pool:

  upgrade  open the copy under the workload's retention policy as the
           version-2 program (`change` edit: keys widened to 64 bits) and
           attach the kernel; the manual policy migrates here
  update   run the op stream, one transaction per write op, lookups outside
           any transaction; every op's result is checked against a dict
           replay, and in a verifying round the final `scan()` and
           `validate()` too
  crash    on a second copy, crash at the store ordinal halfway through the
           migration (manual lane) or through the first update op
           (automatic lane), time `recover()`, and check that the pool is
           back at the last transaction boundary

The load is one closed-loop client: each call waits for the previous one.
Nothing calls msync before close(); every pool fits in RAM.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field

import ledstore.pool as pool_mod
import ledstore.retention as retention_mod
from ledstore import CrashPlan, SimulatedCrash, leds
from ledstore.kernels import KINDS, make_auto_schema, make_kernel, make_manual_migrator

from workloads import DELETE, LOOKUP, make_workload

N_KEYS = 2000           # keys per kernel pool
SETUP_REPS = 3          # set-ups per run; setup_s is their median
MIN_ROUNDS = 3          # rounds per run, however short --seconds is
LAYOUT_EDIT = "change"  # version 2 widens the key from 32 to 64 bits
_REFUSED = object()     # a toggle whose insert/remove reported no change
_MAX_ERRORS_SHOWN = 5


def pool_capacity(n: int) -> int:
    return max(8 << 20, n * 4096)


@dataclass
class KernelRound:
    ops: int = 0
    failed: int = 0
    upgrade_s: float = 0.0
    update_s: float = 0.0
    recover_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.name = workload
        self.seed = seed
        self.workdir = workdir
        self.n = N_KEYS
        self.workload = None
        self.errors = 0
        self.latencies = {kind: array("q") for kind in KINDS}   # ns, untraced rounds
        self.policies = {}
        self.migrations = {}

    # -- set-up ------------------------------------------------------------

    def _v1_path(self, kind: str) -> str:
        return os.path.join(self.workdir, f"v1-{kind}.pool")

    def setup(self) -> list[float]:
        """Generate the workload and build every version-1 pool, SETUP_REPS times."""
        times = []
        for _ in range(SETUP_REPS):
            for kind in KINDS:
                if os.path.exists(self._v1_path(kind)):
                    os.unlink(self._v1_path(kind))
            gc.collect()
            t0 = time.perf_counter()
            self.workload = make_workload(self.name, self.seed, self.n)
            for kind in KINDS:
                self._build(kind)
            times.append(time.perf_counter() - t0)
        for kind in KINDS:
            self.policies[kind] = self._policy(kind)
        return times

    def _build(self, kind: str) -> None:
        lane = self.workload.lane
        cap = pool_capacity(self.n)
        pool = pool_mod.create_pool(self._v1_path(kind), f"{kind}-map", cap,
                                    log_capacity=cap // 4)
        try:
            if lane == "auto":
                pool.set_schema_fingerprint(
                    leds.manifest_fingerprint(make_auto_schema(kind, None)))
            kernel = make_kernel(pool, kind, mode=lane, version=1,
                                 rng=random.Random(f"{self.seed}-{kind}-build"))
            kernel.create()
            for key, value in self.workload.build:
                with pool.tx_begin() as tx:
                    kernel.insert(tx, key, value)
        finally:
            pool.close()

    def _policy(self, kind: str) -> retention_mod.RetentionPolicy:
        """The version-2 program's policy; the automatic one goes through a manifest file."""
        layout = f"{kind}-map"
        if self.workload.lane == "manual":
            mig = make_manual_migrator(kind, LAYOUT_EDIT)
            self.migrations[kind] = mig
            return retention_mod.RetentionPolicy(retention_mod.MANUAL, layout, 2,
                                                 migration=mig)
        manifest = os.path.join(self.workdir, f"schema-{kind}.json")
        leds.dump_manifest(make_auto_schema(kind, LAYOUT_EDIT), manifest)
        fp = leds.manifest_fingerprint(leds.load_manifest(manifest))
        return retention_mod.RetentionPolicy(retention_mod.AUTOMATIC, layout, 2,
                                             schema_fingerprint=fp)

    def _copy(self, kind: str, tag: str) -> str:
        path = os.path.join(self.workdir, f"{tag}-{kind}.pool")
        shutil.copyfile(self._v1_path(kind), path)
        return path

    def _kernel(self, pool, kind: str, version: int):
        return make_kernel(pool, kind, mode=self.workload.lane, version=version,
                           change=LAYOUT_EDIT,
                           rng=random.Random(f"{self.seed}-{kind}-update"))

    # -- rounds --------------------------------------------------------------

    def round(self, tracer=None, verify: bool = False) -> dict[str, KernelRound]:
        """One pass over the kernels. Op results, the recovered layout version
        and the log state are checked every time; `verify` adds the full
        `scan()` + `validate()` checks after the update and after recovery."""
        out = {}
        for kind in KINDS:
            kr = KernelRound(ops=len(self.workload.ops))
            try:
                crash_at = self._update(kind, kr, tracer, verify)
            except Exception:   # the whole kernel counts as failed
                self._error(f"{kind}: round aborted")
                kr.failed = kr.ops
                crash_at = 1
            try:
                if not self._crash_check(kind, crash_at, kr, tracer, verify):
                    self._error(f"{kind}: crash-recovery check failed", exc=False)
                    kr.failed += 1
            except Exception:
                self._error(f"{kind}: crash-recovery check raised")
                kr.failed += 1
            out[kind] = kr
        return out

    def _phase(self, tracer, label: str):
        return tracer.phase(label) if tracer is not None else nullcontext()

    def _update(self, kind: str, kr: KernelRound, tracer, verify: bool) -> int:
        """Upgrade and update phases on a fresh copy; returns the crash ordinal."""
        path = self._copy(kind, "round")
        pool = None
        try:
            gc.collect()
            with self._phase(tracer, "upgrade"):
                t0 = time.perf_counter()
                pool = retention_mod.open_with_policy(path, self.policies[kind])
                kernel = self._kernel(pool, kind, 2)
                if tracer is not None:
                    tracer.wrap_kernel(kernel)
                kernel.attach()
                kr.upgrade_s = time.perf_counter() - t0
            upgrade = pool.stats.snapshot()
            migration = getattr(pool, "last_migration", None)

            ops = self.workload.ops
            lat = array("q") if tracer is not None else self.latencies[kind]
            gc.collect()
            with self._phase(tracer, "update"):
                t0 = time.perf_counter()
                kr.failed += self._run_ops(pool, kernel, ops[:1], lat)
                first_op_stores = pool.stats.flush_events - upgrade["flush_events"]
                kr.failed += self._run_ops(pool, kernel, ops[1:], lat)
                kr.update_s = time.perf_counter() - t0
            update = pool.stats.delta(upgrade)

            if verify and not self._final_ok(kernel, self.workload.final):
                self._error(f"{kind}: final content or validate() check failed", exc=False)
                kr.failed = kr.ops
        finally:
            if pool is not None:
                pool.close()
            os.unlink(path)

        kr.counters = {f"upgrade.{k}": v for k, v in upgrade.items()}
        kr.counters.update({f"update.{k}": v for k, v in update.items()})
        if migration is not None:
            kr.counters.update({
                "migration.nodes_migrated": migration.nodes_migrated,
                "migration.bytes_node_records": migration.bytes_node_records,
                "migration.bytes_log": migration.bytes_log,
            })
            return max(1, upgrade["flush_events"] // 2)
        return max(1, first_op_stores // 2)

    def _final_ok(self, kernel, expected: dict) -> bool:
        try:
            kernel.validate()
            return dict(kernel.scan()) == expected
        except Exception:
            self._error(f"{kernel.kind}: final check raised")
            return False

    def _run_ops(self, pool, kernel, ops, latencies) -> int:
        """Apply ops in order, timing each; returns how many failed."""
        failed = 0
        clock = time.perf_counter_ns
        record = latencies.append
        for op in ops:
            t0 = clock()
            try:
                got = apply_op(pool, kernel, op)
            except Exception:   # a raised op counts as failed; keep going
                self._error(f"{kernel.kind}: op {op[:2]} raised")
                failed += 1
                continue
            record(clock() - t0)
            if got != op[3]:
                self._error(f"{kernel.kind}: op {op[:2]} returned {got!r}, "
                            f"expected {op[3]!r}", exc=False)
                failed += 1
        return failed

    def _crash_check(self, kind: str, crash_at: int, kr: KernelRound, tracer,
                     verify: bool) -> bool:
        """Crash a second copy mid-write, time recover(), check the boundary state."""
        path = self._copy(kind, "crash")
        try:
            with self._phase(tracer, "crash"):
                if self.workload.lane == "manual":
                    pool = pool_mod.open_pool(path, f"{kind}-map")
                    pool.arm_crash(CrashPlan(crash_at))
                    crashed = _crashes(retention_mod.run_migration, pool,
                                       self.migrations[kind])
                    version = 1
                else:
                    pool = retention_mod.open_with_policy(path, self.policies[kind])
                    kernel = self._kernel(pool, kind, 2)
                    kernel.attach()
                    pool.arm_crash(CrashPlan(crash_at))
                    crashed = _crashes(apply_op, pool, kernel, self.workload.ops[0])
                    version = 2
                if not crashed:
                    pool.close()
                    return False
                gc.collect()
                t0 = time.perf_counter()
                handle = pool_mod.recover(path)
                kr.recover_s = time.perf_counter() - t0
            try:
                ok = handle.layout_version == version and handle.log_state == (0, 0)
                if not (ok and verify):
                    return ok
                old = make_kernel(handle, kind, mode=self.workload.lane, version=1)
                old.attach()
                return self._final_ok(old, self.workload.built)
            finally:
                handle.close()
        finally:
            os.unlink(path)

    def _error(self, message: str, exc: bool = True) -> None:
        self.errors += 1
        if self.errors <= _MAX_ERRORS_SHOWN:
            print(f"perfbench: {message}", file=sys.stderr)
            if exc:
                traceback.print_exc(file=sys.stderr)


def apply_op(pool, kernel, op):
    """One client call: a lookup outside any transaction, else one transaction."""
    code, key, value, _ = op
    if code == LOOKUP:
        return kernel.lookup(key)
    with pool.tx_begin() as tx:
        if code == DELETE:
            return kernel.remove(tx, key)
        seen = kernel.lookup(key)
        done = kernel.insert(tx, key, value) if seen is None else kernel.remove(tx, key)
    return seen if done else _REFUSED


def _crashes(fn, *args) -> bool:
    try:
        fn(*args)
    except SimulatedCrash:
        return True
    return False


# ---------------------------------------------------------------------- metrics

def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def percentile_us(samples_ns: list, q: int) -> float:
    if len(samples_ns) < 2:     # every op failed; the run is already invalid
        return math.nan
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[q - 1] / 1000.0


def end_to_end(bench: Bench, rounds: list, setup_times: list, peak_rss_mb: float) -> dict:
    """The user-visible metrics; timings are medians over rounds."""
    def per_round(attr):
        return statistics.median(sum(getattr(kr, attr) for kr in r.values()) for r in rounds)

    first = rounds[0]
    ops = sum(kr.ops for kr in first.values())
    keys = bench.n * len(first)

    def total(counter):
        return sum(kr.counters[counter] for kr in first.values())

    upgrade_bytes = sum(total(f"upgrade.bytes_{c}") for c in ("user", "log", "meta"))
    update_bytes = sum(total(f"update.bytes_{c}") for c in ("user", "log", "meta"))
    return {
        "ops_per_s": ("ops/s", statistics.median(
            sum(kr.ops for kr in r.values()) / sum(kr.update_s for kr in r.values())
            for r in rounds)),
        "op_p50_us": ("us", geomean(percentile_us(lat, 50) for lat in bench.latencies.values())),
        "op_p99_us": ("us", geomean(percentile_us(lat, 99) for lat in bench.latencies.values())),
        "upgrade_s": ("s", per_round("upgrade_s")),
        "upgrade_bytes_per_key": ("B", upgrade_bytes / keys),
        "bytes_per_op": ("B", update_bytes / ops),
        "recover_s": ("s", per_round("recover_s")),
        "setup_s": ("s", statistics.median(setup_times)),
        "peak_rss_mb": ("MiB", peak_rss_mb),
    }


def exact_counters(round_: dict) -> dict:
    """Every deterministic counter of one round, per kernel."""
    return {f"{kind}.{name}": value
            for kind, kr in round_.items() for name, value in sorted(kr.counters.items())}


def per_layer(rounds: list, traced: dict, tracer) -> dict:
    """Layer metrics from the traced round, plus kernel µs/op from untraced rounds."""
    upd = tracer.summarize("update")
    upg = tracer.summarize("upgrade")
    ops = sum(kr.ops for kr in traced.values())

    def count(summary, name):
        return summary.get(name, (0, 0))[0]

    def self_s(summary, *names):
        return sum(summary.get(n, (0, 0))[1] for n in names) / 1e9

    def per_op_us(name):
        return self_s(upd, name) * 1e6 / ops

    def stat(counter):
        return sum(kr.counters.get(counter, 0) for kr in traced.values())

    commits = count(upd, "txn.commit")
    nodes = stat("migration.nodes_migrated")
    m = {
        "pool.load.calls_per_op": ("calls/op", count(upd, "pool.load") / ops),
        "pool.load.self_us_per_op": ("us/op", per_op_us("pool.load")),
        "pool.translations_per_op": ("count/op", stat("update.translations") / ops),
        "pool.stores_per_op": ("count/op", stat("update.flush_events") / ops),
        "pool.bytes_user_per_op": ("B/op", stat("update.bytes_user") / ops),
        "pool.bytes_log_per_op": ("B/op", stat("update.bytes_log") / ops),
        "pool.bytes_meta_per_op": ("B/op", stat("update.bytes_meta") / ops),
        "pool.allocs_per_op": ("count/op", stat("update.n_allocs") / ops),
        "pool.frees_per_op": ("count/op", stat("update.n_frees") / ops),
        "pool.open_s": ("s", self_s(upg, "pool.open_pool", "pool.recover")),
        "txn.commits_per_op": ("count/op", commits / ops),
        "txn.write.calls_per_op": ("calls/op", count(upd, "txn.write") / ops),
        "txn.write.self_us_per_op": ("us/op", per_op_us("txn.write")),
        "txn.commit.self_us_per_op": ("us/op", per_op_us("txn.commit")),
        "txn.alloc_zeroed.self_us_per_op": ("us/op", per_op_us("txn.alloc_zeroed")),
        "txn.free.self_us_per_op": ("us/op", per_op_us("txn.free")),
        "txn.log_bytes_per_tx": ("B/tx", stat("update.bytes_log") / commits if commits else 0.0),
        "leds.extensions_per_op": ("count/op", stat("update.allocations") / ops),
        "leds.checks_per_op": ("count/op", stat("update.checks") / ops),
        "leds.deep_copies_per_op": ("count/op", stat("update.deep_copies") / ops),
        "leds.ext_bytes_per_op": ("B/op", stat("update.ext_bytes") / ops),
        "leds.ensure_extension.calls_per_op": (
            "calls/op", count(upd, "leds.ensure_extension") / ops),
        "leds.ensure_extension.self_us_per_op": ("us/op", per_op_us("leds.ensure_extension")),
        "leds.read_field.self_us_per_op": ("us/op", per_op_us("leds.read_field")),
        "retention.open_with_policy_s": ("s", self_s(upg, "retention.open_with_policy")),
        "retention.run_migration_s": ("s", self_s(upg, "retention.run_migration")),
        "retention.records_migrated": ("count", nodes),
        "retention.bytes_per_record": (
            "B/record", stat("migration.bytes_node_records") / nodes if nodes else 0.0),
        "retention.log_bytes": ("B", stat("migration.bytes_log")),
    }
    for kind, kr in traced.items():
        m[f"kernels.{kind}.us_per_op"] = ("us/op", statistics.median(
            r[kind].update_s * 1e6 / r[kind].ops for r in rounds))
        m[f"kernels.{kind}.self_us_per_op"] = ("us/op", self_s(
            upd, *(f"kernels.{kind}.{op}" for op in ("insert", "remove", "lookup")))
            * 1e6 / kr.ops)
        m[f"kernels.{kind}.attach_s"] = ("s", self_s(upg, f"kernels.{kind}.attach"))

    untraced = statistics.median(sum(kr.update_s for kr in r.values()) for r in rounds)
    traced_s = sum(kr.update_s for kr in traced.values())
    m["trace.overhead_pct"] = ("%", 100.0 * (traced_s - untraced) / untraced)
    m["trace.self_coverage"] = ("ratio", sum(row[1] for row in upd.values()) / 1e9 / traced_s)
    return m


def traced_call_counts(tracer) -> dict:
    """Span counts per name in the update phase: exact for one seed."""
    upd = tracer.summarize("update")
    return {f"calls.{name}": row[0] for name, row in sorted(upd.items())}
