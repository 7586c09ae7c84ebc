"""Experiment runner: one trial path, overhead equations, write ledger.

One experiment measures, for a single kernel/pattern/layout-edit/model
combination, the phases

  original  build the version-1 pool by running the generated workload
  retain    manual lane: the migration pass; reset lane: the full rebuild
  manual    the updated program over manually migrated records
  auto      the updated program over lazily extendible records

and derives the two overhead ratios

  overhead_manual_pct = 100 * t_retain / t_manual
  overhead_auto_pct   = 100 * (t_auto - t_manual) / t_manual

An automatic-model run therefore always carries a manual baseline. Every
phase after `original` is a trial of one variant, and all variants share
one trial path: copy the lane's original pool, open it under the variant's
retention policy, build the version-2 kernel, run the retention step (the
migration inside `open_with_policy` for manual, the timed rebuild for
reset, nothing for auto), time the update ops, and take the write-counter
delta. The variants are the baseline (`manual` or `reset`), the automatic
`base`, and the breakdown's `premat`/`cached`/`shallow` toggles of `base`.
Each of `trials` rounds runs one trial of every variant, and their update
phases run interleaved, CHUNK ops of each in turn, so that the machine's
speed, which drifts by tens of percent within seconds on a shared host,
is the same for every variant of a round. A full `gc.collect()` runs
before each timed phase (original build, retention step, update phase),
as in perfbench; the cyclic GC stays on. One per chunk would cost far
more than the collector pauses it could keep out. Wall-clock means/standard
deviations are reported. Everything except wall time is
required to be identical across trials: byte ledgers, migration counts,
and the final map content, which every variant checks on its last trial
against the in-memory shadow replay before validating the structure; any
drift marks the report invalid.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .. import leds
from ..errors import ConfigError
from ..kernels import make_auto_schema, make_kernel, make_manual_migrator
from ..pool import create_pool
from ..stats import WriteStats
from ..retention import (
    AUTOMATIC,
    MANUAL,
    RESET,
    RetentionPolicy,
    open_with_policy,
)
from .workload import WorkloadConfig, gen_workload, shadow_replay

PHASE_COUNTERS = ("allocations", "translations", "checks", "deep_copies",
                  "ext_bytes", "n_allocs", "n_frees")
LEDGER = ("bytes_user", "bytes_log", "bytes_meta")
CHUNK = 500  # update ops a trial runs before the next variant's turn
XLAT_REPS, XLAT_CALLS = 7, 20_000  # _translation_cost: rounds, translations per round


@dataclass
class BenchReport:
    kernel: str
    pattern: str
    n: int
    seed: int
    layout: str
    model: str
    trials: int
    ratio: float = 1.0
    t_original: float = 0.0
    t_retain: float | None = None
    t_manual: float | None = None
    t_auto: float | None = None
    t_retain_std: float = 0.0
    t_manual_std: float = 0.0
    t_auto_std: float = 0.0
    overhead_manual_pct: float | None = None
    overhead_auto_pct: float | None = None
    bytes_user: int = 0
    bytes_log: int = 0
    bytes_meta: int = 0
    migrations: int = 0
    migration_bytes: int = 0
    breakdown: dict | None = None
    t_translation_unit: float | None = None  # see _translation_cost
    counters: dict = field(default_factory=dict)
    valid: bool = True

    @property
    def migration_bytes_per_node(self) -> float:
        return self.migration_bytes / self.migrations if self.migrations else 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["bytes"] = {k[len("bytes_"):]: d.pop(k) for k in LEDGER}
        d["migration_bytes_per_node"] = self.migration_bytes_per_node
        return d


def _exec_ops(pool, kernel, ops) -> float:
    """Run one phase, one transaction per operation; returns wall seconds."""
    t0 = time.perf_counter()
    for op, key, value in ops:
        with pool.tx_begin() as tx:
            if op == "ins":
                kernel.insert(tx, key, value)
            elif op == "del":
                kernel.remove(tx, key)
            elif kernel.lookup(key) is None:
                kernel.insert(tx, key, value)
            else:
                kernel.remove(tx, key)
    return time.perf_counter() - t0


def _rng_for(cfg: WorkloadConfig, salt: int):
    return random.Random((cfg.seed << 4) ^ salt)


def _pick(d: dict, keys) -> dict:
    return {k: d[k] for k in keys}


def _agg(xs) -> tuple[float, float]:
    return statistics.fmean(xs), statistics.pstdev(xs) if len(xs) > 1 else 0.0


def _model_of(variant: str) -> str:
    return variant if variant in (MANUAL, RESET) else AUTOMATIC


def _lane_of(variant: str) -> str:
    """The original pool a variant starts from; reset and manual share one."""
    return AUTOMATIC if _model_of(variant) == AUTOMATIC else MANUAL


def _policy(cfg: WorkloadConfig, model: str, workdir: Path) -> RetentionPolicy:
    """The version-2 program's open policy for one retention model. The
    automatic one is built through the schema-manifest file format."""
    if model == RESET:
        return RetentionPolicy(RESET, cfg.layout_name,
                               create_capacity=cfg.pool_capacity())
    if model == MANUAL:
        return RetentionPolicy(MANUAL, cfg.layout_name,
                               migration=make_manual_migrator(cfg.kernel, cfg.layout))
    manifest = workdir / f"schema-{cfg.kernel}-{cfg.layout}.json"
    leds.dump_manifest(make_auto_schema(cfg.kernel, cfg.layout), str(manifest))
    try:
        fp = leds.manifest_fingerprint(leds.load_manifest(str(manifest)))
    finally:
        manifest.unlink()
    return RetentionPolicy(AUTOMATIC, cfg.layout_name, schema_fingerprint=fp)


def _build_original(cfg: WorkloadConfig, mode: str, workdir: Path,
                    ops_orig) -> tuple[str, float]:
    """Build one lane's version-1 pool; returns its path and phase seconds."""
    path = str(workdir / f"orig-{cfg.kernel}-{mode}.pool")
    pool = create_pool(path, cfg.layout_name, cfg.pool_capacity())
    if mode == AUTOMATIC:
        fp = leds.manifest_fingerprint(make_auto_schema(cfg.kernel, None))
        pool.set_schema_fingerprint(fp)
    kernel = make_kernel(pool, cfg.kernel, mode=mode, version=1,
                         rng=_rng_for(cfg, 0x0516))
    kernel.create()
    gc.collect()
    t_original = _exec_ops(pool, kernel, ops_orig)
    pool.close()
    return path, t_original


def _translation_cost(pool, oid) -> float:
    """Seconds one ObjectId translation costs beyond a translation-cache
    hit: XLAT_CALLS `pool.translate(oid)` calls with the cache off and on in
    alternation, best of XLAT_REPS each. The calls count into a scratch
    WriteStats, so the pool's ledger does not move; the cache is left on
    and empty."""
    ledger, pool.stats = pool.stats, WriteStats()
    best = {False: float("inf"), True: float("inf")}
    try:
        for _ in range(XLAT_REPS):
            for cached in best:
                pool.set_translation_cache(cached)
                t0 = time.perf_counter()
                for _ in range(XLAT_CALLS):
                    pool.translate(oid)
                best[cached] = min(best[cached], time.perf_counter() - t0)
    finally:
        pool.stats = ledger
        pool.set_translation_cache(True)
    return max(best[False] - best[True], 0.0) / XLAT_CALLS


def _trial(cfg: WorkloadConfig, variant: str, original: str,
           policy: RetentionPolicy, ops, expected: dict | None, tag: int):
    """One trial of one variant on a fresh copy of its lane's original pool.

    A generator: it yields before each CHUNK of update ops (see
    _interleave) and returns (retain_s, update_s, row, content_ok, unit_s).
    `row` holds the variant's deterministic figures; they must repeat
    exactly across trials. The content is checked only when `expected` is
    given. The `cached` variant measures unit_s = _translation_cost on its
    pool before the timed phase; it is None for the others.
    """
    ops_orig, ops_upd = ops
    path = str(Path(original).with_name(f"trial-{variant}-{tag}.pool"))
    shutil.copyfile(original, path)
    gc.collect()  # before the retention step: the migration or the rebuild
    pool = open_with_policy(path, policy)
    try:
        retain_s = unit_s = None
        if policy.model == RESET:   # retention step: the timed rebuild
            before = pool.stats.snapshot()
            t0 = time.perf_counter()
            kernel = make_kernel(pool, cfg.kernel, mode=MANUAL, version=2,
                                 change=cfg.layout, rng=_rng_for(cfg, 0x0516))
            kernel.create()
            _exec_ops(pool, kernel, ops_orig)
            retain_s = time.perf_counter() - t0
            ledger = _pick(pool.stats.delta(before), LEDGER)
            row = dict(ledger, counters=ledger, migrations=0,
                       migration_bytes=ledger["bytes_user"])
        else:
            if policy.model == MANUAL:   # retention step: the pass run at open
                ms = pool.last_migration
                retain_s = ms.duration_s
                counters = {"nodes_migrated": ms.nodes_migrated,
                            "bytes_node_records": ms.bytes_node_records,
                            **{k: getattr(ms, k) for k in LEDGER}}
                row = dict(counters, counters=counters,
                           migrations=ms.nodes_migrated,
                           migration_bytes=ms.bytes_node_records)
            else:
                pool.set_translation_cache(variant == "cached")
            kernel = make_kernel(pool, cfg.kernel, mode=policy.model, version=2,
                                 change=cfg.layout, shallow_copy=variant == "shallow",
                                 rng=_rng_for(cfg, 0x0A11))
            kernel.attach()
            if variant == "premat":
                for _ in kernel.scan():   # materialize everything, untimed
                    pass
            if variant == "cached":
                unit_s = _translation_cost(pool, kernel.root)
        before = pool.stats.snapshot()
        gc.collect()
        update_s = 0.0
        for i in range(0, len(ops_upd), CHUNK):
            yield
            update_s += _exec_ops(pool, kernel, ops_upd[i : i + CHUNK])
        if policy.model == AUTOMATIC:
            delta = pool.stats.delta(before)
            counters = _pick(delta, PHASE_COUNTERS)
            row = dict(_pick(delta, LEDGER), counters=counters,
                       migrations=counters["allocations"],
                       migration_bytes=counters["ext_bytes"])
        content_ok = True
        if expected is not None:
            content_ok = dict(kernel.scan()) == expected
            kernel.validate()
    finally:
        pool.close()
        os.unlink(path)
    return retain_s, update_s, row, content_ok, unit_s


def _interleave(trials: dict) -> dict:
    """Advance the trial generators in turn until each returns; returns
    their results by variant. On an error the unfinished ones are closed,
    which closes their pools."""
    results, live = {}, dict(trials)
    try:
        while live:
            for v, trial in list(live.items()):
                try:
                    next(trial)
                except StopIteration as done:
                    results[v] = done.value
                    del live[v]
    finally:
        for trial in live.values():
            trial.close()
    return results


def _run_variants(cfg: WorkloadConfig, variants: list[str]):
    """Run `cfg.trials` rounds over the variants, one trial of each per
    round, interleaved.

    The first variant is the baseline (manual or reset). The report takes
    its retain/update times as t_retain/t_manual, the `base` variant's
    update times as t_auto, and the ledger of the variant that `cfg.model`
    names. Returns (report, first row per variant, update times per variant).
    """
    cfg.validate()
    workdir = Path(cfg.pool_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = gen_workload(cfg.pattern, cfg.n, cfg.seed, cfg.ratio)
    expected = shadow_replay(*ops)
    policies = {m: _policy(cfg, m, workdir)
                for m in dict.fromkeys(map(_model_of, variants))}
    originals: dict[str, tuple[str, float]] = {}
    runs: dict[str, list] = {v: [] for v in variants}
    try:
        for trial in range(cfg.trials):
            last = trial == cfg.trials - 1
            trials = {}
            for v in variants:
                lane = _lane_of(v)
                if lane not in originals:
                    originals[lane] = _build_original(cfg, lane, workdir, ops[0])
                trials[v] = _trial(cfg, v, originals[lane][0], policies[_model_of(v)],
                                   ops, expected if last else None, trial)
            for v, result in _interleave(trials).items():
                runs[v].append(result)
    finally:
        for path, _ in originals.values():
            os.unlink(path)

    report = BenchReport(cfg.kernel, cfg.pattern, cfg.n, cfg.seed, cfg.layout,
                         cfg.model, cfg.trials, cfg.ratio)
    report.t_original = originals[_lane_of(cfg.model)][1]
    rows, times = {}, {}
    for v, results in runs.items():
        retains, times[v], vrows, oks, units = zip(*results)
        rows[v] = vrows[0]
        if not all(oks) or any(r != vrows[0] for r in vrows):
            report.valid = False
        if v == variants[0]:
            report.t_retain, report.t_retain_std = _agg(retains)
            report.t_manual, report.t_manual_std = _agg(times[v])
        if v in (variants[0], "base"):
            report.counters[_model_of(v)] = vrows[0]["counters"]
        if v == "cached":
            report.t_translation_unit = statistics.median(units)
    if "base" in times:
        report.t_auto, report.t_auto_std = _agg(times["base"])
    own = rows["base" if cfg.model == AUTOMATIC else variants[0]]
    for name in ("migrations", "migration_bytes", *LEDGER):
        setattr(report, name, own[name])
    if report.t_manual:
        report.overhead_manual_pct = 100.0 * report.t_retain / report.t_manual
        if report.t_auto is not None:
            report.overhead_auto_pct = (
                100.0 * (report.t_auto - report.t_manual) / report.t_manual)
    return report, rows, times


def run_experiment(cfg: WorkloadConfig) -> BenchReport:
    """The model's baseline, plus the automatic lane when the model is auto."""
    variants = [RESET if cfg.model == RESET else MANUAL]
    if cfg.model == AUTOMATIC:
        variants.append("base")
    return _run_variants(cfg, variants)[0]


# ---------------------------------------------------------------------- sweeps

def sweep_dataset_size(cfg: WorkloadConfig,
                       sizes=(100, 1000, 10000, 100000)) -> list[BenchReport]:
    return [run_experiment(replace(cfg, n=size,
                                   pool_dir=str(Path(cfg.pool_dir) / f"size-{size}")))
            for size in sizes]


def sweep_working_set(cfg: WorkloadConfig,
                      ratios=(0.001, 0.01, 0.1, 1.0)) -> list[BenchReport]:
    if cfg.pattern != "del":
        raise ConfigError("working-set sweep is defined for the del pattern")
    return [run_experiment(replace(cfg, ratio=ratio,
                                   pool_dir=str(Path(cfg.pool_dir) / f"ratio-{ratio}")))
            for ratio in ratios]


def breakdown_report(cfg: WorkloadConfig) -> BenchReport:
    """Attribute the automatic model's extra cost: pre-materializing removes
    allocation+init, the translation cache removes translation, the
    shallow-copy toggle removes deep copies; the remainder is the extra
    indirection. Fractions are normalized.

    The variants run as one experiment with the manual baseline, so the
    report carries the same ledger as `run_experiment`. Within a round
    their update phases run interleaved, and the overhead and the
    allocation and deep-copy differentials are each the median over rounds
    of the within-round difference, so machine load that drifts within or
    between rounds cancels out. Translation is attributed by count: the
    translations the cache saves times the cost of one translation over
    one hit, t_translation_unit. The cached variant's own paired wall-time
    differential does not isolate that cost: the cache's misses add work
    of their own.
    """
    if cfg.model != AUTOMATIC:
        raise ConfigError("breakdown is defined for the automatic model")
    variants = [MANUAL, "base", "premat", "cached", "shallow"]
    report, rows, times = _run_variants(cfg, variants)
    counters = {v: rows[v]["counters"] for v in variants[1:]}
    base_row = counters["base"]

    def saved(variant: str) -> float:
        """Median per-round time `variant` saves against `base`."""
        return statistics.median(b - t for b, t in zip(times["base"], times[variant]))

    overhead = max(saved(MANUAL), 0.0)
    alloc_t = max(saved("premat"), 0.0)
    saved_translations = base_row["translations"] - counters["cached"]["translations"]
    translate_t = saved_translations * report.t_translation_unit
    deep_t = max(saved("shallow"), 0.0)
    if base_row["deep_copies"] == 0:
        deep_t = 0.0
    other = max(overhead - alloc_t - translate_t - deep_t, 0.0)
    total = alloc_t + translate_t + deep_t + other
    if total <= 0.0:
        report.breakdown = {"alloc": 0.0, "translate": 0.0, "deepcopy": 0.0,
                            "other": 1.0}
    else:
        report.breakdown = {
            "alloc": alloc_t / total,
            "translate": translate_t / total,
            "deepcopy": deep_t / total,
            "other": other / total,
        }
    report.counters["breakdown"] = {
        "translations_base": base_row["translations"],
        "translations_cached": counters["cached"]["translations"],
        "allocations_base": base_row["allocations"],
        "allocations_premat": counters["premat"]["allocations"],
        "deep_copies_base": base_row["deep_copies"],
        "deep_copies_shallow": counters["shallow"]["deep_copies"],
    }
    return report


# ---------------------------------------------------------------------- output

def emit_report(report, fmt: str, path: str) -> None:
    """Write one report or a sweep series; stable field order, 2-decimal
    percentages in CSV."""
    reports = report if isinstance(report, list) else [report]
    rows = [r.to_dict() for r in reports]
    if fmt == "json":
        payload = rows[0] if not isinstance(report, list) else rows
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    cols = ["kernel", "pattern", "n", "seed", "layout", "model", "trials", "ratio",
            "t_original", "t_retain", "t_manual", "t_auto",
            "overhead_manual_pct", "overhead_auto_pct",
            "bytes_user", "bytes_log", "bytes_meta",
            "migrations", "migration_bytes", "migration_bytes_per_node",
            "breakdown_alloc", "breakdown_translate", "breakdown_deepcopy",
            "breakdown_other", "valid"]

    def cell(row, col):
        if col.startswith("bytes_"):
            return str(row["bytes"][col[6:]])
        if col.startswith("breakdown_"):
            bd = row["breakdown"]
            return "" if bd is None else f"{bd[col[10:]]:.4f}"
        val = row[col]
        if col.startswith("overhead_"):
            return "" if val is None else f"{val:.2f}"
        if isinstance(val, float):
            return f"{val:.6f}"
        return "" if val is None else str(val)

    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(cell(row, c) for c in cols) + "\n")
