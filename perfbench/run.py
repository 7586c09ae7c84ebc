"""ledstore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lazy-delete --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports `ledstore` from
`src/` there and nowhere else. Pools and schema manifests live in a fresh
directory under `.perfbench_tmp/`, removed on exit. Results, provenance and
(with `--trace 1`) the workload's span file go to `.perfbench_out/`.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
See README.md in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("lazy-delete", "migrate-delete", "read-skewed")


def _import_checkout() -> None:
    """Import ledstore from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "ledstore", "__init__.py")):
        sys.exit(f"perfbench: no ledstore sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import ledstore

    if os.path.dirname(os.path.dirname(os.path.abspath(ledstore.__file__))) != SRC:
        sys.exit(f"perfbench: imported ledstore from {ledstore.__file__}, not {SRC}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "ledstore"), os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _remove_stale_run_dirs() -> None:
    """Delete run directories whose process is gone (a killed earlier run)."""
    if not os.path.isdir(TMP_DIR):
        return
    for entry in os.listdir(TMP_DIR):
        parts = entry.split("-")
        if len(parts) < 3 or parts[0] != "run" or not parts[1].isdigit():
            continue
        try:
            os.kill(int(parts[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(TMP_DIR, entry), ignore_errors=True)
        except PermissionError:
            pass


def _counters_check(path: str, counters: dict) -> list[str]:
    """Compare exact counters with an earlier run of the same seed and source."""
    earlier = {}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
    drift = sorted(k for k in counters if k in earlier and earlier[k] != counters[k])
    merged = {**earlier, **counters}
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return drift


def _trace_overhead(metrics: dict, stem: str, digest: str):
    """This run's tracing overhead, else the last traced run's on the same source."""
    if "trace.overhead_pct" in metrics:
        return metrics["trace.overhead_pct"][1]
    try:
        with open(f"{stem}-trace1.json") as fh:
            traced = json.load(fh)
    except (OSError, ValueError):
        return None
    if traced["provenance"]["source_digest"] != digest:
        return None
    return traced["metrics"]["trace.overhead_pct"]["value"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_checkout()
    import bench
    from spans import Tracer
    from workloads import first_touch_share

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    _remove_stale_run_dirs()
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=TMP_DIR)
    try:
        b = bench.Bench(args.workload, args.seed, workdir)
        setup_times = b.setup()
        t_end = time.perf_counter() + args.seconds
        rounds = []
        while len(rounds) < bench.MIN_ROUNDS or time.perf_counter() < t_end:
            rounds.append(b.round(verify=not rounds))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = traced = None
        if args.trace:
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                traced = b.round(tracer, verify=True)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    digest = _source_digest()
    counters = bench.exact_counters(rounds[0])
    inconsistent = [i for i, r in enumerate(rounds) if bench.exact_counters(r) != counters]
    if traced is not None:
        if bench.exact_counters(traced) != counters:
            inconsistent.append(len(rounds))
        counters.update(bench.traced_call_counts(tracer))
    drift = _counters_check(f"{stem}-n{b.n}-{digest}.counters.json", counters)

    all_rounds = rounds + ([traced] if traced is not None else [])
    # each kernel round attempts its ops and one crash-recovery check
    attempted = sum(kr.ops + 1 for r in all_rounds for kr in r.values())
    failed = sum(kr.failed for r in all_rounds for kr in r.values())
    correct = failed == 0 and not inconsistent and not drift
    if inconsistent:
        print(f"perfbench: exact counters differ between rounds {inconsistent}", file=sys.stderr)
    if drift:
        print(f"perfbench: exact counters differ from an earlier run: {drift[:5]}",
              file=sys.stderr)

    if args.trace:
        metrics = bench.per_layer(rounds, traced, tracer)
        # one span file per workload: each traced run replaces the last one
        tracer.dump(os.path.join(OUT_DIR, f"{args.workload}.spans"))
    else:
        metrics = bench.end_to_end(b, rounds, setup_times, peak_rss_mb)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "n_keys": b.n,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "first_touch_share": first_touch_share(b.workload.ops),
        "latency_samples_per_kernel": {k: len(v) for k, v in b.latencies.items()},
        "setup_s_samples": setup_times,
        "round_samples": {
            attr: [sum(getattr(kr, attr) for kr in r.values()) for r in rounds]
            for attr in ("update_s", "upgrade_s", "recover_s")
        },
        **result,
        "counters": counters,
        "provenance": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "source_digest": digest,
            "trace_overhead_pct": _trace_overhead(metrics, stem, digest),
        },
    }
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, (unit, value) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
