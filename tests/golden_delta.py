"""Check a regenerated golden ledger, perfbench's exact counters, or the
bytecodes per op of `tests/opcodes_per_op.py`, against the ones they replace.

    python tests/golden_delta.py OLD.json NEW.json
    python tests/golden_delta.py OLD.counters.json NEW.counters.json
    python tests/golden_delta.py OLD.opcodes.json NEW.opcodes.json

A write-path change may move only the store, translation and byte counts,
and only downward. For every case:

  - each report field is identical, except the byte ledgers, the store and
    translation counters, and a reset-lane rebuild's `migration_bytes*`,
    which may only fall;
  - the closed pools pair up by their event counts (allocations, frees,
    checks, extension bytes, deep copies, migrations: identical), ties
    paired in ascending order of translations; in each pair `flush_events`
    and `translations` may only fall, and so may user + log + meta.

Prints every moved value per case with its old and new sums, and exits 1 on
any other difference.

Two perfbench `*.counters.json` files (flat name -> value maps, written by
`perfbench/run.py` for one seed) follow the same rules: a counter named for
a byte ledger, the store counter or translations may only fall, every other
counter is identical. Every moved counter is printed.

Two JSON lines of `tests/opcodes_per_op.py` (flat `kind/lane/op` -> bytecodes
maps; save each with `| tail -1`) are told apart from counters by the `/` in
every name: each cell may only fall. Every moved cell is printed.
"""

from __future__ import annotations

import json
import sys

MOVABLE = ("bytes_user", "bytes_log", "bytes_meta", "flush_events", "translations")


def _flat(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flat(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1], obj


def _movable(path: str, report: dict) -> bool:
    if path.startswith("migration_bytes"):
        return report.get("model") == "reset"  # the rebuild's inserts write these
    return path.startswith("bytes.") or path.endswith(MOVABLE) or "translations" in path


def check_counters(old: dict, new: dict, cells: bool = False) -> list[str]:
    """Print every moved counter, or bytecode cell (`cells`, each of which
    may fall); return the violations."""
    if old.keys() != new.keys():
        return ["names differ: " + ", ".join(sorted(old.keys() ^ new.keys()))]
    errors = []
    for name in sorted(old):
        a, b = old[name], new[name]
        if a == b:
            continue
        print(f"{name}: {a} -> {b} ({(b - a) / a:+.1%})" if a else f"{name}: {a} -> {b}")
        if not ((cells or _movable(name, {})) and b <= a):
            errors.append(f"{name} {a} -> {b}")
    return errors


def _pool_key(pool: dict):
    return tuple(v for k, v in sorted(pool.items()) if k not in MOVABLE)


def check_case(name: str, old: dict, new: dict) -> list[str]:
    errors = []
    old_r, new_r = dict(_flat(old["report"])), dict(_flat(new["report"]))
    if old_r.keys() != new_r.keys():
        errors.append(f"{name}: report fields differ")
    for path in old_r.keys() & new_r.keys():
        a, b = old_r[path], new_r[path]
        if a == b:
            continue
        if not (_movable(path, old["report"]) and b <= a):
            errors.append(f"{name}: report {path} {a} -> {b}")

    def order(pools):
        return sorted(pools, key=lambda p: (_pool_key(p), p["translations"], p["flush_events"]))

    old_p, new_p = order(old["pools"]), order(new["pools"])
    if [_pool_key(p) for p in old_p] != [_pool_key(p) for p in new_p]:
        errors.append(f"{name}: pool event counts differ")
        return errors
    for i, (a, b) in enumerate(zip(old_p, new_p)):
        for field in ("flush_events", "translations"):
            if b[field] > a[field]:
                errors.append(f"{name}: pool {i} {field} {a[field]} -> {b[field]}")
        total_a = a["bytes_user"] + a["bytes_log"] + a["bytes_meta"]
        total_b = b["bytes_user"] + b["bytes_log"] + b["bytes_meta"]
        if total_b > total_a:
            errors.append(f"{name}: pool {i} bytes {total_a} -> {total_b}")
    return errors


def summary(name: str, old: dict, new: dict) -> str | None:
    """One line of summed pool deltas for a case, or None if nothing moved."""
    sums = {}
    for field in MOVABLE:
        a = sum(p[field] for p in old["pools"])
        b = sum(p[field] for p in new["pools"])
        if a != b:
            sums[field] = (a, b)
    if not sums:
        return None
    return f"{name}: " + ", ".join(f"{f} {a} -> {b} ({(b - a) / a:+.1%})"
                                   for f, (a, b) in sums.items())


def main(old_path: str, new_path: str) -> int:
    old, new = json.load(open(old_path)), json.load(open(new_path))
    if all(isinstance(v, (int, float)) for v in old.values()):
        cells = all("/" in name for name in old)  # opcodes_per_op.py's kind/lane/op
        errors = check_counters(old, new, cells)
        for error in errors:
            print("VIOLATION", error)
        print(f"{len(old)} {'cells' if cells else 'counters'}, {len(errors)} violations")
        return 1 if errors else 0
    if old.keys() != new.keys():
        print("case lists differ")
        return 1
    errors = []
    for name in sorted(old):
        errors += check_case(name, old[name], new[name])
        line = summary(name, old[name], new[name])
        if line:
            print(line)
    for error in errors:
        print("VIOLATION", error)
    print(f"{len(old)} cases, {len(errors)} violations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
