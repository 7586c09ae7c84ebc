"""Executed Python bytecodes per map operation, for every kernel x lane x
{insert, remove, lookup}, and per upgrade step: a cost figure that does not
depend on the machine, for changes whose wall-time effect is smaller than a
shared host's noise.

    python tests/opcodes_per_op.py [SRC_DIR]

SRC_DIR (default: `src/` of this checkout) is the tree whose `ledstore` is
imported, so a parent checkout and a change compare with one run each. For
each kernel and lane, a version-1 pool gets KEYS (2,000) random keys, one
transaction each, untraced, and is closed and reopened. The version-2
program ("change": the key widened to 64 bits) then takes it over: the
manual lane runs its migration pass first, the automatic lane upgrades
lazily. Then OPS (400) inserts of new keys and OPS removes of original keys
run, one transaction each, then OPS lookups of original keys that stay,
outside any transaction. Like perfbench's read-skewed lookups, each is a
hit, drawn from a hot set (OPS / 5 keys), so in the automatic lane at most
a fifth of them materialize an extension and the rest find it. Everything
after the inserts of version 1 runs under a `sys.settrace` opcode tracer.
Prints, for each kernel and lane, the total bytecodes of `open` (the
reopen, `recover(path)`: the header checks, the log check and the heap
scan), of the two upgrade steps, `migrate` (the whole migration pass,
manual lane only) and `attach` (the version-2 kernel's attach), and the
mean bytecodes per op, then the same figures as one JSON object.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

KINDS = ("skiplist", "ctree", "btree", "rbtree", "hashmap")
LANES = ("manual", "auto")
KEYS, OPS, SEED = 2000, 400, 1


def _counted(fn, *args) -> tuple[int, object]:
    """Bytecodes executed by `fn(*args)`, callees included, and its result."""
    n = 0

    def tracer(frame, event, arg):
        nonlocal n
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            n += 1
        return tracer

    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return n, result


def probe(kind: str, lane: str, workdir: str) -> dict:
    """Bytecodes of the upgrade steps, and mean bytecodes per insert, remove
    and lookup, for one kernel and lane."""
    from ledstore import create_pool, recover
    from ledstore.kernels import make_kernel, make_manual_migrator
    from ledstore.retention import run_migration

    rng = random.Random(SEED)
    drawn = rng.sample(range(1, 1 << 31), KEYS + OPS)
    original, fresh = drawn[:KEYS], drawn[KEYS:]
    path = f"{workdir}/{kind}-{lane}.pool"
    pool = create_pool(path, f"{kind}-map", 64 << 20)
    try:
        v1 = make_kernel(pool, kind, mode=lane, version=1, rng=random.Random(SEED))
        v1.create()
        for key in original:
            with pool.tx_begin() as tx:
                v1.insert(tx, key, key)
        pool.close()
        upgrade = {}
        upgrade["open"], pool = _counted(recover, path)
        if lane == "manual":
            upgrade["migrate"] = _counted(run_migration, pool,
                                          make_manual_migrator(kind, "change"))[0]
        kernel = make_kernel(pool, kind, mode=lane, version=2, change="change",
                             rng=random.Random(SEED + 1))
        upgrade["attach"] = _counted(kernel.attach)[0]

        def insert(key):
            with pool.tx_begin() as tx:
                assert kernel.insert(tx, key, key)

        def remove(key):
            with pool.tx_begin() as tx:
                assert kernel.remove(tx, key)

        def lookup(key):
            assert kernel.lookup(key) == key

        removed = rng.sample(original, OPS)
        gone = set(removed)
        hot = rng.sample([key for key in original if key not in gone], OPS // 5)
        looked = [rng.choice(hot) for _ in range(OPS)]
        return {**upgrade,
                "insert": sum(_counted(insert, key)[0] for key in fresh) / OPS,
                "remove": sum(_counted(remove, key)[0] for key in removed) / OPS,
                "lookup": sum(_counted(lookup, key)[0] for key in looked) / OPS}
    finally:
        pool.close()


def main() -> None:
    sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else
                    str(Path(__file__).resolve().parents[1] / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for kind in KINDS:
            for lane in LANES:
                for op, n in probe(kind, lane, workdir).items():
                    out[f"{kind}/{lane}/{op}"] = n
                    print(f"{kind:9} {lane:7} {op:7} {n:12,.1f}", flush=True)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
