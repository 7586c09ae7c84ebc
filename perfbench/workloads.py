"""Deterministic inputs for the three benchmark workloads.

Everything here is a pure function of the seed and the key count: the
version-1 build stream, the update-phase op stream, the result each op must
return, and the map each kernel must hold at the end. The store under test
only ever receives the generated operations.

  lazy-delete     automatic lane; every built key is deleted in random order
  migrate-delete  manual lane; the same keys and the same delete order
  read-skewed     automatic lane; 90% lookups, 10% toggles (lookup, then
                  remove if present or insert if absent); 80% of the keys
                  come from a power-law hot set, 20% uniformly from all keys
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

KEY_SPACE = 1 << 31     # version-1 records store 32-bit keys; stay below 2^31

LOOKUP = 0
DELETE = 1
TOGGLE = 2

LOOKUP_SHARE = 0.9
HOT_SHARE = 0.8
HOT_SET_FRACTION = 0.01

WORKLOAD_LANES = {
    "lazy-delete": "auto",
    "migrate-delete": "manual",
    "read-skewed": "auto",
}


@dataclass(frozen=True)
class Workload:
    name: str
    lane: str                          # "auto" or "manual"
    build: list                        # [(key, value)], inserted in order
    ops: list                          # [(code, key, value, expected result)]
    final: dict                        # key -> value after every op

    @property
    def built(self) -> dict:
        return dict(self.build)


def _build_stream(seed: int, n: int) -> list:
    rng = random.Random(f"{seed}-build")
    keys = rng.sample(range(1, KEY_SPACE), n)
    return [(k, rng.getrandbits(63)) for k in keys]


def _delete_ops(seed: int, build: list) -> list:
    order = [k for k, _ in build]
    random.Random(f"{seed}-delete").shuffle(order)
    # remove() of a present key returns True
    return [(DELETE, k, 0, True) for k in order]


def _exact_mix(rng: random.Random, count: int, share: float) -> list[bool]:
    """`count` flags, exactly round(count * share) of them True, in random order."""
    hits = round(count * share)
    flags = [True] * hits + [False] * (count - hits)
    rng.shuffle(flags)
    return flags


def _read_skewed_ops(seed: int, build: list) -> list:
    """One op per built key; expected results replay a dict.

    The lookup/toggle and hot/uniform splits are exact per seed, so seeds
    differ in which keys are drawn, not in the op mix.
    """
    rng = random.Random(f"{seed}-read-skewed")
    keys = [k for k, _ in build]
    count = len(keys)
    hot = rng.sample(keys, max(1, int(len(keys) * HOT_SET_FRACTION)))
    # Zipf weights (s = 1) over the hot keys' ranks
    hot_cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(hot))))
    shadow = dict(build)
    ops = []
    for is_lookup, is_hot in zip(_exact_mix(rng, count, LOOKUP_SHARE),
                                 _exact_mix(rng, count, HOT_SHARE)):
        key = rng.choices(hot, cum_weights=hot_cum)[0] if is_hot else rng.choice(keys)
        if is_lookup:
            ops.append((LOOKUP, key, 0, shadow.get(key)))
            continue
        value = rng.getrandbits(63)
        # a toggle reports what its lookup saw, then flips the key
        ops.append((TOGGLE, key, value, shadow.get(key)))
        if key in shadow:
            del shadow[key]
        else:
            shadow[key] = value
    return ops


def make_workload(name: str, seed: int, n: int) -> Workload:
    if name not in WORKLOAD_LANES:
        raise ValueError(f"unknown workload {name!r}")
    build = _build_stream(seed, n)
    if name == "read-skewed":
        ops = _read_skewed_ops(seed, build)
    else:
        ops = _delete_ops(seed, build)
    return Workload(name, WORKLOAD_LANES[name], build, ops, replay(build, ops))


def replay(build: list, ops: list) -> dict:
    """Ground truth: the map after the build and every op, on a plain dict."""
    shadow = dict(build)
    for code, key, value, _ in ops:
        if code == DELETE:
            shadow.pop(key, None)
        elif code == TOGGLE:
            if key in shadow:
                del shadow[key]
            else:
                shadow[key] = value
    return shadow


def first_touch_share(ops: list) -> float:
    """Share of ops whose key no earlier op touched."""
    seen: set[int] = set()
    first = 0
    for _, key, _, _ in ops:
        if key not in seen:
            seen.add(key)
            first += 1
    return first / len(ops) if ops else 0.0
