"""Deterministic workload generation for the retention experiments.

Three input patterns drive the original and the updated program phase:

  DEL   original inserts N distinct keys; update deletes them (a working-set
        ratio deletes only the first ratio*N, in insertion order)
  INS   original inserts N distinct keys; update inserts N further distinct
  RAND  one stream of N possibly-repeated keys replayed by both phases with
        search-then-act semantics: a hit removes the pair, a miss inserts

Operations are (op, key, value) tuples with values fixed at generation
time, so an in-memory dict replay of the same list is the ground truth for
any kernel's final content. Keys stay below 2^31: version-1 records store
32-bit keys and the widened key64 must equal the zero-extended original.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigError

PATTERNS = ("del", "ins", "rand")
MODELS = ("reset", "manual", "auto")
LAYOUTS = ("change", "add")
KEY_SPACE = 1 << 31


@dataclass
class WorkloadConfig:
    kernel: str = "hashmap"
    pattern: str = "del"
    n: int = 1000
    seed: int = 42
    layout: str = "change"
    model: str = "auto"
    trials: int = 5
    ratio: float = 1.0
    pool_dir: str = "."

    def validate(self) -> "WorkloadConfig":
        from ..kernels import KINDS

        if self.kernel not in KINDS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"unknown layout edit {self.layout!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not 0 < self.ratio <= 1:
            raise ConfigError("working-set ratio must be in (0, 1]")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        return self

    @property
    def layout_name(self) -> str:
        return f"{self.kernel}-map"

    def pool_capacity(self) -> int:
        return max(64 * 1024 * 1024, self.n * 2048)


def gen_workload(pattern: str, n: int, seed: int, ratio: float = 1.0):
    """Return (original_ops, update_ops); deterministic for a fixed seed."""
    if pattern not in PATTERNS:
        raise ConfigError(f"unknown pattern {pattern!r}")
    rng = random.Random(seed)
    if pattern == "del":
        keys = rng.sample(range(1, KEY_SPACE), n)
        original = [("ins", k, rng.getrandbits(63)) for k in keys]
        update = [("del", k, 0) for k in keys[: max(1, int(n * ratio))]]
        return original, update
    if pattern == "ins":
        keys = rng.sample(range(1, KEY_SPACE), 2 * n)
        original = [("ins", k, rng.getrandbits(63)) for k in keys[:n]]
        update = [("ins", k, rng.getrandbits(63)) for k in keys[n:]]
        return original, update
    # rand: both phases replay one stream of repeatable keys
    stream = [("toggle", rng.randrange(1, n + 1), rng.getrandbits(63)) for _ in range(n)]
    return list(stream), list(stream)


def shadow_replay(*phases) -> dict[int, int]:
    """Ground-truth dict replay of op phases."""
    shadow: dict[int, int] = {}
    for ops in phases:
        for op, key, value in ops:
            if op == "ins":
                shadow.setdefault(key, value)
            elif op == "del":
                shadow.pop(key, None)
            elif key in shadow:
                del shadow[key]
            else:
                shadow[key] = value
    return shadow
