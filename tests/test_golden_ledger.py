"""Golden ledger: the deterministic output of every experiment, pinned.

For each kernel x pattern x layout x model, `run_experiment` at n=200,
trials=2 and a fixed seed must reproduce its report (wall-time fields
dropped) and the write statistics of every pool closed during the run.
For each kernel x layout the same holds for `breakdown_report` (its
timing-derived fractions dropped too). Byte ledgers, migration counts,
translations and allocations are all deterministic, so a refactor that
keeps them proves it kept the behaviour.

A change that alters the ledger on purpose regenerates the data file:

    PYTHONPATH=src python tests/test_golden_ledger.py
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ledstore.bench import WorkloadConfig, breakdown_report, run_experiment
from ledstore.bench.workload import LAYOUTS, MODELS, PATTERNS
from ledstore.kernels import KINDS
from ledstore.pool import PoolHandle

GOLDEN = Path(__file__).with_name("golden_ledger.json")
N, TRIALS, SEED = 200, 2, 1234

CASES = [("run", k, p, lay, m)
         for k, p, lay, m in itertools.product(KINDS, PATTERNS, LAYOUTS, MODELS)]
CASES += [("breakdown", k, "del", lay, "auto")
          for k, lay in itertools.product(KINDS, LAYOUTS)]


def case_id(case) -> str:
    return "/".join(case)


def _strip(report: dict, kind: str) -> dict:
    out = {k: v for k, v in report.items()
           if not k.startswith(("t_", "overhead_"))}
    if kind == "breakdown":
        del out["breakdown"]
    return out


def collect(case, pool_dir: str, mp: pytest.MonkeyPatch) -> dict:
    """Run one case; return its stripped report and closed-pool stats."""
    kind, kernel, pattern, layout, model = case
    cfg = WorkloadConfig(kernel=kernel, pattern=pattern, n=N, seed=SEED,
                         layout=layout, model=model, trials=TRIALS,
                         pool_dir=pool_dir)
    closed: list[dict] = []
    real_close = PoolHandle.close

    def close(self):
        if not self.closed:
            closed.append(self.stats.snapshot())
        real_close(self)

    mp.setattr(PoolHandle, "close", close)
    run = breakdown_report if kind == "breakdown" else run_experiment
    report = run(cfg).to_dict()
    mp.undo()
    closed.sort(key=lambda s: json.dumps(s, sort_keys=True))
    return {"report": _strip(report, kind), "pools": closed}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_ledger(case, golden, tmp_path, monkeypatch):
    got = json.loads(json.dumps(collect(case, str(tmp_path), monkeypatch)))
    assert got == golden[case_id(case)]


def regenerate() -> None:
    data = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for case in CASES:
            data[case_id(case)] = collect(case, tmp, mp)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
