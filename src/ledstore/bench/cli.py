"""ledsbench: run retention experiments and sweeps from the command line.

    ledsbench run --kernel hashmap --pattern del --n 100000 --seed 7 \
        --layout change --model auto --trials 5 --pool /tmp/bench \
        --report json --out report.json

    ledsbench sweep size   ... --out series.csv --report csv
    ledsbench sweep ratio  ...
    ledsbench sweep breakdown ...

Every flag can also come from a JSON config file (--config); explicit
flags win, and a file key that names no flag is a ConfigError. The file
may carry a "policy" block mirroring the retention interface. Its "model"
sets the retention model (an explicit --model still wins). "layout_name"
and "layout_version" may restate what the run derives, "<kernel>-map" and
2; any other value, or any other key (the run writes its own schema
manifest), is a ConfigError.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click

from ..errors import ConfigError
from ..kernels import KINDS
from .runner import (
    breakdown_report,
    emit_report,
    run_experiment,
    sweep_dataset_size,
    sweep_working_set,
)
from .workload import LAYOUTS, MODELS, PATTERNS, WorkloadConfig

_SHARED = [
    click.option("--kernel", type=click.Choice(KINDS), default=None),
    click.option("--pattern", type=click.Choice(PATTERNS), default=None),
    click.option("--n", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--layout", type=click.Choice(LAYOUTS), default=None),
    click.option("--model", type=click.Choice(MODELS), default=None),
    click.option("--trials", type=int, default=None),
    click.option("--pool", "pool_dir", type=click.Path(), default=None,
                 help="scratch directory for pool files"),
    click.option("--report", "fmt", type=click.Choice(["json", "csv"]), default=None),
    click.option("--out", type=click.Path(), default=None),
    click.option("--ratio", type=float, default=None),
    click.option("--config", "config_path", type=click.Path(exists=True), default=None),
]


def _with_shared(fn):
    for opt in reversed(_SHARED):
        fn = opt(fn)
    return fn


def _build_config(kwargs) -> tuple[WorkloadConfig, str, str | None]:
    config_path = kwargs.pop("config_path", None)
    file_values: dict = {}
    if config_path:
        with open(config_path) as fh:
            file_values = json.load(fh)
    policy_block = file_values.pop("policy", {})
    file_fmt, file_out = file_values.pop("report", None), file_values.pop("out", None)
    fmt = kwargs.pop("fmt", None) or file_fmt or "json"
    out = kwargs.pop("out", None) or file_out

    merged = asdict(WorkloadConfig())
    unknown = sorted(set(file_values) - set(merged))
    if unknown:
        raise ConfigError(f"config file keys {unknown} are not run options")
    merged.update(file_values)
    if policy_block.get("model"):
        merged["model"] = policy_block["model"]
    merged.update({k: v for k, v in kwargs.items() if v is not None})
    cfg = WorkloadConfig(**merged).validate()
    derived = {"layout_name": cfg.layout_name, "layout_version": 2}
    for key, value in policy_block.items():
        if key == "model":
            continue
        if key not in derived:
            raise ConfigError(f"policy key {key!r} is not supported; the run "
                              f"derives everything but the model")
        if value != derived[key]:
            raise ConfigError(f"policy {key} {value!r} disagrees with the "
                              f"run's {derived[key]!r}")
    return cfg, fmt, out


def _deliver(report, fmt: str, out: str | None) -> None:
    if out:
        emit_report(report, fmt, out)
        click.echo(f"wrote {out}")
        return
    rows = [r.to_dict() for r in (report if isinstance(report, list) else [report])]
    json.dump(rows[0] if not isinstance(report, list) else rows,
              sys.stdout, indent=2, sort_keys=True)
    click.echo()


@click.group()
def main() -> None:
    """Persistent-data retention benchmark harness."""


@main.command()
@_with_shared
def run(**kwargs) -> None:
    """One experiment: original phase, retention, updated phase."""
    cfg, fmt, out = _build_config(kwargs)
    _deliver(run_experiment(cfg), fmt, out)


@main.group()
def sweep() -> None:
    """Series runs over dataset sizes, working-set ratios, or cost breakdown."""


@sweep.command()
@_with_shared
def size(**kwargs) -> None:
    """Overhead versus dataset size: n in {100, 1000, 10000, 100000}."""
    cfg, fmt, out = _build_config(kwargs)
    _deliver(sweep_dataset_size(cfg), fmt, out)


@sweep.command()
@_with_shared
def ratio(**kwargs) -> None:
    """Working-set sensitivity: delete 0.1%, 1%, 10%, 100% of the keys."""
    cfg, fmt, out = _build_config(kwargs)
    _deliver(sweep_working_set(cfg), fmt, out)


@sweep.command()
@_with_shared
def breakdown(**kwargs) -> None:
    """Differential cost attribution for the automatic model."""
    cfg, fmt, out = _build_config(kwargs)
    _deliver(breakdown_report(cfg), fmt, out)


if __name__ == "__main__":
    main()
