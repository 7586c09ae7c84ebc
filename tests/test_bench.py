"""Workload generation, experiment runs, sweeps, report emission, CLI."""

import json
from pathlib import Path

import pytest

from ledstore.bench import (
    WorkloadConfig,
    breakdown_report,
    emit_report,
    gen_workload,
    run_experiment,
    shadow_replay,
    sweep_dataset_size,
    sweep_working_set,
)
from ledstore.errors import ConfigError


class TestGenWorkload:
    def test_del_pattern_deletes_same_keys(self):
        original, update = gen_workload("del", 3, seed=9)
        assert [op for op, _, _ in original] == ["ins"] * 3
        assert [(op, k) for op, k, _ in update] == [("del", k) for _, k, _ in original]

    def test_ins_pattern_disjoint_keys(self):
        original, update = gen_workload("ins", 50, seed=9)
        okeys = {k for _, k, _ in original}
        ukeys = {k for _, k, _ in update}
        assert len(okeys) == len(ukeys) == 50
        assert not okeys & ukeys

    def test_same_seed_identical(self):
        assert gen_workload("rand", 100, seed=5) == gen_workload("rand", 100, seed=5)

    def test_different_seed_differs(self):
        assert gen_workload("del", 100, seed=5) != gen_workload("del", 100, seed=6)

    def test_rand_final_size_matches_replay(self):
        original, update = gen_workload("rand", 10000, seed=3)
        shadow = shadow_replay(original)
        toggles = len(original)
        dels = toggles - len(shadow)  # every repeat-hit removed one
        assert len(shadow) == sum(1 for _ in shadow)
        # replaying the same stream twice toggles back to a consistent state
        final = shadow_replay(original, update)
        assert shadow_replay(original, update) == final

    def test_ratio_trims_deletes(self):
        _, update = gen_workload("del", 1000, seed=1, ratio=0.1)
        assert len(update) == 100

    def test_config_validation_guard(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(n=0).validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(ratio=0).validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(trials=0).validate()


def small_cfg(tmp_path, **kw):
    base = dict(kernel="hashmap", pattern="del", n=300, seed=21,
                layout="change", model="auto", trials=2,
                pool_dir=str(tmp_path / "bench"))
    base.update(kw)
    return WorkloadConfig(**base)


class TestRunExperiment:
    def test_auto_model_full_report(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rep = run_experiment(cfg)
        assert rep.valid
        assert not any(Path(cfg.pool_dir).iterdir())  # no pool or manifest left
        assert rep.migrations == 300                 # one per deleted key
        assert rep.migration_bytes == 300 * 40
        assert rep.migration_bytes_per_node == 40
        assert rep.t_retain is not None and rep.t_manual is not None
        assert rep.t_auto is not None
        assert rep.overhead_manual_pct == pytest.approx(
            100 * rep.t_retain / rep.t_manual)
        assert rep.overhead_auto_pct == pytest.approx(
            100 * (rep.t_auto - rep.t_manual) / rep.t_manual)

    def test_manual_model(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, model="manual"))
        assert rep.valid
        assert rep.migrations == 300
        assert rep.migration_bytes_per_node == 40
        assert rep.t_auto is None
        assert rep.overhead_auto_pct is None

    def test_reset_model(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, model="reset"))
        assert rep.valid
        assert rep.t_retain is not None and rep.t_manual is not None
        assert rep.bytes_user > 0                    # full rebuild cost

    def test_rand_pattern_auto(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, pattern="rand", kernel="rbtree"))
        assert rep.valid

    def test_ins_pattern_btree(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, pattern="ins", kernel="btree",
                                       n=200))
        assert rep.valid
        assert rep.migrations >= 200                 # new items build extensions

    def test_layout_add_zero_migrations(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, layout="add"))
        assert rep.valid
        assert rep.migrations == 0
        assert rep.migration_bytes == 0


class TestSweeps:
    def test_size_series_shape(self, tmp_path):
        cfg = small_cfg(tmp_path, trials=1)
        reports = sweep_dataset_size(cfg, sizes=(50, 100, 200))
        assert len(reports) == 3
        assert [r.n for r in reports] == [50, 100, 200]
        # DEL over per-key-node kernels migrates exactly n
        assert [r.migrations for r in reports] == [50, 100, 200]
        # manual cost per record is size-independent
        assert all(r.valid for r in reports)

    def test_ratio_series_counts(self, tmp_path):
        cfg = small_cfg(tmp_path, n=1000, trials=1)
        reports = sweep_working_set(cfg, ratios=(0.01, 0.1, 1.0))
        assert [r.migrations for r in reports] == [10, 100, 1000]
        migs = [r.migrations for r in reports]
        assert migs == sorted(migs)  # non-decreasing in ratio

    def test_ratio_requires_del(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_working_set(small_cfg(tmp_path, pattern="ins"))


class TestBreakdown:
    def test_fractions_sum_to_one(self, tmp_path):
        cfg = small_cfg(tmp_path, n=400, trials=2)
        rep = breakdown_report(cfg)
        assert rep.breakdown is not None
        assert sum(rep.breakdown.values()) == pytest.approx(1.0, abs=1e-9)
        bc = rep.counters["breakdown"]
        assert bc["translations_cached"] < bc["translations_base"]
        assert bc["allocations_premat"] == 0
        assert bc["allocations_base"] == 400

    def test_add_layout_alloc_fraction_zero(self, tmp_path):
        cfg = small_cfg(tmp_path, n=200, layout="add", trials=1)
        rep = breakdown_report(cfg)
        assert rep.counters["breakdown"]["allocations_base"] == 0


class TestEmit:
    def test_json_round_trip(self, tmp_path):
        rep = run_experiment(small_cfg(tmp_path, trials=1))
        out = tmp_path / "r.json"
        emit_report(rep, "json", str(out))
        loaded = json.loads(out.read_text())
        assert loaded == rep.to_dict()
        # identical reports serialize identically
        out2 = tmp_path / "r2.json"
        emit_report(rep, "json", str(out2))
        assert out.read_text() == out2.read_text()

    def test_csv_row_count_and_percent_format(self, tmp_path):
        cfg = small_cfg(tmp_path, trials=1)
        reports = sweep_dataset_size(cfg, sizes=(50, 100))
        out = tmp_path / "series.csv"
        emit_report(reports, "csv", str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per series element
        header = lines[0].split(",")
        row = lines[1].split(",")
        pct = row[header.index("overhead_manual_pct")]
        assert "." in pct and len(pct.split(".")[1]) == 2


class TestCli:
    def test_run_command(self, tmp_path):
        from click.testing import CliRunner

        from ledstore.bench.cli import main

        out = tmp_path / "cli.json"
        result = CliRunner().invoke(main, [
            "run", "--kernel", "hashmap", "--pattern", "del", "--n", "100",
            "--seed", "3", "--layout", "change", "--model", "manual",
            "--trials", "1", "--pool", str(tmp_path / "scratch"),
            "--report", "json", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        loaded = json.loads(out.read_text())
        assert loaded["migrations"] == 100
        assert loaded["migration_bytes_per_node"] == 40

    def test_config_file_merging(self, tmp_path):
        from click.testing import CliRunner

        from ledstore.bench.cli import main

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "kernel": "rbtree", "pattern": "del", "n": 80, "seed": 5,
            "trials": 1, "pool_dir": str(tmp_path / "scratch"),
            "policy": {"model": "manual", "layout_name": "rbtree-map",
                       "layout_version": 2},
        }))
        out = tmp_path / "cli.json"
        result = CliRunner().invoke(main, [
            "run", "--config", str(config), "--out", str(out), "--report", "json",
        ])
        assert result.exit_code == 0, result.output
        loaded = json.loads(out.read_text())
        assert loaded["kernel"] == "rbtree"
        assert loaded["model"] == "manual"
        assert loaded["migrations"] == 80

    @pytest.mark.parametrize("policy", [
        {"model": "manual", "layout_name": "hashmap-map"},
        {"layout_version": 3},
        {"manifest": "schema.json"},
    ])
    def test_config_policy_mismatch_rejected(self, tmp_path, policy):
        from click.testing import CliRunner

        from ledstore.bench.cli import main

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "kernel": "rbtree", "n": 80, "trials": 1,
            "pool_dir": str(tmp_path / "scratch"), "policy": policy,
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(config)])
        assert isinstance(result.exception, ConfigError), result.output
        assert not (tmp_path / "scratch").exists()

    def test_config_unknown_key_rejected(self, tmp_path):
        from click.testing import CliRunner

        from ledstore.bench.cli import main

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "kernel": "rbtree", "n": 80, "trials": 1,
            "pool_dir": str(tmp_path / "scratch"), "capacity": 4096,
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(config)])
        assert isinstance(result.exception, ConfigError), result.output
        assert not (tmp_path / "scratch").exists()
