import json
import math

import numpy as np
import pytest

from gpanet.harness import (ANALYSES, DerivedParameters, ExperimentSpec,
                            community_exponent, derive_parameters,
                            exponent_window_valid, run_experiment)
from gpanet.models import ModelConfig, default_probes


class TestDeriveParameters:
    def test_radius_scales(self):
        dp = derive_parameters(10 ** 5, 1.0, 1.0, 0.5)
        assert dp.r0 == pytest.approx(0.036407067001059, rel=1e-12)
        assert dp.R0 == pytest.approx(0.4191518487813695, rel=1e-12)
        assert not dp.r0_clamped and not dp.R0_clamped

    def test_community_exponent_value(self):
        assert community_exponent(2.0, 4.0) == pytest.approx(
            0.524465739003162, rel=1e-12)
        # closed form spelled out
        want = 4.0 * math.log(5.0) / math.log(207.0 ** 2 * 5.0)
        assert community_exponent(2.0, 4.0) == pytest.approx(want, rel=1e-15)

    def test_window_example(self):
        # arms evaluate to 3.75 < 4 < 5
        slack = 10.0 - 4.0 - 1.0
        assert slack * (1.0 - 1.0 / 4.0) == pytest.approx(3.75)
        assert 2.0 * slack * (1.0 - 2.0 / 4.0) == pytest.approx(5.0)
        assert exponent_window_valid(2.0, 10.0, 4.0)
        assert derive_parameters(10 ** 5, 2.0, 10.0, 4.0).window_valid

    def test_window_strict_on_both_arms(self):
        # at xi=2, c0=10 the window for c1 is (27/7, 4.5)
        assert not exponent_window_valid(2.0, 10.0, 3.857142)
        assert exponent_window_valid(2.0, 10.0, 3.8572)
        assert exponent_window_valid(2.0, 10.0, 4.4999)
        assert not exponent_window_valid(2.0, 10.0, 4.5000001)

    def test_time_scales_agree_at_r0(self):
        dp = derive_parameters(10 ** 5, 1.0, 1.0, 0.5)
        assert dp.r == dp.r0
        assert dp.t_r == pytest.approx(dp.t0, rel=1e-12)
        # closed form for t0
        ln = math.log(10 ** 5)
        assert dp.t0 == pytest.approx(12.0 * 10 ** 5 / ln ** (2 - 1 - 2),
                                      rel=1e-12)

    def test_explicit_r_changes_only_t_r(self):
        a = derive_parameters(10 ** 5, 1.0, 1.0, 0.5)
        b = derive_parameters(10 ** 5, 1.0, 1.0, 0.5, r=0.3)
        assert b.t0 == a.t0 and b.r0 == a.r0
        assert b.r == 0.3
        assert b.t_r != a.t_r
        ln = math.log(10 ** 5)
        want = 12.0 * ln ** 2 * (10 ** 5) ** 0.5 / 0.3
        assert b.t_r == pytest.approx(want, rel=1e-12)

    def test_clamping_flags(self):
        dp = derive_parameters(100, 1.0, 5.0, 0.5)
        assert dp.r0 == math.pi and dp.r0_clamped
        assert dp.R0 == math.pi and dp.R0_clamped

    def test_time_floor_flag(self):
        dp = derive_parameters(10 ** 5, 2.0, 10.0, 0.1)
        assert dp.t0 == 1.0 and dp.t0_floored
        assert dp.t_r > 1.0 and not dp.t_r_floored

    def test_pure_function(self):
        assert (derive_parameters(5000, 1.5, 2.0, 0.7)
                == derive_parameters(5000, 1.5, 2.0, 0.7))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            derive_parameters(2, 1.0, 1.0, 0.5)
        for bad in [(-1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, -0.5)]:
            with pytest.raises(ValueError):
                derive_parameters(100, *bad)
        with pytest.raises(ValueError):
            derive_parameters(100, 1.0, 1.0, 0.5, r=0.0)
        with pytest.raises(ValueError):
            derive_parameters(100, 1.0, 1.0, 0.5, r=4.0)

    def test_json_dict(self):
        d = derive_parameters(1000, 1.0, 1.0, 0.5).to_json_dict()
        assert set(d) >= {"r0", "R0", "t_r", "t0", "c2", "window_valid"}
        json.dumps(d)


def tiny_config(**kw):
    base = dict(model="hybrid", n=120, m=2, xi=1.0, r=0.6, seed=0,
                probes=default_probes(2), checkpoint_times=(60, 120))
    base.update(kw)
    return ModelConfig(**base)


class TestExperimentSpec:
    def test_validation(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            ExperimentSpec(cfg, (1,), (), "out")
        with pytest.raises(ValueError):
            ExperimentSpec(cfg, (), ("degrees",), "out")
        with pytest.raises(ValueError):
            ExperimentSpec(cfg, (1, 1), ("degrees",), "out")
        with pytest.raises(ValueError):
            ExperimentSpec(cfg, (1,), ("degrees", "entropy"), "out")
        with pytest.raises(ValueError):
            ExperimentSpec(cfg, (1,), ("degrees",), "out",
                           options={"entropy": {}})

    def test_option_keys_checked(self):
        # a misspelt key used to be ignored, fitting at k_min = m
        with pytest.raises(ValueError, match=r"unknown degrees options \['kmin'\]"):
            ExperimentSpec(tiny_config(), (1,), ("degrees",), "out",
                           options={"degrees": {"kmin": 100}})
        ExperimentSpec(tiny_config(), (1,), ("degrees", "diameter"), "out",
                       options={"degrees": {"kind": "local", "k_min": 10},
                                "diameter": {"mode": "exact"}})

    def test_from_master_is_prefix_stable(self):
        cfg = tiny_config()
        s3 = ExperimentSpec.from_master(cfg, 42, 3, ("degrees",), "out")
        s2 = ExperimentSpec.from_master(cfg, 42, 2, ("degrees",), "out")
        assert s3.seeds == (3444837047, 3329053876, 955475868)
        assert s2.seeds == s3.seeds[:2]
        with pytest.raises(ValueError):
            ExperimentSpec.from_master(cfg, 42, 0, ("degrees",), "out")

    def test_json_round_trip(self):
        spec = ExperimentSpec(tiny_config(), (5, 9), ("degrees", "tree"),
                              "somewhere", options={"degrees": {"k_min": 3}})
        back = ExperimentSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict())))
        assert back.seeds == spec.seeds
        assert back.analyses == spec.analyses
        assert back.options == spec.options
        assert back.config.to_json_dict() == spec.config.to_json_dict()


class TestRunExperiment:
    def run_all(self, tmp_path, **kw):
        spec = ExperimentSpec(tiny_config(**kw), (7, 11),
                              ("degrees", "diameter", "communities",
                               "expander", "concentration", "tree"),
                              str(tmp_path))
        return spec, run_experiment(spec)

    def test_full_run(self, tmp_path):
        spec, index = self.run_all(tmp_path)
        assert index["errors"] == []
        assert index["artifacts"] == sorted(index["artifacts"])
        for name in index["artifacts"]:
            assert (tmp_path / name).exists()
        assert (tmp_path / "index.json").exists()
        # config echo round-trips and each artifact names its trial config
        assert index["config"] == spec.config.to_json_dict()
        payload = json.loads((tmp_path / "diameter_seed7.json").read_text())
        assert payload["config"]["seed"] == 7
        restored = ModelConfig.from_json_dict(payload["config"])
        assert restored.to_json_dict() == payload["config"]

    def test_degree_summary_aggregates(self, tmp_path):
        _, index = self.run_all(tmp_path)
        summ = json.loads((tmp_path / "degrees_summary.json").read_text())
        assert {f["seed"] for f in summ["per_seed"]} == {7, 11}
        assert "pooled_exponent" in summ
        assert summ["expected_exponent"] == 4.0

    def test_determinism(self, tmp_path):
        spec_a, index_a = self.run_all(tmp_path / "a")
        spec_b, index_b = self.run_all(tmp_path / "b")
        assert index_a["artifacts"] == index_b["artifacts"]
        for name in index_a["artifacts"] + ["index.json"]:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_partial_failure_preserved(self, tmp_path):
        # tree analysis is undefined on the base model; rest still runs
        cfg = tiny_config(model="base")
        spec = ExperimentSpec(cfg, (3,), ("tree", "degrees"), str(tmp_path))
        index = run_experiment(spec)
        assert len(index["errors"]) == 1
        assert index["errors"][0]["analysis"] == "tree"
        assert index["errors"][0]["type"] == "ValueError"
        assert (tmp_path / "degrees_seed3.json").exists()
        assert not (tmp_path / "tree_seed3.json").exists()

    def test_concentration_needs_checkpoints(self, tmp_path):
        cfg = tiny_config(checkpoint_times=())
        spec = ExperimentSpec(cfg, (3,), ("concentration",), str(tmp_path))
        index = run_experiment(spec)
        assert index["errors"] and "checkpoint" in index["errors"][0]["error"]

    def test_options_respected(self, tmp_path):
        spec = ExperimentSpec(tiny_config(), (7,), ("degrees",),
                              str(tmp_path),
                              options={"degrees": {"kind": "plain"}})
        run_experiment(spec)
        payload = json.loads((tmp_path / "degrees_seed7.json").read_text())
        assert payload["kind"] == "plain"

    def test_failed_fit_recorded(self, tmp_path):
        # a fit threshold that strands the tail is caught per artifact
        spec = ExperimentSpec(tiny_config(), (7,), ("degrees",),
                              str(tmp_path), options={"degrees": {"k_min": 40}})
        index = run_experiment(spec)
        assert index["errors"] and "k >= 40" in index["errors"][0]["error"]
        assert (tmp_path / "degrees_seed7.csv").exists()  # partial output
