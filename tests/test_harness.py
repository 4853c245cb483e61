import json
import math

import numpy as np
import pytest

from gpanet.harness import (ANALYSES, DerivedParameters, ExperimentSpec,
                            community_exponent, derive_parameters,
                            exponent_window_valid, json_text, run_experiment)
from gpanet.models import ModelConfig, default_probes, generate


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

    def test_duplicate_analyses_rejected(self):
        # each analysis would be run, listed and pooled twice
        with pytest.raises(ValueError, match="^analyses must be distinct$"):
            ExperimentSpec(tiny_config(), (1,), ("degrees", "diameter", "degrees"), "out")

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


def spec_dict(**changes):
    d = ExperimentSpec(tiny_config(), (5,), ("degrees",), "out").to_json_dict()
    d.update(changes)
    return {k: v for k, v in d.items() if v is not None}


class TestSpecFromJson:
    def test_options_may_be_left_out(self):
        spec = ExperimentSpec.from_json_dict(spec_dict(options=None))
        assert spec.options == {} and spec.seeds == (5,)

    @pytest.mark.parametrize("bad, message", [
        (["not", "an", "object"], "experiment spec must be a JSON object"),
        (spec_dict(config=None), "experiment spec has no 'config'"),
        (spec_dict(seeds=None), "experiment spec has no 'seeds'"),
        (spec_dict(out_dir=None), "experiment spec has no 'out_dir'"),
        (spec_dict(seeds=5), "'seeds' must be a list of integers"),
        (spec_dict(seeds=[[1]]), "'seeds' must be a list of integers"),
        (spec_dict(analyses="degrees"), "'analyses' must be a list of strings"),
        (spec_dict(out_dir=7), "'out_dir' must be a string"),
        (spec_dict(config=[1]), "'config' must be an object"),
        (spec_dict(options={"degrees": 5}), "'options' must be an object of objects"),
        (spec_dict(config={"n": 10}), "'config' has no 'model'"),
        (spec_dict(config={**tiny_config().to_json_dict(), "probes": 5}),
         "'config' is ill-typed"),
    ])
    def test_malformed_spec_names_the_key(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_json_dict(bad)


def test_json_text_rejects_non_finite():
    assert json_text({"b": [1, None], "a": 0.5}) == \
        '{\n  "a": 0.5,\n  "b": [\n    1,\n    null\n  ]\n}'
    for x in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            json_text({"x": x})


class TestCommunitiesRadius:
    @pytest.fixture(scope="class")
    def grown(self):
        cfg = tiny_config(model="base")
        return (*generate(cfg), cfg)

    @pytest.mark.parametrize("R", [-0.2, float("nan"), float("inf")])
    def test_bad_radius_fails_before_any_centre(self, grown, R):
        g, trace, cfg = grown
        with pytest.raises(ValueError, match="radius R must be finite and nonnegative"):
            ANALYSES["communities"].run(g, trace, cfg, {"R": R}, None)

    def test_radius_above_pi_is_clamped(self, grown):
        g, trace, cfg = grown
        d = ANALYSES["communities"].run(g, trace, cfg, {"R": 4.0, "centers": 3}, None)
        assert d["R"] == 4.0 and d["n_checked"] == 3
        assert all(r["error"] == "conductance undefined for S = V" for r in d["reports"])


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

    def test_non_string_degree_kind_recorded(self, tmp_path):
        spec = ExperimentSpec(tiny_config(), (7,), ("degrees",), str(tmp_path),
                              options={"degrees": {"kind": 3}})
        index = run_experiment(spec)
        assert [(e["type"], e["error"]) for e in index["errors"]] == [
            ("ValueError", "unknown degree kind 3")]

    def test_failed_fit_recorded(self, tmp_path):
        # a fit threshold that strands the tail is caught per artifact
        spec = ExperimentSpec(tiny_config(), (7,), ("degrees",),
                              str(tmp_path), options={"degrees": {"k_min": 40}})
        index = run_experiment(spec)
        assert index["errors"] and "k >= 40" in index["errors"][0]["error"]
        assert (tmp_path / "degrees_seed7.csv").exists()  # partial output


class TestFractionalIntegers:
    """A fractional value where an integer is due raises, where it used to be
    truncated; an integral float, such as 1e4 read from JSON, passes."""

    @pytest.mark.parametrize("field, value", [
        ("n", 100.7), ("m", 2.9), ("seed", 3.5), ("delta", 2.5),
        ("checkpoint_times", (10.5,)), ("checkpoint_times", (10, 20.25))])
    def test_model_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field.replace('_', ' ')} must be integers$"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["n", "m", "seed", "delta"])
    def test_bools_rejected(self, field):
        # a Python bool used to pass as 0 or 1, where a numpy bool raised
        for value in (True, np.True_):
            with pytest.raises(ValueError, match=f"^{field} must be integers$"):
                tiny_config(**{field: value})

    def test_bool_model_config(self):
        with pytest.raises(ValueError, match="^n must be integers$"):
            ModelConfig(model="base", n=True, m=True, xi=1.0, r=0.3, seed=True)

    def test_integral_floats_pass(self):
        cfg = tiny_config(n=1e4, m=2.0, seed=3.0, delta=2.0, checkpoint_times=(10.0, 1e4))
        assert (cfg.n, cfg.m, cfg.seed, cfg.delta) == (10000, 2, 3, 2)
        assert cfg.checkpoint_times == (10, 10000)
        assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.seed, cfg.delta,
                                            *cfg.checkpoint_times))
        assert derive_parameters(1e4, 1.0, 1.0, 0.5) == derive_parameters(10 ** 4, 1.0, 1.0, 0.5)
        # every 64-bit seed stays a seed, and a larger one names the bound
        for seed in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
            assert tiny_config(seed=seed).seed == 2 ** 64 - 1
        with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
            tiny_config(seed=2 ** 64)

    def test_experiment_seeds(self):
        with pytest.raises(ValueError, match="^seeds must be integers$"):
            ExperimentSpec(tiny_config(), (5.5,), ("degrees",), "o")
        with pytest.raises(ValueError, match="^master seed must be integers$"):
            ExperimentSpec.from_master(tiny_config(), 42.7, 2, ("degrees",), "o")
        with pytest.raises(ValueError, match="^trials must be integers$"):
            ExperimentSpec.from_master(tiny_config(), 42, 2.5, ("degrees",), "o")
        with pytest.raises(ValueError, match="^seeds must be integers$"):
            ExperimentSpec(tiny_config(), (True,), ("degrees",), "o")
        # integral floats pass, and every 64-bit seed stays a seed
        spec = ExperimentSpec(tiny_config(), (5.0, 2 ** 64 - 1, np.uint64(2 ** 63)),
                              ("degrees",), "o")
        assert spec.seeds == (5, 2 ** 64 - 1, 2 ** 63)
        assert all(type(s) is int for s in spec.seeds)
        assert ExperimentSpec.from_master(tiny_config(), 42.0, 2.0, ("degrees",), "o").seeds == \
            ExperimentSpec.from_master(tiny_config(), 42, 2, ("degrees",), "o").seeds
        assert len(ExperimentSpec.from_master(tiny_config(), 2 ** 64 - 1, 1,
                                              ("degrees",), "o").seeds) == 1

    def test_spec_file(self):
        with pytest.raises(ValueError, match="^n must be integers$"):
            ExperimentSpec.from_json_dict(spec_dict(config={**tiny_config().to_json_dict(),
                                                            "n": 100.5}))
        spec = ExperimentSpec.from_json_dict(
            spec_dict(config={**tiny_config().to_json_dict(), "n": 1e4}))
        assert spec.config.n == 10000

    def test_derive_parameters(self):
        with pytest.raises(ValueError, match="^n must be integers$"):
            derive_parameters(100.9, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("analysis, opts, message", [
        ("degrees", {"k_min": 4.7}, "k_min must be integers"),
        ("communities", {"centers": 5.5}, "centers must be integers"),
        ("expander", {"centers": 5.5}, "centers must be integers"),
    ])
    def test_analysis_options(self, analysis, opts, message):
        cfg = tiny_config()
        g, trace = generate(cfg)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ANALYSES[analysis].run(g, trace, cfg, opts, lambda table: None)
        whole = {k: float(round(v)) for k, v in opts.items()}
        if analysis != "degrees":   # the tiny graph's tail is too short to fit
            assert ANALYSES[analysis].run(g, trace, cfg, whole, lambda table: None) == \
                ANALYSES[analysis].run(g, trace, cfg, {k: int(v) for k, v in whole.items()},
                                       lambda table: None)
