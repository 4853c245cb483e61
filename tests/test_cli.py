import json
import math

import pytest

from gpanet.cli import cli_main
from gpanet.harness import ExperimentSpec, run_experiment
from gpanet.models import ModelConfig, default_probes

from test_golden import ANALYSIS_ARGV, DIAMETER_ARGV, experiment_spec


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = cli_main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


GEN = ["--model", "base", "--n", "200", "--m", "2", "--xi", "1",
       "--r", "0.6", "--seed", "3"]


class TestParams:
    def test_prints_json(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "100000", "--xi", "1",
                           "--c0", "1", "--c1", "0.5")
        assert code == 0
        d = json.loads(out)
        assert d["r0"] == pytest.approx(0.036407067001059)
        assert d["R0"] == pytest.approx(0.4191518487813695)
        assert d["window_valid"] is False

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "params", "--n", "2", "--xi", "1",
                             "--c0", "1", "--c1", "0.5")
        assert code == 1
        assert "n must be" in err

    def test_domain_error_json(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "2", "--xi", "1",
                           "--c0", "1", "--c1", "0.5", "--json")
        assert code == 1
        payload = json.loads(out)
        # keys come out sorted, as in every other --json output
        assert list(payload) == ["command", "error"]
        assert "n must be" in payload["error"]


class TestGenerate:
    def test_lonely_vertex_loops(self, capsys):
        code, out, _ = run(capsys, "generate", "--model", "base", "--n", "1",
                           "--m", "3", "--xi", "1", "--r", "0.3",
                           "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "src,dst,kind"
        assert lines[1:] == ["0,0,plain"] * 6

    def test_out_directory(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", *GEN, "--out", str(tmp_path),
                           "--checkpoints", "100,200", "--json")
        assert code == 0
        for name in ("edges.csv", "vertices.csv", "trace.csv", "config.json"):
            assert (tmp_path / name).exists()
        cfg = ModelConfig.from_json_dict(
            json.loads((tmp_path / "config.json").read_text()))
        assert cfg.n == 200 and cfg.checkpoint_times == (100, 200)

    def test_env_var_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GPANET_OUT", str(tmp_path))
        code, out, _ = run(capsys, "generate", *GEN)
        assert code == 0
        assert (tmp_path / "edges.csv").exists()

    def test_radius_from_c0(self, capsys, tmp_path):
        argv = ["generate", "--model", "base", "--n", "200", "--m", "2",
                "--xi", "1", "--c0", "1", "--seed", "3", "--out",
                str(tmp_path), "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        import math
        assert cfg["r"] == pytest.approx(math.log(200) / math.sqrt(200))

    def test_needs_some_radius(self, capsys):
        code, _, err = run(capsys, "generate", "--model", "base", "--n", "5",
                           "--m", "2", "--xi", "1", "--seed", "3")
        assert code == 1
        assert "--r or --c0" in err


class TestAnalysisCommands:
    def test_degrees_json(self, capsys):
        code, out, _ = run(capsys, "degrees", *GEN, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["expected_exponent"] == 4.0
        assert d["k_min"] == 2
        assert isinstance(d["exponent"], float)
        assert d["config"]["n"] == 200

    def test_degrees_error_json(self, capsys):
        code, out, _ = run(capsys, "degrees", "--model", "base", "--n", "5",
                           "--m", "2", "--xi", "1", "--r", "0.5",
                           "--seed", "3", "--json")
        assert code == 1
        assert "need at least 100" in json.loads(out)["error"]

    def test_diameter_json(self, capsys):
        code, out, _ = run(capsys, "diameter", "--model", "hybrid", "--n",
                           "300", "--m", "2", "--xi", "1", "--r", "0.5",
                           "--seed", "12", "--mode", "component-wise",
                           "--json")
        assert code == 0
        d = json.loads(out)
        assert isinstance(d["diameter"], int) and d["diameter"] > 0

    def test_communities_json(self, capsys):
        code, out, _ = run(capsys, "communities", *GEN, "--centers", "10",
                           "--R", "0.4", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["n_checked"] == 10
        assert len(d["reports"]) == 10
        assert 0 <= d["n_satisfying"] <= 10

    def test_communities_whole_sphere_cap(self, capsys):
        # R defaults to min(2r, pi) = pi, so every cap is the whole graph
        code, out, _ = run(capsys, "communities", "--model", "base", "--n",
                           "60", "--m", "2", "--xi", "1", "--r", "2.0",
                           "--seed", "4", "--centers", "3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["R"] == math.pi
        assert d["n_checked"] == 3 and d["n_satisfying"] == 0
        assert len(d["reports"]) == 3
        for rep in d["reports"]:
            assert rep["error"] == "conductance undefined for S = V"

    def test_expander_json(self, capsys):
        code, out, _ = run(capsys, "expander", *GEN, "--centers", "8",
                           "--radii", "0.2,0.5", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["radii"] == [0.2, 0.5]
        assert len(d["conductance"]) == 2
        assert len(d["conductance"][0]) == 8

    def test_concentration_json(self, capsys):
        code, out, _ = run(capsys, "concentration", *GEN, "--probes", "2",
                           "--checkpoints", "100,200", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["times"] == [100, 200]
        assert d["worst_z_dev"] is None or isinstance(d["worst_z_dev"], float)

    def test_concentration_without_probes_fails(self, capsys):
        code, out, _ = run(capsys, "concentration", *GEN, "--probes", "0", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "trace has no probes"

    @pytest.mark.parametrize("t_r", ["inf", "-inf", "nan"])
    def test_concentration_non_finite_t_r_fails(self, capsys, t_r):
        code, out, _ = run(capsys, "concentration", *GEN, f"--t-r={t_r}", "--json")
        assert code == 1
        assert strict_loads(out) == {"error": "t_r must be finite",
                                     "command": "concentration"}

    @pytest.mark.parametrize("R", ["-0.2", "nan"])
    def test_communities_bad_radius_fails(self, capsys, R):
        code, out, _ = run(capsys, "communities", *GEN, f"--R={R}", "--json")
        assert code == 1
        assert "radius R must be finite" in strict_loads(out)["error"]

    @pytest.mark.parametrize("command,flag,count", [
        ("expander", "--centers", "-3"), ("communities", "--centers", "-3"),
        ("generate", "--probes", "-1"), ("concentration", "--probes", "-1")])
    def test_negative_count_fails(self, capsys, command, flag, count):
        code, out, _ = run(capsys, command, *GEN, flag, count, "--json")
        assert code == 1
        assert strict_loads(out) == {"error": f"{flag[2:]} must be >= 0, got {count}",
                                     "command": command}


class TestExperimentCommand:
    def test_runs_spec_file(self, capsys, tmp_path):
        cfg = ModelConfig(model="base", n=150, m=2, xi=1.0, r=0.6, seed=0)
        spec = ExperimentSpec(cfg, (1, 2), ("degrees", "diameter"),
                              str(tmp_path / "ignored"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "experiment", "--spec", str(spec_path),
                           "--out", str(out_dir), "--json")
        assert code == 0
        index = json.loads(out)
        assert index["errors"] == []
        assert (out_dir / "index.json").exists()
        assert (out_dir / "degrees_summary.json").exists()

    @pytest.mark.parametrize("spec, names", [
        ([1, 2], "JSON object"),
        ({"seeds": [1], "analyses": ["tree"], "out_dir": "x"}, "'config'"),
        ({"config": {}, "seeds": 5}, "'seeds'"),
        ({"config": {}, "seeds": [1], "analyses": ["degrees"], "out_dir": "x",
          "options": {"degrees": 5}}, "'options' must be an object of objects"),
    ])
    def test_malformed_spec_fails(self, capsys, tmp_path, spec, names):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "o")]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        err = strict_loads(out)
        assert err["command"] == "experiment" and names in err["error"]
        code, _, stderr = run(capsys, *argv)
        assert code == 1 and stderr.startswith("error: ") and names in stderr

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "--spec",
                           str(tmp_path / "nope.json"))
        assert code == 1


class TestHarnessParity:
    """Each analysis subcommand prints what run_experiment writes."""

    FLAGS = ["--model", "hybrid", "--n", "300", "--m", "2", "--xi", "1",
             "--r", "0.5", "--seed", "12"]

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        cfg = ModelConfig(model="hybrid", n=300, m=2, xi=1.0, r=0.5, seed=0)
        traced = ModelConfig(model="hybrid", n=300, m=2, xi=1.0, r=0.5,
                             seed=0, probes=default_probes(2),
                             checkpoint_times=(75, 150, 225, 300))
        out = tmp_path_factory.mktemp("parity")
        # the subcommand defaults: diameter is exact, concentration traces
        # two probes at the quartiles of n
        run_experiment(ExperimentSpec(
            cfg, (12,), ("degrees", "diameter", "communities", "expander"),
            str(out), options={"diameter": {"mode": "exact"}}))
        run_experiment(ExperimentSpec(traced, (12,), ("concentration",),
                                      str(out)))
        return out

    @pytest.mark.parametrize("name", ["degrees", "diameter", "communities",
                                      "expander", "concentration"])
    def test_payload_equals_artifact(self, capsys, monkeypatch, artifacts,
                                     name):
        monkeypatch.delenv("GPANET_OUT", raising=False)
        extra = ["--probes", "2"] if name == "concentration" else []
        code, out, _ = run(capsys, name, *self.FLAGS, *extra, "--json")
        assert code == 0
        want = json.loads((artifacts / f"{name}_seed12.json").read_text())
        want.pop("histogram_csv", None)
        assert json.loads(out) == want

    def test_expander_default_radii_stay_in_domain(self, capsys, monkeypatch,
                                                   tmp_path):
        monkeypatch.delenv("GPANET_OUT", raising=False)
        code, out, _ = run(capsys, "expander", "--model", "base", "--n", "60",
                           "--m", "2", "--xi", "1", "--r", "2.0", "--seed",
                           "4", "--centers", "5", "--json")
        assert code == 0
        cli = json.loads(out)
        cfg = ModelConfig(model="base", n=60, m=2, xi=1.0, r=2.0, seed=0)
        run_experiment(ExperimentSpec(cfg, (4,), ("expander",), str(tmp_path),
                                      options={"expander": {"centers": 5}}))
        harness = json.loads((tmp_path / "expander_seed4.json").read_text())
        assert cli["radii"] == harness["radii"] == [2.0, math.pi]


class TestStrictJson:
    """Every --json output and every pinned experiment artifact parses as
    strict JSON: no NaN or Infinity constants."""

    @pytest.mark.parametrize("argv", [
        *(ANALYSIS_ARGV[name] for name in sorted(ANALYSIS_ARGV)),
        *(["diameter", *DIAMETER_ARGV[name], "--xi", "1"] for name in sorted(DIAMETER_ARGV)),
        ["params", "--n", "1000", "--xi", "1", "--c0", "1", "--c1", "0.5"],
        ["concentration", *GEN, "--probes", "3", "--t-r", "1e9"],
        ["degrees", *GEN, "--kmin", "40"],
    ], ids=lambda argv: argv[0])
    def test_cli_json_output(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("GPANET_OUT", raising=False)
        _, out, _ = run(capsys, *argv, "--json")
        strict_loads(out)

    def test_generate_and_experiment_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", *GEN, "--out", str(tmp_path / "g"), "--json")
        assert code == 0
        strict_loads(out)
        strict_loads((tmp_path / "g" / "config.json").read_text())
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(experiment_spec(tmp_path / "e").to_json_dict()))
        code, out, _ = run(capsys, "experiment", "--spec", str(spec_path), "--json")
        assert code == 0
        assert strict_loads(out)["errors"] == []
        names = sorted(p.name for p in (tmp_path / "e").glob("*.json"))
        assert len(names) == 14
        for name in names:
            strict_loads((tmp_path / "e" / name).read_text())


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli_main(["degrees", "--model", "base"]) == 2

    def test_bad_model_choice(self, capsys):
        argv = ["generate", "--model", "tripartite", "--n", "5", "--m", "2",
                "--xi", "1", "--r", "0.5", "--seed", "3"]
        assert cli_main(argv) == 2
