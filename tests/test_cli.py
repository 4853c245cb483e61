import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpanet
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

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "nan"), ("--beta", "inf"), ("--size-cap", "nan"), ("--size-cap", "-inf")])
    def test_communities_non_finite_bound_fails(self, capsys, flag, value):
        code, out, _ = run(capsys, "communities", *GEN, f"{flag}={value}", "--json")
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert strict_loads(out) == {"error": f"{name} must be finite, got {float(value)}",
                                     "command": "communities"}

    @pytest.mark.parametrize("radii", ["0.3,inf", "nan"])
    def test_expander_non_finite_radius_fails(self, capsys, radii):
        code, out, _ = run(capsys, "expander", *GEN, f"--radii={radii}", "--json")
        assert code == 1
        assert "radii must be finite and nonnegative" in strict_loads(out)["error"]

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

    def test_analysis_error_exits_1_after_writing(self, capsys, tmp_path):
        # concentration needs checkpoints; the failure is recorded, every
        # other output is still written, and the exit status reports it
        cfg = ModelConfig(model="base", n=150, m=2, xi=1.0, r=0.6, seed=0,
                          probes=default_probes(2))
        spec = ExperimentSpec(cfg, (1,), ("degrees", "concentration"), str(tmp_path / "run"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        code, out, _ = run(capsys, "experiment", "--spec", str(spec_path), "--json")
        assert code == 1
        index = strict_loads(out)
        assert [e["analysis"] for e in index["errors"]] == ["concentration"]
        assert strict_loads((tmp_path / "run" / "index.json").read_text()) == index
        assert (tmp_path / "run" / "degrees_summary.json").exists()
        code, out, err = run(capsys, "experiment", "--spec", str(spec_path))
        assert code == 1
        assert out.startswith("wrote ") and "error [seed 1, concentration]" in err

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


def test_degree_fits_leave_scipy_optimize_unloaded(tmp_path):
    # a fresh interpreter, since this test process imports scipy.optimize
    # as the reference for the fit's minimiser
    script = f"""
import json, sys
from gpanet.cli import cli_main
from gpanet.harness import ExperimentSpec, run_experiment
from gpanet.models import ModelConfig
assert cli_main(["degrees", *{GEN!r}, "--json"]) == 0
cfg = ModelConfig(model="base", n=150, m=2, xi=1.0, r=0.6, seed=0)
index = run_experiment(ExperimentSpec(cfg, (1,), ("degrees",), {str(tmp_path)!r}))
assert index["errors"] == [], index["errors"]
sys.exit("scipy.optimize" in sys.modules)
"""
    src = str(Path(gpanet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert isinstance(json.loads(done.stdout)["exponent"], float)


def test_traversals_leave_scipy_graph_and_linalg_unloaded(tmp_path):
    # a fresh interpreter, since this test process imports scipy.sparse.csgraph
    # as the reference for the traversal routines
    script = f"""
import sys
from gpanet.harness import run_experiment
from gpanet.metrics import community_check, diameter, expander_scan, urt_stats
from gpanet.models import ModelConfig, generate
from test_golden import experiment_spec
g, _ = generate(ModelConfig(model="hybrid", n=300, m=2, xi=1.0, r=0.4, seed=2))
community_check(g, 5, 0.5, 1.0, 0.25, 1e9)
expander_scan(g, [1, 7, 40], [0.2, 0.6])
diameter(g, "exact")
diameter(g, "component-wise")
urt_stats(g)
index = run_experiment(experiment_spec({str(tmp_path)!r}))
assert index["errors"] == [], index["errors"]
loaded = [m for m in ("scipy.sparse.csgraph", "scipy.linalg") if m in sys.modules]
sys.exit(f"loaded: {{loaded}}" if loaded else 0)
"""
    src = str(Path(gpanet.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_command_and_analysis_runs_without_scipy(tmp_path):
    # a fresh interpreter in which importing scipy fails, since this test
    # process imports scipy as the reference for the in-repo ports
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(experiment_spec(tmp_path / "cli").to_json_dict()))
    commands = [["params", "--n", "1000", "--xi", "1", "--c0", "1", "--c1", "0.5"],
                ["generate", *GEN, "--probes", "2", "--out", str(tmp_path / "gen")],
                *ANALYSIS_ARGV.values(),
                ["diameter", *DIAMETER_ARGV["base-forest"], "--xi", "1"],
                ["experiment", "--spec", str(spec_path)]]
    script = f"""
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, BlockScipy())
from gpanet.cli import cli_main
from gpanet.harness import ANALYSES, run_experiment
from test_golden import experiment_spec
for argv in {commands!r}:
    assert cli_main(argv + ["--json"]) == 0, argv
spec = experiment_spec({str(tmp_path / "api")!r})
assert set(spec.analyses) == set(ANALYSES)
index = run_experiment(spec)
assert index["errors"] == [], index["errors"]
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
    src = str(Path(gpanet.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
                          timeout=300)
    assert done.returncode == 0, done.stderr
