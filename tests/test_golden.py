"""Pinned SHA-256 digests of generator, CLI and experiment outputs.

Every output here is a pure function of its seed, so a refactor must leave
each digest unchanged.  A change that alters one of these outputs on purpose
updates its digest and says why in CHANGES.md.  To print the digests of the
current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from gpanet.cli import cli_main
from gpanet.harness import ExperimentSpec, run_experiment
from gpanet.models import ModelConfig, default_probes

GENERATE_SIZES = (1, 2, 50, 2000)
MODELS = ("base", "hybrid", "selfloop")
SMALL = ["--model", "hybrid", "--n", "300", "--m", "2", "--xi", "1",
         "--r", "0.5", "--seed", "12"]
ANALYSIS_ARGV = {
    "degrees": ["degrees", *SMALL],
    "diameter": ["diameter", *SMALL],
    "communities": ["communities", *SMALL, "--centers", "10"],
    "expander": ["expander", *SMALL, "--centers", "8"],
    "concentration": ["concentration", *SMALL, "--probes", "2"],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digests(path: Path) -> dict:
    return {p.name: sha(p.read_bytes()) for p in sorted(path.iterdir())}


def cli_stdout(argv) -> bytes:
    """stdout of one CLI run, which must succeed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    assert code == 0, buf.getvalue()
    return buf.getvalue().encode()


def generate_digests(model: str, n: int, tmp: Path) -> dict:
    cli_stdout(["generate", "--model", model, "--n", str(n), "--m", "2",
                "--xi", "1", "--r", "0.3", "--seed", "7", "--probes", "3",
                "--checkpoints", f"1,{n}", "--out", str(tmp)])
    return dir_digests(tmp)


def analysis_digest(name: str, as_json: bool) -> str:
    argv = ANALYSIS_ARGV[name] + (["--json"] if as_json else [])
    return sha(cli_stdout(argv))


def experiment_spec(out_dir) -> ExperimentSpec:
    cfg = ModelConfig(model="hybrid", n=120, m=2, xi=1.0, r=0.6, seed=0,
                      probes=default_probes(2), checkpoint_times=(60, 120))
    return ExperimentSpec(
        cfg, (7, 11), ("degrees", "diameter", "communities", "expander",
                       "concentration", "tree"), str(out_dir),
        options={"degrees": {"kind": "local"}, "diameter": {"mode": "exact"},
                 "communities": {"centers": 5}, "expander": {"centers": 6}})


def experiment_digests(tmp: Path) -> dict:
    run_experiment(experiment_spec(tmp))
    return dir_digests(tmp)


GENERATE = {('base', 1): {'config.json': '6edfec36a616a94f0fc80edeb06439d1bb69a121bd809d00388bfe7f13ce6165',
               'edges.csv': '97a64ba6024450eb1fb61c43212ce63495c1ddc16938385d63823e516db39a80',
               'trace.csv': 'a8f689b085c4957d053bd51f34ee0f027c779fde48155fc37e5cb57db063ba81',
               'vertices.csv': 'adfef7ba596fb0d45cca3dbda6403ad0f7024ebd1f7481ee3fae0e0b9082d553'},
 ('base', 2): {'config.json': 'a0298692386b27f1a67589f5b4041239f25b16937087c58bd1956bab41ee25c3',
               'edges.csv': 'f219bf96fd38bc24ee6961baaca87604940b842f89a9f3539ff8f26e29bcb3f7',
               'trace.csv': '64cfcb88ffade59850cf4db64f30c39df71699b84316b10e9ce798129c5f885b',
               'vertices.csv': 'b7c52e562e2e8e75dab0836b8cd03ee229c1f121a49ecd4d25e32e4c9117c1ef'},
 ('base', 50): {'config.json': '59b28d1ddc837162dde7bc919e813ab8fd7c595e36f60b3f3a920e7574eb680e',
                'edges.csv': 'd3ed8d80df2edca5fb3b508ce7a2360ca9fe3277fa26536bcc3c406143b285ff',
                'trace.csv': 'c16b070ea418f6ff041b0078e79f984fb7348e41508957191c7eab2f33945b1d',
                'vertices.csv': '8292dda2a22588669516718f2ac96ba7883101f9fa0a94e0d86dfea7f69ebb0d'},
 ('base', 2000): {'config.json': '21cdff4d21593aa09ec5bde8ac0fba9857a3cbc989b80fe09ee7a72f7e85ee7a',
                  'edges.csv': 'bb2b7efc5cc87f1c900232d47b4920e1809bb1b26d7cb4d18a4f51ebe6c1059b',
                  'trace.csv': 'a3f569caafb2b666938f7dc6efbc0a6b062eb936be172508746b8fa44b25aeb1',
                  'vertices.csv': '4b61329689b5f40a2e80ae70aa46cb83fb88b5a10b5aacb09b540ebd01d0de00'},
 ('hybrid', 1): {'config.json': 'fb458c6e4bd2ce091d0a4c2a8f64896095068793cea6090872922f7c7301a5bf',
                 'edges.csv': '97a64ba6024450eb1fb61c43212ce63495c1ddc16938385d63823e516db39a80',
                 'trace.csv': 'a8f689b085c4957d053bd51f34ee0f027c779fde48155fc37e5cb57db063ba81',
                 'vertices.csv': 'adfef7ba596fb0d45cca3dbda6403ad0f7024ebd1f7481ee3fae0e0b9082d553'},
 ('hybrid', 2): {'config.json': '63ceb63b7fc267877ae7fbe5188ed63f36f5cae33d04ccccda1b58579cd09973',
                 'edges.csv': '750a10d2b36035b41a8670d0de38989d3ba16b913b91c39707a18ed60f44f4da',
                 'trace.csv': '64cfcb88ffade59850cf4db64f30c39df71699b84316b10e9ce798129c5f885b',
                 'vertices.csv': 'b7c52e562e2e8e75dab0836b8cd03ee229c1f121a49ecd4d25e32e4c9117c1ef'},
 ('hybrid', 50): {'config.json': 'cb4ef2c8b4162e92ed754b4bdf9851fbbd7ac4245c521ae677f98f96f31ea5fe',
                  'edges.csv': '3fee503f0e819ace81300feede3efb12785ca208196841a3384b10d8a51ec788',
                  'trace.csv': 'bab2473f2a78cc72f691e3f922ef00366185f3fd6cba750b4a8eec272e561f57',
                  'vertices.csv': '8292dda2a22588669516718f2ac96ba7883101f9fa0a94e0d86dfea7f69ebb0d'},
 ('hybrid', 2000): {'config.json': '99c4b6c327fef8d93b5f9c96f643b8acddaf56d6762c8ef98f719a937ff8afa2',
                    'edges.csv': '228a7d5e1fe6b74c1ebc8e72f39b09e8934f506868c39d8bbefdf3bdd24bec5d',
                    'trace.csv': 'bce548619cb250c957103df8606e7c85e3f39df62efdba23218bb2f2fc9ff3e6',
                    'vertices.csv': '4b61329689b5f40a2e80ae70aa46cb83fb88b5a10b5aacb09b540ebd01d0de00'},
 ('selfloop', 1): {'config.json': '5039ca66181c47678fd10d3ce34983b053979addb979a508847fe120e889e9e8',
                   'edges.csv': '97a64ba6024450eb1fb61c43212ce63495c1ddc16938385d63823e516db39a80',
                   'trace.csv': 'a8f689b085c4957d053bd51f34ee0f027c779fde48155fc37e5cb57db063ba81',
                   'vertices.csv': 'adfef7ba596fb0d45cca3dbda6403ad0f7024ebd1f7481ee3fae0e0b9082d553'},
 ('selfloop', 2): {'config.json': 'd7e85726584572954702c2e7b220efd86b778a3c5d58e1f613ec8b04a7c072a9',
                   'edges.csv': 'cbbc38b3016b706c11582f8130eb842c68813531ff9b5ac45f1fd225629a50ee',
                   'trace.csv': '64cfcb88ffade59850cf4db64f30c39df71699b84316b10e9ce798129c5f885b',
                   'vertices.csv': 'b7c52e562e2e8e75dab0836b8cd03ee229c1f121a49ecd4d25e32e4c9117c1ef'},
 ('selfloop', 50): {'config.json': '1da2c2c02cf56aaf11c31c41aa7d4c898de0796fd19de27b3cc270d3afaf2e63',
                    'edges.csv': 'f52601c1ec693973dee8c328476f38afaf724b21e021c6ee7175c4acc2041ede',
                    'trace.csv': 'bab2473f2a78cc72f691e3f922ef00366185f3fd6cba750b4a8eec272e561f57',
                    'vertices.csv': '8292dda2a22588669516718f2ac96ba7883101f9fa0a94e0d86dfea7f69ebb0d'},
 ('selfloop', 2000): {'config.json': '08015e67c34e754a9a750021b0da01f590c845ff3c756aa03938c5a7abfdffc1',
                      'edges.csv': '0a834c1e9c8cea38a038558fa3de018f151db8ed35fd017fee6da8e643bde223',
                      'trace.csv': 'bce548619cb250c957103df8606e7c85e3f39df62efdba23218bb2f2fc9ff3e6',
                      'vertices.csv': '4b61329689b5f40a2e80ae70aa46cb83fb88b5a10b5aacb09b540ebd01d0de00'}}
ANALYSIS = {('communities', False): '06c201bd1315b5bbb1137dc737864417e7ecf629d47d2ae0735aecdd6ce351ce',
 ('communities', True): 'e7a604e7df57bbf926224cc32e15110b3fb658dd1b0908bab04e98bca5d9d3e5',
 ('concentration', False): '91af47e42dd590b30b79d8b187c550fd7ba546b84c2853e068a6ce6e1ef6c2f4',
 ('concentration', True): '056425f07c9b4e090f5ebcd3924a2b95e65cd1a081bed76b24df45ed30d7f1ff',
 ('degrees', False): '6cf9a39b16b19f8f1ec76f03d7f2f9d2098b60a1e6e80bf1d7efc792c3f0affe',
 ('degrees', True): 'cacb3d2d3f6094abff51cf0f7c179b035d359ddded86892b4c0b9890d57ee602',
 ('diameter', False): '9af3336c9597798afa019e415f34f9e2784b7751c8eb0b0106109199768e000f',
 ('diameter', True): '5a3e573238df3cd8c1feca7f72dbd0abdd5ee097dfbb483517be8cb7d0ce1013',
 ('expander', False): 'b816bef1a7cd56daeef3439873525fe02f30f5b10ba741a1ddc081898e53de82',
 ('expander', True): '5a13a3434781df88d5a49c4522808a7a45f4ad3bbf7d5c730053b0d5ca0aa762'}
EXPERIMENT = {'communities_seed11.json': 'ed8cfe3b9f2f86965081da6098751808909694d21edabd8ac696b6ffa717172b',
 'communities_seed7.json': 'e31d4be0b1d460ade65a1dbf15fbd9215baeeea09c4e497ba967e55784f2afa0',
 'concentration_seed11.json': '907959957e05cd66440ad194431bc23c4ad25c506d6ef2b9992490e0d1972c00',
 'concentration_seed7.json': '584a7b0c52e8ecb835f634759e48599ee7b79ed85563c8802dcec805b9080771',
 'degrees_seed11.csv': 'c83092731a57179b73bec2ead237a60ffb2fea667e34eb9e53b4ff8fc1ffd57e',
 'degrees_seed11.json': 'd9052413e8f220c7614f72ba4c5bb02e12bd3fd0e21aaf03f1bcdb2f7b14e7cb',
 'degrees_seed7.csv': '4ac0fcb82c0a277e6ff56560dfdc4d7fa63759eb92cfe9fa68b8a457d6ada4b5',
 'degrees_seed7.json': 'b47e611ad1137883a7df065c8543d26f159fa8ff3b6c56616e3bead3c7ab9975',
 'degrees_summary.json': '9f5bbdcf823da707b6882ee3a13146644ed3aab8b9347da12680be09e1dd9407',
 'diameter_seed11.json': '4cc36c0bf2300df17a7e7bfa09c9ead79e8f20ac44fdd1d987635868c63838f0',
 'diameter_seed7.json': '84a8e492728abac30b7b23cb8bb53e8fb5566cc33fde1b9892cbd7a7c09e4f13',
 'expander_seed11.json': 'f9ac2f331cea5de38e9f164f113ca863616dbcfdcdf63c771283e5f7a8c0ee2f',
 'expander_seed7.json': 'eb967bb24af29ee168b70351b948622e87c8a6028e4fe5e978feaa1967171b00',
 'index.json': '247190d3de706b86906ff98981ec6bc8bdd4e8356d55356024088272d23891a1',
 'tree_seed11.json': '21cdd53dcc41b6d4a67f027342d12b90eb3b676421de3d447da32b6f78f529d5',
 'tree_seed7.json': '6f96356941fa3f6c8065652835aaef7f9171d0988931416d712dbdb48757e5d3'}


@pytest.fixture(autouse=True)
def _no_default_out(monkeypatch):
    monkeypatch.delenv("GPANET_OUT", raising=False)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", GENERATE_SIZES)
def test_generate_outputs(model, n, tmp_path):
    assert generate_digests(model, n, tmp_path) == GENERATE[(model, n)]


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("name", sorted(ANALYSIS_ARGV))
def test_analysis_stdout(name, as_json):
    assert analysis_digest(name, as_json) == ANALYSIS[(name, as_json)]


def test_experiment_artifacts(tmp_path):
    assert experiment_digests(tmp_path) == EXPERIMENT


if __name__ == "__main__":
    import os
    import pprint
    import tempfile
    os.environ.pop("GPANET_OUT", None)
    with tempfile.TemporaryDirectory() as d:
        tables = {
            "GENERATE": {(model, n): generate_digests(model, n, Path(d) / f"{model}{n}")
                         for model in MODELS for n in GENERATE_SIZES},
            "ANALYSIS": {(name, as_json): analysis_digest(name, as_json)
                         for name in sorted(ANALYSIS_ARGV) for as_json in (True, False)},
            "EXPERIMENT": experiment_digests(Path(d) / "experiment"),
        }
    for name, table in tables.items():
        print(f"{name} = {pprint.pformat(table, width=100)}")
