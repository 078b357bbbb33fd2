"""Golden digests of every CLI verb: the files it writes, what it prints
and its ``--help`` text, pinned across code versions.

One module-scoped run drives each verb once, in the order a user would
chain them: generate a module and a design, profile and analyse them,
mount four insertions, screen a small candidate directory, score the
screen and run a small experiment.  Each output is pinned by its sha256;
printed text is pinned with the run directory replaced by ``TMP``.  A
change that means to move one has to say so and record the new value here.
"""

import contextlib
import hashlib
import io

import pytest

from axsec.cli import _build_parser, main

#: the verbs run in order, as (name, argv); ``{d}`` is the run directory
RUNS = (
    ("gen-module", ["gen-module", "--op", "add", "--arch", "loa",
                    "--width", "8", "--k", "2", "--out", "{d}/loa.nl"]),
    ("gen-design-slots", ["gen-design", "--design", "fir", "--list-slots"]),
    ("gen-design", ["gen-design", "--design", "fir",
                    "--assign", "add0=loa:4;add2=loa:4",
                    "--out", "{d}/fir.nl"]),
    ("gen-design-exact", ["gen-design", "--design", "fir",
                          "--out", "{d}/cands/exact.nl"]),
    ("profile-module", ["profile", "--netlist", "{d}/loa.nl",
                        "--vectors", "700", "--ref", "auto",
                        "--theta", "0.05", "--out-dir", "{d}/prof-module"]),
    ("profile-design", ["profile", "--netlist", "{d}/fir.nl",
                        "--vectors", "700", "--mode", "correlated",
                        "--ref", "none", "--theta", "0.1",
                        "--out-dir", "{d}/prof-design"]),
    ("scoap", ["scoap", "--netlist", "{d}/fir.nl",
               "--out", "{d}/scoap.csv"]),
    ("sta", ["sta", "--netlist", "{d}/fir.nl", "--clock", "55",
             "--paths", "20", "--out", "{d}/sta.csv"]),
    ("attack-leak", ["attack", "--netlist", "{d}/fir.nl",
                     "--secret", "coef",
                     "--stealth-vectors", "1500",
                     "--out", "{d}/cands/leak.nl",
                     "--report", "{d}/leak.csv"]),
    ("attack-leak-clock", ["attack", "--netlist", "{d}/fir.nl",
                           "--secret", "coef",
                           "--stealth-vectors", "1500", "--clock", "55",
                           "--out", "{d}/leak-clock.nl",
                           "--report", "{d}/leak-clock.csv"]),
    ("attack-corrupt", ["attack", "--netlist", "{d}/fir.nl",
                        "--payload", "corrupt", "--seed", "2",
                        "--vectors", "6000", "--stealth-vectors", "1500",
                        "--out", "{d}/cands/corrupt.nl",
                        "--report", "{d}/corrupt.csv"]),
    ("attack-corrupt-clock", ["attack", "--netlist", "{d}/fir.nl",
                              "--payload", "corrupt", "--seed", "2",
                              "--vectors", "6000",
                              "--stealth-vectors", "1500", "--clock", "55",
                              "--out", "{d}/corrupt-clock.nl",
                              "--report", "{d}/corrupt-clock.csv"]),
    ("detect", ["detect", "--candidates", "{d}/cands", "--vectors", "400",
                "--stress", "80", "--out", "{d}/detect.csv",
                "--debug", "{d}/debug.csv"]),
    ("score", ["score", "--report", "{d}/detect.csv",
               "--truth", "{d}/truth.csv", "--out", "{d}/score.csv"]),
    ("experiment", ["experiment", "--seed", "11", "--n-variants", "4",
                    "--infected-fraction", "0.5",
                    "--characterize-vectors", "400",
                    "--trace-vectors", "4000", "--stealth-vectors", "2000",
                    "--detect-vectors", "500", "--detect-stress", "100",
                    "--out", "{d}/exp"]),
)

#: the screen's ground truth; the hosts are read off the attack reports
TRUTH = ("netlist,infected,host\n"
         "exact,0,\nleak,1,{leak}\ncorrupt,1,{corrupt}\n")

GOLDEN = {
    "file:cands/corrupt.nl":
        "55e29aa13b99dc5daa49753a90608e77"
        "b898df46ef5f4beed5051e439e7791f7",
    "file:cands/exact.nl":
        "4c39c09fc613e8068a3479f7a06bae98"
        "1d1dfd0679661644ee9dfce201f2b7b0",
    "file:cands/leak.nl":
        "1664640d40d023095c58798380a1036a"
        "53edee7d4dc0c504c84789cd2ffe198b",
    "file:corrupt-clock.csv":
        "f842aacea4af5342a3583b521a06f1ac"
        "8c253d8489adae82f4ff4d227d9bc25c",
    "file:corrupt-clock.nl":
        "55e29aa13b99dc5daa49753a90608e77"
        "b898df46ef5f4beed5051e439e7791f7",
    "file:corrupt.csv":
        "94e47c51f3d56d996c045a0ec140b676"
        "ae437caf9ef1162dab0317c850b80b3d",
    "file:debug.csv":
        "a073906a1af5b8dbdcdf78eae2ba73ca"
        "375787de8f5f432b9c3f8af46d38e789",
    "file:detect.csv":
        "cbbf4254c2d3899ce4deab6c08b7f9f0"
        "6f940d9d5a5f5f0b7cbbfb5ae9ff73c2",
    "file:exp/candidates/v00.nl":
        "da0e53dba5e9defe470a93e26d6c9c47"
        "84898a521e07dd0009f3c47cf6955cf4",
    "file:exp/candidates/v01.nl":
        "855d76458cf3aa36721287d0ba97659a"
        "ca8b68ea62f350b76e11ca5ce3cc09f9",
    "file:exp/candidates/v02.nl":
        "20c1c53d328aa77ce9ba7f575abb5c23"
        "9a5ac450d8f8cf512c2034d24282c6a3",
    "file:exp/candidates/v03.nl":
        "2368707d389d452a54405a4c43c43302"
        "1c9128c964264b78c16b036aacdda822",
    "file:exp/config.txt":
        "7f85ce74b65c4bbf5f80f6730e39732c"
        "b3c8cf44f675a2231fb08e76f309b6dc",
    "file:exp/detect_debug.csv":
        "b47918856f6a96f7797804c3c4001717"
        "9560ae61efd79209c9cee3807e1ba6cb",
    "file:exp/detect_report.csv":
        "6d07063d13efc6c147a3e390a76604b6"
        "0865317712deae5593930d02d1d7588a",
    "file:exp/experiment.log":
        "48e8d75ee5bada28c66c6ec6703e60dc"
        "0e45b4501d788b88f2325d0f93f8a461",
    "file:exp/ht_ground_truth.csv":
        "5ff38fa915c5803a06ab6098993a86bc"
        "73a23c36e2cfcac2b5a6eff053c5a5bc",
    "file:exp/library.csv":
        "f8112ec68e4334ec0d100a4646044df5"
        "8b98d4c91c7e6b223256a57aa178b982",
    "file:exp/metrics.csv":
        "bff628175ad3bbe933022ec6b41fb344"
        "71c3a74f21723d822a5bc2794ce4da2d",
    "file:exp/ranking.csv":
        "b635d877cb0f9fa2917887307ee47750"
        "2fecf82c87c1bf12caaabdae5a3d5079",
    "file:exp/stealth.csv":
        "a8a15fe9c7b71ec2eaa45c291d3dc9a3"
        "b154de45f9181d771092e3a6319e3d98",
    "file:exp/variants.csv":
        "df7a33786ced648319200631a4dc3cba"
        "4e161464a4fa2a3df93fb5e1cf5286e9",
    "file:exp/variants/v00.nl":
        "4c39c09fc613e8068a3479f7a06bae98"
        "1d1dfd0679661644ee9dfce201f2b7b0",
    "file:exp/variants/v01.nl":
        "855d76458cf3aa36721287d0ba97659a"
        "ca8b68ea62f350b76e11ca5ce3cc09f9",
    "file:exp/variants/v02.nl":
        "02b950a7a861fe6d95c6c0be05f04757"
        "1398807901a5918eb4d023d5e8844ed0",
    "file:exp/variants/v03.nl":
        "2368707d389d452a54405a4c43c43302"
        "1c9128c964264b78c16b036aacdda822",
    "file:fir.nl":
        "7dfe9c7d4c0260b6f68015eb7483e0bf"
        "b78e20b711234d46cb5f450dc76d73db",
    "file:leak-clock.csv":
        "e92d6acc887c4b84a1fc964a6dc1ea79"
        "e8675b1d37b71d8fdeb4577ad984b387",
    "file:leak-clock.nl":
        "1664640d40d023095c58798380a1036a"
        "53edee7d4dc0c504c84789cd2ffe198b",
    "file:leak.csv":
        "fb3c4a4aaa43820b0c01f9e7acac7f12"
        "4eed83759a3a0d93bcc5c903d19f0d08",
    "file:loa.nl":
        "d010a77302365cfebf97a9d85c0770c9"
        "1291c461c65354a8e3d4c9ab457e72f8",
    "file:prof-design/activity.csv":
        "3f11bc75697dd17208e8bc3e68b5662d"
        "3d6abedc253373a9555beffd74282fda",
    "file:prof-design/power.csv":
        "79a0375e77ac449b28c9473a1ac48833"
        "7be38c5889b5c89b8973c60c2ec7bef6",
    "file:prof-design/rare.csv":
        "84bc3326766857bb914cb8c5dc6cb99d"
        "f18b85052f2113c3c52c237fa6a850f6",
    "file:prof-module/activity.csv":
        "d9af33b01330117c40651111295ff9b0"
        "fb779fc957c8bea8077a6a17aecf3111",
    "file:prof-module/error.csv":
        "30b23d120eb9a1970e238107d1bb326a"
        "ddcb17834019011c39f999efa0271921",
    "file:prof-module/power.csv":
        "d94ee6a7742ad82247fbb1f938f5bc81"
        "931f5e5a3209620e101306dc239f4bd5",
    "file:prof-module/rare.csv":
        "31279adf9d5f60ca19a29a5dcdf23578"
        "588224c782bf0088be0cb4e74a639f5f",
    "file:scoap.csv":
        "df2b234225df3f16aec1b05eb6693bbf"
        "9b6602470a75036000439547f6b3a9a2",
    "file:score.csv":
        "5db01677fb5850f89010e34e2b2c9c61"
        "a8731cec554e6e349c1edb3ccc292e96",
    "file:sta.csv":
        "37a206f018ee87f7a50c67feb222ad7c"
        "145dabcdbc7901ab807387666296326b",
    "file:truth.csv":
        "3ee586da784ebcd6898a04c40b373cda"
        "075292dcab362f817cda1db0a8b54a8c",
    "help:attack":
        "63436ead2ea81063f2ca806612026746"
        "39f9605200b9aa7a259e133120ca53f7",
    "help:axsec":
        "0e429dc87fc2fff9df74e58c97522739"
        "a2404f38e8e5191144146592677ff303",
    "help:detect":
        "60ba432237a2a87bf693f07318079b1f"
        "3b2969a2692535b60165edfd8535e92b",
    "help:experiment":
        "3ca25324d93b9b041005496e0c052abf"
        "a214fa79350e093de4ed226f7b11d6d8",
    "help:gen-design":
        "62f95914cfca8ad107b21c31a1542ad3"
        "4704379d2e5dfeb85b620e0ac2f0d6ce",
    "help:gen-module":
        "de6b74dd608e7d92d2e9668b30ceaf18"
        "eceb8e3ee2ff35a4421226c91483ae26",
    "help:profile":
        "820254e7b238eb99ee75f037993be130"
        "e3b30278a2fd4193b20dd14eba82cd7b",
    "help:scoap":
        "eb2b13769043c46dceaaa7e73ad6de33"
        "66139fcbec149dbb5ad46d0f50d70719",
    "help:score":
        "0999c2064b809650408cd252f33f8cd3"
        "dbe71ff78745d282da9ee60e47f76255",
    "help:sta":
        "00e826c346ee08892718a6106159186d"
        "319d9715f6b4633047164d889144df56",
    "out:attack-corrupt":
        "1a1614325e7ddb731964190c58a1ee1e"
        "fbe8a9ef2b56ffc95a3e742471362710",
    "out:attack-corrupt-clock":
        "3952e476bf2a0de6c43d4108db1e7103"
        "c3f95fa0c5fd9f9b318c77f26faf9c2c",
    "out:attack-leak":
        "40934a9341c03f4e924cf08e5dd212e8"
        "65938136eeaa67fc188c2f55ff6cb13a",
    "out:attack-leak-clock":
        "17d27d8484e43345435766835a5a5ba6"
        "209e6d78ae827e1b6efdf499f44894d7",
    "out:detect":
        "88e7a15acea67d6f5519cef7c7c18ad5"
        "fbd6e7ce40fb1c933b74ed82a8c6d912",
    "out:experiment":
        "c5deeb0f4b7ecb92d7aecce2f572edf8"
        "bf4dc6dcb8c4226b2fab3d3831190f46",
    "out:gen-design":
        "ffe4158f4f61d07af0cc81ce82edcb57"
        "9cde0ba79617df84bbb8606f1aa9c475",
    "out:gen-design-exact":
        "521b1bb390688a48d3e2f85566291050"
        "5fee73f0a2d3cb675f76714db2d6eaec",
    "out:gen-design-slots":
        "ce9e21c456355e7742143084e5187419"
        "f5ff13e4802d445c2734c1d4190e982a",
    "out:gen-module":
        "6ebf5ce35760309f98cc8af8335060e9"
        "d0bc30cbf460130238f0f76c2cb401e8",
    "out:profile-design":
        "6e55a7c398c948622310e0384962ea89"
        "83def8914465dcc514af8334df02def0",
    "out:profile-module":
        "1525d104fb6bb143a3bb0a10194f4f9c"
        "5efa319897cf779f595de97cd2a78256",
    "out:scoap":
        "e0287a486e5d7749295540e305c3c87e"
        "897173c7cbf022b62b6808dab24bfc6a",
    "out:score":
        "e5781d55d2b89f8910b6ce9ded91206d"
        "608fd03dbf5ba164ab3f673cf453ac9c",
    "out:sta":
        "b4a7a28ca61a9111cda31df9991660aa"
        "2d11a1de49edcc2b7d96f3b3b91aafec",
}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _host(report):
    return report.read_text().splitlines()[1].split(",")[0]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> sha256 of every file the verbs wrote (``file:`` + its path
    under the run directory) and of what each verb printed (``out:`` +
    the run's name)."""
    d = tmp_path_factory.mktemp("cli")
    (d / "cands").mkdir()
    digests = {}
    for name, argv in RUNS:
        if name == "score":
            (d / "truth.csv").write_text(TRUTH.format(
                leak=_host(d / "leak.csv"), corrupt=_host(d / "corrupt.csv")))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([a.format(d=d) for a in argv]) == 0, name
        digests[f"out:{name}"] = _digest(
            printed.getvalue().replace(str(d), "TMP").encode())
    for p in sorted(d.rglob("*")):
        if p.is_file():
            digests[f"file:{p.relative_to(d).as_posix()}"] = _digest(
                p.read_bytes())
    return digests


def _help_texts(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser, registry = _build_parser()
    texts = {"help:axsec": parser.format_help()}
    texts.update((f"help:{verb}", sp.format_help())
                 for verb, sp in registry.items())
    return {k: _digest(v.encode()) for k, v in texts.items()}


def test_every_output_is_pinned(outputs, monkeypatch):
    assert set(outputs) | set(_help_texts(monkeypatch)) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(k for k in GOLDEN
                                       if not k.startswith("help:")))
def test_cli_output_matches_golden(outputs, key):
    assert outputs[key] == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(k for k in GOLDEN
                                       if k.startswith("help:")))
def test_help_text_matches_golden(monkeypatch, key):
    assert _help_texts(monkeypatch)[key] == GOLDEN[key]
