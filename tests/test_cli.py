"""Command line surface, exercised in process through main(argv)."""

import csv
import dataclasses
import hashlib
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import axsec
from axsec import attack, cli, errors
from axsec.arith import ArchParams, gen_module
from axsec.attack import verify_stealth
from axsec.cli import main
from axsec.designs import bfly_spec, fir_spec
from axsec.detect import DetectConfig
from axsec.experiment import ExperimentConfig
from axsec.sim import EXACT_OPS, STREAM_MODES, VectorStream, sub_seed
from axsec.sta import calibrated_model
from axsec.textfmt import read_netlist, write_netlist

from tests.oracles import structurally_equal


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_gen_module_writes_the_library_build(tmp_path, capsys):
    out = tmp_path / "loa.nl"
    assert main(["gen-module", "--op", "add", "--arch", "loa",
                 "--width", "8", "--k", "2", "--out", str(out)]) in (0, None)
    assert "loa2" in capsys.readouterr().out
    ref = tmp_path / "ref.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), ref)
    assert out.read_bytes() == ref.read_bytes()
    assert structurally_equal(read_netlist(out), read_netlist(ref))


def test_gen_design_list_slots(capsys):
    assert main(["gen-design", "--design", "fir", "--list-slots"]) in (0, None)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mul0 mul 8", "mul1 mul 8", "mul2 mul 8", "mul3 mul 8",
                     "add0 add 16", "add1 add 16", "add2 add 17"]


def test_gen_design_with_assignment(tmp_path):
    out = tmp_path / "v.nl"
    main(["gen-design", "--design", "fir",
          "--assign", "add0=loa:4;add2=loa:4", "--out", str(out)])
    ref = tmp_path / "ref.nl"
    write_netlist(fir_spec(8, (3, 5, 7, 9)).build(
        {"add0": ArchParams("add", "loa", 16, 4),
         "add2": ArchParams("add", "loa", 17, 4)}), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_gen_design_requires_an_output(capsys):
    assert main(["gen-design", "--design", "fir"]) == 2
    assert "error:" in capsys.readouterr().err


def test_profile_artifacts(tmp_path):
    nl = tmp_path / "m.nl"
    main(["gen-module", "--op", "add", "--arch", "loa", "--width", "8",
          "--k", "3", "--out", str(nl)])
    out = tmp_path / "prof"
    main(["profile", "--netlist", str(nl), "--vectors", "500",
          "--theta", "0.05", "--ref", "auto", "--out-dir", str(out)])
    act = _rows(out / "activity.csv")
    n_nets = read_netlist(nl).n_nets
    assert len(act) == n_nets
    assert set(act[0]) == {"net", "name", "p1", "toggles"}
    assert all(0.0 <= float(r["p1"]) <= 1.0 for r in act)
    power = _rows(out / "power.csv")[0]
    assert float(power["proxy"]) > 0.0 and power["n_vectors"] == "500"
    for r in _rows(out / "rare.csv"):
        p = float(r["p1"])
        assert p < 0.05 or p > 0.95
    err = _rows(out / "error.csv")[0]
    assert float(err["er"]) > 0.0
    assert float(err["mred"]) > 0.0
    assert err["n_vectors"] == "500"


@pytest.mark.parametrize("vectors,runs,digests", [
    (2000, 1, {
        "activity.csv": "a0ea6197c6dce76ee6e046d05d98d1ca"
                        "f4ca4eae4b7ea427e18e9d17c157f387",
        "power.csv": "f132b1d53e8f0273b6b24ef864200117"
                     "0ccf571806bb7e1f063ae5273301f489",
        "error.csv": "bcea75828ab1d5e474cab38645acadd2"
                     "d17b6e729425bf73aadcd61daef6c79c"}),
    # two chunks: toggles across the chunk boundary, sums over both
    (70000, 2, {
        "activity.csv": "a3707e72450d290170c9df3c19b96e7e"
                        "6227e5b931fc7877cf3a7e026311aa6f",
        "power.csv": "ed457dc365135ca1a263bac4288230a4"
                     "e85dcb150c588ab5f99428132fbe4729",
        "error.csv": "7789d1e31dd6ae114ebd5d3f6b1f7c0f"
                     "31d63c78e5413c663c50594976c2477a"}),
], ids=["one-chunk", "two-chunks"])
def test_profile_with_a_reference_simulates_once(tmp_path, kernel_calls,
                                                 vectors, runs, digests):
    # the digests were recorded when activity and error each ran their
    # own simulation
    nl = tmp_path / "loa2.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), nl)
    out = tmp_path / "prof"
    assert main(["profile", "--netlist", str(nl), "--vectors", str(vectors),
                 "--ref", "auto", "--out-dir", str(out)]) == 0
    assert len(kernel_calls) == runs
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


def _loa_module(tmp_path, width):
    nl = tmp_path / f"loa{width}.nl"
    assert main(["gen-module", "--op", "add", "--arch", "loa", "--k", "8",
                 "--width", str(width), "--out", str(nl)]) in (0, None)
    return nl


def test_profile_refuses_a_referenced_word_over_63_bits(tmp_path, capsys,
                                                        kernel_calls):
    # the 64-bit sum of a 63-bit adder read negative, and so did a + b:
    # error.csv said MRED 29.7435
    nl = _loa_module(tmp_path, 63)
    capsys.readouterr()
    out = tmp_path / "prof"
    assert main(["profile", "--netlist", str(nl), "--ref", "auto",
                 "--out-dir", str(out)]) == 2
    assert "word 's' is 64 bits wide" in _one_error_line(capsys)
    assert not out.exists()
    assert not kernel_calls  # refused before any simulation
    # activity reads no values
    assert main(["profile", "--netlist", str(nl), "--ref", "none",
                 "--out-dir", str(out)]) in (0, None)
    assert sorted(p.name for p in out.iterdir()) == ["activity.csv",
                                                     "power.csv"]


def test_attack_refuses_an_input_word_over_63_bits_before_any_run(
        tmp_path, capsys, kernel_calls):
    # the realization run over the whole stream came before the refusal
    nl = _loa_module(tmp_path, 64)
    capsys.readouterr()
    out = tmp_path / "bad.nl"
    assert main(["attack", "--netlist", str(nl), "--secret", "a",
                 "--out", str(out)]) == 2
    assert "word 'a' is 64 bits wide" in _one_error_line(capsys)
    assert not out.exists()
    assert kernel_calls == []


def test_a_62_bit_profile_is_unchanged_by_the_width_check(tmp_path):
    # digests recorded before the width check existed
    out = tmp_path / "prof"
    assert main(["profile", "--netlist", str(_loa_module(tmp_path, 62)),
                 "--ref", "auto", "--out-dir", str(out)]) in (0, None)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == {
        "activity.csv": "c72d0b486406bd6166ca9407ed99c716"
                        "e7c242834f89d30b576f95e6164f45f1",
        "error.csv": "5fb70b57a6b3d1e237e84aaec6f61b1e"
                     "059c4927fce861ba2ed6c9d758f85af9",
        "power.csv": "686f86f0ea7056264240000bc7b59594"
                     "59124ff8f5b9b0f029187b0356915603"}


def test_scoap_gives_unit_costs_at_inputs(tmp_path):
    nl = tmp_path / "m.nl"
    main(["gen-module", "--op", "add", "--arch", "exact", "--width", "2",
          "--out", str(nl)])
    out = tmp_path / "scoap.csv"
    main(["scoap", "--netlist", str(nl), "--out", str(out)])
    rows = {r["name"]: r for r in _rows(out)}
    assert rows["a[0]"]["cc0"] == "1" and rows["a[0]"]["cc1"] == "1"
    assert rows["s"]["co"] == "0"


def test_sta_path_listing(tmp_path):
    nl = tmp_path / "m.nl"
    main(["gen-module", "--op", "mul", "--arch", "exact", "--width", "4",
          "--out", str(nl)])
    out = tmp_path / "paths.csv"
    main(["sta", "--netlist", str(nl), "--clock", "20", "--paths", "5",
          "--window", "20", "--out", str(out)])
    rows = _rows(out)
    assert 0 < len(rows) <= 5
    assert [r["rank"] for r in rows] == [str(i + 1) for i in range(len(rows))]
    slacks = [float(r["slack"]) for r in rows]
    assert slacks == sorted(slacks)
    for r in rows:
        assert float(r["delay"]) + float(r["slack"]) == pytest.approx(20.0)
        assert ">" in r["nets"]
        assert r["instances"] == "u"


@pytest.mark.parametrize("flags", [["--clock", "1e300"],
                                   ["--clock", "10", "--scale", "1e-300"]],
                         ids=["huge-clock", "tiny-scale"])
def test_sta_far_above_the_longest_path_writes_no_paths(tmp_path, flags):
    # a walk over every path length up to clock / scale never ends; run in
    # a child so a regression fails on the timeout instead of hanging
    nl = tmp_path / "fir.nl"
    main(["gen-design", "--design", "fir", "--out", str(nl)])
    out = tmp_path / "paths.csv"
    src = str(Path(axsec.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "axsec.cli", "sta", "--netlist", str(nl),
         *flags, "--out", str(out)], env=env, capture_output=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines() == ["rank,delay,slack,nets,instances"]


def test_attack_and_report(tmp_path, capsys):
    nl = tmp_path / "v.nl"
    main(["gen-design", "--design", "fir",
          "--assign", "add0=loa:4;add2=loa:4", "--out", str(nl)])
    out = tmp_path / "bad.nl"
    rep = tmp_path / "attack.csv"
    code = main(["attack", "--netlist", str(nl), "--secret", "coef",
                 "--clock", "55", "--vectors", "20000", "--seed", "3",
                 "--stealth-vectors", "2000", "--ref", "none",
                 "--out", str(out), "--report", str(rep)])
    assert code in (0, None)
    assert "leak payload hosted at top." in capsys.readouterr().out
    bad = read_netlist(out)
    clean = read_netlist(nl)
    assert len(bad.gates) > len(clean.gates)
    assert dict(bad.output_words()).keys() == dict(clean.output_words()).keys()
    row = _rows(rep)[0]
    assert row["payload"] == "leak" and row["q"] == "4"
    assert row["host"].startswith("top.")
    assert len(row["taps"].split(";")) == 4
    assert "=" in row["witness"]
    assert row["error_delta"] == "n/a"          # no reference requested
    assert float(row["trigger_rate"]) <= 1e-3
    assert float(row["min_slack"]) > 0.0


#: a near-constant stream whose rarest nets are primary inputs
_RARE_INPUTS = ["--payload", "corrupt", "--q", "1", "--theta", "0.3",
                "--rho", "0.9999", "--seed", "0", "--vectors", "2000"]


def _attack_rare_inputs(tmp_path, monkeypatch, *flags):
    """Run ``attack`` with :data:`_RARE_INPUTS` on the default fir design;
    returns (clean, the insertion's (infected, ht), the report row)."""
    nl = tmp_path / "f.nl"
    main(["gen-design", "--design", "fir", "--out", str(nl)])
    made = []
    real = attack.insert_trojan
    monkeypatch.setattr(attack, "insert_trojan", lambda *a: made.append(
        real(*a)) or made[-1])
    rep = tmp_path / "attack.csv"
    assert main(["attack", "--netlist", str(nl), *_RARE_INPUTS, *flags,
                 "--out", str(tmp_path / "a.nl"), "--report", str(rep)]) == 0
    return read_netlist(nl), made[0], _rows(rep)[0]


def test_attack_taps_only_gate_outputs(tmp_path, capsys, monkeypatch):
    # the rarest taps were primary inputs: the host fell back to tag "u",
    # which no design build has, and the run ended in a KeyError
    clean, (_, ht), row = _attack_rare_inputs(tmp_path, monkeypatch)
    assert "corrupt payload hosted at top.mul2.g0" in capsys.readouterr().out
    assert row["host"] == "top.mul2.g0"
    assert all(clean.driver(n) is not None for n, _ in ht.trigger_nets)


def test_attack_report_without_a_reference_is_the_stealth_check(
        tmp_path, monkeypatch):
    # the report used to compute the rate and the slack on its own and to
    # leave the power delta open without a reference
    clean, (infected, ht), row = _attack_rare_inputs(
        tmp_path, monkeypatch, "--ref", "none", "--clock", "50",
        "--stealth-vectors", "3000")
    st = verify_stealth(clean, infected, ht, None,
                        VectorStream(3000, sub_seed(0, 4), "uniform"), 50.0,
                        calibrated_model(clean, 50.0, 0.9))
    assert row["error_delta"] == "n/a"
    assert float(row["power_delta"]) == st.power_delta_fraction != 0.0
    assert float(row["trigger_rate"]) == st.trigger_rate
    assert float(row["min_slack"]) == st.min_slack


def test_attack_report_without_stealth_vectors_gives_only_the_slack(
        tmp_path, monkeypatch):
    *_, row = _attack_rare_inputs(tmp_path, monkeypatch, "--clock", "50",
                                  "--stealth-vectors", "0")
    assert [row[k] for k in ("error_delta", "power_delta",
                             "trigger_rate")] == ["n/a"] * 3
    assert float(row["min_slack"]) > 0.0


#: the report rows ``attack`` wrote while it assembled the insertion
#: step itself, before the verb and the experiment shared ``mount``
_FIR_REPORT = ("host,payload,q,taps,witness,error_delta,power_delta,"
               "trigger_rate,min_slack\n"
               "top.mul0.g0,leak,4,985:1;656:1;352:1;1209:1,"
               "x0=115;x1=122;x2=191;x3=31,n/a,0.013308529609717956,0.0,")


@pytest.mark.parametrize("clock,slack", [([], "n/a"),
                                         (["--clock", "55"],
                                          "4.50999999999997")],
                         ids=["no-clock", "clock"])
@pytest.mark.parametrize("report", [False, True],
                         ids=["no-report", "report"])
def test_attack_runs_the_kernel_for_the_trigger_and_the_report_only(
        tmp_path, kernel_calls, clock, slack, report):
    # the realization run and the witness replay, plus the clean and the
    # infected stealth profile with --report; the slack runs no kernel
    nl = tmp_path / "v.nl"
    main(["gen-design", "--design", "fir", "--assign",
          "add0=loa:4;add2=loa:4", "--out", str(nl)])
    rep = tmp_path / "r.csv"
    del kernel_calls[:]
    assert main(["attack", "--netlist", str(nl), "--secret", "coef", *clock,
                 *(["--report", str(rep)] if report else []),
                 "--out", str(tmp_path / "bad.nl")]) == 0
    assert len(kernel_calls) == (4 if report else 2)
    assert rep.exists() == report
    if report:
        assert rep.read_text() == _FIR_REPORT + slack + "\n"


def test_attack_on_a_netlist_without_outputs_is_a_user_error(tmp_path,
                                                              capsys):
    # the one rare net of this stream is realized, so the payload looked
    # for an output word and the run ended in an IndexError
    nl = tmp_path / "noout.nl"
    nl.write_text("input a\ngate 0 NOT y a\ntag 0 u\n"
                  "inst u deterministic misc exact\n")
    out = tmp_path / "bad.nl"
    assert main(["attack", "--netlist", str(nl), "--payload", "corrupt",
                 "--q", "1", "--theta", "0.3", "--mode", "correlated",
                 "--rho", "0.999", "--seed", "2", "--vectors", "2000",
                 "--out", str(out)]) == 2
    assert "no output for a payload" in _one_error_line(capsys)
    assert not out.exists()


def test_an_interface_naming_one_word_twice_is_a_user_error(tmp_path,
                                                            capsys):
    # the declared word b[0] holds b[1..3] and the ungrouped input b[0]
    # became a second word b[0]: the run ended in a numpy ValueError
    nl = tmp_path / "m.nl"
    main(["gen-module", "--op", "add", "--arch", "loa", "--k", "2",
          "--width", "4", "--out", str(nl)])
    text = nl.read_text()
    assert "word b b[0] " in text
    nl.write_text(text.replace("word b b[0] ", "word b[0] "))
    capsys.readouterr()
    out = tmp_path / "prof"
    assert main(["profile", "--netlist", str(nl), "--out-dir",
                 str(out)]) == 2
    assert "two input words are named 'b[0]'" in _one_error_line(capsys)
    assert not out.exists()


def test_detect_clean_candidates(tmp_path, capsys):
    cdir = tmp_path / "cands"
    cdir.mkdir()
    for i in range(2):
        main(["gen-design", "--design", "fir",
              "--out", str(cdir / f"c{i}.nl")])
    out = tmp_path / "report.csv"
    dbg = tmp_path / "debug.csv"
    code = main(["detect", "--candidates", str(cdir), "--vectors", "300",
                 "--stress", "50", "--out", str(out), "--debug", str(dbg)])
    assert code in (0, None)
    printed = capsys.readouterr().out
    assert "c0: CLEAN" in printed and "c1: CLEAN" in printed
    rows = _rows(out)
    assert {r["netlist"] for r in rows} == {"c0", "c1"}
    assert all(r["verdict"] == "CLEAN" for r in rows)
    assert all(float(r["suspicion"]) == 0.0 for r in rows)
    assert {r["kind"] for r in _rows(dbg)} == {"approximate",
                                               "deterministic"}


@pytest.mark.parametrize("text,message", [
    ("input a\noutput y\ngate 0 FOO y a\n", "line 3: unknown gate kind"),
    ("input a\noutput y\ngate 1 AND y a\n", "gate 1: AND cannot take 1"),
    ("input a\noutput y\ngate 0 NOT y a\ntag 0 u\ntag 0 v\n",
     "line 5: duplicate tag for gate id 0"),
    ("input a\noutput y\ngate 0 NOT y a\ninst u approximate add loa\n"
     "inst u deterministic misc exact\n", "line 5: duplicate inst for tag 'u'"),
], ids=["parse", "arity", "tag", "inst"])
def test_detect_names_the_malformed_candidate(tmp_path, capsys, text,
                                              message):
    cdir = tmp_path / "cands"
    cdir.mkdir()
    main(["gen-design", "--design", "fir", "--out", str(cdir / "a.nl")])
    (cdir / "b.nl").write_text(text)
    capsys.readouterr()
    out = tmp_path / "report.csv"
    assert main(["detect", "--candidates", str(cdir), "--out",
                 str(out)]) == 2
    line = _one_error_line(capsys)
    assert f"{cdir / 'b.nl'}: {message}" in line, line
    assert not out.exists()


def _buf_word_netlist(width):
    """Text of a netlist that buffers one ``width``-bit word a into y."""
    lines = [f"input a{i}" for i in range(width)]
    lines += [f"output y{i}" for i in range(width)]
    lines += [f"gate {i} BUF y{i} a{i}" for i in range(width)]
    lines.append("word a " + " ".join(f"a{i}" for i in range(width)))
    lines.append("word y " + " ".join(f"y{i}" for i in range(width)))
    return "\n".join(lines) + "\n"


def test_detect_refuses_words_over_63_bits(tmp_path, capsys, kernel_calls):
    # a 64-bit word's values do not fit the int64 a screen reads them as
    cdir = tmp_path / "cands"
    cdir.mkdir()
    for i in range(2):
        (cdir / f"c{i}.nl").write_text(_buf_word_netlist(64))
    out = tmp_path / "report.csv"
    assert main(["detect", "--candidates", str(cdir), "--out",
                 str(out)]) == 2
    line = _one_error_line(capsys)
    assert "word 'a' is 64 bits wide" in line, line
    assert not out.exists()
    assert not kernel_calls  # refused before any simulation
    for i in range(2):
        (cdir / f"c{i}.nl").write_text(_buf_word_netlist(63))
    assert main(["detect", "--candidates", str(cdir), "--vectors", "100",
                 "--stress", "10", "--out", str(out)]) in (0, None)
    assert {r["verdict"] for r in _rows(out)} == {"CLEAN"}


@pytest.mark.parametrize("make,message", [
    (lambda d: None, "not a directory"),
    (lambda d: d.write_text("input a\noutput a\n"), "not a directory"),
    (lambda d: d.mkdir(), "no candidate netlists"),
], ids=["missing", "file", "empty"])
def test_detect_needs_a_directory_of_candidates(tmp_path, capsys, make,
                                                message):
    cdir = tmp_path / "cands"
    make(cdir)
    out = tmp_path / "report.csv"
    assert main(["detect", "--candidates", str(cdir), "--out",
                 str(out)]) == 2
    line = _one_error_line(capsys)
    assert message in line, line
    if message == "not a directory":
        assert str(cdir) in line, line
    assert not out.exists()


@pytest.mark.parametrize("text,side", [
    ("input a\n", "output"),
    ("output y\ngate 0 CONST1 y\n", "input"),
], ids=["no-output", "no-input"])
def test_detect_refuses_candidates_without_a_word(tmp_path, capsys,
                                                  kernel_calls, text, side):
    cdir = tmp_path / "cands"
    cdir.mkdir()
    for name in ("a", "b"):
        (cdir / f"{name}.nl").write_text(text)
    out = tmp_path / "report.csv"
    assert main(["detect", "--candidates", str(cdir), "--out",
                 str(out)]) == 2
    line = _one_error_line(capsys)
    assert f"the candidates have no {side} word" in line, line
    assert not out.exists()
    assert not kernel_calls  # refused before any simulation


def _child_env():
    src = str(Path(axsec.__file__).parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


_VM_PEAK = """import axsec.cli
for line in open("/proc/self/status"):
    if line.startswith("VmPeak:"):
        print(line.split()[1])
"""


@pytest.mark.parametrize("verb", ["detect", "experiment"])
def test_running_out_of_memory_is_one_error_line(tmp_path, verb):
    # under ulimit -v both ended in a numpy _ArrayMemoryError traceback
    # with exit 1.  Each child may map 256 MB beyond what importing the
    # CLI took; the profiling values alone (detect, 2 x 160 MB) or the
    # realization run (experiment, about 750 MB) need more.
    out = tmp_path / "out"
    if verb == "detect":
        cdir = tmp_path / "cands"
        cdir.mkdir()
        for p in (ArchParams("add", "exact", 8), ArchParams("add", "loa", 8, 2)):
            write_netlist(gen_module(p), cdir / f"{p.label()}.nl")
        args = ["detect", "--candidates", str(cdir),
                "--vectors", "20000000", "--out", str(out)]
    else:
        args = ["experiment", "--trace-vectors", "4000000", "--out", str(out)]
    env = _child_env()
    base = subprocess.run([sys.executable, "-c", _VM_PEAK], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    limit = (int(base.stdout) + (256 << 10)) << 10
    done = subprocess.run(
        [sys.executable, "-m", "axsec.cli", *args], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    err = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


def test_a_memory_error_without_a_message_still_says_what_failed(
        tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "gen_module", exhausted)
    out = tmp_path / "m.nl"
    assert main(["gen-module", "--op", "add", "--arch", "exact",
                 "--width", "8", "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: out of memory"
    assert not out.exists()


def test_score_from_csv_files(tmp_path, capsys):
    rep = tmp_path / "report.csv"
    rep.write_text("netlist,verdict,instance,suspicion\n"
                   "n0,INFECTED,a,1.0\nn0,INFECTED,b,0.0\n"
                   "n1,INFECTED,a,1.0\nn1,INFECTED,b,0.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("netlist,infected,host\nn0,1,a\nn1,0,\n")
    out = tmp_path / "metrics.csv"
    main(["score", "--report", str(rep), "--truth", str(truth),
          "--out", str(out)])
    assert "accuracy=0.7500 fpr=0.3333 fnr=0.0000" in capsys.readouterr().out
    m = _rows(out)[0]
    assert float(m["accuracy"]) == 0.75
    assert float(m["fpr"]) == pytest.approx(1 / 3)
    assert float(m["fnr"]) == 0.0


def test_score_counts_a_missed_instance(tmp_path, capsys):
    rep = tmp_path / "report.csv"
    rep.write_text(_REPORT_HEAD + "n0,CLEAN,a,0.1\nn0,CLEAN,b,0.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(_TRUTH_HEAD + "n0,1,a\n")
    out = tmp_path / "metrics.csv"
    main(["score", "--report", str(rep), "--truth", str(truth),
          "--out", str(out)])
    assert "(tp=0 fp=0 tn=1 fn=1)" in capsys.readouterr().out
    assert float(_rows(out)[0]["fnr"]) == 1.0


def test_score_refuses_an_empty_report(tmp_path, capsys):
    rep, truth = tmp_path / "report.csv", tmp_path / "truth.csv"
    rep.write_text(_REPORT_HEAD)
    truth.write_text(_TRUTH_HEAD)
    out = tmp_path / "metrics.csv"
    assert main(["score", "--report", str(rep), "--truth", str(truth),
                 "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: empty report"
    assert not out.exists()


@pytest.mark.parametrize("tag", ["a b", "#x", ""])
def test_gen_module_refuses_a_tag_the_text_cannot_hold(tmp_path, capsys,
                                                       tag):
    out = tmp_path / "m.nl"
    assert main(["gen-module", "--op", "add", "--arch", "exact",
                 "--width", "4", "--tag", tag, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: bad instance tag {tag!r}"
    assert not out.exists()


@pytest.mark.parametrize("words,message", [
    ("word a x0 x1\nword b x1 x2\n",
     "net 'x1' is in input word 'a' and again in 'b'"),
    ("word a x0 x1 x0\nword b x2\n",
     "net 'x0' is in input word 'a' and again in 'a'"),
], ids=["two-words", "one-word-twice"])
def test_profile_refuses_an_input_net_in_two_word_bits(tmp_path, capsys,
                                                        words, message):
    # a run fills each input net from one word bit: a later bit used to
    # overwrite an earlier one, so word a read 3 back as 1
    nl = tmp_path / "t.nl"
    nl.write_text("input x0\ninput x1\ninput x2\noutput y\n" + words
                  + "gate 0 AND y x0 x1 x2\n")
    out = tmp_path / "out"
    assert main(["profile", "--netlist", str(nl), "--out-dir", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: {nl}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("yes,no", [("TRUE", "off"), ("on", "No"),
                                    (" yes ", "FALSE")])
def test_score_reads_infected_like_a_config_flag(tmp_path, capsys, yes, no):
    rep = tmp_path / "report.csv"
    rep.write_text("netlist,verdict,instance,suspicion\n"
                   "n0,INFECTED,a,1.0\nn1,INFECTED,a,1.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(f"netlist,infected,host\nn0,{yes},a\nn1,{no},\n")
    main(["score", "--report", str(rep), "--truth", str(truth),
          "--out", str(tmp_path / "metrics.csv")])
    assert "(tp=1 fp=1 tn=0 fn=0)" in capsys.readouterr().out


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "job.cfg"
    out = tmp_path / "m.nl"
    cfg.write_text(f"op=add\narch=loa\nwidth=8\nk=2\nout={out}\n"
                   "frobnicate=9\n")   # unknown keys are ignored
    assert main(["gen-module", "--config", str(cfg)]) in (0, None)
    ref = tmp_path / "ref.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_config_comments_blank_lines_and_the_equals_form(tmp_path):
    out = tmp_path / "m.nl"
    plain = tmp_path / "plain.cfg"
    plain.write_text(f"op=add\narch=loa\nwidth=8\nk=2\nout={out}\n")
    noisy = tmp_path / "noisy.cfg"
    noisy.write_text(f"# a job\n\nop=add\n  # the LOA\narch=loa\n\t\n"
                     f"width=8\nk=2\nout={out}\n\n")
    assert cli._load_config(noisy) == cli._load_config(plain)
    texts = []
    for argv in (["--config", str(plain)], ["--config", str(noisy)],
                 [f"--config={plain}"]):
        assert main(["gen-module", *argv]) in (0, None)
        texts.append(out.read_bytes())
        out.unlink()
    ref = tmp_path / "ref.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), ref)
    assert texts == [ref.read_bytes()] * 3


def test_command_line_beats_the_config_file(tmp_path):
    cfg = tmp_path / "job.cfg"
    out = tmp_path / "m.nl"
    cfg.write_text(f"op=add\narch=loa\nwidth=8\nk=2\nout={out}\n")
    main(["gen-module", "--config", str(cfg), "--k", "4"])
    ref = tmp_path / "ref.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 4)), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_user_errors_exit_with_two(tmp_path, capsys):
    code = main(["gen-module", "--op", "add", "--arch", "loa",
                 "--width", "8", "--k", "99", "--out",
                 str(tmp_path / "x.nl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["scoap", "--netlist", str(tmp_path / "missing.nl"),
                 "--out", str(tmp_path / "y.csv")])
    assert code == 2


def test_experiment_verb_and_config_round_trip(tmp_path, capsys):
    e1 = tmp_path / "e1"
    code = main(["experiment", "--seed", "11", "--n-variants", "4",
                 "--infected-fraction", "0.5",
                 "--characterize-vectors", "400",
                 "--trace-vectors", "4000", "--stealth-vectors", "2000",
                 "--detect-vectors", "500", "--detect-stress", "100",
                 "--out", str(e1)])
    assert code in (0, None)
    assert "4 variants, 2 infected" in capsys.readouterr().out
    e2 = tmp_path / "e2"
    # the emitted config reproduces the run byte for byte
    main(["experiment", "--config", str(e1 / "config.txt"),
          "--out", str(e2)])
    for name in ("metrics.csv", "detect_report.csv", "variants.csv",
                 "ht_ground_truth.csv"):
        assert (e1 / name).read_bytes() == (e2 / name).read_bytes(), name


#: verb -> (config class, {flag dest: config field}) of every flag whose
#: default a config field states
_CONFIG_DEFAULTS = {
    "gen-design": (ExperimentConfig, {f: f for f in ("width", "coeffs",
                                                     "twiddle")}),
    "attack": (ExperimentConfig, {
        **{f: f for f in ("payload", "q", "theta", "scoap_ceiling", "rho",
                          "margin", "stealth_vectors")},
        "vectors": "trace_vectors"}),
    "detect": (DetectConfig, {
        {"n_paths": "paths", "stress_budget": "stress"}.get(f.name, f.name):
        f.name for f in dataclasses.fields(DetectConfig)}),
    "score": (DetectConfig, {"threshold": "threshold"}),
    "experiment": (ExperimentConfig, {
        f.name: f.name for f in dataclasses.fields(ExperimentConfig)}),
}


@pytest.mark.parametrize("verb", _CONFIG_DEFAULTS)
def test_flag_defaults_are_the_config_defaults(verb):
    config, fields = _CONFIG_DEFAULTS[verb]
    _, registry = cli._build_parser()
    defaults = {a.dest: a.default for a in registry[verb]._actions}
    assert {d: defaults[d] for d in fields} == {
        d: getattr(config(), f) for d, f in fields.items()}


def test_flag_choices_are_the_workbench_names():
    _, registry = cli._build_parser()
    choices = {(verb, a.dest): tuple(a.choices)
               for verb, sp in registry.items() for a in sp._actions
               if a.choices}
    refs = ("auto", *EXACT_OPS, "none")
    assert choices["gen-module", "op"] == tuple(EXACT_OPS)
    assert choices["profile", "ref"] == choices["attack", "ref"] == refs
    assert choices["profile", "mode"] == choices["attack", "mode"] \
        == STREAM_MODES


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


#: every exception class the workbench defines
_ERRORS = sorted((c for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, BaseException)
                  and c.__module__ == errors.__name__),
                 key=lambda c: c.__name__)


@pytest.mark.parametrize("exc", _ERRORS, ids=lambda c: c.__name__)
def test_every_workbench_error_is_one_error_line(tmp_path, capsys,
                                                 monkeypatch, exc):
    # main caught a hand-kept list of eleven classes, so a class left off
    # the list would have ended in a traceback
    def fail(nl):
        raise exc("planted")

    monkeypatch.setattr(cli, "scoap", fail)
    nl = tmp_path / "m.nl"
    write_netlist(gen_module(ArchParams("add", "exact", 2)), nl)
    out = tmp_path / "scoap.csv"
    assert main(["scoap", "--netlist", str(nl), "--out", str(out)]) == 2
    _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("verb,text,message", [
    ("experiment", "width=abc\n", "job.cfg: width: invalid literal for int()"),
    ("experiment", "coeffs=\n", "job.cfg: coeffs: empty list"),
    ("experiment", "seed=3\nwidth\n",
     "job.cfg:2: expected key=value, got 'width'"),
    ("experiment", None, "No such file or directory"),
    ("gen-design", "design=xyz\n", "job.cfg: design: 'xyz' is not one of"),
    ("profile", "ref=xyz\n", "job.cfg: ref: 'xyz' is not one of"),
    ("gen-design", "design=fir\nlist_slots=maybe\n",
     "job.cfg: list_slots: 'maybe' is not one of"),
], ids=["bad-int", "empty-list", "no-equals", "missing-file",
        "gen-design-choice", "profile-choice", "gen-design-boolean"])
def test_bad_config_files_are_user_errors(tmp_path, capsys, kernel_calls,
                                          verb, text, message):
    nl = tmp_path / "m.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), nl)
    cfg = tmp_path / "job.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    args = {"experiment": ["--out", str(out)],
            "gen-design": ["--out", str(out)],
            "profile": ["--netlist", str(nl), "--out-dir", str(out)]}[verb]
    assert main([verb, "--config", str(cfg), *args]) == 2
    line = _one_error_line(capsys)
    assert message in line and str(cfg) in line, line
    assert not out.exists() and not kernel_calls


@pytest.mark.parametrize("q", ["0", "-2"])
def test_attack_rejects_a_trigger_without_taps(tmp_path, capsys, q):
    nl = tmp_path / "v.nl"
    main(["gen-design", "--design", "fir", "--out", str(nl)])
    capsys.readouterr()
    code = main(["attack", "--netlist", str(nl), "--secret", "coef",
                 "--vectors", "500", "--q", q,
                 "--out", str(tmp_path / "bad.nl")])
    assert code == 2
    assert "q must be at least 1" in _one_error_line(capsys)
    assert not (tmp_path / "bad.nl").exists()


@pytest.mark.parametrize("verb", ["profile", "attack", "detect",
                                  "experiment"])
def test_negative_seed_is_a_user_error(tmp_path, capsys, verb):
    nl = tmp_path / "c" / "v.nl"
    nl.parent.mkdir()
    main(["gen-design", "--design", "fir", "--out", str(nl)])
    capsys.readouterr()
    out = str(tmp_path / "out")
    args = {"profile": ["--netlist", str(nl), "--out-dir", out],
            "attack": ["--netlist", str(nl), "--secret", "coef",
                       "--out", out],
            "detect": ["--candidates", str(nl.parent), "--out", out],
            "experiment": ["--out", out]}[verb]
    assert main([verb, "--seed", "-1"] + args) == 2
    assert "seed must be non-negative" in _one_error_line(capsys)


@pytest.mark.parametrize("verb,flags,message", [
    ("sta", ["--clock", "0"], "clock must be positive"),
    ("sta", ["--clock", "-5"], "clock must be positive"),
    ("sta", ["--clock", "nan"], "clock must be positive"),
    ("sta", ["--clock", "10", "--paths", "-3"],
     "n_paths must be non-negative"),
    ("detect", ["--clock", "-1"], "clock must be positive"),
    ("experiment", ["--clock", "0"], "clock must be positive"),
    ("experiment", ["--clock", "-1"], "clock must be positive"),
    ("experiment", ["--clock", "nan"], "clock must be positive"),
    ("attack", ["--clock", "0"], "clock must be positive"),
    ("attack", ["--clock", "nan"], "clock must be positive"),
    ("sta", ["--clock", "10", "--scale", "0"], "scale must be positive"),
    ("sta", ["--clock", "10", "--scale", "-1"], "scale must be positive"),
    ("sta", ["--clock", "10", "--scale", "nan"], "scale must be positive"),
    ("sta", ["--clock", "10", "--window", "-1"],
     "window must be positive when set"),
    ("sta", ["--clock", "10", "--window", "nan"],
     "window must be positive when set"),
    ("attack", ["--clock", "55", "--margin", "0"], "margin must be positive"),
    ("attack", ["--clock", "55", "--margin", "-1"], "margin must be positive"),
    ("attack", ["--clock", "55", "--margin", "nan"],
     "margin must be positive"),
], ids=["sta-clock-0", "sta-clock-neg", "sta-clock-nan", "sta-paths-neg",
        "detect-clock-neg", "experiment-clock-0", "experiment-clock-neg",
        "experiment-clock-nan", "attack-clock-0", "attack-clock-nan",
        "sta-scale-0", "sta-scale-neg", "sta-scale-nan", "sta-window-neg",
        "sta-window-nan", "attack-margin-0", "attack-margin-neg",
        "attack-margin-nan"])
def test_bad_timing_arguments_are_user_errors(tmp_path, capsys, verb, flags,
                                              message):
    _assert_rejected(tmp_path, capsys, verb, flags, message)


@pytest.mark.parametrize("verb,flags,message", [
    ("sta", ["--clock", "inf"], "clock must be positive and finite"),
    ("sta", ["--clock", "10", "--scale", "inf"],
     "scale must be positive and finite"),
    ("sta", ["--clock", "10", "--window", "inf"],
     "window must be positive when set, and finite"),
    ("detect", ["--clock", "inf"], "clock must be positive and finite"),
    ("detect", ["--margin", "inf"], "margin must be positive and finite"),
    ("detect", ["--scales", "1,inf"], "scales must be non-empty, all > 0"),
    ("detect", ["--window", "inf"],
     "window must be positive when set, and finite"),
    ("experiment", ["--clock", "inf"], "clock must be positive and finite"),
    ("experiment", ["--margin=-inf"],
     "margin must be positive and finite"),
    ("attack", ["--clock", "inf"], "clock must be positive and finite"),
    ("attack", ["--clock", "55", "--margin", "inf"],
     "margin must be positive and finite"),
], ids=["sta-clock", "sta-scale", "sta-window", "detect-clock",
        "detect-margin", "detect-scales", "detect-window", "experiment-clock",
        "experiment-margin-neg", "attack-clock", "attack-margin"])
def test_infinite_timing_values_are_user_errors(tmp_path, capsys,
                                                kernel_calls, verb, flags,
                                                message):
    _assert_rejected(tmp_path, capsys, verb, flags, message)
    assert not kernel_calls


@pytest.mark.parametrize("verb,flags,message", [
    ("detect", ["--theta", "0.9"], "theta must be in (0, 0.5)"),
    ("detect", ["--theta", "0"], "theta must be in (0, 0.5)"),
    ("detect", ["--theta", "nan"], "theta must be in (0, 0.5)"),
    ("experiment", ["--detect-theta", "nan"], "theta must be in (0, 0.5)"),
    ("experiment", ["--delta-e", "nan"], "budget slacks must be positive"),
    ("detect", ["--margin", "0"], "margin must be positive"),
    ("detect", ["--margin", "nan"], "margin must be positive"),
    ("detect", ["--scales", "0"], "scales must be non-empty, all > 0"),
    ("detect", ["--scales", "1,-1"], "scales must be non-empty, all > 0"),
    ("detect", ["--dev-tol", "-1"], "dev_tol must be in [0, 1]"),
    ("detect", ["--dev-tol", "nan"], "dev_tol must be in [0, 1]"),
    ("detect", ["--threshold", "2"], "threshold must be in (0, 1]"),
    ("detect", ["--threshold", "0"], "threshold must be in (0, 1]"),
    ("detect", ["--window", "-1"], "window must be positive when set"),
    ("detect", ["--paths", "-3"], "n_paths must be non-negative"),
    ("detect", ["--stress", "0"], "stress_budget must be at least 1"),
    ("detect", ["--vectors", "0"], "vectors must be at least 1"),
    ("experiment", ["--margin", "nan"], "margin must be positive"),
    ("experiment", ["--detect-scales", "-1"],
     "scales must be non-empty, all > 0"),
    ("experiment", ["--dev-tol", "nan"], "dev_tol must be in [0, 1]"),
    ("experiment", ["--detect-threshold", "2"], "threshold must be in (0, 1]"),
    ("experiment", ["--detect-paths", "-1"], "n_paths must be non-negative"),
    ("experiment", ["--detect-stress", "0"],
     "stress_budget must be at least 1"),
    ("experiment", ["--detect-vectors", "0"], "vectors must be at least 1"),
    ("experiment", ["--q", "0"], "q must be at least 1"),
    ("experiment", ["--scoap-ceiling", "-5"],
     "scoap_ceiling must be non-negative"),
    ("experiment", ["--theta", "0.9"], "theta must be in (0, 0.5)"),
    ("attack", ["--theta", "0.9"], "theta must be in (0, 0.5)"),
    ("attack", ["--theta", "nan"], "theta must be in (0, 0.5)"),
    ("attack", ["--q", "0"], "q must be at least 1"),
    ("attack", ["--scoap-ceiling", "-1"], "scoap_ceiling must be non-negative"),
    ("profile", ["--theta", "0.9"], "theta must be in (0, 0.5)"),
    ("profile", ["--theta", "nan"], "theta must be in (0, 0.5)"),
    ("experiment", ["--trace-vectors", "0"],
     "trace_vectors must be at least 1"),
    ("experiment", ["--stealth-vectors", "0"],
     "stealth_vectors must be at least 1"),
    ("experiment", ["--characterize-vectors", "0"],
     "characterize_vectors must be at least 1"),
    ("experiment", ["--rho", "2"], "rho must be in [0, 1]"),
    ("experiment", ["--rho", "nan"], "rho must be in [0, 1]"),
    ("experiment", ["--width", "1"], "width must be at least 2"),
    ("experiment", ["--infected-fraction", "nan"],
     "infected_fraction must be in [0, 1]"),
    ("experiment", ["--n-variants", "0"], "n_variants must be at least 1"),
    ("experiment", ["--design", "bfly", "--twiddle", "0"],
     "twiddle must be in [1, 2^width)"),
    ("experiment", ["--coeffs", "3,5,7"],
     "taps must be a power of two, at least 2"),
    ("experiment", ["--width", "2"], "constant 5 does not fit in 2 bits"),
    ("gen-design", ["--assign", "mul0=trunc:x"], "got 'mul0=trunc:x'"),
    ("gen-design", ["--assign", "mul0=trunc:3:zz"], "got 'mul0=trunc:3:zz'"),
    ("gen-design", ["--assign", "mul0=trunc:3:c:9"],
     "got 'mul0=trunc:3:c:9'"),
    ("gen-design", ["--assign", "mul0=trunc:3:zz:9"],
     "got 'mul0=trunc:3:zz:9'"),
    ("gen-design", ["--assign", "nope=exact"], "unknown slot 'nope'"),
    ("score", ["--threshold", "nan"], "threshold must be in (0, 1]"),
    ("score", ["--threshold", "-3"], "threshold must be in (0, 1]"),
    ("score", ["--threshold", "0"], "threshold must be in (0, 1]"),
    ("score", ["--threshold", "1.5"], "threshold must be in (0, 1]"),
    ("attack", ["--stealth-vectors", "-5"],
     "stealth_vectors must be non-negative"),
], ids=["detect-theta-0.9", "detect-theta-0", "detect-theta-nan",
        "experiment-detect-theta-nan", "experiment-delta-e-nan",
        "detect-margin-0", "detect-margin-nan", "detect-scales-0",
        "detect-scales-neg", "detect-dev-tol-neg", "detect-dev-tol-nan",
        "detect-threshold-2", "detect-threshold-0", "detect-window-neg",
        "detect-paths-neg", "detect-stress-0", "detect-vectors-0",
        "experiment-margin-nan", "experiment-detect-scales-neg",
        "experiment-dev-tol-nan", "experiment-detect-threshold-2",
        "experiment-detect-paths-neg", "experiment-detect-stress-0",
        "experiment-detect-vectors-0", "experiment-q-0",
        "experiment-scoap-ceiling-neg", "experiment-theta-0.9",
        "attack-theta-0.9", "attack-theta-nan", "attack-q-0",
        "attack-scoap-ceiling-neg",
        "profile-theta-0.9", "profile-theta-nan",
        "experiment-trace-vectors-0", "experiment-stealth-vectors-0",
        "experiment-characterize-vectors-0", "experiment-rho-2",
        "experiment-rho-nan", "experiment-width-1",
        "experiment-infected-fraction-nan", "experiment-n-variants-0",
        "experiment-twiddle-0", "experiment-coeffs-3",
        "experiment-coeffs-too-wide", "gen-design-assign-k",
        "gen-design-assign-carry", "gen-design-assign-fourth",
        "gen-design-assign-carry-fourth", "gen-design-assign-unknown-slot",
        "score-threshold-nan",
        "score-threshold-neg", "score-threshold-0", "score-threshold-1.5",
        "attack-stealth-vectors-neg"])
def test_out_of_range_config_values_are_user_errors(tmp_path, capsys,
                                                    kernel_calls, verb,
                                                    flags, message):
    _assert_rejected(tmp_path, capsys, verb, flags, message)
    assert not kernel_calls  # rejected before any simulation


@pytest.mark.parametrize("flags", [["--trace-vectors", "0"],
                                   ["--characterize-vectors", "0"],
                                   ["--rho", "2"], ["--width", "1"],
                                   ["--width", "2"]],
                         ids=["trace-vectors", "characterize-vectors",
                              "rho", "width", "coeffs-too-wide"])
def test_experiment_rejects_before_writing_into_its_directory(
        tmp_path, capsys, flags):
    # an existing --out directory is kept on failure, so whatever a late
    # check let through would stay behind in it
    out = tmp_path / "out"
    out.mkdir()
    assert main(["experiment", *flags, "--out", str(out)]) == 2
    _one_error_line(capsys)
    assert not any(out.iterdir())


def _assert_rejected(tmp_path, capsys, verb, flags, message,
                     design=("--design", "fir")):
    """One ``error:`` line, exit 2 and no file written for the flags
    given, on a netlist generated with the ``gen-design`` flags given."""
    nl = tmp_path / "c" / "v.nl"
    nl.parent.mkdir()
    main(["gen-design", *design, "--out", str(nl)])
    capsys.readouterr()
    out = tmp_path / "out"
    args = {"sta": ["--netlist", str(nl), "--out", str(out)],
            "detect": ["--candidates", str(nl.parent), "--out", str(out)],
            "experiment": ["--out", str(out)],
            "attack": ["--netlist", str(nl), "--secret", "coef",
                       "--out", str(out),
                       "--report", str(tmp_path / "report.csv")],
            "profile": ["--netlist", str(nl), "--out-dir", str(out)],
            "gen-design": ["--design", "fir", "--out", str(out)],
            # the threshold is checked before either file is read
            "score": ["--report", str(tmp_path / "report.csv"),
                      "--truth", str(tmp_path / "truth.csv"),
                      "--out", str(out)]}
    assert main([verb] + flags + args[verb]) == 2
    assert message in _one_error_line(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["c"]


@pytest.mark.parametrize("verb", ["profile", "attack"])
def test_a_single_reference_needs_a_single_output_word(tmp_path, capsys,
                                                       verb):
    # bfly has two output words; --ref add is a reference for one of them.
    # Both verbs find out only after simulating, and then write nothing.
    flags = {"profile": ["--ref", "add"],
             "attack": ["--ref", "add", "--payload", "corrupt", "--q", "1",
                        "--theta", "0.2"]}[verb]
    _assert_rejected(tmp_path, capsys, verb, flags, "exactly one output word",
                     design=("--design", "bfly", "--assign", "add0=loa:4"))


def test_attack_calibrates_a_netlist_without_gates(tmp_path, capsys):
    # a zero critical delay used to end in a ZeroDivisionError traceback
    nl = tmp_path / "wire.nl"
    nl.write_text("input a\noutput a\n")
    out = tmp_path / "bad.nl"
    assert main(["attack", "--netlist", str(nl), "--clock", "10",
                 "--out", str(out)]) == 2
    assert "rare nets" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("text,row", [
    ("input a\noutput a\n", "1,0.0,10.0,a,"),
    ("input a\noutput a\noutput k\ngate 0 CONST1 k\n", "1,0.0,10.0,a,"),
    ("input a\noutput y\ngate 0 BUF y a\n", "1,1.0,9.0,a>y,u"),
], ids=["no-gates", "const-only", "one-buf"])
def test_sta_lists_the_paths_of_tiny_netlists(tmp_path, text, row):
    # netlists without a non-constant gate go through the same path walk
    nl = tmp_path / "t.nl"
    nl.write_text(text)
    out = tmp_path / "paths.csv"
    assert main(["sta", "--netlist", str(nl), "--clock", "10",
                 "--window", "20", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "rank,delay,slack,nets,instances", row]


@pytest.mark.parametrize("flag", ["--netlist", "--config"])
def test_a_file_that_is_not_utf8_is_a_user_error(tmp_path, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    nl = tmp_path / "wire.nl"
    nl.write_text("input a\noutput a\n")
    out = tmp_path / "scoap.csv"
    args = {"--netlist": ["--netlist", str(bad)],
            "--config": ["--config", str(bad), "--netlist", str(nl)]}[flag]
    assert main(["scoap", *args, "--out", str(out)]) == 2
    line = _one_error_line(capsys)
    assert f"{bad}: not UTF-8 text" in line, line
    assert not out.exists()


@pytest.mark.parametrize("value,listed", [("off", False), ("No", False),
                                          ("Yes", True), ("ON", True)])
def test_boolean_config_values_in_any_case(tmp_path, capsys, value, listed):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"list_slots={value}\n")
    out = tmp_path / "v.nl"
    assert main(["gen-design", "--config", str(cfg), "--design", "fir",
                 "--out", str(out)]) in (0, None)
    assert out.exists() != listed
    assert ("mul0 mul 8" in capsys.readouterr().out) == listed


@pytest.mark.parametrize("design", ["fir", "bfly"])
@pytest.mark.parametrize("width", ["-1", "0", "1"])
def test_gen_design_rejects_a_width_below_two(tmp_path, capsys, design,
                                              width):
    # a negative width used to end in a "negative shift count" traceback
    out = tmp_path / "v.nl"
    assert main(["gen-design", "--design", design, "--width", width,
                 "--out", str(out)]) == 2
    assert f"width must be at least 2, got {width}" in _one_error_line(capsys)
    assert not out.exists()


_REPORT_HEAD = "netlist,verdict,instance,suspicion\n"
_TRUTH_HEAD = "netlist,infected,host\n"


@pytest.mark.parametrize("which,text,message", [
    ("report", _REPORT_HEAD + "v00,CLEAN,top.mul0,abc\n",
     ":2: suspicion must be a finite number, got 'abc'"),
    ("report", _REPORT_HEAD + "v00,CLEAN,top.mul0,0.1\nv00,CLEAN,top.add0,\n",
     ":3: suspicion must be a finite number, got ''"),
    ("report", _REPORT_HEAD + "v00,CLEAN,top.mul0,nan\n",
     ":2: suspicion must be a finite number, got 'nan'"),
    ("report", _REPORT_HEAD + "v00,CLEAN,top.mul0,-inf\n",
     ":2: suspicion must be a finite number, got '-inf'"),
    ("report", "netlist,instance,suspicion\nv00,top.mul0\n",
     ":2: no suspicion"),
    ("report", "netlist,instance,suspicion\nv00\n",
     ":2: no instance, suspicion"),
    ("report", "netlist,instance\nv00,top.mul0\n",
     ": expected columns ['instance', 'netlist', 'suspicion']"),
    ("truth", _TRUTH_HEAD + "v00\n", ":2: no host, infected"),
    ("truth", _TRUTH_HEAD + "v00,1,top.mul0\nv01,0\n", ":3: no host"),
    ("truth", _TRUTH_HEAD + "v00,0,\nv00,1,top.mul0\n",
     ":3: duplicate netlist 'v00'"),
    ("truth", _TRUTH_HEAD + "v00,maybe,top.mul0\n",
     ":2: infected: 'maybe' is not one of ['1', 'true', 'yes', 'on', '0', "
     "'false', 'no', 'off']"),
    ("truth", _TRUTH_HEAD + "v00,,\n", ":2: infected: '' is not one of"),
    ("report", b"\xff\n", ": not UTF-8 text"),
    ("truth", b"\xff\n", ": not UTF-8 text"),
], ids=["report-abc", "report-empty", "report-nan", "report-inf",
        "report-short-row", "report-netlist-only", "report-no-suspicion",
        "truth-netlist-only",
        "truth-no-host", "truth-duplicate", "truth-maybe",
        "truth-empty-flag", "report-not-utf8",
        "truth-not-utf8"])
def test_score_rejects_malformed_csv_files(tmp_path, capsys, which, text,
                                           message):
    files = {"report": tmp_path / "report.csv",
             "truth": tmp_path / "truth.csv"}
    files["report"].write_text(_REPORT_HEAD + "v00,CLEAN,top.mul0,0.0\n")
    files["truth"].write_text(_TRUTH_HEAD + "v00,0,\n")
    if isinstance(text, bytes):
        files[which].write_bytes(text)
    else:
        files[which].write_text(text)
    out = tmp_path / "metrics.csv"
    assert main(["score", "--report", str(files["report"]),
                 "--truth", str(files["truth"]), "--out", str(out)]) == 2
    line = _one_error_line(capsys)
    assert f"{files[which]}{message}" in line, line
    assert not out.exists()


def test_score_rejects_an_oversized_csv_field(tmp_path, capsys):
    rep = tmp_path / "report.csv"
    rep.write_text(_REPORT_HEAD + "v00,CLEAN," + "x" * (1 << 18) + ",0\n")
    out = tmp_path / "metrics.csv"
    assert main(["score", "--report", str(rep), "--truth", str(rep),
                 "--out", str(out)]) == 2
    assert "field larger than field limit" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("margin", ["nan", "-1"])
def test_attack_checks_the_margin_without_a_clock(tmp_path, capsys,
                                                  kernel_calls, margin):
    _assert_rejected(tmp_path, capsys, "attack", [f"--margin={margin}"],
                     "margin must be positive and finite")
    assert not kernel_calls


# -- every numeric flag refuses an out-of-range, NaN or infinite value ----

def _not_positive():
    """Outside (0, inf): zero, negatives, -inf, inf and NaN."""
    return st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])


def _outside(lo, hi, open_ends=False):
    """Outside [lo, hi], or outside (lo, hi) with ``open_ends``; infinities
    and NaN included."""
    return (st.floats(max_value=lo, exclude_max=not open_ends)
            | st.floats(min_value=hi, exclude_min=not open_ends)
            | st.just(math.nan))


def _below(lo):
    return st.integers(max_value=lo - 1)


def _list_with(good, bad, n):
    """``n`` good values and one bad one at any position, comma separated."""
    return st.tuples(st.lists(good, min_size=n, max_size=n), bad,
                     st.integers(0, n)).map(
        lambda t: ",".join(map(str, t[0][:t[2]] + [t[1]] + t[0][t[2]:])))


_THETA = _outside(0.0, 0.5, open_ends=True)
_UNIT = _outside(0.0, 1.0)
_THRESHOLD = (st.floats(max_value=0.0)
              | st.floats(min_value=1.0, exclude_min=True)
              | st.just(math.nan))
_SCALES = _list_with(st.floats(0.5, 4.0), _not_positive(), 2)

# (verb, flag, bad values, message, extra flags); --e-target/--p-target
# have no declared range, and --twiddle/--coeffs are read by one design each
_POS = "must be positive and finite"
_FUZZ = [
    ("profile", "--vectors", _below(1), "n_vectors must be positive", ()),
    ("profile", "--rho", _UNIT, "rho must be within [0, 1]", ()),
    ("profile", "--seed", _below(0), "seed must be non-negative", ()),
    ("profile", "--theta", _THETA, "theta must be in (0, 0.5)", ()),
    ("sta", "--clock", _not_positive(), "clock " + _POS, ()),
    ("sta", "--scale", _not_positive(), "scale " + _POS, ()),
    ("sta", "--paths", _below(0), "n_paths must be non-negative", ()),
    ("sta", "--window", _not_positive(), "window must be positive when set",
     ()),
    ("attack", "--q", _below(1), "q must be at least 1", ()),
    ("attack", "--theta", _THETA, "theta must be in (0, 0.5)", ()),
    ("attack", "--scoap-ceiling", _below(0),
     "scoap_ceiling must be non-negative", ()),
    ("attack", "--vectors", _below(1), "n_vectors must be positive", ()),
    ("attack", "--rho", _UNIT, "rho must be within [0, 1]", ()),
    ("attack", "--seed", _below(0), "seed must be non-negative", ()),
    ("attack", "--clock", _not_positive(), "clock " + _POS, ()),
    ("attack", "--margin", _not_positive(), "margin " + _POS, ()),
    ("attack", "--stealth-vectors", _below(0),
     "stealth_vectors must be non-negative", ()),
    ("detect", "--clock", _not_positive(), "clock " + _POS, ()),
    ("detect", "--margin", _not_positive(), "margin " + _POS, ()),
    ("detect", "--scales", _SCALES, "scales must be non-empty, all > 0", ()),
    ("detect", "--paths", _below(0), "n_paths must be non-negative", ()),
    ("detect", "--window", _not_positive(),
     "window must be positive when set", ()),
    ("detect", "--theta", _THETA, "theta must be in (0, 0.5)", ()),
    ("detect", "--vectors", _below(1), "vectors must be at least 1", ()),
    ("detect", "--rho", _UNIT, "rho must be within [0, 1]", ()),
    ("detect", "--stress", _below(1), "stress_budget must be at least 1", ()),
    ("detect", "--dev-tol", _UNIT, "dev_tol must be in [0, 1]", ()),
    ("detect", "--threshold", _THRESHOLD, "threshold must be in (0, 1]", ()),
    ("detect", "--seed", _below(0), "seed must be non-negative", ()),
    ("experiment", "--seed", _below(0), "seed must be non-negative", ()),
    ("experiment", "--width", _below(2), "width must be at least 2", ()),
    ("experiment", "--coeffs",
     _list_with(st.integers(0, 255),
                st.integers(max_value=-1) | st.integers(min_value=256), 3),
     "does not fit in 8 bits", ("--design", "fir")),
    ("experiment", "--twiddle",
     st.integers(max_value=0) | st.integers(min_value=256),
     "twiddle must be in [1, 2^width)", ("--design", "bfly")),
    ("experiment", "--n-variants", _below(1), "n_variants must be at least 1",
     ()),
    ("experiment", "--infected-fraction", _UNIT,
     "infected_fraction must be in [0, 1]", ()),
    ("experiment", "--characterize-vectors", _below(1),
     "characterize_vectors must be at least 1", ()),
    ("experiment", "--rho", _UNIT, "rho must be in [0, 1]", ()),
    ("experiment", "--theta", _THETA, "theta must be in (0, 0.5)", ()),
    ("experiment", "--q", _below(1), "q must be at least 1", ()),
    ("experiment", "--scoap-ceiling", _below(0),
     "scoap_ceiling must be non-negative", ()),
    ("experiment", "--trace-vectors", _below(1),
     "trace_vectors must be at least 1", ()),
    ("experiment", "--stealth-vectors", _below(1),
     "stealth_vectors must be at least 1", ()),
    ("experiment", "--clock", _not_positive(), "clock " + _POS, ()),
    ("experiment", "--margin", _not_positive(), "margin " + _POS, ()),
    ("experiment", "--delta-e", _not_positive(), "budget slacks " + _POS,
     ()),
    ("experiment", "--delta-p", _not_positive(), "budget slacks " + _POS,
     ()),
    ("experiment", "--detect-theta", _THETA, "theta must be in (0, 0.5)",
     ()),
    ("experiment", "--detect-vectors", _below(1),
     "vectors must be at least 1", ()),
    ("experiment", "--detect-stress", _below(1),
     "stress_budget must be at least 1", ()),
    ("experiment", "--detect-threshold", _THRESHOLD,
     "threshold must be in (0, 1]", ()),
    ("experiment", "--detect-scales", _SCALES,
     "scales must be non-empty, all > 0", ()),
    ("experiment", "--detect-paths", _below(0),
     "n_paths must be non-negative", ()),
    ("experiment", "--dev-tol", _UNIT, "dev_tol must be in [0, 1]", ()),
]


@pytest.fixture(scope="module")
def bfly_candidate(tmp_path_factory):
    nl = tmp_path_factory.mktemp("cands") / "v.nl"
    write_netlist(bfly_spec().build({}), nl)
    return nl


def _fuzz_args(verb, nl, work):
    return {"profile": ["--netlist", nl, "--out-dir", f"{work}/out"],
            "sta": ["--netlist", nl, "--clock", "10",
                    "--out", f"{work}/sta.csv"],
            "attack": ["--netlist", nl, "--secret", "twid",
                       "--out", f"{work}/v.nl",
                       "--report", f"{work}/report.csv"],
            "detect": ["--candidates", str(Path(nl).parent),
                       "--out", f"{work}/det.csv",
                       "--debug", f"{work}/debug.csv"],
            "experiment": ["--out", f"{work}/exp"]}[verb]


@pytest.mark.parametrize("verb,flag,values,message,extra", _FUZZ,
                         ids=[f"{v}{f}" for v, f, *_ in _FUZZ])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_numeric_flag_rejects_a_bad_value(
        tmp_path, capsys, kernel_calls, bfly_candidate, verb, flag, values,
        message, extra, data):
    value = data.draw(values, label=flag)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    del kernel_calls[:]
    args = _fuzz_args(verb, str(bfly_candidate), work)
    # the flag comes last so it overrides a base value, and in --flag=value
    # form so a value such as -inf is not taken for an option
    assert main([verb, *args, *extra, f"{flag}={value}"]) == 2
    assert message in _one_error_line(capsys)
    assert not kernel_calls
    assert not any(work.iterdir())
