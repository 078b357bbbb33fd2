"""Command line surface, exercised in process through main(argv)."""

import csv

import pytest

from axsec.arith import ArchParams, gen_module
from axsec.cli import main
from axsec.designs import fir_spec
from axsec.netlist import structurally_equal
from axsec.textfmt import read_netlist, write_netlist


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


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "job.cfg"
    out = tmp_path / "m.nl"
    cfg.write_text(f"op=add\narch=loa\nwidth=8\nk=2\nout={out}\n"
                   "frobnicate=9\n")   # unknown keys are ignored
    assert main(["gen-module", "--config", str(cfg)]) in (0, None)
    ref = tmp_path / "ref.nl"
    write_netlist(gen_module(ArchParams("add", "loa", 8, 2)), ref)
    assert out.read_bytes() == ref.read_bytes()


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


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


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
        "experiment-twiddle-0", "experiment-coeffs-3"])
def test_out_of_range_config_values_are_user_errors(tmp_path, capsys,
                                                    kernel_calls, verb,
                                                    flags, message):
    _assert_rejected(tmp_path, capsys, verb, flags, message)
    assert not kernel_calls  # rejected before any simulation


@pytest.mark.parametrize("flags", [["--trace-vectors", "0"],
                                   ["--characterize-vectors", "0"],
                                   ["--rho", "2"], ["--width", "1"]],
                         ids=["trace-vectors", "characterize-vectors",
                              "rho", "width"])
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
            "profile": ["--netlist", str(nl), "--out-dir", str(out)]}
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
