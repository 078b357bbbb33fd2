"""Composed designs: slot plumbing, flattening, references."""

import hashlib

import numpy as np
import pytest

from axsec import designs
from axsec.arith import ArchParams, gen_adder, gen_module, gen_multiplier
from axsec.designs import (bfly_design, bfly_spec, const_module,
                           design_spec, fir_design, fir_spec, resize_module,
                           sub_module)
from axsec.errors import BadParams
from axsec.experiment import (ExperimentConfig, characterize_library,
                              generate_variants)
from axsec.netlist import Design, ModuleInst, flatten
from axsec.sim import VectorStream, simulate, sub_seed
from axsec.textfmt import serialize_netlist

from tests.oracles import eval_vector, structurally_equal, word_value


def test_fir_slots_and_widths():
    spec = fir_spec(8, (3, 5, 7, 9))
    assert spec.name == "fir4x8"
    assert spec.slots == (
        ("mul0", "mul", 8), ("mul1", "mul", 8), ("mul2", "mul", 8),
        ("mul3", "mul", 8),
        ("add0", "add", 16), ("add1", "add", 16), ("add2", "add", 17))
    assert spec.secret_word == "coef"


def test_fir_hand_value():
    # coefficients 1..4, all taps at 1: y = 1+2+3+4 = 10
    nl = fir_spec(8, (1, 2, 3, 4)).build(None)
    vals = eval_vector(nl, {"x0": 1, "x1": 1, "x2": 1, "x3": 1})
    assert word_value(nl, vals, "y") == 10
    vals = eval_vector(nl, {"x0": 255, "x1": 0, "x2": 0, "x3": 1})
    assert word_value(nl, vals, "y") == 255 + 4


def test_fir_reference_matches_exact_build():
    spec = fir_spec(8, (3, 5, 7, 9))
    nl = spec.build(None)
    tr = simulate(nl, VectorStream(500, 11, "uniform"))
    wv = {w: tr.word_values(nets) for w, nets in nl.input_words()}
    got = tr.word_values(dict(nl.output_words())["y"])
    assert np.array_equal(got, spec.reference(wv))


def test_fir_coefficient_word_is_exposed():
    nl = fir_spec(8, (3, 5, 7, 9)).build(None)
    # grouped but not a PO: the constant word reads back as the packed coeffs
    for w, _nets in nl.output_words():
        assert w != "coef"
    vals = eval_vector(nl, {f"x{i}": 0 for i in range(4)})
    packed = 3 | (5 << 8) | (7 << 16) | (9 << 24)
    assert word_value(nl, vals, "coef") == packed


def test_fir_approximate_assignment_changes_outputs():
    spec = fir_spec(8, (3, 5, 7, 9))
    exact = spec.build(None)
    rough = spec.build({"add0": ArchParams("add", "trunc", 16, 8)})
    tr_e = simulate(exact, VectorStream(300, 2, "uniform"))
    tr_r = simulate(rough, VectorStream(300, 2, "uniform"))
    ye = tr_e.word_values(dict(exact.output_words())["y"])
    yr = tr_r.word_values(dict(rough.output_words())["y"])
    assert not np.array_equal(ye, yr)
    # low half of the tree is cut, so errors are bounded by the cut width
    assert np.abs(ye.astype(np.int64) - yr.astype(np.int64)).max() < 1 << 9


def test_fir_slot_assignment_validated():
    spec = fir_spec(8, (3, 5, 7, 9))
    with pytest.raises(BadParams):
        spec.build({"add1": ArchParams("add", "loa", 17, 2)})  # wrong width
    with pytest.raises(BadParams):
        spec.build({"mul0": ArchParams("add", "loa", 8, 2)})   # wrong op


def test_fir_taps_must_be_a_power_of_two():
    with pytest.raises(BadParams):
        fir_spec(8, (1, 2, 3))
    with pytest.raises(BadParams):
        fir_spec(8, (1,))


# sha256 of serialize_netlist for fir builds of more than the golden 4
# taps, recorded before the adder tree was read off fir_slots: per (taps,
# width), all-exact and with the last adder LOA
_FIR_PINS = {
    (2, 4): ("b80c5ab4e5e96b44cc40af1881dd1afb"
             "91b783d3dce89bb82064f58b18a63a74",
             "ce0523fec356aca195491292e0c34bdd"
             "09bd8544b0d1fa63b27779b8df3915f8"),
    (2, 8): ("330ac528d19b6d45aceb411488844f59"
             "573774136b22f0850ac77d2ba7bdfe4c",
             "54337ba9667d17921a092868dc34ce69"
             "655b397d7c32672309507f552178a43b"),
    (8, 4): ("67117a1ce482f542b05dfffb375dd52f"
             "93bd80d82f575f0827b0204827fa6f21",
             "a12494e0d3f3325ef80f284e735697c0"
             "3f62082946d40fe2bb99a18b663b7a78"),
    (8, 8): ("4e3f8ff1948dcefe8a6788d0e3eadf74"
             "4f3f2447f09ffb54f52f8d10aaf49ac7",
             "91ace29478972dffe3ecf9fb63925252"
             "0fbadca557ac56064c54f3a01c05ce2e"),
    (16, 4): ("4d1db23b2fb2749ddd783abee81a96eb"
              "61fbe333fcd1015e71da4e2291b14fb3",
              "c89fbee47709ca7bc14bc353359d6d16"
              "b4b8a743810efbb0c4aa5a176dabaef0"),
    (16, 8): ("15ef7d3f7e1ed03af86603818d6c2e5c"
              "1a3ec525f6f5e55b0ad24cf42a1b2249",
              "5f0524eff8e5d032043a2b06b0f1de99"
              "ebeb6af7f6b703980fe17c97624fb10f"),
}


@pytest.mark.parametrize("taps,width", sorted(_FIR_PINS))
def test_fir_builds_of_any_tap_count_match_their_pins(taps, width):
    spec = fir_spec(width, [(3 + 2 * i) % (1 << width) for i in range(taps)])
    name, op, w = spec.slots[-1]
    got = [hashlib.sha256(serialize_netlist(spec.build(assign)).encode())
           .hexdigest()
           for assign in (None, {name: ArchParams(op, "loa", w, 2)})]
    assert tuple(got) == _FIR_PINS[taps, width]


# sha256 of serialize_netlist for bfly builds, recorded before the wire
# widths were read off the slot modules' ports: per (width, twiddle),
# all-exact, with a trunc k=1 multiplier and with a loa k=2 adder
_BFLY_PINS = {
    (2, 1): ("7aaf1327bef29dfa4afca63ec9f71838"
             "b1beec0e540ec73487d31cb328a2264b",
             "da28920454c5b590c8b99e831ebbd091"
             "c51986999079f5ec2910628ff9e769b1",
             "fe5e01f29a6c450aeb987d5a2a80eaf1"
             "ed3cf998172337bc493356edd83b21a0"),
    (4, 15): ("95b4b6cec3d6157421d5c0c223cf67ac"
              "9a221b5df9b806acbf4df6b6e4ca50c8",
              "bc2ee2d25e34540abe512db5505eeaf5"
              "16f137b8377bab7dd1aaee280f183e55",
              "68f07c502dfa02f318e9ff29a16a49d8"
              "676eefdd85570d4437ffba4a5108e8c4"),
    (6, 1): ("cbb67dd6bc40619f941e6d3675d26b52"
             "47a4cf75bcaf1cf25042c63851ace31b",
             "f300938e290ae50dc0785bfe767399fe"
             "c2baf3b0ffc6aaed76d396e8056f53e2",
             "a72484679063f4ae9600515ba6e5092c"
             "0a7f01d6484bdae422701cbf945453ca"),
    (7, 100): ("698627ae2a1567f790f3ad1942f48e2f"
               "3263f97aef86f3435fa6b53d00fbd9ea",
               "542710188a5f4b75ea54531653338a82"
               "a8140232c604c3db02f026012c2f2e3c",
               "b5f7190332e912ea8adf93e726e3eba1"
               "a075dd46cd24cac9c25a5b724cd83d44"),
    (8, 3): ("e03c3c8ef1eef163a307497b911e9042"
             "cbfb83bef48c4e22128b7a8afc47644b",
             "ed8795fe10c06bd48b12aba0063f71c3"
             "e42ad71d53b0b56b528df65d77228598",
             "f5952d2a200367bf2ed9f62126a503e8"
             "00a07e9adbfbfedf533b63ab16d63038"),
    (8, 255): ("4989be8e4f228dd5c279120c9371bb61"
               "d7ac11508eb1a1d53c4c5c1bb9083128",
               "1ad2f0df41b2409e6efd0ae8891a5fe6"
               "981e8fdf5e7549c262db095c3b14479b",
               "3e91f258b76ae55200ca1f774b2708c3"
               "d2aa8fa7d3915c01af21548118159b7b"),
}


@pytest.mark.parametrize("width,twiddle", sorted(_BFLY_PINS))
def test_bfly_builds_match_their_pins(width, twiddle):
    spec = bfly_spec(width, twiddle)
    (_, mop, mw), (_, aop, aw) = spec.slots
    got = [hashlib.sha256(serialize_netlist(spec.build(assign)).encode())
           .hexdigest()
           for assign in (None, {"mul0": ArchParams(mop, "trunc", mw, 1)},
                          {"add0": ArchParams(aop, "loa", aw, 2)})]
    assert tuple(got) == _BFLY_PINS[width, twiddle]


def test_flatten_prefixes_instance_tags():
    nl = fir_spec(8, (3, 5, 7, 9)).build(None)
    tags = set(nl.instances)
    assert {"top.mul0", "top.add2", "top.c0"} <= tags
    assert nl.instances["top.mul0"].kind_label == "approximate"
    assert nl.instances["top.c0"].kind_label == "deterministic"
    assert all(t.startswith("top.") for t in tags)
    # a placed module of several tags keeps each under the instance path
    inner = fir_spec(4, (1, 2, 3, 1)).build()
    ins, outs = inner.signature()
    nl = flatten(Design("outer", list(ins), list(outs), insts=[ModuleInst(
        "f", inner, {w: w for w, _ in ins + outs})]))
    assert nl.instances == {f"outer.f.{t}": e
                            for t, e in inner.instances.items()}
    assert [g.tag for g in nl.gates] \
        == [f"outer.f.{g.tag}" for g in inner.gates]


def test_bfly_hand_values():
    # y0 = a + 3b, y1 = (a - 3b) mod 2^n
    spec = bfly_spec(8, 3)
    nl = spec.build(None)
    vals = eval_vector(nl, {"a": 10, "b": 2})
    assert word_value(nl, vals, "y0") == 16
    assert word_value(nl, vals, "y1") == 4
    n = len(dict(nl.output_words())["y1"])
    vals = eval_vector(nl, {"a": 0, "b": 1})
    assert word_value(nl, vals, "y1") == (0 - 3) % (1 << n)


def test_bfly_reference_matches_exact_build():
    spec = bfly_spec(8, 3)
    nl = spec.build(None)
    tr = simulate(nl, VectorStream(400, 6, "correlated", 0.8))
    wv = {w: tr.word_values(nets) for w, nets in nl.input_words()}
    for w, nets in nl.output_words():
        assert np.array_equal(tr.word_values(nets), spec.reference[w](wv)), w
    assert spec.secret_word == "twid"


def test_flatten_leaves_the_memoized_modules_unchanged():
    assign = {"mul1": ArchParams("mul", "trunc", 8, 4),
              "add0": ArchParams("add", "loa", 16, 4),
              "add2": ArchParams("add", "exact", 17)}
    fresh = {s: gen_multiplier(p) if p.op_type == "mul" else gen_adder(p)
             for s, p in assign.items()}
    kids = {s: gen_module(p) for s, p in assign.items()}
    glue = [(const_module, (3, 8)), (const_module, (9, 8)),
            (resize_module, (8, 11)), (resize_module, (16, 11)),
            (sub_module, (11,))]
    glue_kids = [make(*args) for make, args in glue]
    fir_spec(8, (3, 5, 7, 9)).build(assign)
    bfly_spec(8, 3).build({"mul0": assign["mul1"]})
    for slot, p in assign.items():
        assert gen_module(p) is kids[slot]
        assert structurally_equal(kids[slot], fresh[slot])
    for (make, args), kid in zip(glue, glue_kids):
        assert make(*args) is kid
        assert structurally_equal(kid, make.__wrapped__(*args))


def test_fir_coefficients_must_fit_the_width():
    with pytest.raises(BadParams,
                       match=r"^constant must be in \[0, 2\^width\), got 5$"):
        fir_spec(2, (3, 5, 7, 9))


def test_design_spec_selects_a_family_by_name():
    # each family reads only its own parameters
    assert design_spec("fir", 6, (1, 2), 99).name == fir_spec(6, (1, 2)).name
    assert design_spec("bfly", 6, (99,), 5).name == bfly_spec(6, 5).name
    with pytest.raises(BadParams, match="unknown design 'iir'"):
        design_spec("iir", 8, (3, 5, 7, 9), 3)
    with pytest.raises(BadParams, match="twiddle"):
        design_spec("bfly", 8, (3,), 0)


def test_build_is_shared_whatever_the_assignment_order():
    spec = fir_spec()
    mul = ArchParams("mul", "trunc", 8, 4)
    add = ArchParams("add", "loa", 16, 4)
    nl = spec.build({"mul1": mul, "add0": add})
    assert spec.build({"add0": add, "mul1": mul}) is nl
    assert fir_spec().build({"mul1": mul, "add0": add}) is nl
    assert spec.build(None) is spec.build({})


def test_specs_that_differ_in_a_constant_share_no_build():
    mul = {"mul0": ArchParams("mul", "trunc", 8, 4)}
    firs = [fir_spec(8, c).build(mul) for c in ((3, 5, 7, 9), (3, 5, 7, 11))]
    bflies = [bfly_spec(8, t).build(mul) for t in (3, 5)]
    for a, b in (firs, bflies):
        assert a is not b
        assert not structurally_equal(a, b)


@pytest.mark.parametrize("design", ["fir", "bfly"])
def test_shared_builds_equal_fresh_flattens(design, monkeypatch):
    # every variant that seeds 0-3 build, shared or not, is the netlist a
    # fresh flatten of its design gives
    built = {}
    real = designs._build

    def spy(*key):
        built[key] = real(*key)
        return built[key]

    monkeypatch.setattr(designs, "_build", spy)
    for seed in range(4):
        cfg = ExperimentConfig(seed=seed, design=design)
        spec = cfg.design_spec()
        stream = VectorStream(cfg.characterize_vectors, sub_seed(seed, 1),
                              "correlated", cfg.rho)
        library = characterize_library(spec, stream, cfg.theta)
        generate_variants(spec, library, cfg.n_variants, cfg.budget(),
                          stream)
    make = {"fir": fir_design, "bfly": bfly_design}[design]
    assert len(built) > 4
    for (kind, params, assign), nl in built.items():
        assert kind is make
        assert structurally_equal(nl, flatten(make(*params, dict(assign))))
