"""Composed designs: slot plumbing, flattening, references."""

import numpy as np
import pytest

from axsec.arith import ArchParams, gen_adder, gen_module, gen_multiplier
from axsec.designs import (bfly_spec, const_module, fir_spec, resize_module,
                           sub_module)
from axsec.errors import BadParams
from axsec.netlist import structurally_equal
from axsec.sim import VectorStream, eval_vector, simulate, word_value


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


def test_flatten_prefixes_instance_tags():
    nl = fir_spec(8, (3, 5, 7, 9)).build(None)
    tags = set(nl.instances)
    assert {"top.mul0", "top.add2", "top.c0"} <= tags
    assert nl.instances["top.mul0"].kind_label == "approximate"
    assert nl.instances["top.c0"].kind_label == "deterministic"
    assert all(t.startswith("top.") for t in tags)


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
