"""Behavioral oracles for the approximate arithmetic generators.

Every generator is checked against an independent scalar model written
here from the architecture definitions, never against the generator's
own code.  Single frozen values are worked out by hand in comments.
"""

import numpy as np
import pytest

from axsec.arith import (ARCHS, ArchParams, _Cells, gen_adder, gen_module,
                         gen_multiplier)
from axsec.errors import BadParams
from axsec.netlist import NetlistBuilder
from axsec.sim import simulate

from tests.oracles import exhaustive_values, structurally_equal


# --- independent scalar models ---------------------------------------------

def loa_model(a, b, w, k, carry=False):
    mask = (1 << k) - 1
    lo = (a | b) & mask
    cin = ((a >> (k - 1)) & (b >> (k - 1)) & 1) if (carry and k) else 0
    return (((a >> k) + (b >> k) + cin) << k) | lo


def trunc_add_model(a, b, w, k):
    return ((a >> k) + (b >> k)) << k


def trunc_mul_model(a, b, w, k):
    # partial product a_i * b_j is dropped when its column i + j < k
    out = 0
    for i in range(w):
        for j in range(w):
            if i + j >= k and (a >> i) & 1 and (b >> j) & 1:
                out += 1 << (i + j)
    return out


def block22_model(a, b, w, k):
    # 2x2 digit grid; a digit product turns 3*3 into 7 when its block
    # weight satisfies 2*(i+j) < k, every other digit pair stays exact
    out = 0
    for i in range(w // 2):
        for j in range(w // 2):
            da = (a >> (2 * i)) & 3
            db = (b >> (2 * j)) & 3
            if da == 3 and db == 3 and 2 * (i + j) < k:
                p = 7
            else:
                p = da * db
            out += p << (2 * (i + j))
    return out


def _word_arrays(nl):
    tr = simulate(nl, exhaustive_values(nl))
    ins = dict(nl.input_words())
    (oname, onets), = nl.output_words()
    return (tr.word_values(ins["a"]).astype(np.int64),
            tr.word_values(ins["b"]).astype(np.int64),
            tr.word_values(onets).astype(np.int64))


def _assert_matches(params, model):
    nl = gen_module(params)
    a, b, y = _word_arrays(nl)
    want = np.array([model(int(x), int(z), params.width, params.k)
                     for x, z in zip(a, b)], np.int64)
    assert np.array_equal(y, want), f"{params.label()} deviates from model"


# --- frozen hand-worked values ---------------------------------------------

def _one(params, a, b):
    nl = gen_module(params)
    av, bv, y = _word_arrays(nl)
    (idx,) = np.nonzero((av == a) & (bv == b))[0][:1]
    return int(y[idx])


def test_loa_hand_values():
    # w4 k2: 3+1 -> low bits 3|1 = 3, high (0+0)<<2 = 0, total 3
    assert _one(ArchParams("add", "loa", 4, 2), 3, 1) == 3
    # 3+3 without the bridging carry: 3; with it: (0+0+1)<<2 | 3 = 7
    assert _one(ArchParams("add", "loa", 4, 2), 3, 3) == 3
    assert _one(ArchParams("add", "loa", 4, 2, True), 3, 3) == 7


def test_trunc_hand_values():
    # w4 k2 adder: both operands lose their low 2 bits, 3+3 -> 0
    assert _one(ArchParams("add", "trunc", 4, 2), 3, 3) == 0
    # w4 k2 multiplier: only pp (1,1) of 3*3 survives -> 4
    assert _one(ArchParams("mul", "trunc", 4, 2), 3, 3) == 4


def test_block22_hand_values():
    # single 2x2 block, approximate: 3*3 -> 7, everything else exact
    p = ArchParams("mul", "block22", 2, 1)
    nl = gen_module(p)
    a, b, y = _word_arrays(nl)
    for av, bv, yv in zip(a, b, y):
        want = 7 if (av == 3 and bv == 3) else int(av) * int(bv)
        assert yv == want
    # w4 k2: only the weight-0 block approximates; 7*3 = (3+4)*3:
    # block(0,0) 3*3 -> 7, block(1,0) 1*3 << 2 = 12, total 19 (exact 21)
    assert _one(ArchParams("mul", "block22", 4, 2), 7, 3) == 19


# --- exhaustive equivalence against the models ------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("carry", [False, True])
def test_loa_matches_model(k, carry):
    _assert_matches(
        ArchParams("add", "loa", 5, k, carry),
        lambda a, b, w, kk: loa_model(a, b, w, kk, carry))


@pytest.mark.parametrize("op,model", [
    ("add", trunc_add_model), ("mul", trunc_mul_model),
])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_trunc_matches_model(op, model, k):
    _assert_matches(ArchParams(op, "trunc", 5, k), model)


@pytest.mark.parametrize("w,k", [(2, 1), (4, 2), (4, 3), (6, 4)])
def test_block22_matches_model(w, k):
    _assert_matches(ArchParams("mul", "block22", w, k), block22_model)


@pytest.mark.parametrize("arch,op", [
    ("loa", "add"), ("trunc", "add"), ("trunc", "mul"), ("block22", "mul"),
])
def test_k0_is_exact(arch, op):
    nl = gen_module(ArchParams(op, arch, 4, 0))
    a, b, y = _word_arrays(nl)
    want = a + b if op == "add" else a * b
    assert np.array_equal(y, want)


# --- interface contracts ----------------------------------------------------

def test_labels():
    assert ArchParams("add", "exact", 8).label() == "exact"
    assert ArchParams("add", "loa", 8, 2).label() == "loa2"
    assert ArchParams("add", "loa", 8, 2, True).label() == "loa2c"
    assert ArchParams("mul", "trunc", 8, 3).label() == "trunc3"
    assert ArchParams("mul", "block22", 8, 4).label() == "block224"


def test_output_word_shapes():
    add = gen_adder(ArchParams("add", "exact", 6))
    (w, nets), = add.output_words()
    assert w == "s" and len(nets) == 7
    mul = gen_multiplier(ArchParams("mul", "exact", 6))
    (w, nets), = mul.output_words()
    assert w == "p" and len(nets) == 12


def test_modules_are_labeled_approximate():
    for arch, op in [("exact", "add"), ("loa", "add"), ("block22", "mul")]:
        nl = gen_module(ArchParams(op, arch, 4, 0 if arch == "exact" else 2))
        assert nl.instances["u"].kind_label == "approximate"


@pytest.mark.parametrize("params", [
    ("add", "loa", 4, 4),       # k must stay below the width
    ("add", "loa", 4, -1),
    ("mul", "block22", 5, 2),   # digit grid needs an even width
    ("add", "trunc", 1, 0),     # width floor
    ("add", "exotic", 4, 0),
    ("mul", "loa", 4, 1),       # loa is an adder family
    ("div", "exact", 4),        # no generator for the operator
])
def test_bad_params_rejected(params):
    # refused when the parameters are made
    with pytest.raises(BadParams):
        gen_module(ArchParams(*params))


def test_a_generator_refuses_another_operator():
    with pytest.raises(BadParams, match="expected op_type 'add', got 'mul'"):
        gen_adder(ArchParams("mul", "exact", 4))


def test_arch_registry():
    assert ARCHS == ("exact", "loa", "trunc", "block22")


def test_loa_degradation_is_monotone():
    """Exhaustive mean error distance must not shrink as k grows."""
    prev = -1.0
    for k in range(0, 6):
        nl = gen_adder(ArchParams("add", "loa", 6, k))
        a, b, y = _word_arrays(nl)
        med = float(np.abs(y - (a + b)).mean())
        assert med >= prev
        prev = med


def test_ripple_rejects_operands_of_different_widths():
    b = NetlistBuilder()
    b.instance("u", "approximate", "add", "exact")
    cells = _Cells(b, "u")
    xs = [b.pi(f"x{i}") for i in range(3)]
    ys = [b.pi(f"y{i}") for i in range(2)]
    with pytest.raises(BadParams, match="differ in width"):
        cells.ripple(xs, ys)


def test_gen_module_is_memoized_per_params_and_tag():
    p = ArchParams("mul", "trunc", 6, 2)
    assert gen_module(p) is gen_module(p)
    assert gen_module(p, "v") is gen_module(p, "v")
    assert gen_module(p, "v") is not gen_module(p)
    assert gen_module(p, "v").instances.keys() == {"v"}
    # the memo holds the same netlist a fresh build gives
    assert structurally_equal(gen_module(p), gen_multiplier(p))
