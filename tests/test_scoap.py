"""Testability recurrences on hand-worked circuits.

Conventions: primary inputs have CC0 = CC1 = 1, primary outputs CO = 0,
every gate traversal adds 1, unreachable values saturate at INF.  Each
expected number below is derived in a comment, never copied from the
implementation.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings

from axsec.arith import ArchParams, gen_adder, gen_multiplier
from axsec.designs import bfly_spec, fir_spec
from axsec.netlist import GateKind, NetlistBuilder
from axsec.scoap import INF, ScoapReport, _expand, scoap

from tests.conftest import dags

# the module, which the package's ``scoap`` function shadows as an attribute
scoap_module = importlib.import_module("axsec.scoap")


def _build(kinds):
    """Two PIs a, b feeding one gate per requested kind."""
    b = NetlistBuilder()
    a = b.pi("a")
    c = b.pi("b")
    b.instance("u", "deterministic", "misc", "exact")
    outs = [b.gate(k, (a, c), tag="u") for k in kinds]
    for o in outs:
        b.po(o)
    return b.build(), a, c, outs


def _vals(nl, net):
    r = scoap(nl)
    return int(r.cc0[net]), int(r.cc1[net]), int(r.co[net])


def test_not_chain():
    # chain of 5 inverters: controllabilities grow by one per stage
    # (each NOT swaps cc0/cc1 of its input and adds 1), observability
    # counts the remaining stages
    b = NetlistBuilder()
    n = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    nets = [n]
    for _ in range(5):
        n = b.gate(GateKind.NOT, (n,), tag="u")
        nets.append(n)
    b.po(n)
    r = scoap(b.build())
    for depth, net in enumerate(nets):
        assert int(r.cc0[net]) == depth + 1
        assert int(r.cc1[net]) == depth + 1
        assert int(r.co[net]) == 5 - depth


def test_buf_chain():
    # buffers also charge one per stage
    b = NetlistBuilder()
    n = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    for _ in range(4):
        n = b.gate(GateKind.BUF, (n,), tag="u")
    b.po(n)
    r = scoap(b.build())
    assert _vals_from(r, n) == (5, 5, 0)
    assert int(r.co[0]) == 4


def _vals_from(r, net):
    return int(r.cc0[net]), int(r.cc1[net]), int(r.co[net])


def test_and2():
    # out=0 needs one controlled-0 input: min(1,1)+1 = 2
    # out=1 needs both at 1: 1+1+1 = 3
    # seeing a through the gate costs b=1: 0+1+1 = 2
    nl, a, c, (y,) = _build([GateKind.AND])
    assert _vals(nl, y) == (2, 3, 0)
    assert _vals(nl, a)[2] == 2


def test_or2():
    # dual of AND: cc0 sums (3), cc1 takes the min (2); CO(a) = cc0(b)+1 = 2
    nl, a, c, (y,) = _build([GateKind.OR])
    assert _vals(nl, y) == (3, 2, 0)
    assert _vals(nl, a)[2] == 2


def test_nand2():
    # inverted AND: cc0 = sum cc1 + 1 = 3, cc1 = min cc0 + 1 = 2
    nl, a, c, (y,) = _build([GateKind.NAND])
    assert _vals(nl, y) == (3, 2, 0)
    assert _vals(nl, a)[2] == 2


def test_nor2():
    # inverted OR: cc0 = min cc1 + 1 = 2, cc1 = sum cc0 + 1 = 3
    nl, a, c, (y,) = _build([GateKind.NOR])
    assert _vals(nl, y) == (2, 3, 0)
    assert _vals(nl, a)[2] == 2


def test_xor2_xnor2():
    # xor out=0 via (0,0) or (1,1): min(1+1, 1+1)+1 = 3; out=1 likewise 3
    # observing a requires fixing b either way: min(1,1)+1 = 2
    nl, a, c, outs = _build([GateKind.XOR, GateKind.XNOR])
    for y in outs:
        assert _vals(nl, y)[:2] == (3, 3)
    assert _vals(nl, a)[2] == 2


def test_mux2():
    # modeled as ns=NOT(sel), A1=AND(ns,a), A2=AND(sel,b), out=OR(A1,A2):
    #   ns: (2,2)  A1: cc0 min(2,1)+1=2, cc1 2+1+1=4  A2: (2,3)
    #   out: cc0 = 2+2+1 = 5, cc1 = min(4,3)+1 = 4
    # CO(A1) = cc0(A2)+1 = 3, CO(A2) = cc0(A1)+1 = 3
    # CO(sel) = min(CO(ns)+1 path, CO(A2)+cc1(b)+1) = min(6, 5) = 5
    # CO(a) = CO(A1)+cc1(ns)+1 = 6,  CO(b) = CO(A2)+cc1(sel)+1 = 5
    b = NetlistBuilder()
    s = b.pi("s")
    a = b.pi("a")
    c = b.pi("b")
    b.instance("u", "deterministic", "misc", "exact")
    y = b.gate(GateKind.MUX2, (s, a, c), tag="u")
    b.po(y)
    nl = b.build()
    assert _vals(nl, y) == (5, 4, 0)
    assert _vals(nl, s)[2] == 5
    assert _vals(nl, a)[2] == 6
    assert _vals(nl, c)[2] == 5


def test_and4_tree():
    # t1=AND(a,b) (2,3), t2=AND(c,d) (2,3)
    # y: cc0 = min(2,2)+1 = 3, cc1 = 3+3+1 = 7
    # CO(t1) = cc1(t2)+1 = 4; CO(a) = CO(t1)+cc1(b)+1 = 6
    b = NetlistBuilder()
    ins = [b.pi(n) for n in "abcd"]
    b.instance("u", "deterministic", "misc", "exact")
    t1 = b.gate(GateKind.AND, ins[:2], tag="u")
    t2 = b.gate(GateKind.AND, ins[2:], tag="u")
    y = b.gate(GateKind.AND, (t1, t2), tag="u")
    b.po(y)
    nl = b.build()
    assert _vals(nl, y) == (3, 7, 0)
    assert _vals(nl, t1) == (2, 3, 4)
    assert _vals(nl, ins[0])[2] == 6


def test_two_bit_ripple_adder():
    # generated structure: s=a0^b0, c=a0&b0, t=a1^b1, s1=t^c,
    #                      g=a1&b1, h=t&c, c1=g|h
    # worked forward:  s (3,3)  c (2,3)  t (3,3)  s1: min(3+2,3+3)+1 = 6
    #   both polarities -> (6,6);  g (2,3);  h: cc0 min(3,2)+1=3,
    #   cc1 3+3+1=7;  c1: cc0 2+3+1=6, cc1 min(3,7)+1=4
    # worked backward: CO(h)=cc0(g)+1=3, CO(g)=cc0(h)+1=4
    #   CO(t)=min(s1 path 0+2+1, h path 3+3+1)=3
    #   CO(c)=min(0+3+1, 3+3+1)=4
    #   CO(a1)=min(t path 3+1+1, g path 4+1+1)=5
    #   CO(a0)=min(s path 0+1+1, c path 4+1+1)=2
    nl = gen_adder(ArchParams("add", "exact", 2))
    r = scoap(nl)
    want = {
        "a[0]": (1, 1, 2), "b[0]": (1, 1, 2),
        "a[1]": (1, 1, 5), "b[1]": (1, 1, 5),
        "s": (3, 3, 0), "c": (2, 3, 4), "t": (3, 3, 3),
        "s_1": (6, 6, 0), "g": (2, 3, 4), "h": (3, 7, 3),
        "c_1": (6, 4, 0),
    }
    for name, vals in want.items():
        net = nl.net_names.index(name)
        assert _vals_from(r, net) == vals, name


def test_constants_saturate():
    # a constant can never take the other value: its cc saturates; the
    # downstream OR still sees cc1 = min(1, INF)+1 = 2
    b = NetlistBuilder()
    x = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    k = b.gate(GateKind.CONST0, (), tag="u")
    y = b.gate(GateKind.OR, (x, k), tag="u")
    b.po(y)
    nl = b.build()
    r = scoap(nl)
    assert int(r.cc0[k]) == 1 and int(r.cc1[k]) >= INF
    assert _vals_from(r, y) == (3, 2, 0)
    assert isinstance(r, ScoapReport)


def test_saturation_does_not_overflow():
    # INF + INF must stay clamped, not wrap
    b = NetlistBuilder()
    b.instance("u", "deterministic", "misc", "exact")
    k0 = b.gate(GateKind.CONST0, (), tag="u")
    k1 = b.gate(GateKind.CONST0, (), tag="u")
    y = b.gate(GateKind.AND, (k0, k1), tag="u")
    b.po(y)
    r = scoap(b.build())
    assert int(r.cc1[y]) >= INF
    assert int(r.cc1[y]) < 1 << 62


# -- oracle ---------------------------------------------------------------
# The numpy-indexed recurrences that the list-based pass replaced, kept
# verbatim apart from names: the new pass must equal them exactly.

def _sat(x):
    return INF if x >= INF else x


def _oracle_controllability(nl, entries, n):
    cc0 = np.full(n, INF, np.int64)
    cc1 = np.full(n, INF, np.int64)
    for net in nl.inputs:
        cc0[net] = cc1[net] = 1
    for kind, ins, out in entries:
        if kind is GateKind.CONST0:
            cc0[out], cc1[out] = 1, INF
            continue
        if kind is GateKind.CONST1:
            cc0[out], cc1[out] = INF, 1
            continue
        if kind in (GateKind.NOT, GateKind.BUF):
            i = ins[0]
            if kind is GateKind.NOT:
                cc0[out], cc1[out] = _sat(cc1[i] + 1), _sat(cc0[i] + 1)
            else:
                cc0[out], cc1[out] = _sat(cc0[i] + 1), _sat(cc1[i] + 1)
            continue
        if kind in (GateKind.XOR, GateKind.XNOR):
            even, odd = 0, INF
            for i in ins:
                even, odd = (_sat(min(even + cc0[i], odd + cc1[i])),
                             _sat(min(odd + cc0[i], even + cc1[i])))
            if kind is GateKind.XOR:
                cc0[out], cc1[out] = _sat(even + 1), _sat(odd + 1)
            else:
                cc0[out], cc1[out] = _sat(odd + 1), _sat(even + 1)
            continue
        all1 = _sat(sum(int(cc1[i]) for i in ins))
        all0 = _sat(sum(int(cc0[i]) for i in ins))
        any0 = min(int(cc0[i]) for i in ins)
        any1 = min(int(cc1[i]) for i in ins)
        if kind is GateKind.AND:
            cc0[out], cc1[out] = _sat(any0 + 1), _sat(all1 + 1)
        elif kind is GateKind.NAND:
            cc0[out], cc1[out] = _sat(all1 + 1), _sat(any0 + 1)
        elif kind is GateKind.OR:
            cc0[out], cc1[out] = _sat(all0 + 1), _sat(any1 + 1)
        else:  # NOR
            cc0[out], cc1[out] = _sat(any1 + 1), _sat(all0 + 1)
    return cc0, cc1


def _oracle_observability(nl, entries, n, cc0, cc1):
    co = np.full(n, INF, np.int64)
    for net in nl.outputs:
        co[net] = 0
    for kind, ins, out in reversed(entries):
        base = co[out]
        if base >= INF:
            continue
        for j, i in enumerate(ins):
            others = [x for t, x in enumerate(ins) if t != j]
            if kind in (GateKind.NOT, GateKind.BUF):
                cost = base + 1
            elif kind in (GateKind.AND, GateKind.NAND):
                cost = base + sum(int(cc1[x]) for x in others) + 1
            elif kind in (GateKind.OR, GateKind.NOR):
                cost = base + sum(int(cc0[x]) for x in others) + 1
            elif kind in (GateKind.XOR, GateKind.XNOR):
                cost = base + sum(int(min(cc0[x], cc1[x])) for x in others) + 1
            else:  # CONST: no inputs
                continue
            co[i] = min(int(co[i]), _sat(cost))
    return co


def _oracle_scoap(nl):
    entries, n = _expand(nl)
    cc0, cc1 = _oracle_controllability(nl, entries, n)
    co = _oracle_observability(nl, entries, n, cc0, cc1)
    m = nl.n_nets  # the report holds int32 arrays: INF fits
    return ScoapReport(*(a[:m].astype(np.int32) for a in (cc0, cc1, co)))


def _assert_equals_oracle(nl):
    got, want = scoap(nl), _oracle_scoap(nl)
    for field in ("cc0", "cc1", "co"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@settings(max_examples=300, deadline=None)
@given(dags())
def test_list_recurrences_equal_the_numpy_oracle(nl):
    _assert_equals_oracle(nl)


@pytest.mark.parametrize("kind", [GateKind.AND, GateKind.OR, GateKind.NAND,
                                  GateKind.NOR, GateKind.XOR, GateKind.XNOR,
                                  GateKind.MUX2], ids=lambda k: k.name)
def test_saturating_chains_equal_the_oracle(kind):
    # each stage reads the previous net on every pin, so the finite costs
    # at least double per stage and cross INF well within 40 stages; a
    # second chain starts from constants, INF on one side from the start
    b = NetlistBuilder()
    x = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    k0 = b.gate(GateKind.CONST0, (), tag="u")
    k1 = b.gate(GateKind.CONST0, (), tag="u")
    arity = 3 if kind is GateKind.MUX2 else 5
    ends = []
    for n in (x, b.gate(kind, ((k0, k1) * 3)[:arity], tag="u")):
        for _ in range(40):
            n = b.gate(kind, (n,) * arity, tag="u")
        b.po(n)
        ends.append(n)
    nl = b.build()
    _assert_equals_oracle(nl)
    r = scoap(nl)
    assert max(r.cc0[ends[0]], r.cc1[ends[0]]) == INF


@pytest.mark.parametrize("nl", [
    fir_spec().build({"mul0": ArchParams("mul", "trunc", 8, 3)}),
    bfly_spec().build({"add0": ArchParams("add", "loa", 11, 4)}),
    gen_multiplier(ArchParams("mul", "block22", 8, 2)),
], ids=["fir", "bfly", "mul8"])
def test_designs_equal_the_oracle(nl):
    _assert_equals_oracle(nl)


def test_the_report_is_kept_with_the_netlist_and_read_only():
    nl = fir_spec().build({"mul0": ArchParams("mul", "trunc", 8, 3)})
    rep = scoap(nl)
    assert scoap(nl) is rep
    for field in ("cc0", "cc1", "co"):
        with pytest.raises(ValueError):
            getattr(rep, field)[0] = 0


def test_controllability_alone_runs_no_observability_pass(monkeypatch):
    nl = fir_spec().build({"mul1": ArchParams("mul", "trunc", 8, 2)})
    full = scoap(nl)
    passes = []
    real = scoap_module._observability

    def counting(*args):
        passes.append(None)
        return real(*args)

    monkeypatch.setattr(scoap_module, "_observability", counting)
    rep = scoap(nl, observability=False)
    assert scoap(nl, observability=False) is rep
    assert rep.co is None and not passes
    for field in ("cc0", "cc1"):
        assert np.array_equal(getattr(rep, field), getattr(full, field))
        with pytest.raises(ValueError):
            getattr(rep, field)[0] = 0
