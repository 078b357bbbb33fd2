"""Structural invariants of the gate-level representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec.designs import bfly_spec, fir_spec
from axsec.errors import CycleError, PortMismatch, SemanticError
from axsec.netlist import (Design, Gate, GateKind, ModuleInst, Netlist,
                           NetlistBuilder, flatten, structurally_equal)


def _and2():
    b = NetlistBuilder()
    a = b.pi("a")
    c = b.pi("b")
    b.instance("u", "approximate", "add", "exact")
    y = b.gate(GateKind.AND, (a, c), tag="u", stem="y")
    b.po(y)
    return b.build()


def test_gate_kind_codes_are_stable():
    # the text format and the lowered kernels both bake these in
    assert [k.value for k in GateKind] == list(range(11))
    assert GateKind.AND == 0 and GateKind.CONST1 == 10


def test_builder_roundtrip_basics():
    nl = _and2()
    assert nl.n_nets == 3
    assert [w for w, _ in nl.input_words()] == ["a", "b"]
    assert nl.net_id("y") == 2
    g = nl.driver(nl.net_id("y"))
    assert g.kind is GateKind.AND and g.tag == "u"
    assert nl.gates_of_tag("u") == (g,)


def test_dense_ids_follow_creation_order():
    b = NetlistBuilder()
    ids = [b.pi(f"x{i}") for i in range(5)]
    assert ids == list(range(5))
    assert b.fresh("t") == 5


def test_single_driver_enforced():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "buf", "exact")
    y = b.gate(GateKind.BUF, (a,), tag="u")
    with pytest.raises(SemanticError):
        b.gate(GateKind.NOT, (a,), out=y, tag="u")
        b.po(y)
        b.build()


def test_unregistered_tag_rejected():
    b = NetlistBuilder()
    a = b.pi("a")
    y = b.gate(GateKind.NOT, (a,), tag="ghost")
    b.po(y)
    with pytest.raises(SemanticError, match="ghost"):
        b.build()


@pytest.mark.parametrize("kind,n_in", [
    (GateKind.NOT, 2), (GateKind.BUF, 0), (GateKind.MUX2, 2),
    (GateKind.AND, 1), (GateKind.CONST0, 1),
])
def test_arity_violations(kind, n_in):
    b = NetlistBuilder()
    ins = tuple(b.pi(f"x{i}") for i in range(max(n_in, 1)))[:n_in]
    b.instance("u", "deterministic", "misc", "exact")
    y = b.gate(kind, ins, tag="u")
    b.po(y)
    with pytest.raises(SemanticError):
        b.build()


def test_undriven_net_rejected():
    b = NetlistBuilder()
    a = b.pi("a")
    dangling = b.net("w")
    b.instance("u", "deterministic", "misc", "exact")
    y = b.gate(GateKind.AND, (a, dangling), tag="u")
    b.po(y)
    with pytest.raises(SemanticError, match="undriven"):
        b.build()


def test_cycle_detection_names_the_loop():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.net("x")
    y = b.net("y")
    b.gate(GateKind.AND, (a, y), out=x, tag="u")
    b.gate(GateKind.BUF, (x,), out=y, tag="u")
    b.po(y)
    with pytest.raises(CycleError) as exc:
        b.build().topo_order()
    assert set(exc.value.cycle) <= {x, y}


def test_topo_order_respects_dependencies():
    nl = _and2()
    gates = [nl.gate_by_id(gid) for gid in nl.topo_order()]
    pos = {g.output: i for i, g in enumerate(gates)}
    for g in gates:
        for i in g.inputs:
            if nl.driver(i) is not None:
                assert pos[i] < pos[g.output]


def test_derive_keeps_base_untouched():
    base = _and2()
    b = NetlistBuilder(base)
    b.instance("v", "deterministic", "misc", "exact")
    z = b.gate(GateKind.NOT, (base.net_id("y"),), tag="v")
    b.po(z)
    derived = b.build()
    assert len(base.gates) == 1 and len(derived.gates) == 2
    assert structurally_equal(base, base)
    assert not structurally_equal(base, derived)


def test_word_grouping_and_support():
    b = NetlistBuilder()
    a = [b.pi(f"a{i}") for i in range(2)]
    c = [b.pi(f"b{i}") for i in range(2)]
    b.word("a", a)
    b.word("b", c)
    b.instance("u", "approximate", "add", "exact")
    y = b.gate(GateKind.XOR, (a[0], c[0]), tag="u")
    z = b.gate(GateKind.AND, (a[1], a[0]), tag="u")
    b.word("y", [y, z])
    b.po(y)
    b.po(z)
    nl = b.build()
    assert dict(nl.input_words()) == {"a": tuple(a), "b": tuple(c)}
    assert dict(nl.output_words()) == {"y": (y, z)}
    assert nl.signature() == ((("a", 2), ("b", 2)), (("y", 2),))
    assert nl.input_word_support((z,)) == ("a",)
    assert nl.input_word_support((y, z)) == ("a", "b")


def test_flatten_rejects_a_group_that_redefines_a_port():
    b = NetlistBuilder()
    a = [b.pi(f"a{i}") for i in range(4)]
    b.word("a", a)
    b.instance("u", "deterministic", "misc", "exact")
    y = [b.gate(GateKind.BUF, (n,), tag="u") for n in a]
    b.word("y", y)
    for n in y:
        b.po(n)
    d = Design("top", inputs=[("x", 4), ("y", 4)], outputs=[("z", 4)],
               insts=[ModuleInst("buf", b.build(), {"a": "x", "y": "z"})])
    assert len(flatten(d).words["x"]) == 4
    d.groups = [("x", ["x", "y"])]
    with pytest.raises(PortMismatch, match="'x' is 8 bits, declared 4"):
        flatten(d)


def test_ungrouped_nets_become_one_bit_words():
    nl = _and2()
    assert dict(nl.output_words()) == {"y": (2,)}


def test_fanout_counts():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.gate(GateKind.NOT, (a,), tag="u")
    y = b.gate(GateKind.AND, (a, x), tag="u")
    z = b.gate(GateKind.OR, (a, y), tag="u")
    b.po(z)
    nl = b.build()
    f = nl.fanout_counts()
    assert f[a] == 3 and f[x] == 1 and f[y] == 1 and f[z] == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_layered_builds_are_valid(data):
    """Any layered construction must validate, topo-sort, and round-trip
    through a derived builder unchanged."""
    b = NetlistBuilder()
    nets = [b.pi(f"x{i}") for i in range(data.draw(st.integers(2, 5)))]
    b.instance("u", "deterministic", "misc", "exact")
    n_gates = data.draw(st.integers(1, 12))
    for _ in range(n_gates):
        kind = data.draw(st.sampled_from(
            [GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT]))
        arity = 1 if kind is GateKind.NOT else 2
        ins = tuple(data.draw(st.sampled_from(nets)) for _ in range(arity))
        nets.append(b.gate(kind, ins, tag="u"))
    b.po(nets[-1])
    nl = b.build()
    order = nl.topo_order()
    assert len(order) == n_gates
    again = NetlistBuilder(nl).build()
    assert structurally_equal(nl, again)


def _support_by_definition(nl, nets):
    cone = nl.fanin_nets(nets)
    return tuple(w for w, bits in nl.input_words()
                 if any(b in cone for b in bits))


@st.composite
def _worded_netlists(draw):
    """Layered random netlists with several input words (some ungrouped
    inputs, some overlapping words, one word mixing in a gate output) and
    gates spread over a few tags."""
    b = NetlistBuilder()
    xs = [b.pi(f"x{i}") for i in range(draw(st.integers(1, 8)))]
    for t in ("p", "q", "r"):
        b.instance(t, "approximate", "add", "exact")
    pool = list(xs)
    for _ in range(draw(st.integers(1, 4))):
        made = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from([GateKind.AND, GateKind.XOR,
                                         GateKind.NOT, GateKind.MUX2,
                                         GateKind.CONST1]))
            arity = {GateKind.NOT: 1, GateKind.MUX2: 3,
                     GateKind.CONST1: 0}.get(kind, 2)
            ins = draw(st.lists(st.sampled_from(pool), min_size=arity,
                                max_size=arity))
            made.append(b.gate(kind, ins, tag=draw(st.sampled_from("pqr"))))
        pool += made
    for k in range(draw(st.integers(0, 4))):
        bits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                             unique=True))
        b.word(f"w{k}", bits)
    for net in pool[len(xs):]:
        b.po(net)
    return b.build()


@settings(max_examples=60, deadline=None)
@given(_worded_netlists(), st.data())
def test_support_bitmasks_match_the_fanin_definition(nl, data):
    for n in range(nl.n_nets):
        assert nl.input_word_support((n,)) == _support_by_definition(nl, [n])
    nets = data.draw(st.lists(st.integers(0, nl.n_nets - 1), max_size=5))
    assert nl.input_word_support(nets) == _support_by_definition(nl, nets)


@settings(max_examples=60, deadline=None)
@given(_worded_netlists(), st.randoms(use_true_random=False))
def test_levels_order_readers_and_fanout_match_their_definitions(nl, rnd):
    # renumber the gates so that id order is not a dependency order
    ids = list(range(len(nl.gates)))
    rnd.shuffle(ids)
    nl = Netlist(nl.net_names, nl.inputs, nl.outputs, nl.words,
                 [Gate(ids[g.id], g.kind, g.inputs, g.output, g.tag)
                  for g in nl.gates], nl.instances)
    level = {g.id: lv for lv, gates in enumerate(nl.levels()) for g in gates}
    assert sorted(level) == [g.id for g in nl.gates]
    for g in nl.gates:
        below = [level[nl.driver(i).id] for i in g.inputs
                 if nl.driver(i) is not None]
        assert level[g.id] == 1 + max(below, default=-1)
    assert list(nl.topo_order()) == sorted(level,
                                           key=lambda i: (level[i], i))
    assert nl.ordered_gates() == tuple(map(nl.gate_by_id, nl.topo_order()))
    pins = [i for g in nl.gates for i in g.inputs]
    for n in range(nl.n_nets):
        assert nl.readers(n) == tuple(g for g in nl.gates if n in g.inputs)
        assert nl.fanout_counts()[n] == pins.count(n)


@settings(max_examples=30, deadline=None)
@given(_worded_netlists())
def test_tag_index_matches_the_linear_filter(nl):
    for tag in list(nl.instances) + ["missing"]:
        assert nl.gates_of_tag(tag) == tuple(g for g in nl.gates
                                             if g.tag == tag)
    assert nl.gates_of_tag("missing") == ()


@pytest.mark.parametrize("spec", [fir_spec(), bfly_spec()],
                         ids=lambda s: s.name)
def test_memoized_derivations_on_the_reference_designs(spec):
    nl = spec.build(None)
    for n in range(nl.n_nets):
        assert nl.input_word_support((n,)) == _support_by_definition(nl, [n])
    for tag in nl.instances:
        assert nl.gates_of_tag(tag) == tuple(g for g in nl.gates
                                             if g.tag == tag)
    assert nl.gates_of_tag("top") == ()
