"""Structural invariants of the gate-level representation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec import _kernels, attack, experiment, sta, textfmt
from axsec.attack import AttackConfig, StealthReport
from axsec.designs import (bfly_design, bfly_spec, const_module, fir_design,
                           fir_spec)
from axsec.errors import (CycleError, NetlistError, PortMismatch,
                          SemanticError, UnknownModule)
from axsec.experiment import ExperimentConfig, arch_menu, run_experiment
from axsec.netlist import (ARITY, Design, Gate, GateKind, ModuleInst,
                           Netlist, NetlistBuilder, flatten)
from axsec.sim import (CHUNK, VectorStream, activity_profile,
                       paired_activity_and_error, sub_seed)
from axsec.sta import DelayModel
from axsec.textfmt import serialize_netlist

from tests import oracles
from tests.conftest import dags
from tests.oracles import (eval_vector, fanin_nets, gates_of_tag,
                           ordered_gates, same_build, structurally_equal)
from tests.test_detect import _assert_cone_masks


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
    assert nl.net_names.index("y") == 2
    g = nl.driver(nl.net_names.index("y"))
    assert g.kind is GateKind.AND and g.tag == "u"
    assert gates_of_tag(nl, "u") == (g,)


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


def test_an_output_word_named_after_an_ungrouped_output_is_rejected():
    # the declared word s holds y and z; the ungrouped output net s became
    # a second 1-bit word s, and the output words named one word twice
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    nets = [b.gate(GateKind.NOT, (a,), tag="u", stem=n) for n in "syz"]
    for n in nets:
        b.po(n)
    b.word("s", nets[1:])
    with pytest.raises(SemanticError, match="two output words are named 's'"):
        b.build()
    b.word("s", nets)  # the same names grouped once are fine
    assert [w for w, _ in b.build().output_words()] == ["s"]
    b.outputs.append(nets[0])  # a bit of a word listed twice is fine too
    assert [w for w, _ in b.build().output_words()] == ["s"]
    del b.words["s"]  # an ungrouped net listed twice is one name twice
    with pytest.raises(SemanticError, match="two output words are named 's'"):
        b.build()


def test_an_input_word_named_after_an_ungrouped_input_is_rejected():
    b = NetlistBuilder()
    ins = [b.pi(f"b[{i}]") for i in range(3)]
    b.word("b[0]", ins[1:])
    b.instance("u", "deterministic", "misc", "exact")
    b.po(b.gate(GateKind.AND, ins, tag="u"))
    with pytest.raises(SemanticError, match=r"two input words are named "
                                            r"'b\[0\]'"):
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
        b.build()
    assert set(exc.value.cycle) <= {x, y}


def test_a_loop_is_reported_from_the_lowest_stuck_gate():
    # gate 0 only reads the loop; the walk back from its output meets the
    # loop at p and names it from there, in walk order
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    z, p, q, r = (b.net(n) for n in "zpqr")
    b.gate(GateKind.NOT, (p,), out=z, tag="u")
    b.gate(GateKind.AND, (a, r, q), out=p, tag="u")
    b.gate(GateKind.BUF, (p,), out=q, tag="u")
    b.gate(GateKind.BUF, (q,), out=r, tag="u")
    b.po(z)
    with pytest.raises(CycleError) as exc:
        b.build()
    assert exc.value.cycle == (p, r, q)


def test_the_first_duplicate_gate_id_is_reported():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    for gid, out in ((3, "w"), (1, "x"), (3, "y"), (1, "z")):
        b.gates.append(Gate(gid, GateKind.NOT, (a,), b.net(out), "u"))
    with pytest.raises(SemanticError, match="^duplicate gate id 1$"):
        b.build()


def _not_a():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    return b, b.gate(GateKind.NOT, (a,), tag="u", stem="y")


@pytest.mark.parametrize("bad", [99, -1])
@pytest.mark.parametrize("place", ["worded output", "output", "input",
                                   "other word"])
def test_interface_net_ids_out_of_range_are_refused(place, bad):
    # each built, or ended in a bare IndexError; a negative id silently
    # named the last net
    b, y = _not_a()
    if place == "input":
        b.inputs.append(bad)
    elif place == "other word":
        b.word("w", [y, bad])
    else:
        b.outputs += [y, bad]
        if place == "worded output":
            b.word("w", [y, bad])
    with pytest.raises(SemanticError,
                       match=f"^interface: unknown net id {bad}$"):
        b.build()


def test_topo_order_respects_dependencies():
    nl = _and2()
    gates = ordered_gates(nl)
    pos = {g.output: i for i, g in enumerate(gates)}
    for g in gates:
        for i in g.inputs:
            if nl.driver(i) is not None:
                assert pos[i] < pos[g.output]


def test_derive_keeps_base_untouched():
    base = _and2()
    b = NetlistBuilder(base)
    b.instance("v", "deterministic", "misc", "exact")
    z = b.gate(GateKind.NOT, (base.net_names.index("y"),), tag="v")
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


def test_flatten_rejects_an_instance_that_is_not_a_netlist():
    ports = {"a": "a", "b": "b", "y": "y"}
    io = {"inputs": [("a", 1), ("b", 1)], "outputs": [("y", 1)]}
    inner = Design("inner", insts=[ModuleInst("g", _and2(), ports)], **io)
    assert flatten(inner).n_nets == 3
    # a nested design is not expanded: only flat netlists are modules
    for mod in (inner, "and2", None):
        d = Design("top", insts=[ModuleInst("sub", mod, ports)], **io)
        with pytest.raises(UnknownModule,
                           match="instance 'sub': not a module"):
            flatten(d)


@pytest.mark.parametrize("conn,message", [
    ({"a": "a", "b": "b", "y": "y", "q": "a"}, "instance 'g': no port 'q'"),
    ({"a": "a", "y": "y"}, "instance 'g': port 'b' unmapped"),
    ({"a": "a", "b": "zz", "y": "y"},
     "instance 'g': unknown word 'zz' for port 'b'"),
    ({"a": "a", "b": "w", "y": "y"},
     "instance 'g': port 'b' is 1 bits, word 'w' is 2"),
], ids=["unknown-port", "unmapped-port", "unknown-word", "width"])
def test_flatten_rejects_a_port_that_does_not_fit(conn, message):
    d = Design("top", inputs=[("a", 1), ("b", 1), ("w", 2)],
               outputs=[("y", 1)], insts=[ModuleInst("g", _and2(), conn)])
    with pytest.raises(PortMismatch) as got:
        flatten(d)
    assert str(got.value) == message


def _menu_assignments(spec):
    """Each slot's menu entries one slot at a time, then each menu
    position on every slot at once."""
    menus = [(name, arch_menu(op, w)) for name, op, w in spec.slots]
    yield from ({name: p} for name, menu in menus for p in menu[1:])
    for k in range(len(menus[0][1])):
        yield {name: menu[k] for name, menu in menus}


@pytest.mark.parametrize("spec,design", [
    (fir_spec(), lambda a: fir_design(8, (3, 5, 7, 9), a)),
    (bfly_spec(), lambda a: bfly_design(8, 3, a)),
], ids=["fir", "bfly"])
def test_flatten_splices_what_the_gate_by_gate_lowering_builds(spec, design):
    for assign in _menu_assignments(spec):
        oracles.same_fields(spec.build(assign),
                            oracles.flatten(design(assign)))


def test_flatten_renames_a_module_net_that_meets_a_design_net():
    # the wire f.m0 takes the names f.m0[i] that the module f's own net
    # m0[i] would take, so those get fresh _1 suffixes
    inner = fir_spec(4, (1, 2, 3, 1)).build()
    ins, outs = inner.signature()
    d = Design("outer", list(ins), list(outs), wires=[("f.m0", 8)], insts=[
        ModuleInst("k", const_module(5, 8), {"c": "f.m0"}),
        ModuleInst("f", inner, {w: w for w, _ in ins + outs})])
    nl = flatten(d)
    oracles.same_fields(nl, oracles.flatten(d))
    assert {"f.m0[0]", "f.m0[0]_1", "f.m0[7]_1"} <= set(nl.net_names)


def test_flatten_of_a_design_without_instances_has_no_gates():
    d = Design("top", inputs=[("a", 2)], groups=[("g", ["a"])])
    nl = flatten(d)
    oracles.same_fields(nl, oracles.flatten(d))
    assert nl.n_gates == 0 and nl.words == {"a": (0, 1), "g": (0, 1)}


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


@pytest.mark.parametrize("spec", [fir_spec(), bfly_spec()],
                         ids=lambda s: s.name)
def test_what_a_shared_netlist_hands_out_is_read_only(spec):
    # builds are shared across trials, so no caller may change them
    nl = spec.build(None)
    nets, groups = nl.plan
    for a in (nets, *(ins for *_, ins in groups if len(ins)), nl.rows):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(ValueError):
        nl.fanout_counts()[0] = 0
    with pytest.raises(ValueError):
        nl.live[0] = False


@pytest.mark.parametrize("spec", [fir_spec(), bfly_spec()],
                         ids=lambda s: s.name)
def test_live_nets_are_the_outputs_of_gates_that_are_no_constant(spec):
    nl = spec.build(None)
    consts = (GateKind.CONST0, GateKind.CONST1)
    want = [nl.driver(n) is not None and nl.driver(n).kind not in consts
            for n in range(nl.n_nets)]
    assert nl.live.tolist() == want
    assert 0 < sum(want) < nl.n_nets - len(nl.inputs)  # constants occur


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
    assert len(ordered_gates(nl)) == n_gates
    again = NetlistBuilder(nl).build()
    assert structurally_equal(nl, again)


def _support_by_definition(nl, nets):
    cone = fanin_nets(nl, nets)
    return tuple(w for w, bits in nl.input_words()
                 if any(b in cone for b in bits))


@st.composite
def _worded_netlists(draw):
    """Layered random netlists with several input words (some ungrouped
    inputs, some words overlapping or inside others, one word mixing in a
    gate output) and gates spread over a few tags.  No two input words
    share a net: a word of inputs only that reaches past the inputs of
    earlier such words drops those it shares."""
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
    taken = set()
    for k in range(draw(st.integers(0, 4))):
        bits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                             unique=True))
        if set(bits) <= set(xs) and not set(bits) <= taken:
            bits = [x for x in bits if x not in taken]
            taken.update(bits)
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
    level = {}

    def level_of(g):  # one above the highest driver
        if g.id not in level:
            level[g.id] = 1 + max((level_of(nl.driver(i)) for i in g.inputs
                                   if nl.driver(i) is not None), default=-1)
        return level[g.id]

    for g in nl.gates:
        assert nl._depth[g.output] == level_of(g)
    assert all(nl._depth[n] == -1 for n in nl.inputs)
    # the kernel plan: every gate sits above its drivers and at or below
    # its ALAP level, the top level minus its longest path to a sink; each
    # group is one (scheduled level, kind, arity) run, ids rising, the runs
    # rising; its drivers are the gate order
    below, readers = {}, {}
    for g in nl.gates:
        for i in g.inputs:
            readers.setdefault(i, []).append(g)

    def height(g):  # gates on the longest path from g's output to a sink
        if g.id not in below:
            below[g.id] = max((1 + height(r)
                               for r in readers.get(g.output, ())),
                              default=0)
        return below[g.id]

    # the rows: the input words' bits, then the gate outputs in plan order;
    # the block of each group, position by position, the rows of its
    # inputs, the blocks consecutive slices of one array
    nets, groups = nl.plan
    entries = nl.ordered()  # every gate once, after its drivers
    assert sorted(entries, key=lambda e: e[2]) \
        == [(g.kind, list(g.inputs), g.output)
            for g in sorted(nl.gates, key=lambda g: g.output)]
    at = {out: k for k, (_, _, out) in enumerate(entries)}
    assert all(at[i] < at[out] for _, ins, out in entries for i in ins
               if i in at)
    order = [b for _, bits in nl.input_words() for b in bits] + nets.tolist()
    assert nl.rows.tolist() == [order.index(n) for n in range(nl.n_nets)]
    levels = nl._lowered[2]
    sched = {nl.driver(o).id: lv for (_, lo, hi, _, _), lv
             in zip(groups, levels) for o in order[lo:hi]}
    top = max(level.values())
    for g in nl.gates:
        assert all(sched[nl.driver(i).id] < sched[g.id] for i in g.inputs
                   if nl.driver(i) is not None)
        assert sched[g.id] <= top - height(g)
    runs, row, at = [], len(nl.inputs), 0
    flat = groups[0][4].base if groups else np.zeros(0, np.intp)
    for (kind, lo, hi, arity, ins), lv in zip(groups, levels):
        gates = [nl.driver(o) for o in order[lo:hi]]
        assert {(sched[g.id], g.kind, len(g.inputs)) for g in gates} \
            == {(lv, kind, arity)}
        assert [g.id for g in gates] == sorted(g.id for g in gates)
        assert [order[r] for r in ins] \
            == [g.inputs[j] for j in range(arity) for g in gates]
        assert lo == row
        if len(ins):  # numpy points an empty slice at its array's start
            assert ins.base is flat
            assert ins.ctypes.data == flat.ctypes.data + at
        row, at = hi, at + ins.nbytes
        runs.append((lv, kind, arity))
    assert (row, at) == (nl.n_nets, flat.nbytes)
    assert runs == sorted(set(runs))
    assert sorted(int(o) for o in nets) == sorted(g.output for g in nl.gates)
    pins = [i for g in nl.gates for i in g.inputs]
    ptr, outs = sta._path_index(nl)[:2]  # the path walk's readers
    for n in range(nl.n_nets):
        assert outs[ptr[n]:ptr[n + 1]].tolist() \
            == sorted(g.output for g in nl.gates if n in g.inputs)
        assert nl.fanout_counts()[n] == pins.count(n)


def test_masks_past_64_bits_are_python_ints():
    # 70 input words, 69 tags and a 69-gate path: no uint64 holds the
    # support, tag or path-length masks
    b = NetlistBuilder()
    xs = [b.pi(f"x{i}") for i in range(70)]
    net = xs[0]
    for i, x in enumerate(xs[1:]):
        b.instance(f"t{i}", "deterministic", "misc", "exact")
        net = b.gate(GateKind.AND, (net, x), tag=f"t{i}")
    b.po(net)
    nl = b.build()
    for n in range(nl.n_nets):
        assert nl.input_word_support((n,)) == _support_by_definition(nl, [n])
    _assert_cone_masks(nl)
    paths = sta.near_critical_paths(nl, DelayModel(), 69.0, 3)
    assert [len(p.nets) for p in paths] == [70, 70, 69]


@pytest.mark.parametrize("spec", [fir_spec(), bfly_spec()],
                         ids=lambda s: s.name)
def test_memoized_derivations_on_the_reference_designs(spec):
    nl = spec.build(None)
    for n in range(nl.n_nets):
        assert nl.input_word_support((n,)) == _support_by_definition(nl, [n])


def _mounted_fir():
    """The exact fir build with a Trojan spliced in by :func:`attack.mount`
    on the trace stream the experiment draws for seed 0: a derived build."""
    spec, exp = fir_spec(), ExperimentConfig(seed=0)
    host = spec.build(None)
    infected, _, _ = attack.mount(host, AttackConfig(
        theta=exp.theta, scoap_ceiling=exp.scoap_ceiling,
        secret_word=spec.secret_word,
        stream=VectorStream(exp.trace_vectors, sub_seed(0, 3, 0),
                            "correlated", exp.rho)), None, None)
    assert infected.base is host
    return infected


# the group counts the schedule reaches, as bounds a change may only
# lower; one group per logic level, kind and arity made 132, 133 and 144
@pytest.mark.parametrize("build,groups", [
    (lambda: fir_spec().build(None), 87),
    (lambda: bfly_spec().build(None), 80),
    (_mounted_fir, 88),
], ids=["fir", "bfly", "fir-infected"])
def test_the_scheduled_plan_computes_what_the_scalar_oracle_does(build,
                                                                 groups):
    nl = build()
    assert len(nl.plan[1]) <= groups
    rng = np.random.default_rng(len(nl.gates))
    for n in (1, 64, 1000):
        c = np.zeros((nl.n_nets, (n + 63) // 64), np.uint64)
        c[nl.rows.take(nl.inputs)] = rng.integers(
            0, 2 ** 64, (len(nl.inputs), c.shape[1]), np.uint64)
        _kernels.eval_gates(*nl.plan, c)
        c = oracles.by_net(nl, c)
        for v in {0, n - 1, *rng.integers(0, n, 6).tolist()}:
            bits = (c[:, v // 64] >> np.uint64(v % 64) & np.uint64(1)).tolist()
            words = {name: sum(bits[b] << i for i, b in enumerate(nets))
                     for name, nets in nl.input_words()}
            assert bits == eval_vector(nl, words)


# -- derived netlists ---------------------------------------------------


def _fields(b):
    return (b.net_names, b.inputs, b.outputs, b.words, b.gates, b.instances)


def _build_or_error(b):
    """(netlist, None) of a builder's full build, or (None, its error)."""
    try:
        return Netlist(*_fields(b)), None
    except NetlistError as exc:
        return None, exc


def _appended(base, data):
    """A builder on ``base`` with drawn appends: gates over old and new
    nets, maybe none, a new instance, and outputs and words moved onto old
    or new nets."""
    b = NetlistBuilder(base)
    if data.draw(st.booleans()):
        b.instance(f"t{len(b.instances)}", "approximate", "add", "loa")
    nets = list(range(base.n_nets))
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(GateKind))
        lo, hi = ARITY[kind]
        ins = data.draw(st.lists(st.sampled_from(nets), min_size=lo,
                                 max_size=4 if hi is None else hi))
        nets.append(b.gate(kind, ins,
                           tag=data.draw(st.sampled_from(list(b.instances)))))
    b.outputs = [data.draw(st.sampled_from(nets)) if data.draw(
        st.booleans()) else o for o in b.outputs]
    if data.draw(st.booleans()):
        b.word("w", data.draw(st.lists(st.sampled_from(nets), min_size=1,
                                       max_size=3)))
    return b


@settings(max_examples=120, deadline=None)
@given(dags(), st.data())
def test_appending_to_a_netlist_equals_the_full_build(base, data):
    # the drawn appends, and a derived netlist derived again
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            serialize_netlist(base)  # its text lends the gate and tag blocks
        b = _appended(base, data)
        full, error = _build_or_error(b)
        if error is not None:
            with pytest.raises(type(error)) as got:
                b.build()
            assert str(got.value) == str(error)
            return
        derived = b.build()
        assert derived.base is base
        assert structurally_equal(derived, full)
        same_build(derived, (DelayModel(), DelayModel(scale=0.7)))
        base = derived


class _Asked(DelayModel):
    """A delay model that lists each gate kind it is asked for: one per
    plan group an arrival pass reads."""

    kinds: list = []

    def of(self, kind):
        self.kinds.append(kind)
        return super().of(kind)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dags(), st.data())
def test_a_derived_netlist_extends_only_an_arrival_pass_its_base_holds(
        base, data):
    b = _appended(base, data)
    if _build_or_error(b)[1] is not None:
        return
    derived = b.build()
    assert derived.base is base
    held, fresh = _Asked(scale=0.9), _Asked(scale=1.3)
    sta.arrival_times(base, held)
    for model, groups in ((held, derived.suffix[0][1]),
                          (fresh, derived.plan[1])):
        _Asked.kinds.clear()
        sta.arrival_times(derived, model)
        assert _Asked.kinds == [g[0] for g in groups]
    assert base.held(sta._arrival_times, fresh) is None
    same_build(derived, (held, fresh))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dags(), st.data())
def test_a_derived_netlist_runs_on_its_bases_run(base, data):
    # the suffix plan over a run of the base gives every net the value of
    # the derived netlist's own run, and the profiles of one shared run
    # equal those of two, at one vector, one word, a ragged run and past
    # one chunk; the derived tables equal the full build's
    if data.draw(st.booleans()):  # a derived base
        b = _appended(base, data)
        if _build_or_error(b)[1] is not None:
            return
        base = b.build()
    b = _appended(base, data)
    if _build_or_error(b)[1] is not None:
        return
    derived = b.build()
    assert derived.base is base
    same_build(derived, (DelayModel(), DelayModel(scale=0.7)))
    plan, rows = derived.suffix
    assert np.array_equal(rows[:base.n_nets], base.rows)
    rng = np.random.default_rng(len(derived.gates))
    for n in (1, 64, 1000, CHUNK + 1):
        bits = rng.integers(0, 2 ** 64, (len(base.inputs), (n + 63) // 64),
                            np.uint64)
        c = np.zeros((derived.n_nets, bits.shape[1]), np.uint64)
        own = np.zeros_like(c)
        c[base.rows.take(base.inputs)] = bits
        own[derived.rows.take(derived.inputs)] = bits  # the same inputs
        _kernels.eval_gates(*base.plan, c[:base.n_nets])
        _kernels.eval_gates(*plan, c)
        _kernels.eval_gates(*derived.plan, own)
        assert np.array_equal(c[rows], own[derived.rows])
        stream = VectorStream(n, n)
        pair = paired_activity_and_error(base, derived, None, stream)
        for (got, _), nl in zip(pair, (base, derived)):
            want = activity_profile(nl, stream)
            assert got.n_vectors == want.n_vectors == n
            assert np.array_equal(got.p1, want.p1)
            assert np.array_equal(got.toggles, want.toggles)


def _worded_base():
    b = NetlistBuilder()
    a = [b.pi(f"a[{i}]") for i in range(2)]
    b.word("a", a)
    c = b.pi("c")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.gate(GateKind.AND, a, tag="u", stem="x")
    y = b.gate(GateKind.XOR, (x, c), tag="u", stem="y")
    b.word("y", [x, y])
    b.po(x)
    b.po(y)
    return b.build()


def _two_drivers(b, nl):
    b.gate(GateKind.NOT, (0,), out=nl.net_names.index("y"), tag="u")


def _loop(b, nl):
    x, y = b.net("p"), b.net("q")
    b.gate(GateKind.AND, (0, y), out=x, tag="u")
    b.gate(GateKind.BUF, (x,), out=y, tag="u")
    b.po(y)


def _named(name):
    def append(b, nl):
        b.net_names.append(name)
        b.gate(GateKind.NOT, (0,), out=len(b.net_names) - 1, tag="u")
    return append


def _driven_input(b, nl):
    b.gate(GateKind.NOT, (0,), out=b.pi("d"), tag="u")


def _repeated_input(b, nl):
    b.pi("c")


def _two_output_words(b, nl):
    b.po(b.gate(GateKind.NOT, (0,), tag="u", stem="s"))
    t = b.gate(GateKind.NOT, (1,), tag="u", stem="t")
    b.po(t)
    b.word("s", [t])


def _past_the_ids(b, nl):
    b.gates.append(Gate(0, GateKind.NOT, (0,), b.net("z"), "u"))


BAD_APPENDS = {
    "two drivers": _two_drivers,
    "unknown net": lambda b, nl: b.gate(GateKind.NOT, (99,), tag="u"),
    "wrong arity": lambda b, nl: b.gate(GateKind.NOT, (0, 1), tag="u"),
    "missing tag": lambda b, nl: b.gate(GateKind.NOT, (0,), tag="ghost"),
    "loop among new gates": _loop,
    "undriven net": lambda b, nl: b.gate(GateKind.AND, (0, b.net("o")),
                                         tag="u"),
    "bad net name": _named("a b"),
    "comment net name": _named("#n"),
    "duplicate net name": _named("y"),
    "gate-driven added input": _driven_input,
    "repeated added input": _repeated_input,
    "empty word": lambda b, nl: b.word("e", []),
    "bad word name": lambda b, nl: b.word("e f", [0]),
    "input words sharing a net": lambda b, nl: b.word("d", [1, 2]),
    "bad instance tag": lambda b, nl: b.instance("#v", "deterministic",
                                                 "-", "-"),
    "bad instance kind": lambda b, nl: b.instance("v", "odd", "-", "-"),
    "dropped base tag": lambda b, nl: b.instances.clear(),
    "reused gate id": _past_the_ids,
    "two output words of one name": _two_output_words,
    "unknown output net": lambda b, nl: b.po(99),
    "negative output net": lambda b, nl: b.po(-1),
    "unknown word net": lambda b, nl: b.word("y", [0, 99]),
}


@pytest.mark.parametrize("append", BAD_APPENDS.values(), ids=BAD_APPENDS)
def test_a_bad_append_raises_what_the_full_build_raises(append):
    base = _worded_base()
    b = NetlistBuilder(base)
    append(b, base)
    full, error = _build_or_error(b)
    assert full is None
    with pytest.raises(type(error)) as got:
        b.build()
    assert str(got.value) == str(error)


def test_an_added_input_builds_in_full():
    base = _worded_base()
    b = NetlistBuilder(base)
    b.po(b.gate(GateKind.OR, (0, b.pi("e")), tag="u"))
    nl = b.build()
    assert nl.base is None
    assert structurally_equal(nl, Netlist(*_fields(b)))


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


@pytest.mark.parametrize("payload", ["leak", "corrupt"])
def test_every_fir_insertion_derives_what_the_full_build_gives(
        tmp_path, monkeypatch, payload):
    # seeds 0-19 up to the screen's CSV text, made after the candidates'
    # text; neither the stealth check nor the screen is tested
    made = []
    insert = attack.insert_trojan

    def recording(nl, activity, testability, config):
        infected, ht = insert(nl, activity, testability, config)
        made.append((infected, nl, config.model))
        return infected, ht

    monkeypatch.setattr(attack, "insert_trojan", recording)
    monkeypatch.setattr(attack, "verify_stealth",
                        lambda *a: StealthReport(0.0, 0.0, 0.0, 0.0))
    monkeypatch.setattr(experiment, "classify", lambda *a: None)
    monkeypatch.setattr(experiment, "score",
                        lambda *a: SimpleNamespace(accuracy=0.0, fpr=0.0,
                                                   fnr=None))
    monkeypatch.setattr(experiment, "detection_csvs", _stop)
    for seed in range(20):
        with pytest.raises(_Stop):
            run_experiment(ExperimentConfig(seed=seed, payload=payload),
                           tmp_path / str(seed))
    assert len(made) == 80
    for infected, host, model in made:
        assert infected.base is host
        # the variants were written first: the infected text copied blocks
        assert (textfmt._serialize, ()) in host._memo
        same_build(infected, (model, DelayModel()))
