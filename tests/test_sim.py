"""Packed simulation against scalar evaluation, stream behavior, and the
activity, power and error profilers."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axsec import _kernels, sim
from axsec.arith import ArchParams, gen_adder, gen_module
from axsec.attack import HTInstance, verify_stealth
from axsec.cli import main
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import BadParams, BadThreshold
from axsec.netlist import GateKind, NetlistBuilder
from axsec.sim import (_BLOCK_BYTES, CHUNK, EXACT_OPS, STREAM_MODES,
                       Traces, VectorStream, _ActivitySums, _bits_chunks,
                       _chunk_bits, _runs, _single_chunk_bits,
                       activity_and_error, activity_profile, error_profile,
                       ones_profile, pack, power_proxy, power_ratio,
                       rare_nets, simulate)
from axsec.textfmt import write_netlist

from tests import oracles
from tests.oracles import eval_vector, exhaustive_values, word_value


def _mix_netlist():
    """Every gate kind at least once."""
    b = NetlistBuilder()
    x = [b.pi(f"x{i}") for i in range(4)]
    b.word("x", x)
    b.instance("u", "deterministic", "misc", "exact")
    g = lambda kind, *ins: b.gate(kind, ins, tag="u")
    nets = [
        g(GateKind.AND, x[0], x[1]), g(GateKind.OR, x[1], x[2]),
        g(GateKind.NAND, x[2], x[3]), g(GateKind.NOR, x[0], x[3]),
        g(GateKind.XOR, x[0], x[2]), g(GateKind.XNOR, x[1], x[3]),
        g(GateKind.NOT, x[0]), g(GateKind.BUF, x[3]),
        g(GateKind.CONST0), g(GateKind.CONST1),
    ]
    nets.append(g(GateKind.MUX2, x[0], nets[0], nets[1]))
    nets.append(g(GateKind.AND, nets[4], nets[5], nets[10]))
    y = nets[-1]
    b.word("y", nets)
    for n in nets:
        b.po(n)
    return b.build()


def test_packed_equals_scalar_exhaustively():
    nl = _mix_netlist()
    tr = simulate(nl, exhaustive_values(nl))
    xs = tr.word_values(dict(nl.input_words())["x"])
    onets = dict(nl.output_words())["y"]
    packed = tr.word_values(onets)
    for i, xv in enumerate(xs):
        vals = eval_vector(nl, {"x": int(xv)})
        assert word_value(nl, vals, "y") == int(packed[i])


def test_exhaustive_values_counting_order():
    b = NetlistBuilder()
    x = [b.pi(f"x{i}") for i in range(3)]
    b.word("x", x)
    z = b.pi("z")
    b.instance("u", "deterministic", "misc", "exact")
    y = b.gate(GateKind.AND, (x[0], z), tag="u")
    b.po(y)
    nl = b.build()
    vals = exhaustive_values(nl)
    assert vals["x"].tolist() == list(range(8)) * 2
    assert vals["z"].tolist() == [0] * 8 + [1] * 8


def test_exhaustive_values_width_cap():
    nl = gen_module(ArchParams("mul", "exact", 14))  # 28 input bits
    with pytest.raises(BadParams):
        exhaustive_values(nl)


def test_stream_is_deterministic_and_seed_sensitive():
    nl = _mix_netlist()
    a = simulate(nl, VectorStream(500, 7, "uniform"))
    b = simulate(nl, VectorStream(500, 7, "uniform"))
    c = simulate(nl, VectorStream(500, 8, "uniform"))
    names = nl.net_names
    net = names.index("y_11") if "y_11" in names else nl.n_nets - 1
    assert np.array_equal(a.word_values([net]), b.word_values([net]))
    assert not np.array_equal(a.word_values([net]), c.word_values([net]))


def test_correlated_stream_reduces_toggling():
    nl = _mix_netlist()
    smooth = activity_profile(nl, VectorStream(4000, 0, "correlated", 0.95))
    rough = activity_profile(nl, VectorStream(4000, 0, "uniform"))
    assert smooth.toggles[:4].sum() < rough.toggles[:4].sum()
    # signal probability stays balanced either way
    assert abs(float(smooth.p1[:4].mean()) - 0.5) < 0.1


def test_stream_rejects_unknown_mode():
    with pytest.raises((BadParams, ValueError)):
        VectorStream(10, 0, "pink-noise")


def test_dict_source_requires_every_input_word():
    nl = _mix_netlist()
    with pytest.raises(BadParams, match="missing values for input word 'x'"):
        simulate(nl, {"notx": np.zeros(4, np.int64)})


@pytest.mark.parametrize("source", [None, 5, "ab"], ids=repr)
def test_a_source_of_another_type_is_refused_before_any_run(source,
                                                            kernel_calls):
    nl = gen_module(ArchParams("add", "exact", 4))
    ref = {"s": lambda v: v["a"] + v["b"]}
    for run in (lambda: simulate(nl, source),
                lambda: activity_profile(nl, source),
                lambda: error_profile(nl, ref, source)):
        with pytest.raises(BadParams, match="a source is a VectorStream, a "
                           f"run or a mapping of word values, not "
                           f"{type(source).__name__}"):
            run()
    assert kernel_calls == []


def _bit_values(bits):
    """Word values of a dict of ``(n, width)`` 0/1 arrays."""
    return {w: (b.astype(np.int64) << np.arange(b.shape[1])).sum(axis=1)
            for w, b in bits.items()}


_A10 = np.arange(10) % 16


@pytest.mark.parametrize("source,message", [
    # the length is the netlist's own words', not the first key's
    ({"zzz": np.zeros(3, np.int64), "a": _A10, "b": _A10[::-1]}, None),
    ({"a": _A10, "b": _A10[:5]}, r"'b' holds int64 of shape \(5,\), not 10"),
    ({"a": np.arange(100) % 16, "b": np.arange(70) % 16},
     r"'b' holds int64 of shape \(70,\), not 100 integers"),
    ({"a": _A10, "b": _A10 + 7}, r"word 'b' lies outside \[0, 2\*\*4\)"),
    ({"a": _A10 - 1, "b": _A10}, r"word 'a' lies outside \[0, 2\*\*4\)"),
    ({"a": _A10.reshape(2, 5), "b": _A10}, r"'a' holds int64 of shape \(2,"),
    ({"a": 3, "b": _A10}, r"'a' holds int64 of shape \(\)"),
    ({"a": _A10 + 0.5, "b": _A10}, "'a' holds float64 of shape"),
    ({"a": _A10, "b": [2 ** 64] * 10}, "'b' holds object of shape"),
    ({"a": _A10, "b": np.full(10, 2 ** 63, np.uint64)},
     r"word 'b' lies outside \[0, 2\*\*4\)"),
    ({"b": _A10}, "missing values for input word 'a'"),
], ids=["extra-key", "short", "70-of-100", "over", "negative", "2-d",
        "scalar", "float", "too-wide-int", "uint64-top-bit", "missing"])
def test_a_values_source_is_checked_against_the_input_words(source,
                                                            message):
    nl = gen_adder(ArchParams("add", "exact", 4))
    assert [w for w, _ in nl.signature()[0]] == ["a", "b"]
    if message is not None:
        with pytest.raises(BadParams, match=message):
            simulate(nl, source)
        return
    tr = simulate(nl, source)
    assert tr.n_vectors == 10
    out = tr.word_values(nl.output_words()[0][1])
    assert np.array_equal(out, source["a"] + source["b"])


def test_a_reference_to_a_word_that_is_no_output_is_refused_before_any_run(
        kernel_calls):
    # it ended in a bare KeyError: 'y' after the first chunk was simulated
    nl = gen_module(ArchParams("add", "exact", 8))
    ref, stream = {"y": EXACT_OPS["add"]}, VectorStream(100, 1)
    for profile in (error_profile, sim.activity_and_error):
        with pytest.raises(BadParams, match="reference word 'y' is no "
                                            "output word"):
            profile(nl, ref, stream)
    a0 = nl.words["a"][0]
    host = next(g.tag for g in nl.gates if a0 in g.inputs)
    ht = HTInstance((), 1, "corrupt", (), (host,), a0)
    with pytest.raises(BadParams, match="reference word 'y'"):
        verify_stealth(nl, nl, ht, ref, stream)
    assert not kernel_calls
    with pytest.raises(BadParams, match="reference word 'y'"):
        sim.error_sums(simulate(nl, stream), ref)


def test_an_empty_reference_dict_is_refused_before_any_run(kernel_calls):
    # it ended in a bare ZeroDivisionError after the whole run
    nl = gen_module(ArchParams("add", "exact", 8))
    stream = VectorStream(100, 1)
    for profile in (error_profile, sim.activity_and_error):
        with pytest.raises(BadParams, match="at least one output word"):
            profile(nl, {}, stream)
    a0 = nl.words["a"][0]
    host = next(g.tag for g in nl.gates if a0 in g.inputs)
    ht = HTInstance((), 1, "corrupt", (), (host,), a0)
    with pytest.raises(BadParams, match="at least one output word"):
        verify_stealth(nl, nl, ht, {}, stream)
    assert kernel_calls == []


@pytest.mark.parametrize("n", [3000, CHUNK + 700], ids=["one", "two-chunks"])
def test_without_a_reference_the_fused_pass_is_the_activity_profile(
        kernel_calls, n):
    nl = gen_module(ArchParams("add", "loa", 8, 2))
    stream = VectorStream(n, 4, "correlated", 0.8)
    act, err = sim.activity_and_error(nl, None, stream)
    assert err is None
    assert len(kernel_calls) == -(-n // CHUNK)  # one run, chunk by chunk
    want = activity_profile(nl, stream)
    assert np.array_equal(act.p1, want.p1)
    assert np.array_equal(act.toggles, want.toggles)
    assert act.n_vectors == want.n_vectors == n


def test_values_of_words_over_63_bits_are_refused_before_any_run(
        kernel_calls):
    # a 63-bit LOA adder's 64-bit sum s read as a negative int64, and so
    # did its reference a + b: the MRED came out 29.7 instead of 2e-17
    nl = gen_module(ArchParams("add", "loa", 63, 8))
    stream = VectorStream(100, 1)
    with pytest.raises(BadParams, match="word 's' is 64 bits wide"):
        error_profile(nl, EXACT_OPS["add"], stream)
    with pytest.raises(BadParams, match="word 's' is 64 bits wide"):
        sim.activity_and_error(nl, {"s": EXACT_OPS["add"]}, stream)
    assert not kernel_calls
    # activity reads no values, so wide words stay open to it
    wide = gen_module(ArchParams("add", "exact", 64))
    for net in (nl, wide):
        assert activity_profile(net, stream).n_vectors == 100
    with pytest.raises(BadParams, match="word 'a' is 64 bits wide"):
        sim.error_sums(simulate(wide, stream), EXACT_OPS["add"])
    narrow = gen_module(ArchParams("add", "loa", 62, 8))
    assert 0.0 < error_profile(narrow, EXACT_OPS["add"], stream).mred < 1e-15


def test_activity_and_power_hand_case():
    # a: 0 1 0 0 1 -> p1 = 0.4, 3 toggles; x = NOT a; y = a AND x = const 0
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.gate(GateKind.NOT, (a,), tag="u")
    y = b.gate(GateKind.AND, (a, x), tag="u")
    b.po(y)
    nl = b.build()
    act = activity_profile(nl, {"a": np.array([0, 1, 0, 0, 1])})
    assert act.n_vectors == 5
    assert float(act.p1[a]) == 0.4 and float(act.p1[x]) == 0.6
    assert float(act.p1[y]) == 0.0
    assert list(act.toggles) == [3, 3, 0]
    # proxy: a has fanout 2 -> 3*(1+2), x fanout 1 -> 3*2, y none -> 0
    assert power_proxy(nl, act) == 15.0
    assert type(power_proxy(nl, act)) is float
    assert power_ratio(power_proxy(nl, act), 15.0) == 1.0


def test_power_proxy_refuses_another_netlists_activity():
    # a host's activity weighed against a netlist derived from it
    host = fir_spec().build(None)
    b = NetlistBuilder(host)
    b.instance("ht", "deterministic", "misc", "-")
    b.gate(GateKind.NOT, (b.gate(GateKind.NOT, (host.inputs[0],), tag="ht"),),
           tag="ht")
    derived = b.build()
    act = activity_profile(host, VectorStream(64, 0))
    with pytest.raises(BadParams, match=f"^an activity report of "
                       f"{host.n_nets} nets for a netlist of "
                       f"{host.n_nets + 2} nets$"):
        power_proxy(derived, act)


@pytest.mark.parametrize("stream", [VectorStream(4000, 3, "correlated", 0.9),
                                    VectorStream(2 * CHUNK + 70, 4)])
def test_a_ones_only_pass_reads_the_p1_of_a_full_pass(stream):
    # one chunk, and a run the full pass reads as column views of its words
    nl = _mix_netlist()
    run = simulate(nl, stream)
    ones, full = ones_profile(run), activity_profile(nl, run)
    assert np.array_equal(ones.p1, full.p1)
    assert ones.n_vectors == full.n_vectors == stream.n_vectors
    assert ones.toggles is None
    assert rare_nets(ones, 0.3) == rare_nets(full, 0.3)


def test_power_proxy_refuses_a_ones_only_report():
    nl = _mix_netlist()
    with pytest.raises(BadParams, match="ones only holds no toggles"):
        power_proxy(nl, ones_profile(simulate(nl, VectorStream(100, 0))))


def test_power_ratio_over_a_zero_baseline():
    assert power_ratio(3.0, 2.0) == 1.5
    assert power_ratio(0.0, 0.0) == 1.0  # no switching on either side
    assert power_ratio(3.0, 0.0) == math.inf


def test_rare_nets_thresholds():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    z = b.gate(GateKind.CONST0, (), tag="u")
    y = b.gate(GateKind.OR, (a, z), tag="u")
    b.po(y)
    nl = b.build()
    drive = np.tile(np.array([1, 0]), 25)
    act = activity_profile(nl, {"a": drive})
    rare = dict(rare_nets(act, 0.1))
    assert rare[z] == 1          # stuck at 0, rare value is 1
    assert a not in rare and y not in rare
    for theta in (0.0, 0.5, -1.0, 1.0):
        with pytest.raises(BadThreshold):
            rare_nets(act, theta)


def test_rare_nets_are_int_pairs_in_net_order():
    p1 = np.array([0.5, 0.05, 0.97, 0.0, 1.0, np.nan, 0.1, 0.85])
    rare = rare_nets(sim.ActivityReport(p1, np.zeros(8, np.int64), 100), 0.1)
    assert rare == [(1, 1), (2, 0), (3, 1), (4, 0)]
    assert {type(x) for pair in rare for x in pair} == {int}
    # the per-net definition, float rounding included (1.0 - 0.9 < 0.1)
    p1 = np.random.default_rng(0).random(500) ** 3
    p1[::7] = 0.9
    want = [(n, 1) if p < 0.1 else (n, 0) for n, p in enumerate(p1)
            if p < 0.1 or 1.0 - p < 0.1]
    assert rare_nets(sim.ActivityReport(p1, None, 1), 0.1) == want


def test_error_profile_matches_scalar_brute_force():
    params = ArchParams("add", "loa", 5, 2)
    nl = gen_adder(params)
    rep = error_profile(nl, EXACT_OPS["add"], exhaustive_values(nl))
    n = err = wce = 0
    med_sum = 0
    ratios = []
    from tests.test_arith import loa_model
    # operand a occupies the low input bits, so it counts fastest; keep
    # that order so the relative-error reduction sums identically
    for b in range(32):
        for a in range(32):
            got = loa_model(a, b, 5, 2)
            want = a + b
            d = abs(got - want)
            n += 1
            err += d != 0
            med_sum += d
            ratios.append(d / max(1, want))
            wce = max(wce, d)
    assert rep.n_vectors == n
    assert rep.er == err / n
    assert rep.med == med_sum / n
    assert rep.mred == float(np.sum(np.array(ratios))) / n
    assert rep.wce == wce


def test_error_profile_accepts_callable_reference():
    nl = gen_adder(ArchParams("add", "exact", 4))
    rep = error_profile(nl, lambda wv: wv["a"] + wv["b"],
                        exhaustive_values(nl))
    assert rep.er == 0.0 and rep.wce == 0


#: arities drawn per gate kind; n-ary kinds get 2 to 4 inputs
_ARITIES = {GateKind.NOT: (1,), GateKind.BUF: (1,), GateKind.MUX2: (3,),
            GateKind.CONST0: (0,), GateKind.CONST1: (0,)}


@st.composite
def _layered_netlists(draw):
    """Every gate kind on every layer, each (kind, arity) at least twice,
    reading any earlier net; the first gate of each run repeats an input."""
    b = NetlistBuilder()
    x = [b.pi(f"x{i}") for i in range(draw(st.integers(2, 5)))]
    b.word("x", x)
    b.instance("u", "deterministic", "misc", "exact")
    pool = list(x)
    for _ in range(draw(st.integers(1, 3))):
        made = []
        for kind in draw(st.permutations(list(GateKind))):
            arities = draw(st.lists(st.sampled_from(
                _ARITIES.get(kind, (2, 3, 4))), min_size=1, max_size=2,
                unique=True))
            for arity in arities:
                for i in range(draw(st.integers(2, 3))):
                    ins = draw(st.lists(st.sampled_from(pool),
                                        min_size=arity, max_size=arity))
                    if i == 0 and arity >= 2:
                        ins[1] = ins[0]
                    made.append(b.gate(kind, ins, tag="u"))
        pool += made
    for net in pool[len(x):]:
        b.po(net)
    return b.build()


#: the (kind, arity) of every group :func:`_stacked_layer` draws
_STACKED = [(k, a) for k in GateKind for a in _ARITIES.get(k, range(2, 6))]


def _stacked_layer(b, prev, pool, rng, per):
    """``per`` gates of each :data:`_STACKED` (kind, arity), each input
    drawn from ``pool`` but the first, which runs through ``prev`` so every
    net of ``prev`` is read and each layer keeps its logic level."""
    made = []
    for kind, arity in _STACKED:
        for _ in range(per):
            ins = [prev[len(made) % len(prev)],
                   *rng.choice(pool, max(arity - 1, 0)).tolist()][:arity]
            made.append(b.gate(kind, ins, tag="u"))
    return made


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), layers=st.integers(1, 2),
       per=st.integers(3, 4))
def test_the_kernel_computes_every_net_of_stacked_groups(seed, layers, per):
    """Groups of 3 or 4 gates of every kind and of folds of 2 to 5 inputs,
    in a full build and in a build derived from it by appending a layer:
    every net at 1, 63, 64, 65 and 130 vectors equals the scalar
    evaluation, so no group reads another group's slice of the gather."""
    rng = np.random.default_rng(seed)
    b = NetlistBuilder()
    x = [b.pi(f"x{i}") for i in range(5)]
    b.word("x", x)
    b.instance("u", "deterministic", "misc", "exact")
    prev = pool = x
    for _ in range(layers):
        prev = _stacked_layer(b, prev, pool, rng, per)
        pool = pool + prev
    for net in prev:
        b.po(net)
    full = b.build()
    d = NetlistBuilder(full)
    for net in _stacked_layer(d, prev, pool, rng, per):
        d.po(net)
    derived = d.build()
    assert derived.base is full
    want = {}
    for nl in (full, derived):
        sizes = {}
        for kind, lo, hi, arity, _ in nl.plan[1]:
            sizes[kind, arity] = max(sizes.get((kind, arity), 0), hi - lo)
        assert sizes == {(int(k), a): sizes[int(k), a] for k, a in _STACKED}
        assert min(sizes.values()) >= per
        for n in (1, 63, 64, 65, 130):
            xs = rng.integers(0, 32, n)
            c = oracles.by_net(nl, simulate(nl, {"x": xs}).c)
            got = np.unpackbits(c.view(np.uint8), axis=1,
                                bitorder="little")[:, :n]
            for t, v in enumerate(xs.tolist()):
                if (nl, v) not in want:
                    want[nl, v] = eval_vector(nl, {"x": v})
                assert got[:, t].tolist() == want[nl, v]


def test_one_kernel_call_allocates_one_gather_buffer():
    # the exact fir build at 20000 vectors: the largest group's input rows
    # are the one scratch allocation of a call; 16 KB is room for Python
    # objects, and one temporary of the largest group's 256 rows would
    # take 640 KB
    nl = fir_spec().build(None)
    c = np.zeros((nl.n_nets, (20000 + 63) // 64), np.uint64)
    c[nl.rows.take(nl.inputs)] = np.random.default_rng(7).integers(
        0, 2 ** 64, (len(nl.inputs), c.shape[1]), np.uint64)
    buffer = max(len(g[4]) for g in nl.plan[1]) * c.shape[1] * 8
    tracemalloc.start()
    try:
        _kernels.eval_gates(*nl.plan, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buffer <= peak <= buffer + 16384


@settings(max_examples=30, deadline=None)
@given(_layered_netlists(), st.integers(0, 2 ** 32 - 1))
def test_levelized_kernel_matches_scalar_evaluation(nl, seed):
    """200 vectors span four words with a partial last one: every net of
    the packed run must equal the scalar evaluation, pad bits cleared."""
    n = 200
    xs = np.random.default_rng(seed).integers(0, 1 << len(nl.inputs), n)
    tr = simulate(nl, {"x": xs})
    got = np.array([oracles.word_values(tr, [net])
                    for net in range(nl.n_nets)])
    for t in range(n):
        assert eval_vector(nl, {"x": int(xs[t])}) == got[:, t].tolist()
    assert tr.c.shape[1] == 4
    assert not (tr.c[:, -1] >> np.uint64(n % 64)).any()


def test_chunk_boundaries_do_not_change_statistics():
    """A stream longer than one chunk must agree with a values source
    built from its own emitted bits."""
    nl = _mix_netlist()
    n = (1 << 16) + 257
    stream = VectorStream(n, 3, "uniform")
    tr = simulate(nl, stream)
    act_stream = activity_profile(nl, VectorStream(n, 3, "uniform"))
    xnets = dict(nl.input_words())["x"]
    act_dict = activity_profile(nl, {"x": tr.word_values(xnets)})
    assert np.array_equal(act_stream.toggles, act_dict.toggles)
    assert np.array_equal(act_stream.p1, act_dict.p1)


def _fresh_rows(stream, words):
    """A single-chunk stream generated from scratch, bypassing the memo:
    each word's rows, in order."""
    out = []
    for i, (name, width) in enumerate(words):
        rng = np.random.default_rng(np.random.SeedSequence((stream.seed, i)))
        out.append(_chunk_bits(rng, stream.mode, stream.rho,
                               stream.n_vectors, width, None)[0])
    return np.concatenate(out)


def _oracle_chunks(stream, words):
    """Per chunk, the {word: (n, width) bits} of the index scan, each
    word's generator and carry running across the chunks."""
    rngs = [np.random.default_rng(np.random.SeedSequence((stream.seed, i)))
            for i in range(len(words))]
    carry = [None] * len(words)
    for start in range(0, stream.n_vectors, CHUNK):
        n = min(CHUNK, stream.n_vectors - start)
        bits = {}
        for i, (name, width) in enumerate(words):
            bits[name], carry[i] = oracles.chunk_bits(
                rngs[i], stream.mode, stream.rho, n, width, carry[i])
        yield bits


def _oracle_bits(stream, words):
    chunks = list(_oracle_chunks(stream, words))
    return {w: np.concatenate([c[w] for c in chunks]) for w, _ in words}


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_single_chunk_stream_memo_equals_a_fresh_generation(mode):
    stream = VectorStream(1000, 5, mode)
    words = (("a", 8), ("b", 3))
    cached = _single_chunk_bits(stream, words)
    # one block: word a's 8 rows, then word b's 3
    assert np.array_equal(cached, _fresh_rows(stream, words))
    with pytest.raises(ValueError):
        cached[0, 0] ^= 1
    assert _single_chunk_bits(stream, words) is cached


def test_stream_memo_keys_on_the_input_words():
    _single_chunk_bits.cache_clear()
    stream = VectorStream(500, 2)
    narrow = _single_chunk_bits(stream, (("a", 4),))
    wide = _single_chunk_bits(stream, (("a", 8), ("b", 8)))
    assert narrow is not wide
    # one packed (input bits, words) block: 500 vectors fill 8 words
    assert narrow.shape == (4, 8) and wide.shape == (16, 8)
    assert _single_chunk_bits.cache_info().currsize == 2
    # a stream longer than one chunk is generated lazily, never memoized
    long = VectorStream(CHUNK + 1, 2)
    assert [n for n, _ in _bits_chunks(long, (("a", 1),))] == [CHUNK, 1]
    assert _single_chunk_bits.cache_info().misses == 2


def test_simulate_on_a_memoized_stream_equals_the_dict_of_its_bits():
    b = NetlistBuilder()
    z = [b.pi(f"z{i}") for i in range(3)]
    a = [b.pi(f"a{i}") for i in range(5)]
    b.word("z", z)   # declared first: words are drawn in signature order,
    b.word("a", a)   # not by name
    b.instance("u", "deterministic", "misc", "exact")
    for i in range(3):
        b.po(b.gate(GateKind.XOR, (z[i], a[i], a[i + 2]), tag="u"))
    nl = b.build()
    assert [w for w, _ in nl.signature()[0]] == ["z", "a"]
    stream = VectorStream(3000, 9, "correlated")
    want = simulate(nl, _bit_values(_oracle_bits(stream,
                                                 nl.signature()[0]))).c
    assert np.array_equal(simulate(nl, stream).c, want)
    assert np.array_equal(simulate(nl, stream).c, want)  # memo hit


@pytest.mark.parametrize("mode", STREAM_MODES)
@pytest.mark.parametrize("n", [1, 63, 64, 1000, CHUNK + 70])
def test_a_run_is_a_source_equal_to_its_stream(kernel_calls, mode, n):
    params = ArchParams("add", "loa", 8, 2)
    nl = gen_module(params)
    stream = VectorStream(n, 4, mode)
    run = simulate(nl, stream)
    del kernel_calls[:]
    act = activity_profile(nl, run)
    err = error_profile(nl, EXACT_OPS["add"], run)
    again = simulate(nl, run)
    chunks = list(_runs(nl, run))
    assert not kernel_calls  # every read of the run is a view of it
    assert all(np.shares_memory(tr.c, run.c) for tr in chunks)

    want = activity_profile(nl, stream)
    assert act.n_vectors == want.n_vectors == n
    assert np.array_equal(act.p1, want.p1)
    assert np.array_equal(act.toggles, want.toggles)
    assert repr(err) == repr(error_profile(nl, EXACT_OPS["add"], stream))
    assert np.array_equal(again.c, simulate(nl, stream).c)
    # the stream's chunks share one buffer: each is read before the next
    for a, b in zip(chunks, _runs(nl, stream), strict=True):
        assert a.n_vectors == b.n_vectors
        assert np.array_equal(a.c, b.c)


@pytest.mark.parametrize("run", [
    simulate, activity_profile,
    lambda nl, source: error_profile(nl, EXACT_OPS["add"], source),
    lambda nl, source: activity_and_error(nl, EXACT_OPS["add"], source),
], ids=["simulate", "activity_profile", "error_profile",
        "activity_and_error"])
def test_an_empty_source_is_refused_by_every_entry_point(run):
    # no figure is made of zero vectors: no NaN signal probability
    nl = gen_module(ArchParams("add", "exact", 4))
    empty = {"a": np.zeros(0, np.int64), "b": np.zeros(0, np.int64)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="empty stream"):
            run(nl, empty)


def test_a_run_is_no_source_for_another_netlist():
    params = ArchParams("add", "loa", 8, 2)
    run = simulate(gen_module(params), VectorStream(100, 1))
    other = gen_adder(params)  # structurally equal, another object
    with pytest.raises(BadParams, match="its own netlist"):
        simulate(other, run)
    with pytest.raises(BadParams, match="its own netlist"):
        list(_runs(other, run))
    with pytest.raises(BadParams, match="its own netlist"):
        activity_profile(other, run)
    with pytest.raises(BadParams, match="its own netlist"):
        error_profile(other, EXACT_OPS["add"], run)


def test_first_hits_hand_case():
    # a is 1 on 70 vectors but one; x = NOT a; z = const 0
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.gate(GateKind.NOT, (a,), tag="u")
    z = b.gate(GateKind.CONST0, (), tag="u")
    b.po(b.gate(GateKind.OR, (x, z), tag="u"))
    nl = b.build()
    drive = np.ones(70, np.int64)
    drive[66] = 0
    tr = simulate(nl, {"a": drive})
    assert tr.hits([(a, 1), (x, 1), (z, 1)], 1) == [[0], [66], []]
    assert tr.hits([(a, 0), (x, 0), (z, 0)], 1) == [[66], [0], [0]]
    assert tr.hits([(x, 1), (a, 0)], 3) == [[66], [66]]
    assert tr.hits([(x, 0)], 3) == [[0, 1, 2]]
    assert tr.hits([], 1) == []
    # 70 is no multiple of 64: the 58 pad bits of the last word never
    # count as a 0 hit, so a net at 1 throughout has none
    high = {"a": np.ones(70, np.int64)}
    tr = simulate(nl, high)
    assert tr.hits([(a, 0), (x, 0), (z, 0)], 1) == [[], [0], [0]]
    assert tr.hits([(a, 1), (x, 1), (z, 1)], 1) == [[0], [], []]
    assert np.array_equal(tr.c, simulate(nl, high).c)  # the run is unchanged


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, CHUNK + 70])
def test_first_hits_equal_a_scan_of_the_bits(n):
    nl = _mix_netlist()
    # the first 1, 2 and 64 hits of every net and value, a tap twice
    tr = simulate(nl, VectorStream(n, 3, "correlated", 0.995))
    taps = [(net, v) for net in range(nl.n_nets) for v in (0, 1)]
    scans = [np.flatnonzero(oracles.word_values(tr, [net]) == v)
             for net, v in taps]
    for limit in (1, 2, 64):
        want = [s[:limit].tolist() for s in scans]
        assert tr.hits(taps + taps[:1], limit) == want + want[:1]


@pytest.mark.parametrize("n", [700, CHUNK + 70])
def test_stream_values_are_the_chunks_in_order(n):
    nl = _words_netlist((3, 5))
    words = nl.signature()[0]
    stream = VectorStream(n, 6, "correlated")
    bits = _oracle_bits(stream, words)
    # the chunk blocks, in order, are the words' packed rows in word order
    blocks = [b for _, b in _bits_chunks(stream, words)]
    assert np.array_equal(np.concatenate(blocks, axis=1), np.concatenate(
        [oracles.pack_rows(bits[w]) for w, _ in words]))
    run, want = simulate(nl, stream), _bit_values(bits)
    for w, nets in nl.input_words():
        vals = run.word_values(nets)
        assert vals.shape == (n,) and vals.dtype == np.int64
        assert np.array_equal(vals, want[w])


@pytest.mark.parametrize("n", [3000, CHUNK + 70])
def test_error_profile_averages_over_the_output_words(n):
    spec = bfly_spec()
    nl = spec.build({"mul0": ArchParams("mul", "trunc", 8, 4),
                     "add0": ArchParams("add", "loa", spec.slots[1][2], 4)})
    stream = VectorStream(n, 8, "uniform")
    both = error_profile(nl, spec.reference, stream)
    each = [error_profile(nl, {w: fn}, stream)
            for w, fn in sorted(spec.reference.items())]
    assert each[0].mred > 0.0 and each[1].mred > 0.0
    assert both.n_vectors == n
    assert both.wce == max(e.wce for e in each)
    for f in ("er", "med", "mred"):
        assert getattr(both, f) == pytest.approx(
            sum(getattr(e, f) for e in each) / 2, rel=1e-12), f
    # one reference for two output words names no word to check
    with pytest.raises(BadParams, match="exactly one output word"):
        error_profile(nl, spec.reference["y0"], stream)


# -- the streaming passes against their reference definitions ---------------

#: run lengths around the word and chunk edges: n % 64 in {0, 1, 63}, and
#: runs that cross one or two chunk boundaries
_EDGE_N = st.sampled_from([1, 63, 64, 65, 127, 128, 129, CHUNK - 1, CHUNK,
                           CHUNK + 1, CHUNK + 70, 2 * CHUNK + 63,
                           2 * CHUNK + 70])
_RUN_N = st.one_of(_EDGE_N, st.integers(1, 2 * CHUNK + 70))
_RHO = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(n=_RUN_N, width=st.integers(1, 17), rho=_RHO,
       mode=st.sampled_from(STREAM_MODES), seed=st.integers(0, 2 ** 32 - 1),
       with_carry=st.booleans())
def test_chunk_bits_equal_the_index_scan(n, width, rho, mode, seed,
                                         with_carry):
    carry = None
    if with_carry:
        carry = np.random.default_rng(~seed & 0xFFFF).integers(
            0, 2, width, dtype=np.uint8)
    got, got_last = _chunk_bits(np.random.default_rng(seed), mode, rho, n,
                                width, carry)
    want, want_last = oracles.chunk_bits(np.random.default_rng(seed), mode,
                                         rho, n, width, carry)
    assert got.shape == (width, (n + 63) // 64) and got.dtype == np.uint64
    assert np.array_equal(got, oracles.pack_rows(want))
    assert np.array_equal(got_last, want_last)


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_a_stream_across_chunks_carries_like_the_index_scan(mode):
    words = (("a", 5), ("b", 1))
    stream = VectorStream(2 * CHUNK + 70, 12, mode, 0.97)
    got = list(_bits_chunks(stream, words))
    want = list(_oracle_chunks(stream, words))
    assert [n for n, _ in got] == [CHUNK, CHUNK, 70]
    for (_, block), bits in zip(got, want, strict=True):
        # word a's 5 rows, then word b's 1
        assert np.array_equal(block[:5], oracles.pack_rows(bits["a"]))
        assert np.array_equal(block[5:], oracles.pack_rows(bits["b"]))
    # the blocks in order are the whole index scan, packed
    whole = np.concatenate([b for _, b in got], axis=1)
    assert np.array_equal(whole, np.concatenate([oracles.pack_rows(
        np.concatenate([b[name] for b in want])) for name, _ in words]))


def test_chunks_made_ahead_while_the_caller_works_equal_the_index_scan():
    # three streams read in turn, so three chunks are made ahead at once on
    # two cores, with threads switched often; the oracle's chunks are the
    # caller's work while the next chunks are made
    words = (("a", 5), ("b", 1), ("c", 17))
    streams = [VectorStream(2 * CHUNK + 70, seed, "correlated", 0.97)
               for seed in (9, 10, 11)]
    got = [_bits_chunks(s, words) for s in streams]
    want = [_oracle_chunks(s, words) for s in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            for g, w in zip(got, want):
                (n, block), bits = next(g), next(w)
                assert n == len(bits["a"])
                assert np.array_equal(block, np.concatenate(
                    [oracles.pack_rows(bits[name]) for name, _ in words]))
    finally:
        sys.setswitchinterval(interval)
    assert [next(g, None) for g in got] == [None] * 3


def _chunk_calls(monkeypatch, fail_at=None):
    """The thread of each ``_chunk_bits`` call, the call numbered
    ``fail_at`` raising MemoryError."""
    calls, make = [], sim._chunk_bits

    def counted(*args):
        calls.append(threading.current_thread())
        if len(calls) == fail_at:
            raise MemoryError("no room for a chunk")
        return make(*args)

    monkeypatch.setattr(sim, "_chunk_bits", counted)
    return calls


def test_a_failure_making_the_next_chunk_surfaces_in_the_caller(monkeypatch):
    # one input word: the second call makes the second chunk, on the worker
    before = set(threading.enumerate())
    calls = _chunk_calls(monkeypatch, fail_at=2)
    with pytest.raises(MemoryError, match="no room"):
        activity_profile(_mix_netlist(), VectorStream(3 * CHUNK, 4))
    assert calls[0] is threading.main_thread() is not calls[1]
    assert len(calls) == 2 and set(threading.enumerate()) == before


def test_one_worker_makes_every_chunk_after_the_first(monkeypatch):
    # one input word: one call per chunk, the first on the caller's thread
    calls = _chunk_calls(monkeypatch)
    activity_profile(_mix_netlist(), VectorStream(3 * CHUNK, 5))
    first, *rest = calls
    assert first is threading.main_thread()
    assert len(rest) == 2 and rest[0] is rest[1] is not first


def test_a_failure_making_the_next_chunk_ends_a_profile_in_one_error_line(
        tmp_path, capsys, monkeypatch):
    nl, out = tmp_path / "mix.nl", tmp_path / "out"
    write_netlist(_mix_netlist(), nl)
    out.mkdir()
    _chunk_calls(monkeypatch, fail_at=2)
    assert main(["profile", "--netlist", str(nl), "--vectors", "70000",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: no room for a chunk"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("end", ["break", "finish", "fail"])
def test_no_thread_outlives_its_stream(monkeypatch, end):
    before = set(threading.enumerate())
    calls = _chunk_calls(monkeypatch)
    stream, nl = VectorStream(3 * CHUNK, 6, "correlated"), _mix_netlist()
    if end == "break":
        for _ in _bits_chunks(stream, nl.signature()[0]):
            for _ in range(10000):  # the next chunk is made meanwhile
                if len(calls) == 2:
                    break
                time.sleep(0.001)
            ahead = len(calls)
            break
        assert ahead == len(calls) == 2  # closing waits for it, no more
    elif end == "finish":
        activity_profile(nl, stream)
        assert len(calls) == 3
    else:  # the caller fails while the next chunk is made
        monkeypatch.setattr(_ActivitySums, "add", _raise_memory_error)
        with pytest.raises(MemoryError):
            activity_profile(nl, stream)
    assert set(threading.enumerate()) == before


def _raise_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("width", [1, 8, 17])
@pytest.mark.parametrize("blocks, off", [(1, -1), (1, 0), (1, 1), (2, 0)])
@pytest.mark.parametrize("with_carry", [False, True])
def test_redraw_mask_blocks_draw_like_the_oracle(width, blocks, off,
                                                 with_carry):
    # the mask is drawn in whole words of vectors, at most _BLOCK_BYTES
    # of draws; at width 17 that is rounded down to 30 words
    n = blocks * (_BLOCK_BYTES // (8 * width) // 64 * 64) + off
    carry = np.ones(width, np.uint8) if with_carry else None
    got, want = np.random.default_rng(n), np.random.default_rng(n)
    bits, last = _chunk_bits(got, "correlated", 0.8, n, width, carry)
    want_bits, want_last = oracles.chunk_bits(want, "correlated", 0.8, n,
                                              width, carry)
    assert np.array_equal(bits, oracles.pack_rows(want_bits))
    assert np.array_equal(last, want_last)
    assert np.array_equal(got.bit_generator.random_raw(4),
                          want.bit_generator.random_raw(4))


@settings(max_examples=40, deadline=None)
@given(n=_RUN_N, width=st.integers(1, 17), mode=st.sampled_from(STREAM_MODES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chunk_bits_advance_the_generator_like_the_oracle(n, width, mode,
                                                          seed):
    # the raw words drawn next show that both forms consumed the same words
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    _chunk_bits(got, mode, 0.9, n, width, None)
    oracles.chunk_bits(want, mode, 0.9, n, width, None)
    assert np.array_equal(got.bit_generator.random_raw(4),
                          want.bit_generator.random_raw(4))


@pytest.mark.parametrize("rho", [0.0, 2.0 ** -53, 0.5, np.nextafter(0.9, 1.0),
                                 1.0 - 2.0 ** -53, 1.0])
@pytest.mark.parametrize("with_carry", [False, True])
def test_chunk_bits_equal_the_oracle_at_edge_rhos(rho, with_carry):
    n, width = 4099, 5
    carry = np.array([1, 0, 1, 1, 0], np.uint8) if with_carry else None
    got, got_last = _chunk_bits(np.random.default_rng(11), "correlated",
                                rho, n, width, carry)
    want, want_last = oracles.chunk_bits(np.random.default_rng(11),
                                         "correlated", rho, n, width, carry)
    assert np.array_equal(got, oracles.pack_rows(want))
    assert np.array_equal(got_last, want_last)


class _RawWords:
    """A stand-in generator whose raw words are given: all ones for the
    fresh bits, then ``words`` for the redraw draw."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = [None, np.asarray(words, np.uint64)]

    def random_raw(self, size):
        words = self._words.pop(0)
        return np.full(size, ~np.uint64(0)) if words is None else words


@pytest.mark.parametrize("rho", [1e-20, 2.0 ** -53, 0.1, 0.25, 0.5,
                                 np.nextafter(0.9, 1.0), 0.97,
                                 1.0 - 2.0 ** -53, 1.0])
def test_redraw_threshold_sits_on_the_float_comparison_edge(rho):
    # one vector, the fresh bits all ones and a zero carry: row j is 1
    # exactly where word j is a redraw, so the mask is read off directly;
    # the words sit on both sides of the threshold.  Below 0.5, rho *
    # 2**53 need not be whole, which is where the ceiling counts
    t = math.ceil(rho * 2 ** 53)
    words = [w for k in (t - 1, t, t + 1) if 0 <= k < 2 ** 53
             for w in (k << 11, (k << 11) | 2047)]
    words += [0, 2 ** 64 - 1]
    got, _ = _chunk_bits(_RawWords(words), "correlated", rho, 1, len(words),
                         np.zeros(len(words), np.uint8))
    # Generator.random() is (raw >> 11) * 2**-53
    floats = (np.array(words, np.uint64) >> np.uint64(11)) * 2.0 ** -53
    assert got[:, 0].tolist() == (floats >= rho).astype(int).tolist()
    g = np.random.default_rng(3)
    raw = np.random.default_rng(3).bit_generator.random_raw(64)
    assert np.array_equal(g.random(64), (raw >> np.uint64(11)) * 2.0 ** -53)


def test_a_full_chunk_of_fresh_bits_leaves_no_buffered_half():
    # integers(0, 2, uint8) buffers the unread half of a 64-bit word; a
    # full chunk reads whole words at every width, a partial one need not
    for width in range(1, 65):
        rng = np.random.default_rng(width)
        rng.integers(0, 2, (CHUNK, width), np.uint8)
        assert rng.bit_generator.state["has_uint32"] == 0, width
    rng = np.random.default_rng(0)
    rng.integers(0, 2, (4, 1), np.uint8)  # one 32-bit draw
    assert rng.bit_generator.state["has_uint32"] == 1


#: run lengths and widths of the chunk pins: word, block and chunk edges
_PIN_NS = [1, 63, 64, 100, 8191, 8192, 8193, 20000, 65536, 70000, 131142]
_PIN_WIDTHS = [1, 3, 8, 11, 17]

#: per (mode, rho, width, with a carry), the first 16 hex digits of the
#: sha256 over _PIN_NS of each call's packed bits, returned carry and the
#: generator's next four raw words, as the Generator.integers and random
#: draws through a bool transpose and ``np.packbits`` made them
_CHUNK_PINS = {
    ('uniform', None, 1, False): '0b8b2474eb9337aa',
    ('correlated', 0.0, 1, False): 'ba5af5a2ecc1d311',
    ('correlated', 0.0, 1, True): 'ba5af5a2ecc1d311',
    ('correlated', 0.5, 1, False): 'f02a53c33f859123',
    ('correlated', 0.5, 1, True): 'dbc620e174cd626f',
    ('correlated', 0.9, 1, False): 'bce1cb5402c82417',
    ('correlated', 0.9, 1, True): 'c8ad999dc616a159',
    ('correlated', 1.0, 1, False): '42bf8d0fcee5dad1',
    ('correlated', 1.0, 1, True): 'dcc06e6edbc28714',
    ('uniform', None, 3, False): '06c95d0a2d042d46',
    ('correlated', 0.0, 3, False): '46420156f354b038',
    ('correlated', 0.0, 3, True): '46420156f354b038',
    ('correlated', 0.5, 3, False): 'f6e7eb7698cfc08d',
    ('correlated', 0.5, 3, True): '59f5dc35c0505e9f',
    ('correlated', 0.9, 3, False): 'b5fb8f263c951d83',
    ('correlated', 0.9, 3, True): '91a1bef330016c27',
    ('correlated', 1.0, 3, False): 'd457649a0886fb39',
    ('correlated', 1.0, 3, True): '9add74ad5e37805c',
    ('uniform', None, 8, False): '1c5e1656c16d14e1',
    ('correlated', 0.0, 8, False): '826cfc8d1869fdef',
    ('correlated', 0.0, 8, True): '826cfc8d1869fdef',
    ('correlated', 0.5, 8, False): '9510c6af3bf4f369',
    ('correlated', 0.5, 8, True): '1d56d62276162510',
    ('correlated', 0.9, 8, False): '16672a12ffca421b',
    ('correlated', 0.9, 8, True): '8a55f8d6f7c6e17f',
    ('correlated', 1.0, 8, False): 'b75c889f77fafe75',
    ('correlated', 1.0, 8, True): 'd4da0a6704e1c52b',
    ('uniform', None, 11, False): '2ca3f7d35424e9a3',
    ('correlated', 0.0, 11, False): 'c4c2bf2ed1e70079',
    ('correlated', 0.0, 11, True): 'c4c2bf2ed1e70079',
    ('correlated', 0.5, 11, False): 'cbb7ea308392ea66',
    ('correlated', 0.5, 11, True): '3b073b93c3f348ed',
    ('correlated', 0.9, 11, False): '1ec5d35af7cdebac',
    ('correlated', 0.9, 11, True): '54c9a570bb392217',
    ('correlated', 1.0, 11, False): '29997ee6aeb0fce3',
    ('correlated', 1.0, 11, True): 'ac6e938a0b084379',
    ('uniform', None, 17, False): '92521a701fd48f1b',
    ('correlated', 0.0, 17, False): 'ae1dad383fd2ee25',
    ('correlated', 0.0, 17, True): 'ae1dad383fd2ee25',
    ('correlated', 0.5, 17, False): '36a7a58efad9bbfb',
    ('correlated', 0.5, 17, True): '5c786fc8672e04a8',
    ('correlated', 0.9, 17, False): '03bf80c24ab2805c',
    ('correlated', 0.9, 17, True): 'b3dd02319ab9d16a',
    ('correlated', 1.0, 17, False): '5f491a49f3409405',
    ('correlated', 1.0, 17, True): 'b2c36e077c6063c1',
}


@pytest.mark.parametrize("key", sorted(_CHUNK_PINS, key=repr), ids=repr)
def test_chunk_bits_match_their_pins(key):
    mode, rho, width, with_carry = key
    h = hashlib.sha256()
    for n in _PIN_NS:
        rng = np.random.default_rng([n, width])
        carry = np.arange(width, dtype=np.uint8) % 2 if with_carry else None
        bits, last = _chunk_bits(rng, mode, rho, n, width, carry)
        assert bits.shape == (width, (n + 63) // 64)
        assert bits.dtype == np.uint64 and last.dtype == np.uint8
        h.update(bits.tobytes())
        h.update(last.tobytes())
        h.update(rng.bit_generator.random_raw(4).tobytes())
    assert h.hexdigest()[:16] == _CHUNK_PINS[key]


def test_an_8x8_bit_transpose_is_its_own_inverse():
    x = np.random.default_rng(8).integers(0, 2 ** 64, (3, 100), np.uint64)
    once = x.copy()
    sim._transpose8(once)
    twice = once.copy()
    sim._transpose8(twice)
    assert np.array_equal(twice, x) and not np.array_equal(once, x)
    # bit j of byte i goes to bit i of byte j: byte 0 full is bit 0 of all
    diag = np.array([0xFF, 0x8040201008040201, 1 << 63], np.uint64)
    sim._transpose8(diag)
    assert diag.tolist() == [0x0101010101010101, 0x8040201008040201,
                             1 << 63]


_LONG = 2 * CHUNK + 70

#: of each chunk of a seed-19 stream, the first 16 hex digits of the
#: sha256 of its packed rows, word by word, as the ``Generator.integers``
#: and ``random`` draws made them; a uniform stream does not read rho
_STREAM_PINS = {
    ("uniform", 1000, (5, 1), None):
        ["91ef30c49da65125"],
    ("uniform", 1000, (8, 8, 8, 8), None):
        ["016f5cd0a10c8d3d"],
    ("uniform", _LONG, (5, 1), None):
        ["d86c80473f48b90f", "e91531a958d28865", "4320e913cf1b5927"],
    ("uniform", _LONG, (8, 8, 8, 8), None):
        ["e3d97d1ebf357828", "2e76583640166428", "9d029517425096ca"],
    ("correlated", 1000, (5, 1), 0.0):
        ["91ef30c49da65125"],
    ("correlated", 1000, (8, 8, 8, 8), 0.0):
        ["016f5cd0a10c8d3d"],
    ("correlated", 1000, (5, 1), 0.97):
        ["a582c8761e23d1e1"],
    ("correlated", 1000, (8, 8, 8, 8), 0.97):
        ["90db78c8677a5205"],
    ("correlated", 1000, (5, 1), 1.0):
        ["2cfe04dc14ed0b7b"],
    ("correlated", 1000, (8, 8, 8, 8), 1.0):
        ["de5702b0c9d5db3c"],
    ("correlated", _LONG, (5, 1), 0.0):
        ["d86c80473f48b90f", "32ee7c5a4fa0257d", "1af2c397f3b2a9f7"],
    ("correlated", _LONG, (8, 8, 8, 8), 0.0):
        ["e3d97d1ebf357828", "e232836775e7b8d7", "993afa310d899d9a"],
    ("correlated", _LONG, (5, 1), 0.97):
        ["f573614cca15db0b", "126f0d3c37930c4b", "f7657482e053ebd0"],
    ("correlated", _LONG, (8, 8, 8, 8), 0.97):
        ["f70ccb44cbdd8ac1", "0d948abfdec61dc3", "3cdad1a7c77ecc09"],
    ("correlated", _LONG, (5, 1), 1.0):
        ["087935864820c6e8", "087935864820c6e8", "cb74a56bfe51c855"],
    ("correlated", _LONG, (8, 8, 8, 8), 1.0):
        ["78c76d8ad78e78d9", "78c76d8ad78e78d9", "bf595034f48162f3"],
}


@pytest.mark.parametrize("mode", STREAM_MODES)
@pytest.mark.parametrize("n", [1000, _LONG])
@pytest.mark.parametrize("rho", [0.0, 0.97, 1.0])
@pytest.mark.parametrize("widths", [(5, 1), (8, 8, 8, 8)])
def test_stream_rows_match_their_pins(mode, n, rho, widths):
    words = tuple((f"w{i}", w) for i, w in enumerate(widths))
    digests = []
    for _, block in _bits_chunks(VectorStream(n, 19, mode, rho), words):
        # the words' rows in order, as each word's rows were hashed
        digests.append(hashlib.sha256(block.tobytes()).hexdigest()[:16])
    key = (mode, n, widths, None if mode == "uniform" else rho)
    assert digests == _STREAM_PINS[key]

def _words_netlist(widths):
    """Input words of the given widths, each bit XORed with the next
    word's, so every input row reaches an output."""
    b = NetlistBuilder()
    words = []
    for k, w in enumerate(widths):
        nets = [b.pi(f"w{k}_{i}") for i in range(w)]
        b.word(f"w{k}", nets)
        words.append(nets)
    b.instance("u", "deterministic", "misc", "exact")
    flat = [n for nets in words for n in nets]
    for i, net in enumerate(flat):
        b.po(b.gate(GateKind.XOR, (net, flat[(i + 1) % len(flat)]),
                    tag="u"))
    return b.build()


@settings(max_examples=30, deadline=None)
@given(n=_RUN_N, widths=st.lists(st.integers(1, 17), min_size=1,
                                   max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), strided=st.booleans())
def test_word_packing_equals_column_packing(n, widths, seed, strided):
    nl = _words_netlist(widths)
    rng = np.random.default_rng(seed)
    bits = {name: rng.integers(0, 2, (n, len(nets)), dtype=np.uint8)
            for name, nets in nl.input_words()}
    vals = _bit_values(bits)
    if strided:  # a column of a wider array, not contiguous
        vals = {w: np.stack([v, -v], axis=1)[:, 0] for w, v in vals.items()}
    assert np.array_equal(simulate(nl, vals).c, _oracle_run(nl, bits, n))


def _oracle_run(nl, bits, n):
    """The run of one array of bits: column-packed inputs, then the
    kernel over all of them at once."""
    c = oracles.pack_inputs(nl, bits, n)
    _kernels.eval_gates(*nl.plan, c)
    if n % 64:
        c[:, -1] &= np.uint64((1 << n % 64) - 1)
    return c


@settings(max_examples=25, deadline=None)
@given(first=_EDGE_N, rest=st.lists(st.one_of(_EDGE_N, st.integers(1, 200)),
                                    min_size=1, max_size=2),
       widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), stream_first=st.booleans())
@example(first=64, rest=[CHUNK + 1], widths=[3, 5], seed=1, stream_first=True)
@example(first=65, rest=[130, 63], widths=[1], seed=2, stream_first=True)
@example(first=CHUNK - 1, rest=[70], widths=[9, 2], seed=3,
         stream_first=True)
@example(first=63, rest=[CHUNK + 70], widths=[4], seed=4, stream_first=False)
def test_a_packed_concatenation_runs_like_the_concatenated_values(
        first, rest, widths, seed, stream_first):
    # the first source's n % 64 is 0, 1 or 63 among others, and the sum
    # crosses one or two chunk boundaries
    nl = _words_netlist(widths)
    words = nl.signature()[0]
    rng = np.random.default_rng(seed)
    sources = [{w: rng.integers(0, 1 << width, n) for w, width in words}
               for n in rest]
    stream = VectorStream(first, seed, "correlated", 0.9)
    sources.insert(0 if stream_first else len(sources), stream)
    run = simulate(nl, stream)
    streamed = {w: run.word_values(nets) for w, nets in nl.input_words()}
    vals = {w: np.concatenate([streamed[w] if s is stream else s[w]
                               for s in sources]) for w, _ in words}
    stim = pack(words, *sources)
    n = stim.n_vectors
    assert n == first + sum(rest) == len(vals[words[0][0]])
    assert stim.block.shape == (sum(widths), (n + 63) // 64)
    assert not stim.block.flags.writeable
    if n % 64:  # pad bits clear
        assert not (stim.block[:, -1] >> np.uint64(n % 64)).any()
    assert np.array_equal(simulate(nl, stim).c, simulate(nl, vals).c)
    # the block holds every value, bit i of word w in w's row i
    assert np.array_equal(stim.block, np.concatenate([oracles.pack_rows(
        (vals[w][:, None] >> np.arange(width) & 1).astype(np.uint8))
        for w, width in words]))


def test_a_stimulus_runs_only_on_the_input_words_it_was_packed_for():
    nl = _words_netlist((3, 5))
    stim = pack(nl.signature()[0], VectorStream(100, 1))
    assert simulate(nl, stim).n_vectors == 100
    for other in (_words_netlist((3, 4)), _words_netlist((5, 3)),
                  _words_netlist((3,))):
        with pytest.raises(BadParams, match="packed stimulus"):
            simulate(other, stim)
    renamed = pack((("a", 3), ("b", 5)), VectorStream(100, 1))
    with pytest.raises(BadParams, match="packed stimulus"):
        simulate(nl, renamed)


def test_each_refusal_names_only_the_sources_its_entry_point_takes(
        kernel_calls):
    # a profile takes a run but no stimulus; pack takes neither
    nl = gen_module(ArchParams("add", "exact", 4))
    words = nl.signature()[0]
    stim = pack(words, VectorStream(100, 1))
    run = simulate(nl, stim)
    del kernel_calls[:]
    ref = EXACT_OPS["add"]
    for profile in (activity_profile,
                    lambda nl, source: error_profile(nl, ref, source),
                    lambda nl, source: activity_and_error(nl, ref, source)):
        with pytest.raises(BadParams, match="a source is a VectorStream, a "
                           "run or a mapping of word values, not Stimulus"):
            profile(nl, stim)
    with pytest.raises(BadParams, match="a source is a VectorStream or a "
                       "mapping of word values, not Traces"):
        pack(words, VectorStream(50, 2), run)
    assert not kernel_calls


@pytest.mark.parametrize("source", [
    VectorStream(CHUNK, 3, "correlated"),
    {"w0": np.arange(70) % 8, "w1": np.arange(70) % 32}])
def test_a_single_chunk_is_packed_without_a_copy(source, monkeypatch):
    # its block is passed on read-only: no shift, no join
    nl = _words_netlist((3, 5))
    words = nl.signature()[0]
    packed, rows = [], sim._rows

    def recording(planes, widths):
        packed.append(rows(planes, widths))
        return packed[-1]

    monkeypatch.setattr(sim, "_rows", recording)
    stim = pack(words, source)
    if isinstance(source, VectorStream):
        assert stim.block is _single_chunk_bits(source, words)
    else:
        assert stim.block is packed[-1]
    assert not stim.block.flags.writeable
    assert np.array_equal(simulate(nl, stim).c, simulate(nl, source).c)


def test_a_stimulus_of_no_vectors_is_refused():
    with pytest.raises(BadParams, match="empty stream"):
        pack(_words_netlist((3, 5)).signature()[0])


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_stream_chunks_run_like_their_oracle_runs(kernel_calls, mode):
    nl = _mix_netlist()
    stream = VectorStream(2 * CHUNK + 70, 7, mode, 0.95)
    words = nl.signature()[0]
    want = [_oracle_run(nl, bits, len(bits["x"]))
            for bits in _oracle_chunks(stream, words)]
    # one buffer: each chunk is read before the next is asked for
    for tr, c, n in zip(_runs(nl, stream), want, (CHUNK, CHUNK, 70),
                        strict=True):
        assert tr.n_vectors == n
        assert np.array_equal(tr.c, c)
    run = simulate(nl, stream)
    assert run.n_vectors == stream.n_vectors
    assert np.array_equal(run.c, np.concatenate(want, axis=1))
    # a profile runs the chunks in one buffer and reads each in turn
    del kernel_calls[:]
    act = activity_profile(nl, stream)
    assert len(kernel_calls) == 3
    ref = oracles.ActivitySums(nl.n_nets)
    for c, n in zip(want, (CHUNK, CHUNK, 70)):
        ref.add(Traces(nl, c, n))
    assert np.array_equal(act.toggles, oracles.by_net(nl, ref.tog))
    assert np.array_equal(act.p1, oracles.by_net(nl, ref.ones) / ref.total)


def _sticky_chunk(rng, n_nets, n):
    """A packed chunk of long runs and flips, pad bits cleared."""
    bits = np.cumsum(rng.random((n_nets, n)) < 0.02, axis=1) & 1
    bits[0] = 0
    if n_nets > 1:
        bits[1] = 1
    c = np.zeros((n_nets, (n + 63) // 64), np.uint64)
    c.view(np.uint8)[:, :(n + 7) // 8] = np.packbits(
        bits.astype(np.uint8), axis=1, bitorder="little")
    return c


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.one_of(_EDGE_N, st.integers(1, 3 * 64 + 5)),
                        min_size=1, max_size=4),
       n_nets=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       sticky=st.booleans(),
       block=st.one_of(st.integers(1, 7), st.integers(8, 1 << 16)),
       view=st.booleans())
def test_toggle_count_equals_the_strided_count(lengths, n_nets, seed, sticky,
                                               block, view):
    # ``block`` bytes per row block: under 8 every block is one row, and
    # most budgets split the nets into ragged blocks; with ``view`` each
    # chunk is a non-contiguous column view inside words it must not read
    rng = np.random.default_rng(seed)
    got = _ActivitySums(np.arange(n_nets))
    want = oracles.ActivitySums(n_nets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_BLOCK_BYTES", block)
        for n in lengths:
            if sticky:
                c = _sticky_chunk(rng, n_nets, n)
            else:
                c = rng.integers(0, 2 ** 64, (n_nets, (n + 63) // 64),
                                 dtype=np.uint64)
                if n % 64:
                    c[:, -1] &= np.uint64((1 << n % 64) - 1)
            if view:
                wide = np.full((n_nets, c.shape[1] + 2), ~np.uint64(0))
                wide[:, 1:-1] = c
                c = wide[:, 1:-1]
            tr = Traces(None, c, n)
            got.add(tr)
            want.add(tr)
            assert np.array_equal(got.ones, want.ones)
            assert np.array_equal(got.tog, want.tog)
    assert got.total == want.total == sum(lengths)


@pytest.mark.parametrize("block", [1, 3 * 8 * (CHUNK // 64) + 5,
                                   5 * 8 * (CHUNK // 64)])
def test_activity_of_a_run_counts_its_column_views(monkeypatch, block):
    # a run of 2 chunks and 70 vectors is read as column views of its
    # words; blocks of 1, 3 and 5 rows leave a ragged last block
    monkeypatch.setattr(sim, "_BLOCK_BYTES", block)
    nl = _mix_netlist()
    run = simulate(nl, VectorStream(2 * CHUNK + 70, 8, "correlated", 0.9))
    want = oracles.ActivitySums(nl.n_nets)
    for tr in _runs(nl, run):
        assert not tr.c.flags.c_contiguous
        want.add(tr)
    act = activity_profile(nl, run)
    assert np.array_equal(act.toggles, oracles.by_net(nl, want.tog))
    assert np.array_equal(act.p1, oracles.by_net(nl, want.ones) / want.total)


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_a_whole_run_is_one_kernel_run_over_one_block(kernel_calls, mode):
    # 336 nets: the net array of 2 chunks and 70 vectors is 5.7 MB; chunk
    # runs joined afterwards peak at twice it, one run over one packed
    # input block at 1.43 times it
    nl = gen_module(ArchParams("mul", "exact", 8))
    simulate(nl, VectorStream(1, 0))  # the plan is built once, outside
    del kernel_calls[:]
    tracemalloc.start()
    try:
        run = simulate(nl, VectorStream(2 * CHUNK + 70, 3, mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kernel_calls) == 1
    assert run.n_vectors == 2 * CHUNK + 70
    assert peak < 1.6 * run.c.nbytes


def test_activity_sums_of_a_wide_chunk_allocate_little():
    # the profile-wide fir8 build: 1572 nets x 1024 words, 12.9 MB
    spec = fir_spec(8)
    nl = spec.build({"mul0": ArchParams("mul", "trunc", 8, 2),
                     "mul3": ArchParams("mul", "block22", 8, 2),
                     "add0": ArchParams("add", "loa", 16, 4),
                     "add2": ArchParams("add", "loa", 17, 4)})
    tr = simulate(nl, VectorStream(CHUNK, 3, "correlated", 0.9))
    acc = _ActivitySums(nl.rows)
    tracemalloc.start()
    try:
        acc.add(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tr.c.nbytes / 8
    want = oracles.ActivitySums(nl.n_nets)
    want.add(tr)
    assert np.array_equal(acc.tog, want.tog)
    assert np.array_equal(acc.ones, want.ones)


@pytest.mark.parametrize("n", [63, 64, CHUNK + 70, 2 * CHUNK + 1])
def test_activity_of_a_stream_equals_the_strided_count(n):
    nl = _mix_netlist()
    stream = VectorStream(n, 5, "correlated", 0.9)
    want = oracles.ActivitySums(nl.n_nets)
    for tr in _runs(nl, stream):
        want.add(tr)
    act = activity_profile(nl, stream)
    assert np.array_equal(act.toggles, oracles.by_net(nl, want.tog))
    assert np.array_equal(act.p1, oracles.by_net(nl, want.ones) / want.total)


@pytest.mark.parametrize("n", [1, 63, 64, 65, CHUNK + 70])
def test_word_values_equal_the_per_bit_values(n):
    spec = bfly_spec()
    nl = spec.build({"add0": ArchParams("add", "loa", spec.slots[1][2], 4)})
    run = simulate(nl, VectorStream(n, 2, "uniform"))
    words = [*nl.input_words(), *nl.output_words(), ("none", ())]
    # the whole run, and its chunk views (strided, not contiguous)
    for tr in [run, *_runs(nl, run)]:
        for _, nets in words:
            got = tr.word_values(nets)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracles.word_values(tr, nets))


@settings(max_examples=30, deadline=None)
@given(n=_EDGE_N)
def test_word_values_at_listed_vectors_are_the_whole_run_read_there(n):
    spec = bfly_spec()
    nl = spec.build({"add0": ArchParams("add", "loa", spec.slots[1][2], 4)})
    run = simulate(nl, VectorStream(n, 5, "uniform"))
    at = [t for t in (0, 63, 64, n - 1, CHUNK - 1, CHUNK) if t < n]
    for _, nets in [*nl.input_words(), *nl.output_words(), ("none", ())]:
        got = run.word_values(nets, at)
        assert got.dtype == np.int64
        assert np.array_equal(got, run.word_values(nets)[at])
        none = run.word_values(nets, [])
        assert none.dtype == np.int64 and none.shape == (0,)
        for t in (-1, n):
            with pytest.raises(BadParams, match="outside a run"):
                run.word_values(nets, [0, t])


def _value_runs(n, width, seed):
    """Values of ``width`` bits for ``n`` vectors, their rows as planes to
    rows give them, and those rows as a contiguous run of ``width`` nets
    and as a column view inside wider words."""
    v = np.random.default_rng(seed).integers(0, 2 ** width, n, np.int64)
    planes = v[:, None].view(np.uint8)[:, :-(-width // 8)]
    rows = sim._rows(planes, (width,))
    wide = np.full((width, rows.shape[1] + 2), ~np.uint64(0))
    wide[:, 1:-1] = rows
    nl = types.SimpleNamespace(rows=np.arange(width))
    return v, rows, [Traces(nl, rows, n), Traces(nl, wide[:, 1:-1], n)]


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 1000, CHUNK])
def test_planes_to_rows_and_rows_to_values_equal_the_per_bit_forms(n):
    for width in range(1, 64):
        v, rows, runs = _value_runs(n, width, n * 64 + width)
        bits = (v[:, None] >> np.arange(width) & 1).astype(np.uint8)
        assert rows.dtype == np.uint64
        assert np.array_equal(rows, oracles.pack_rows(bits)), width
        nets = list(range(width))
        for tr in runs:
            got = tr.word_values(nets)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert np.array_equal(got, oracles.word_values(tr, nets)), width
            assert np.array_equal(got, v), width


def test_word_values_of_more_than_63_nets_are_refused():
    # at 64 nets the top bit would be the sign; beyond, bits would drop
    nl = _words_netlist((32, 32, 1))
    run = simulate(nl, {"w0": np.arange(100), "w1": np.arange(100) * 7,
                        "w2": np.arange(100) % 2})
    nets = [n for _, word in nl.input_words() for n in word]
    assert run.word_values(nets[:63]).min() >= 0
    for k in (64, 65):
        for at in (None, [0, 99]):
            with pytest.raises(BadParams,
                               match=f"^{k} nets make no value of 63 bits$"):
                run.word_values(nets[:k], at)
