"""Packed simulation against scalar evaluation, stream behavior, and the
activity, power and error profilers."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec import _kernels, sim
from axsec.arith import ArchParams, gen_adder, gen_module
from axsec.attack import HTInstance, verify_stealth
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import BadParams, BadThreshold
from axsec.netlist import GateKind, NetlistBuilder
from axsec.sim import (CHUNK, EXACT_OPS, STREAM_MODES, Traces,
                       VectorStream, _ActivitySums, _bits_chunks,
                       _chunk_bits, _single_chunk_bits, activity_and_error,
                       activity_profile, error_profile, iter_traces,
                       power_proxy, power_ratio, rare_nets, simulate,
                       stream_values)

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
    assert np.array_equal(a.bits(net), b.bits(net))
    assert not np.array_equal(a.bits(net), c.bits(net))


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
    ht = HTInstance((), 1, "corrupt", (), (nl.readers(a0)[0].tag,), a0)
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
    ht = HTInstance((), 1, "corrupt", (), (nl.readers(a0)[0].tag,), a0)
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
    got = np.array([tr.bits(net) for net in range(nl.n_nets)])
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
    """A single-chunk stream generated from scratch, bypassing the memo."""
    out = {}
    for i, (name, width) in enumerate(words):
        rng = np.random.default_rng(np.random.SeedSequence((stream.seed, i)))
        out[name], _ = _chunk_bits(rng, stream.mode, stream.rho,
                                   stream.n_vectors, width, None)
    return out


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
    fresh = _fresh_rows(stream, words)
    assert cached.keys() == fresh.keys()
    for w in fresh:
        assert np.array_equal(cached[w], fresh[w])
        with pytest.raises(ValueError):
            cached[w][0, 0] ^= 1
    assert _single_chunk_bits(stream, words) is cached


def test_stream_memo_keys_on_the_input_words():
    _single_chunk_bits.cache_clear()
    stream = VectorStream(500, 2)
    narrow = _single_chunk_bits(stream, (("a", 4),))
    wide = _single_chunk_bits(stream, (("a", 8), ("b", 8)))
    assert narrow is not wide
    # packed (width, words) rows: 500 vectors fill 8 words
    assert narrow["a"].shape == (4, 8) and wide["a"].shape == (8, 8)
    assert _single_chunk_bits.cache_info().currsize == 2
    # a stream longer than one chunk is generated lazily, never memoized
    long = VectorStream(CHUNK + 1, 2)
    assert [n for _, n, _ in _bits_chunks(long, (("a", 1),))] == [CHUNK, 1]
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
    chunks = list(iter_traces(nl, run))
    assert not kernel_calls  # every read of the run is a view of it
    assert all(np.shares_memory(tr.c, run.c) for _, tr in chunks)

    want = activity_profile(nl, stream)
    assert act.n_vectors == want.n_vectors == n
    assert np.array_equal(act.p1, want.p1)
    assert np.array_equal(act.toggles, want.toggles)
    assert repr(err) == repr(error_profile(nl, EXACT_OPS["add"], stream))
    assert np.array_equal(again.c, simulate(nl, stream).c)
    streamed = list(iter_traces(nl, stream))
    assert [(s, tr.n_vectors) for s, tr in chunks] == \
        [(s, tr.n_vectors) for s, tr in streamed]
    for (_, a), (_, b) in zip(chunks, streamed):
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
        list(iter_traces(other, run))
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
    for limit in (1, 2, 64):
        want = [np.flatnonzero(tr.bits(net) == v)[:limit].tolist()
                for net, v in taps]
        assert tr.hits(taps + taps[:1], limit) == want + want[:1]


@pytest.mark.parametrize("n", [700, CHUNK + 70])
def test_stream_values_are_the_chunks_in_order(n):
    words = (("b", 3), ("a", 5))
    stream = VectorStream(n, 6, "correlated")
    vals = stream_values(stream, words)
    want = _bit_values(_oracle_bits(stream, words))
    assert vals.keys() == {"a", "b"}
    for w, width in words:
        assert vals[w].shape == (n,) and vals[w].dtype == np.int64
        assert np.array_equal(vals[w], want[w])


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
    assert [(s, n) for s, n, _ in got] == [(0, CHUNK), (CHUNK, CHUNK),
                                          (2 * CHUNK, 70)]
    for (_, _, rows), bits in zip(got, want, strict=True):
        for name, _ in words:
            assert np.array_equal(rows[name], oracles.pack_rows(bits[name]))
    whole = stream_values(stream, words)
    for name, _ in words:
        assert np.array_equal(whole[name], _bit_values(
            {name: np.concatenate([b[name] for b in want])})[name])


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
    for _, _, rows in _bits_chunks(VectorStream(n, 19, mode, rho), words):
        h = hashlib.sha256()
        for name, _ in words:
            h.update(rows[name].tobytes())
        digests.append(h.hexdigest()[:16])
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


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_stream_chunks_each_own_a_fresh_run(kernel_calls, mode):
    nl = _mix_netlist()
    stream = VectorStream(2 * CHUNK + 70, 7, mode, 0.95)
    words = nl.signature()[0]
    want = [_oracle_run(nl, bits, len(bits["x"]))
            for bits in _oracle_chunks(stream, words)]
    chunks = list(iter_traces(nl, stream))  # every chunk kept alive
    assert [s for s, _ in chunks] == [0, CHUNK, 2 * CHUNK]
    for (_, tr), c in zip(chunks, want, strict=True):
        assert np.array_equal(tr.c, c)
    assert not np.shares_memory(chunks[0][1].c, chunks[1][1].c)
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
    for _, tr in iter_traces(nl, run):
        assert not tr.c.flags.c_contiguous
        want.add(tr)
    act = activity_profile(nl, run)
    assert np.array_equal(act.toggles, oracles.by_net(nl, want.tog))
    assert np.array_equal(act.p1, oracles.by_net(nl, want.ones) / want.total)


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
    for _, tr in iter_traces(nl, stream):
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
    for tr in [run] + [tr for _, tr in iter_traces(nl, run)]:
        for _, nets in words:
            got = tr.word_values(nets)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracles.word_values(tr, nets))
