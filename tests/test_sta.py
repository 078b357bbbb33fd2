"""Timing analysis against an exhaustive path-walking oracle."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec.designs import fir_spec
from axsec.netlist import ARITY, GateKind, NetlistBuilder
from axsec.sta import (DelayModel, TimingPath, arrival_times, critical_delay,
                       near_critical_paths, paths_to_instances, slacks)


def _chain(depth):
    b = NetlistBuilder()
    n = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    for _ in range(depth):
        n = b.gate(GateKind.NOT, (n,), tag="u")
    b.po(n)
    return b.build()


def _enumerate_paths(nl, model):
    """Plain recursive walk over every complete input-to-output path."""
    cons = defaultdict(list)
    for g in nl.gates:
        for i in set(g.inputs):
            cons[i].append(g)
    pos = set(nl.outputs)
    found = []

    def walk(net, acc, path):
        if net in pos:
            found.append((tuple(path), acc))
        for g in cons[net]:
            walk(g.output, acc + model.of(g.kind), path + [g.output])

    for pi in nl.inputs:
        walk(pi, 0.0, [pi])
    return found


def _random_dag(rng, mixed):
    b = NetlistBuilder()
    nets = [b.pi(f"x{i}") for i in range(int(rng.integers(2, 5)))]
    b.instance("u", "deterministic", "misc", "exact")
    two_in = [GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NAND]
    consumed = set()
    for _ in range(int(rng.integers(4, 16))):
        if rng.random() < 0.2:
            kind, arity = GateKind.NOT, 1
        else:
            kind, arity = two_in[int(rng.integers(4))], 2
        ins = tuple(nets[int(rng.integers(len(nets)))] for _ in range(arity))
        consumed.update(ins)
        nets.append(b.gate(kind, ins, tag="u"))
    for n in nets:
        if n not in consumed:
            b.po(n)
    nl = b.build()
    if mixed:
        model = DelayModel({k: float(rng.integers(1, 4))
                            for k in (GateKind.AND, GateKind.OR,
                                      GateKind.XOR, GateKind.NAND,
                                      GateKind.NOT)})
    else:
        model = DelayModel(scale=float(rng.integers(1, 3)))
    return nl, model


def test_unit_chain_delays():
    nl = _chain(7)
    assert critical_delay(nl) == 7.0
    assert critical_delay(nl, DelayModel(scale=2.5)) == 17.5
    arr = arrival_times(nl)
    assert list(arr) == list(range(8))


def test_per_kind_delay_table():
    b = NetlistBuilder()
    a = b.pi("a")
    c = b.pi("b")
    b.instance("u", "deterministic", "misc", "exact")
    x = b.gate(GateKind.XOR, (a, c), tag="u")
    y = b.gate(GateKind.AND, (a, x), tag="u")
    b.po(y)
    nl = b.build()
    model = DelayModel({GateKind.XOR: 3.0, GateKind.AND: 2.0})
    # longest: a -> XOR(3) -> AND(2)
    assert critical_delay(nl, model) == 5.0
    sl = slacks(nl, model, 8.0)
    assert float(sl[y]) == 3.0


def test_constants_cost_nothing():
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    k = b.gate(GateKind.CONST1, (), tag="u")
    y = b.gate(GateKind.AND, (a, k), tag="u")
    b.po(y)
    nl = b.build()
    assert critical_delay(nl) == 1.0


def test_window_membership_and_order():
    nl = _chain(10)
    paths = near_critical_paths(nl, DelayModel(), clock=10.0, n_paths=50,
                                window=2.0)
    assert len(paths) == 1          # a chain has exactly one complete path
    p = paths[0]
    assert p.delay == 10.0 and p.slack == 0.0
    assert len(p.nets) == 11
    assert p.tags == ("u",)


@pytest.mark.parametrize("mixed", [False, True])
def test_fifty_random_dags_match_the_oracle(mixed):
    rng = np.random.default_rng(90 + mixed)
    for trial in range(50):
        nl, model = _random_dag(rng, mixed)
        every = _enumerate_paths(nl, model)
        assert len(every) <= 10 ** 4
        want_crit = max(d for _, d in every)
        assert critical_delay(nl, model) == pytest.approx(want_crit)

        clock = want_crit * float(rng.uniform(1.0, 1.3))
        window = clock * float(rng.uniform(0.1, 0.5))
        got = near_critical_paths(nl, model, clock, n_paths=10 ** 4,
                                  window=window)
        want = {nets for nets, d in every
                if clock - window - 1e-9 <= d <= clock + 1e-9}
        assert {p.nets for p in got} == want, f"trial {trial}"
        by_nets = dict(every)
        for p in got:
            assert p.delay == pytest.approx(by_nets[p.nets])
            assert p.slack == pytest.approx(clock - p.delay)
        slacks_seen = [p.slack for p in got]
        assert slacks_seen == sorted(slacks_seen)


def test_truncation_is_a_prefix():
    rng = np.random.default_rng(4)
    nl, model = _random_dag(rng, False)
    clock = critical_delay(nl, model) * 1.1
    full = near_critical_paths(nl, model, clock, n_paths=10 ** 4,
                               window=clock)
    head = near_critical_paths(nl, model, clock, n_paths=3, window=clock)
    assert [p.nets for p in head] == [p.nets for p in full[:3]]
    assert near_critical_paths(nl, model, clock, n_paths=0) == []


def test_paths_to_instances_ranks_by_count():
    nl = fir_spec(4, (1, 2)).build(None)
    clock = critical_delay(nl)
    paths = near_critical_paths(nl, DelayModel(), clock, n_paths=40)
    ranking = paths_to_instances(paths)
    counts = dict(ranking)
    assert sum(counts.values()) >= len(paths)
    # ordering: descending count, ties alphabetically
    for (t1, c1), (t2, c2) in zip(ranking, ranking[1:]):
        assert (-c1, t1) <= (-c2, t2)
    assert all(isinstance(p, TimingPath) for p in paths)


def _arrival_times_by_gate(nl, model):
    """The per-gate arrival loop that the levelized pass replaced."""
    arr = np.zeros(nl.n_nets, np.float64)
    for gid in nl.topo_order():
        g = nl.gate_by_id(gid)
        d = model.of(g.kind)
        arr[g.output] = d + (max(arr[i] for i in g.inputs) if g.inputs else 0.0)
    return arr


def _slacks_by_gate(nl, model, clock):
    """The per-gate required-time loop that the levelized pass replaced."""
    arr = _arrival_times_by_gate(nl, model)
    req = np.full(nl.n_nets, np.inf)
    for o in nl.outputs:
        req[o] = min(req[o], clock)
    for gid in reversed(nl.topo_order()):
        g = nl.gate_by_id(gid)
        r = req[g.output] - model.of(g.kind)
        for i in g.inputs:
            req[i] = min(req[i], r)
    return req - arr


_TIMED_KINDS = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.XOR,
                GateKind.NOT, GateKind.MUX2, GateKind.CONST0,
                GateKind.CONST1]


@st.composite
def _timed_dags(draw):
    """Random DAGs mixing n-ary, NOT, MUX2 and constant gates, with
    repeated inputs and nets that reach no output, under a partial per-kind
    delay table and a scale."""
    b = NetlistBuilder()
    nets = [b.pi(f"x{i}") for i in range(draw(st.integers(1, 4)))]
    b.instance("u", "deterministic", "misc", "exact")
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(_TIMED_KINDS))
        lo, hi = ARITY[kind]
        ins = draw(st.lists(st.sampled_from(nets), min_size=lo,
                            max_size=4 if hi is None else hi))
        nets.append(b.gate(kind, ins, tag="u"))
    for n in draw(st.lists(st.sampled_from(nets), min_size=1, unique=True)):
        b.po(n)
    table = draw(st.dictionaries(st.sampled_from(_TIMED_KINDS),
                                 st.floats(0.0, 4.0)))
    return b.build(), DelayModel(table, draw(st.floats(0.1, 3.0)))


@settings(max_examples=150, deadline=None)
@given(_timed_dags(), st.floats(0.5, 40.0))
def test_levelized_timing_equals_the_per_gate_loops(dag, clock):
    nl, model = dag
    want = _arrival_times_by_gate(nl, model)
    assert np.array_equal(arrival_times(nl, model), want)
    assert np.array_equal(arrival_times(nl),
                          _arrival_times_by_gate(nl, DelayModel()))
    assert critical_delay(nl, model) == float(
        max((want[o] for o in nl.outputs), default=0.0))
    assert np.array_equal(slacks(nl, model, clock),
                          _slacks_by_gate(nl, model, clock))
