"""Timing analysis against an exhaustive path-walking oracle."""

import functools
import hashlib
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axsec.arith import ArchParams
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import BadParams
from axsec.netlist import GateKind, NetlistBuilder
from axsec.sta import (DelayModel, TimingPath, arrival_times,
                       calibrated_model, critical_delay, near_critical_paths,
                       paths_to_instances, slacks)

from tests.conftest import dags, random_dag, timed_dags


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


def test_unit_chain_delays():
    nl = _chain(7)
    assert critical_delay(nl) == 7.0
    assert critical_delay(nl, DelayModel(scale=2.5)) == 17.5
    arr = arrival_times(nl)
    assert list(arr) == list(range(8))


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_a_scale_that_is_not_positive_is_rejected(scale):
    with pytest.raises(BadParams, match="scale must be positive"):
        DelayModel(scale=scale)
    # scaled() goes through the same check
    with pytest.raises(BadParams, match="scale must be positive"):
        DelayModel(scale=2.0).scaled(scale)
    assert DelayModel(scale=3.0).scaled(2.0).of(GateKind.XOR) == 6.0


def test_a_per_kind_delay_table_is_not_accepted():
    # one scale times every gate; a table must not be taken for the scale
    with pytest.raises(TypeError):
        DelayModel({GateKind.XOR: 3.0})
    with pytest.raises(TypeError):
        DelayModel(2.0)


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


def test_fifty_random_dags_match_the_oracle():
    rng = np.random.default_rng(90)
    for trial in range(50):
        nl, model = random_dag(rng)
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
    nl, model = random_dag(rng)
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
    for g in nl.ordered_gates():
        d = model.of(g.kind)
        arr[g.output] = d + (max(arr[i] for i in g.inputs) if g.inputs else 0.0)
    return arr


def _slacks_by_gate(nl, model, clock):
    """The per-gate required-time loop that the levelized pass replaced."""
    arr = _arrival_times_by_gate(nl, model)
    req = np.full(nl.n_nets, np.inf)
    for o in nl.outputs:
        req[o] = min(req[o], clock)
    for g in reversed(nl.ordered_gates()):
        r = req[g.output] - model.of(g.kind)
        for i in g.inputs:
            req[i] = min(req[i], r)
    return req - arr


@settings(max_examples=150, deadline=None)
@given(timed_dags(), st.floats(0.5, 40.0))
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


def _path_count(nl):
    """Complete input-to-output paths, counted in one reverse pass."""
    count = [0] * nl.n_nets
    for o in set(nl.outputs):
        count[o] = 1
    for g in reversed(nl.ordered_gates()):
        for i in set(g.inputs):
            count[i] += count[g.output]
    return sum(count[i] for i in nl.inputs)


@settings(max_examples=150, deadline=None)
@given(dags(max_gates=16), st.integers(1, 3), st.floats(1.0, 1.5),
       st.floats(0.05, 1.0), st.integers(1, 60))
def test_uniform_walk_lists_the_oracle_paths_in_order(nl, scale, stretch,
                                                      frac, n_paths):
    # dags() shuffles gate ids and mixes three tags, so neither gate-id
    # order nor a tag list rebuilt from scratch can pass by accident
    assume(0 < _path_count(nl) <= 2000)
    model = DelayModel(scale=scale)
    every = _enumerate_paths(nl, model)
    clock = max(d for _, d in every) * stretch or 1.0
    window = clock * frac
    want = sorted((-d, nets) for nets, d in every
                  if clock - window - 1e-9 <= d <= clock + 1e-9)
    got = near_critical_paths(nl, model, clock, n_paths, window)
    assert [(-p.delay, p.nets) for p in got] == want[:n_paths]
    for p in got:
        gates = [nl.driver(n) for n in p.nets[1:]]
        assert p.gates == tuple(g.id for g in gates)
        assert p.tags == tuple(dict.fromkeys(g.tag for g in gates))
        assert p.slack == clock - p.delay


# near_critical_paths as detect calls it (clock 10, unit delays calibrated
# to margin 0.9, then scaled), recorded before the uniform walk moved onto
# a per-netlist index: sha256 over the repr of every path's (nets, gates,
# delay, slack, tags), for each (n_paths, window) setting in turn
_PATH_DESIGNS = {
    "fir-exact": (fir_spec(), None),
    "fir-approx": (fir_spec(), {"mul0": ArchParams("mul", "trunc", 8, 3),
                                "add1": ArchParams("add", "loa", 16, 4)}),
    "bfly-exact": (bfly_spec(), None),
    "bfly-approx": (bfly_spec(), {"mul0": ArchParams("mul", "block22", 8, 2),
                                  "add0": ArchParams("add", "loa", 11, 4)}),
}
_PATH_SETTINGS = [(100, None), (1000, 0.5), (7, 3.0)]
PATH_PINS = {
    ("fir-exact", 1.0):
        "1c01a7ae7c6a447b632a4c2f32ed38b5ea898d894f2429fe1e6890f9f826e4da",
    ("fir-exact", 1.2):
        "18fcaff4aadf8c23b27029a39c4b028a041d555d40a871b52a06900575b11f7a",
    ("fir-approx", 1.0):
        "882b7acd643bf9e673175afe00f46b578f1d4b4aefaaedac6dd682025a9c9d57",
    ("fir-approx", 1.2):
        "338b2efb2f91e58505a5c1d59b06d7863e20467a0832b094236dad8bc58ab29d",
    ("bfly-exact", 1.0):
        "a80a388586c1ffd95af0243453b30a7ec07951e72b00b0d2147e81d986f9cc50",
    ("bfly-exact", 1.2):
        "c96d7a01fa4f1f791da51baa73fc0b5818b491c3d13ace548bcce175a0ca0252",
    ("bfly-approx", 1.0):
        "2264af1b1b9f74b18d92497ded6073bfedcd3caf63f929d95cca1395e102a336",
    ("bfly-approx", 1.2):
        "5b124dff9ebd8884121eda22015b71a0094ccb23cef18da4c5e4d411496c24cb",
}


@functools.cache
def _pinned_design(name):
    spec, assign = _PATH_DESIGNS[name]
    return spec.build(assign)


@pytest.mark.parametrize("name,scale", sorted(PATH_PINS))
def test_detect_path_lists_match_the_pins(name, scale):
    nl = _pinned_design(name)
    model = calibrated_model(nl, 10.0, 0.9).scaled(scale)
    h = hashlib.sha256()
    for n_paths, window in _PATH_SETTINGS:
        for p in near_critical_paths(nl, model, 10.0, n_paths, window):
            h.update(repr((p.nets, p.gates, p.delay, p.slack,
                           p.tags)).encode())
    assert h.hexdigest() == PATH_PINS[name, scale]
