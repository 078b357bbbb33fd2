"""Shared fixtures and random-netlist strategies."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from axsec import _kernels, attack, sta
from axsec.netlist import ARITY, GateKind, Netlist, NetlistBuilder
from axsec.sta import DelayModel

# every property draws the same examples on every run, and no failure
# database is kept, so a run's outcome depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per gate-kernel run, so a test can
    count how often a call simulates."""
    calls = []
    run = _kernels.eval_gates

    def counting(*args):
        calls.append(None)
        return run(*args)

    monkeypatch.setattr(_kernels, "eval_gates", counting)
    return calls


@pytest.fixture
def infected_work(monkeypatch):
    """A function that lists, per netlist an insertion returned so far, a
    Counter of the work spent on it: ``levelize`` full levelizations,
    ``plan`` full plans (:func:`axsec._kernels.extend` runs from
    :data:`axsec._kernels.EMPTY` over all its gates, not the suffix plan
    of its appended ones) and ``arrival`` arrival-time passes."""
    work, planned, infected = {}, [], []
    levelize, extend, arrivals = (Netlist._levelize, _kernels.extend,
                                  sta._arrival_times)
    insert = attack.insert_trojan

    def counting_levelize(self, *args):
        if self.base is None:
            work.setdefault(self, Counter())["levelize"] += 1
        return levelize(self, *args)

    def counting_extend(base, gates, depth, inputs):
        if base is _kernels.EMPTY:
            planned.append((depth, len(gates)))
        return extend(base, gates, depth, inputs)

    def counting_arrivals(nl, model):
        work.setdefault(nl, Counter())["arrival"] += 1
        return arrivals(nl, model)

    def recording(*args):
        nl, ht = insert(*args)
        infected.append(nl)
        return nl, ht

    monkeypatch.setattr(Netlist, "_levelize", counting_levelize)
    monkeypatch.setattr(_kernels, "extend", counting_extend)
    monkeypatch.setattr(sta, "_arrival_times", counting_arrivals)
    monkeypatch.setattr(attack, "insert_trojan", recording)

    def counts():
        return [work.get(nl, Counter())
                + Counter(plan=sum(d is nl._depth and k == len(nl.gates)
                                   for d, k in planned))
                for nl in infected]
    return counts


def random_dag(rng):
    """A small random AND/OR/XOR/NAND/NOT netlist from a numpy generator,
    timed under a delay scale drawn from a continuous range, so path
    delays are sums of a non-integer scale."""
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
    return b.build(), DelayModel(scale=float(rng.uniform(0.5, 3.0)))


_TAGS = ("u", "v", "w")


@st.composite
def dags(draw, max_gates=24):
    """Random netlists over every gate kind: n-ary gates of up to 5 inputs
    with repeats, MUX2, constants and nets that reach no output.  Gates
    carry one of three tags, so a tag can recur further down a path, and
    their ids are shuffled, so id order and output-net order differ."""
    b = NetlistBuilder()
    nets = [b.pi(f"x{i}") for i in range(draw(st.integers(1, 4)))]
    for tag in _TAGS:
        b.instance(tag, "deterministic", "misc", "exact")
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(GateKind))
        lo, hi = ARITY[kind]
        ins = draw(st.lists(st.sampled_from(nets), min_size=lo,
                            max_size=5 if hi is None else hi))
        nets.append(b.gate(kind, ins, tag=draw(st.sampled_from(_TAGS))))
    for n in draw(st.lists(st.sampled_from(nets), min_size=1, unique=True)):
        b.po(n)
    nl = b.build()
    ids = draw(st.permutations(range(len(nl.gates))))
    gates = [dataclasses.replace(g, id=ids[g.id]) for g in nl.gates]
    return Netlist(nl.net_names, nl.inputs, nl.outputs, nl.words, gates,
                   nl.instances)


@st.composite
def timed_dags(draw):
    """A :func:`dags` netlist under a delay scale."""
    return draw(dags()), DelayModel(scale=draw(st.floats(0.1, 3.0)))
