"""SCOAP combinational testability measures.

Computes per-net controllability (cc0, cc1: cost of forcing the net to 0/1
from the primary inputs) and observability (co: cost of propagating the net
to a primary output).  Values saturate at :data:`INF` instead of growing
without bound so unobservable or uncontrollable points stay comparable.

MUX2 gates have no classical SCOAP rule; each is expanded into an equivalent
and-or-not node group on virtual nets for the computation, and only real
nets are reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import GateKind, Netlist

INF = 2 ** 30


def _sat(x):
    return INF if x >= INF else x


@dataclass(frozen=True)
class ScoapReport:
    cc0: np.ndarray
    cc1: np.ndarray
    co: np.ndarray


# virtual node kinds used for the MUX2 expansion
_VAND = GateKind.AND
_VOR = GateKind.OR
_VNOT = GateKind.NOT


def _expand(nl: Netlist):
    """Gate list in level order with MUX2 rewritten, plus the total net
    count including virtual nets.  Each entry is (kind, inputs, output)."""
    n = nl.n_nets
    entries = []
    for g in nl.ordered_gates():
        if g.kind is not GateKind.MUX2:
            entries.append((g.kind, g.inputs, g.output))
            continue
        s, a, b = g.inputs
        ns, t0, t1 = n, n + 1, n + 2
        n += 3
        entries.append((_VNOT, (s,), ns))          # ~s
        entries.append((_VAND, (a, ns), t0))       # a & ~s
        entries.append((_VAND, (b, s), t1))        # b & s
        entries.append((_VOR, (t0, t1), g.output))
    return entries, n


def _controllability(nl, entries, n):
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
            # parity DP over the inputs: cheapest way to reach each parity
            even, odd = 0, INF
            for i in ins:
                even, odd = (_sat(min(even + cc0[i], odd + cc1[i])),
                             _sat(min(odd + cc0[i], even + cc1[i])))
            if kind is GateKind.XOR:
                cc0[out], cc1[out] = _sat(even + 1), _sat(odd + 1)
            else:
                cc0[out], cc1[out] = _sat(odd + 1), _sat(even + 1)
            continue
        # and/or family: one side sums all inputs, the other takes the best
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


def _observability(nl, entries, n, cc0, cc1):
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


def scoap(nl: Netlist) -> ScoapReport:
    """Full testability profile for every real net of the netlist."""
    entries, n = _expand(nl)
    cc0, cc1 = _controllability(nl, entries, n)
    co = _observability(nl, entries, n, cc0, cc1)
    m = nl.n_nets
    return ScoapReport(cc0[:m], cc1[:m], co[:m])
