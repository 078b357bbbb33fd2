"""SCOAP combinational testability measures.

Computes per-net controllability (cc0, cc1: cost of forcing the net to 0/1
from the primary inputs) and observability (co: cost of propagating the net
to a primary output).  Values saturate at :data:`INF` instead of growing
without bound so unobservable or uncontrollable points stay comparable.

MUX2 gates have no classical SCOAP rule; each is expanded into an equivalent
and-or-not node group on virtual nets for the computation, and only real
nets are reported.  The recurrences run over plain lists of ints, one gate
at a time in kernel plan order; the arrays are built once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import GateKind, Netlist

INF = 2 ** 30

_AND, _OR, _NAND, _NOR = GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR
_XOR, _XNOR = GateKind.XOR, GateKind.XNOR
_NOT, _BUF = GateKind.NOT, GateKind.BUF
_CONST0, _CONST1 = GateKind.CONST0, GateKind.CONST1


@dataclass(frozen=True)
class ScoapReport:
    cc0: np.ndarray
    cc1: np.ndarray
    co: np.ndarray | None  # None: controllability alone was asked for


def _expand(nl: Netlist):
    """Gate list in plan order with MUX2 rewritten, plus the total net
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
        entries.append((_NOT, (s,), ns))           # ~s
        entries.append((_AND, (a, ns), t0))        # a & ~s
        entries.append((_AND, (b, s), t1))         # b & s
        entries.append((_OR, (t0, t1), g.output))
    return entries, n


def _controllability(nl, entries, n):
    cc0 = [INF] * n
    cc1 = [INF] * n
    for net in nl.inputs:
        cc0[net] = cc1[net] = 1
    for kind, ins, out in entries:
        if kind is _XOR or kind is _XNOR:
            # parity DP over the inputs, starting from the gate's own cost:
            # cheapest way to reach each parity
            even, odd = 1, INF
            for i in ins:
                c0, c1 = cc0[i], cc1[i]
                even, odd = (min(even + c0, odd + c1, INF),
                             min(odd + c0, even + c1, INF))
            if kind is _XNOR:
                even, odd = odd, even
            cc0[out], cc1[out] = even, odd
        elif kind is _NOT or kind is _BUF:
            c0, c1 = min(cc0[ins[0]] + 1, INF), min(cc1[ins[0]] + 1, INF)
            cc0[out], cc1[out] = (c1, c0) if kind is _NOT else (c0, c1)
        elif kind is _CONST0 or kind is _CONST1:
            cc0[out], cc1[out] = (1, INF) if kind is _CONST0 else (INF, 1)
        else:
            # and/or family: the controlling value on any one input sets
            # the output, the other output value needs every input
            ctl, full = (cc0, cc1) if kind is _AND or kind is _NAND \
                else (cc1, cc0)
            any_ = min(min([ctl[i] for i in ins]) + 1, INF)
            all_ = min(sum([full[i] for i in ins]) + 1, INF)
            if kind is _AND or kind is _NOR:
                cc0[out], cc1[out] = any_, all_
            else:
                cc0[out], cc1[out] = all_, any_
    return cc0, cc1


def _observability(nl, entries, n, cc0, cc1):
    co = [INF] * n
    for net in nl.outputs:
        co[net] = 0
    for kind, ins, out in reversed(entries):
        base = co[out]
        if base >= INF or not ins:
            continue
        if kind is _NOT or kind is _BUF:
            i = ins[0]
            co[i] = min(co[i], base + 1)
            continue
        # seeing one input means holding every other at its
        # non-controlling value (either value for parity gates)
        if kind is _AND or kind is _NAND:
            w = [cc1[i] for i in ins]
        elif kind is _OR or kind is _NOR:
            w = [cc0[i] for i in ins]
        else:
            w = [min(cc0[i], cc1[i]) for i in ins]
        base += sum(w) + 1
        for i, x in zip(ins, w):
            co[i] = min(co[i], base - x, INF)
    return co


def scoap(nl: Netlist, observability: bool = True) -> ScoapReport:
    """Testability profile for every real net of the netlist, computed once
    per netlist and ``observability`` (:meth:`Netlist.memo`); its arrays
    are read-only.  Without ``observability``, for a reader of ``cc0`` and
    ``cc1`` alone, ``co`` is None and its backward pass is not run."""
    return nl.memo(_scoap, observability)


def _scoap(nl: Netlist, observability: bool) -> ScoapReport:
    entries, n = _expand(nl)
    cc0, cc1 = _controllability(nl, entries, n)
    co = _observability(nl, entries, n, cc0, cc1) if observability else None
    return ScoapReport(_real(nl, cc0), _real(nl, cc1),
                       None if co is None else _real(nl, co))


def _real(nl: Netlist, values: list) -> np.ndarray:
    """The read-only array of ``values`` on the real nets."""
    a = np.array(values[:nl.n_nets], np.int64)
    a.flags.writeable = False
    return a
