"""Levelized bit-parallel gate evaluation.

A netlist's logic levels are lowered once to a plan: its gates sorted by
(logic level, kind, arity), the output net of each gate, and its input
nets position by position.  Gates of one level never read each other, so
every run of gates sharing (level, kind, arity) is one group, evaluated
over 64 packed test vectors per machine word with one numpy operation per
input position.
"""

from itertools import groupby
from operator import itemgetter

import numpy as np

_AND, _OR, _NAND, _NOR, _XOR, _XNOR = 0, 1, 2, 3, 4, 5
_NOT, _MUX2, _CONST0, _CONST1 = 6, 8, 9, 10

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

_FOLD = {_AND: np.bitwise_and, _NAND: np.bitwise_and,
         _OR: np.bitwise_or, _NOR: np.bitwise_or,
         _XOR: np.bitwise_xor, _XNOR: np.bitwise_xor}


def plan(levels):
    """``(outs, ins, groups)`` of a netlist's gates grouped by logic level:
    ``levels`` holds the gates of each level, lowest level first.

    ``outs[g]`` is the output net of gate ``g`` in group order, ``ins[j, g]``
    its ``j``-th input net (0 past its arity) and ``groups`` holds one
    ``(kind, start, stop, arity)`` gate slice per group, in level order.
    """
    keyed = sorted((((lv, g.kind, len(g.inputs)), g)
                    for lv, gates in enumerate(levels) for g in gates),
                   key=itemgetter(0))
    width = max((len(g.inputs) for _, g in keyed), default=0)
    outs = np.array([g.output for _, g in keyed], np.intp)
    ins = np.array([g.inputs + (0,) * (width - len(g.inputs))
                    for _, g in keyed], np.intp)
    groups, start = [], 0
    for (_, kind, arity), run in groupby(keyed, key=itemgetter(0)):
        stop = start + sum(1 for _ in run)
        groups.append((int(kind), start, stop, arity))
        start = stop
    return outs, ins.reshape(len(keyed), width).T.copy(), tuple(groups)


def eval_gates(outs, ins, groups, c):
    """Evaluate a plan over packed vector words.

    c: uint64 array (nets, words); input rows are pre-filled, every gate
    output row is written exactly once.  Trailing pad bits of the last word
    carry garbage and must be masked by the caller.
    """
    take = c.take
    for kind, start, stop, arity in groups:
        o = outs[start:stop]
        if kind == _CONST0:
            c[o] = 0
        elif kind == _CONST1:
            c[o] = _FULL
        elif kind == _MUX2:  # (sel, a, b) -> a ^ ((a ^ b) & sel)
            a = take(ins[1, start:stop], axis=0)
            v = take(ins[2, start:stop], axis=0)
            v ^= a
            v &= take(ins[0, start:stop], axis=0)
            v ^= a
            c[o] = v
        else:
            v = take(ins[0, start:stop], axis=0)
            for j in range(1, arity):
                _FOLD[kind](v, take(ins[j, start:stop], axis=0), out=v)
            if kind in (_NOT, _NAND, _NOR, _XNOR):
                np.invert(v, out=v)
            c[o] = v
