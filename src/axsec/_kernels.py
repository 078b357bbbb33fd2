"""Levelized bit-parallel gate evaluation.

A netlist's gates are lowered once to a plan: the gates sorted by (scheduled
level, kind, arity), ids rising within each run, the output net of each
gate, and its input nets position by position.  A gate is scheduled above
its drivers, so every run of gates sharing (level, kind, arity) is one
group, evaluated over 64 packed test vectors per machine word with one
numpy operation per input position.
"""

from bisect import bisect_left
from itertools import chain

import numpy as np

_AND, _OR, _NAND, _NOR, _XOR, _XNOR = 0, 1, 2, 3, 4, 5
_NOT, _MUX2, _CONST0, _CONST1 = 6, 8, 9, 10

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

_FOLD = {_AND: np.bitwise_and, _NAND: np.bitwise_and,
         _OR: np.bitwise_or, _NOR: np.bitwise_or,
         _XOR: np.bitwise_xor, _XNOR: np.bitwise_xor}


#: the plan of no gates, which a full build extends
EMPTY = (np.zeros(0, np.intp), np.zeros((0, 0), np.intp), (),
         np.zeros(0, np.intp))


def extend(base, gates, depth):
    """The plan ``base`` with ``gates`` added: ``gates`` in id order, each
    id above the base's and read by no gate of the base, and ``depth`` the
    logic level of each net's driver.

    ``outs[g]`` is the output net of gate ``g`` in group order, ``ins[j, g]``
    its ``j``-th input net (0 past its arity), ``groups`` holds one
    ``(kind, start, stop, arity)`` gate slice per group, in level order,
    and ``levels[g]`` the scheduled level of gate ``g``: the lowest above
    its drivers' that holds a group of its (kind, arity) and is at most its
    ALAP level (the top logic level less its longest path to a sink), else
    that ALAP level, or past a base, whose schedule the new gates continue,
    the level just above its highest driver if that is higher.
    """
    outs0, ins0, groups0, levels0 = base
    pins, n0 = [g.inputs for g in gates], len(outs0)
    outs = np.r_[outs0, np.fromiter([g.output for g in gates], np.intp)]
    # kind (a byte) and arity per gate: off the base's groups, then the new
    g0 = np.array(groups0, np.intp).reshape(-1, 4)
    kind, arity = np.c_[np.repeat(g0[:, [0, 3]], g0[:, 2] - g0[:, 1], 0).T, [
        np.frombuffer(bytes([g.kind for g in gates]), np.uint8),
        np.fromiter(map(len, pins), np.intp)]]
    ar, width = arity[n0:], int(arity.max(initial=0))
    ins = np.zeros((width, len(outs)), np.intp)
    ins[:len(ins0), :n0] = ins0
    ins[np.arange(ar.sum()) - np.repeat(np.cumsum(ar) - ar, ar),
        np.repeat(np.arange(n0, len(outs)), ar)] = np.fromiter(
            chain.from_iterable(pins), np.intp)
    # per net its level (-1: unplaced), per (kind, arity) code its levels
    code = kind * (width + 1) + arity
    lv = np.full(len(depth), -1, np.intp)
    lv[outs0] = levels0
    lv, held = lv.tolist(), {}
    new, codes = outs[n0:].tolist(), code[n0:].tolist()
    for c, level in zip(code[g0[:, 1]].tolist(), levels0[g0[:, 1]].tolist()):
        held.setdefault(c, []).append(level)
    # ALAP levels off a reverse pass in logic-level order; gates are placed
    # in ALAP order, also topological, which leaves fewer groups
    order = np.argsort([depth[o] for o in new], kind="stable").tolist()
    alap = [max(depth, default=0)] * len(depth)
    for j in reversed(order):
        a = alap[new[j]] - 1
        for i in pins[j]:
            if alap[i] > a:
                alap[i] = a
    for j in np.argsort([alap[o] for o in new], kind="stable").tolist():
        o, lo = new[j], 0
        for i in pins[j]:
            if lv[i] >= lo:
                lo = lv[i] + 1
        at = held.setdefault(codes[j], [])
        p = bisect_left(at, lo)  # at[p]: the lowest level from lo, if any
        if p == len(at) or (at[p] > alap[o] and at[p] > lo):
            # past a base, the ALAP level may lie below the drivers
            at.insert(p, max(lo, alap[o]))
        lv[o] = at[p]
    level = np.r_[levels0, np.array([lv[o] for o in new], np.intp)]
    key = level * (int(code.max(initial=0)) + 1) + code
    order = np.argsort(key, kind="stable")
    starts = np.unique(key[order], return_index=True)[1].tolist()
    groups = tuple(zip(kind[order[starts]].tolist(), starts, [*starts[1:],
                       len(key)], arity[order[starts]].tolist()))
    return outs[order], ins.take(order, axis=1), groups, level[order]


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
