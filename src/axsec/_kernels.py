"""Levelized bit-parallel gate evaluation.

A netlist's gates are lowered once to a plan over the rows of its net
array: the primary inputs first, in ``input_words()`` order, then the gate
outputs sorted by (scheduled level, kind, arity), ids rising in each run.
A gate is scheduled above its drivers, so each run sharing (level, kind,
arity) is one group, one block of rows with its own block of input rows,
evaluated over 64 packed test vectors per machine word with one gather of
those into a scratch buffer and one ufunc written into its block.
"""

from bisect import bisect_left
from enum import IntEnum
from itertools import accumulate

import numpy as np


class GateKind(IntEnum):
    """Supported combinational primitives.

    ``MUX2`` takes inputs in the order (select, a, b) and passes ``a`` when
    select is 0.  ``CONST0``/``CONST1`` take no inputs.  All other kinds accept
    two or more inputs except the unary ``NOT``/``BUF``.
    """

    AND = 0
    OR = 1
    NAND = 2
    NOR = 3
    XOR = 4
    XNOR = 5
    NOT = 6
    BUF = 7
    MUX2 = 8
    CONST0 = 9
    CONST1 = 10


_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

# by the plan's plain-int kinds: the folds of AND ... XNOR (0-5) by index
_FOLD = (np.bitwise_and, np.bitwise_or) * 2 + (np.bitwise_xor,) * 2
_INVERTED = {int(k) for k in (GateKind.NAND, GateKind.NOR, GateKind.XNOR,
                              GateKind.NOT)}
_MUX2, _CONST1 = int(GateKind.MUX2), int(GateKind.CONST1)


#: the plan of no gates, its row map and levels, which a full build extends
EMPTY = ((np.zeros(0, np.intp), ()), np.zeros(0, np.intp), ())


def extend(base, gates, depth, inputs):
    """The plan, row map and group levels ``base`` with ``gates`` added:
    ``gates`` the :class:`~axsec.netlist.Columns` of gates in id order,
    each id above the base's and read by no gate of the base, ``depth``
    the array of each net's driver's logic level and ``inputs`` the
    primary inputs in row order, an ``intp`` array (a base's inputs are
    the same).

    The plan is ``(nets, groups)``: ``nets[g]`` is the output net of gate
    ``g`` in plan order, in row ``len(inputs) + g``; each group ``(kind,
    lo, hi, arity, ins)``, in level order, writes rows ``lo:hi`` and reads
    ``ins``, a read-only ``intp`` block of ``arity * (hi - lo)`` input
    rows, position by position; the blocks are consecutive slices of one
    array.  A gate's level is the lowest above its drivers' that holds a
    group of its (kind, arity) and is at most its ALAP level (the top
    logic level less its longest path to a sink), else that ALAP level,
    or past a base, whose schedule the new gates continue, the level just
    above its highest driver if that is higher.
    """
    (nets0, groups0), rows0, levels0 = base
    n0, m, ar = len(nets0), len(inputs), np.diff(gates.ptr)
    flat, ptr = gates.pins.tolist(), gates.ptr.tolist()
    pins = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
    nets = np.concatenate([nets0, gates.out], dtype=np.intp)
    # kind (a byte), arity, level and input nets per gate: the base's off
    # its groups and blocks (through its row -> net order), then the new
    g0 = np.array([g[:4] for g in groups0], np.intp).reshape(-1, 4).T
    kind, arity, level0 = np.repeat(np.array([g0[0], g0[3], levels0],
                                             np.intp), g0[2] - g0[1], 1)
    kind = np.concatenate([kind, gates.kind])
    arity = np.concatenate([arity, ar])
    width = int(arity.max(initial=0))
    ins = np.zeros((width, len(nets)), np.intp)
    net0 = np.empty_like(rows0)
    net0[rows0] = np.arange(len(rows0))
    for _, lo, hi, a, block in groups0:
        ins[:a, lo - m:hi - m] = net0[block].reshape(a, hi - lo)
    ins[np.arange(len(flat)) - np.repeat(gates.ptr[:-1], ar),
        np.repeat(np.arange(n0, len(nets)), ar)] = gates.pins
    # per net its level (-1: unplaced), per (kind, arity) code its levels
    code = kind * (width + 1) + arity
    lv = np.full(len(depth), -1, np.intp)
    lv[nets0] = level0
    lv, held = lv.tolist(), {}
    new, codes = nets[n0:].tolist(), code[n0:].tolist()
    for c, level in zip((g0[0] * (width + 1) + g0[3]).tolist(), levels0):
        held.setdefault(c, []).append(level)
    # ALAP levels off a reverse pass in logic-level order; gates are placed
    # in ALAP order, also topological, which leaves fewer groups
    order = np.argsort(depth[nets[n0:]], kind="stable").tolist()
    alap = [int(depth.max(initial=0))] * len(depth)
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
    level = np.concatenate([level0, np.array([lv[o] for o in new], np.intp)])
    key = level * (int(code.max(initial=0)) + 1) + code
    order = np.argsort(key, kind="stable")
    starts = np.unique(key[order], return_index=True)[1].tolist()
    ends, first = [*starts[1:], len(key)], order[starts]
    arities = arity[first].tolist()
    nets = nets[order]
    rows = np.empty(len(depth), np.intp)  # the inverse of the row order
    rows[np.concatenate([inputs, nets])] = np.arange(len(depth))
    # each group's block off the table of input rows in plan order
    table = rows[ins[:, order]]
    blocks = [table[:a, s:e] for a, s, e in zip(arities, starts, ends)]
    at = [*accumulate((b.size for b in blocks), initial=0)]
    pins = np.concatenate([np.zeros(0, np.intp), *blocks], axis=None)
    for a in (nets, pins, rows):
        a.flags.writeable = False
    groups = tuple(zip(kind[first].tolist(), [m + s for s in starts],
                       [m + e for e in ends], arities,
                       [pins[i:j] for i, j in zip(at, at[1:])]))
    return (nets, groups), rows, tuple(level[first].tolist())


def eval_gates(nets, groups, c):
    """Evaluate a plan, ``eval_gates(*plan, c)``, over packed vector words.

    c: uint64 array (rows, words) in the plan's row order; the input rows
    are pre-filled, and each gate row is written exactly once.  Only the
    groups are read: ``nets`` puts one entry per gate in the first
    argument, which perfbench's tracer counts gate-words by.  Trailing pad
    bits of the last word carry garbage and must be masked by the caller.
    """
    t = np.empty((max([len(g[4]) for g in groups], default=0), c.shape[1]),
                 np.uint64)
    take = c.take
    for kind, lo, hi, arity, ins in groups:
        out, k = c[lo:hi], hi - lo
        if not arity:
            out[...] = _FULL if kind == _CONST1 else 0
            continue
        # mode "clip" gathers straight into the buffer, unbuffered
        v = take(ins, 0, t[:len(ins)], "clip")
        if arity == 2:
            _FOLD[kind](v[:k], v[k:], out)
        elif kind == _MUX2:  # (sel, a, b) -> a ^ ((a ^ b) & sel)
            np.bitwise_xor(v[k:2 * k], v[2 * k:], out)
            out &= v[:k]
            out ^= v[k:2 * k]
        elif arity == 1:  # NOT, BUF
            out[...] = v
        else:
            _FOLD[kind].reduce(v.reshape(arity, k, c.shape[1]), 0, None, out)
        if kind in _INVERTED:
            np.invert(out, out)
