"""Levelized bit-parallel gate evaluation.

A netlist's gates are lowered once to a plan: the gates sorted by (logic
level, kind, arity), ids rising within each run, the output net of each
gate, and its input nets position by position.  Gates of one level never
read each other, so every run of gates sharing (level, kind, arity) is one
group, evaluated over 64 packed test vectors per machine word with one
numpy operation per input position.
"""

import numpy as np

_AND, _OR, _NAND, _NOR, _XOR, _XNOR = 0, 1, 2, 3, 4, 5
_NOT, _MUX2, _CONST0, _CONST1 = 6, 8, 9, 10

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

_FOLD = {_AND: np.bitwise_and, _NAND: np.bitwise_and,
         _OR: np.bitwise_or, _NOR: np.bitwise_or,
         _XOR: np.bitwise_xor, _XNOR: np.bitwise_xor}


#: the plan of no gates, which a full build extends
EMPTY = (np.zeros(0, np.intp), np.zeros((0, 0), np.intp), ())


def extend(base, gates, depth):
    """The plan ``base`` with ``gates`` added: ``gates`` in id order, each
    id above the base's, and ``depth`` the logic level of each net's driver.

    ``outs[g]`` is the output net of gate ``g`` in group order, ``ins[j, g]``
    its ``j``-th input net (0 past its arity) and ``groups`` holds one
    ``(kind, start, stop, arity)`` gate slice per group, in level order.
    A stable sort of the (level, kind, arity) keys keeps each group in id
    order, the base's gates first, so a plan does not depend on how often
    it was extended.
    """
    outs0, ins0, groups0 = base
    outs = np.r_[outs0, np.array([g.output for g in gates], np.intp)]
    # (level, kind, arity) per gate: kinds and arities off the base's
    # groups, then the new gates'
    g0 = np.array(groups0, np.intp).reshape(-1, 4)
    keys = np.column_stack((np.array(depth, np.intp)[outs], np.concatenate((
        np.repeat(g0[:, [0, 3]], g0[:, 2] - g0[:, 1], 0),
        np.array([(g.kind, len(g.inputs)) for g in gates],
                 np.intp).reshape(-1, 2)))))
    width = int(keys[:, 2].max(initial=0))
    ins = np.zeros((width, len(keys)), np.intp)
    ins[:len(ins0), :len(outs0)] = ins0
    ins[:, len(outs0):] = np.array(
        [g.inputs + (0,) * (width - len(g.inputs)) for g in gates],
        np.intp).reshape(len(gates), width).T
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(np.r_[len(keys) > 0,
                                  (keys[1:] != keys[:-1]).any(1)]).tolist()
    groups = tuple(zip(keys[starts, 1].tolist(), starts,
                       [*starts[1:], len(keys)], keys[starts, 2].tolist()))
    return outs[order], ins.take(order, axis=1), groups


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
