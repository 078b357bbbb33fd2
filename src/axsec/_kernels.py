"""Levelized bit-parallel gate evaluation.

A netlist's logic levels are lowered once to a plan: its gates sorted by
(logic level, kind, arity), the output net of each gate, and its input
nets position by position.  Gates of one level never read each other, so
every run of gates sharing (level, kind, arity) is one group, evaluated
over 64 packed test vectors per machine word with one numpy operation per
input position.
"""

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
    return extend((np.zeros(0, np.intp), np.zeros((0, 0), np.intp), ()),
                  (), levels)


def extend(base, done, levels):
    """The :func:`plan` of ``levels``, given ``base``, the plan of the
    levels ``done``, each a prefix of its level in ``levels`` whose ids lie
    below the rest.  A stable sort of the (level, kind, arity) keys puts
    each new gate after the base's of its group, as :func:`plan` would."""
    outs0, ins0, groups0 = base
    sizes = [len(gates) for gates in done]
    new = [(lv, g) for lv, gates in enumerate(levels)
           for g in gates[sizes[lv] if lv < len(sizes) else 0:]]
    # (level, kind, arity) per gate: the base's off its groups, then the new
    g0 = np.array(groups0, np.intp).reshape(-1, 4)
    old = np.repeat(g0[:, [0, 3]], g0[:, 2] - g0[:, 1], 0)
    keys = np.column_stack([
        np.concatenate((a, np.array(b, np.intp))) for a, b in (
            (np.repeat(np.arange(len(sizes)), sizes), [lv for lv, _ in new]),
            (old[:, 0], [g.kind for _, g in new]),
            (old[:, 1], [len(g.inputs) for _, g in new]))])
    width = int(keys[:, 2].max(initial=0))
    ins = np.zeros((width, len(keys)), np.intp)
    ins[:len(ins0), :len(outs0)] = ins0
    ins[:, len(outs0):] = np.array(
        [g.inputs + (0,) * (width - len(g.inputs)) for _, g in new],
        np.intp).reshape(len(new), width).T
    outs = np.concatenate((outs0, np.array([g.output for _, g in new],
                                           np.intp)))
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
