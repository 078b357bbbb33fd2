"""Bit-parallel gate evaluation kernels.

Gate graphs are lowered to flat int arrays (one row per gate in dependency
order) and evaluated over 64 packed test vectors per machine word.  The hot
loop exists twice with the same signature: a numba ``@njit`` version and a
pure-numpy version that works row-wise.  Selection:

* ``AXSEC_BACKEND=numpy``  force the numpy path
* ``AXSEC_BACKEND=numba``  force numba (ImportError if unavailable)
* unset                    numba when importable, else numpy

``benchmarks/bench_sim.py`` compares both paths on the same netlist.
"""

import os

import numpy as np

_AND, _OR, _NAND, _NOR, _XOR, _XNOR = 0, 1, 2, 3, 4, 5
_NOT, _BUF, _MUX2, _CONST0, _CONST1 = 6, 7, 8, 9, 10

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

NJIT_OPTS = dict(nogil=True, cache=True)


def _eval_gates_py(kinds, outs, in_off, in_cnt, flat, c):
    """Evaluate gates in order over packed vector words.

    c: uint64 array (nets, words); input rows are pre-filled, every other
    row is written exactly once.  Trailing pad bits of the last word carry
    garbage and must be masked by the caller.
    """
    n_words = c.shape[1]
    for g in range(kinds.shape[0]):
        k = kinds[g]
        o = outs[g]
        s = in_off[g]
        n = in_cnt[g]
        if k == _CONST0:
            for w in range(n_words):
                c[o, w] = 0
        elif k == _CONST1:
            for w in range(n_words):
                c[o, w] = _FULL
        elif k == _NOT:
            i0 = flat[s]
            for w in range(n_words):
                c[o, w] = ~c[i0, w]
        elif k == _BUF:
            i0 = flat[s]
            for w in range(n_words):
                c[o, w] = c[i0, w]
        elif k == _MUX2:
            sel, ia, ib = flat[s], flat[s + 1], flat[s + 2]
            for w in range(n_words):
                c[o, w] = (c[ia, w] & ~c[sel, w]) | (c[ib, w] & c[sel, w])
        elif k == _AND or k == _NAND:
            i0 = flat[s]
            for w in range(n_words):
                v = c[i0, w]
                for j in range(1, n):
                    v &= c[flat[s + j], w]
                c[o, w] = ~v if k == _NAND else v
        elif k == _OR or k == _NOR:
            i0 = flat[s]
            for w in range(n_words):
                v = c[i0, w]
                for j in range(1, n):
                    v |= c[flat[s + j], w]
                c[o, w] = ~v if k == _NOR else v
        else:  # XOR / XNOR
            i0 = flat[s]
            for w in range(n_words):
                v = c[i0, w]
                for j in range(1, n):
                    v ^= c[flat[s + j], w]
                c[o, w] = ~v if k == _XNOR else v


def eval_gates_numpy(kinds, outs, in_off, in_cnt, flat, c):
    """Row-wise numpy twin of the kernel (no per-word Python loop)."""
    for g in range(kinds.shape[0]):
        k = kinds[g]
        o = outs[g]
        s = in_off[g]
        n = in_cnt[g]
        if k == _CONST0:
            c[o] = 0
        elif k == _CONST1:
            c[o] = _FULL
        elif k == _NOT:
            np.bitwise_not(c[flat[s]], out=c[o])
        elif k == _BUF:
            c[o] = c[flat[s]]
        elif k == _MUX2:
            sel = c[flat[s]]
            np.bitwise_or(c[flat[s + 1]] & ~sel, c[flat[s + 2]] & sel, out=c[o])
        else:
            op = (np.bitwise_and if k in (_AND, _NAND)
                  else np.bitwise_or if k in (_OR, _NOR)
                  else np.bitwise_xor)
            op(c[flat[s]], c[flat[s + 1]], out=c[o])
            for j in range(2, n):
                op(c[o], c[flat[s + j]], out=c[o])
            if k in (_NAND, _NOR, _XNOR):
                np.bitwise_not(c[o], out=c[o])


def _pick_backend():
    choice = os.environ.get("AXSEC_BACKEND", "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        raise ValueError(f"AXSEC_BACKEND must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numpy":
        return "numpy", eval_gates_numpy
    try:
        from numba import njit
    except ImportError:
        if choice == "numba":
            raise
        return "numpy", eval_gates_numpy
    return "numba", njit(**NJIT_OPTS)(_eval_gates_py)


#: active backend name ("numba" or "numpy") and the kernel in use
BACKEND, eval_gates = _pick_backend()
