"""Reference designs: a constant-coefficient FIR filter and an FFT
butterfly.

Both are hierarchical compositions of the arithmetic generator modules plus
constant/wiring logic, flattened to single netlists with dotted instance
tags (``top.mul0``).  Arithmetic operator slots accept any architecture
assignment of the matching op type and width; unassigned slots default to
exact.  Constant words, width adapters and the butterfly subtractor are
fixed deterministic logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import ArchParams, gen_module
from .errors import BadParams
from .netlist import (Design, GateKind, ModuleInst, Netlist, NetlistBuilder,
                      flatten)


@lru_cache(maxsize=128)
def const_module(value: int, width: int, word: str = "c") -> Netlist:
    """Constant word driver (coefficient / twiddle logic)."""
    if not 0 <= value < 1 << width:
        raise BadParams(f"constant {value} does not fit in {width} bits")
    b = NetlistBuilder()
    b.instance("u", "deterministic", "const", "-")
    nets = []
    for i in range(width):
        kind = GateKind.CONST1 if (value >> i) & 1 else GateKind.CONST0
        nets.append(b.gate(kind, (), tag="u", stem=f"k{i}"))
    b.word(word, nets)
    for n in nets:
        b.po(n)
    return b.build()


@lru_cache(maxsize=128)
def resize_module(w_in: int, w_out: int) -> Netlist:
    """Buffer the low bits of word ``a`` into ``y`` of a different width,
    zero-filling on top; upper input bits beyond ``w_out`` are ignored."""
    b = NetlistBuilder()
    b.instance("u", "deterministic", "resize", "-")
    ins = [b.pi(f"a[{i}]") for i in range(w_in)]
    b.word("a", ins)
    outs = []
    for i in range(w_out):
        if i < w_in:
            outs.append(b.gate(GateKind.BUF, (ins[i],), tag="u", stem=f"y{i}"))
        else:
            outs.append(b.gate(GateKind.CONST0, (), tag="u", stem=f"y{i}"))
    b.word("y", outs)
    for n in outs:
        b.po(n)
    return b.build()


@lru_cache(maxsize=128)
def sub_module(width: int) -> Netlist:
    """Exact two's-complement subtractor: d = (a - b) mod 2^width."""
    b = NetlistBuilder()
    b.instance("u", "deterministic", "sub", "exact")
    xs = [b.pi(f"a[{i}]") for i in range(width)]
    ys = [b.pi(f"b[{i}]") for i in range(width)]
    b.word("a", xs)
    b.word("b", ys)
    carry = b.gate(GateKind.CONST1, (), tag="u", stem="ci")
    outs = []
    for i in range(width):
        nb = b.gate(GateKind.NOT, (ys[i],), tag="u", stem=f"nb{i}")
        t = b.gate(GateKind.XOR, (xs[i], nb), tag="u", stem=f"t{i}")
        outs.append(b.gate(GateKind.XOR, (t, carry), tag="u", stem=f"d{i}"))
        carry = b.gate(
            GateKind.OR,
            (b.gate(GateKind.AND, (xs[i], nb), tag="u", stem=f"g{i}"),
             b.gate(GateKind.AND, (t, carry), tag="u", stem=f"h{i}")),
            tag="u", stem=f"co{i}")
    b.word("d", outs)
    for n in outs:
        b.po(n)
    return b.build()


def _module_for(slot, assign):
    name, op, w = slot
    p = assign.get(name) if assign else None
    if p is None:
        p = ArchParams(op, "exact", w)
    if p.op_type != op or p.width != w:
        raise BadParams(
            f"slot {name!r} needs a {op} of width {w}, got {p.label()} "
            f"{p.op_type}/{p.width}")
    return gen_module(p)


# ---------------------------------------------------------------------------
# FIR


def fir_slots(width: int, taps: int = 4) -> list[tuple[str, str, int]]:
    """Assignable operator slots: taps multipliers, then the adder tree
    level by level."""
    if taps < 2 or taps & (taps - 1):
        raise BadParams("taps must be a power of two, at least 2")
    slots = [(f"mul{i}", "mul", width) for i in range(taps)]
    w, level, idx = 2 * width, taps // 2, 0
    while level >= 1:
        for _ in range(level):
            slots.append((f"add{idx}", "add", w))
            idx += 1
        w += 1
        level //= 2
    return slots


def fir_design(width: int, coeffs, assign=None, name: str = "top") -> Design:
    """Tapped sum of products y = sum(c_i * x_i) with one input word per
    tap, constant coefficients and a balanced adder tree."""
    taps = len(coeffs)
    slots = fir_slots(width, taps)
    d = Design(name)
    d.inputs = [(f"x{i}", width) for i in range(taps)]
    d.wires = [(f"c{i}", width) for i in range(taps)]
    d.wires += [(f"m{i}", 2 * width) for i in range(taps)]
    for i, c in enumerate(coeffs):
        d.insts.append(
            ModuleInst(f"c{i}", const_module(c, width), {"c": f"c{i}"}))
    for i in range(taps):
        d.insts.append(ModuleInst(f"mul{i}", _module_for(slots[i], assign),
                                  {"a": f"x{i}", "b": f"c{i}", "p": f"m{i}"}))
    feeds = [f"m{i}" for i in range(taps)]
    w, idx = 2 * width, 0
    while len(feeds) > 1:
        nxt = []
        for j in range(0, len(feeds), 2):
            out = "y" if len(feeds) == 2 else f"t{idx}"
            d.insts.append(
                ModuleInst(f"add{idx}", _module_for(slots[taps + idx], assign),
                           {"a": feeds[j], "b": feeds[j + 1], "s": out}))
            if out == "y":
                d.outputs = [("y", w + 1)]
            else:
                d.wires.append((out, w + 1))
            nxt.append(out)
            idx += 1
        feeds = nxt
        w += 1
    d.groups = [("coef", [f"c{i}" for i in range(taps)])]
    return d


def fir_reference(coeffs):
    """Word-level reference for the filter output."""
    def ref(wv):
        out = coeffs[0] * wv["x0"]
        for i, c in enumerate(coeffs[1:], 1):
            out = out + c * wv[f"x{i}"]
        return out
    return ref


# ---------------------------------------------------------------------------
# FFT butterfly


def bfly_width(width: int, twiddle: int) -> int:
    """Internal extended width n: y0 = a + tw*b needs n+1 bits, y1 is
    computed mod 2^n."""
    if not 1 <= twiddle < 1 << width:
        raise BadParams(f"twiddle must be in [1, 2^width), got {twiddle}")
    return (((1 << width) - 1) * twiddle).bit_length() + 1


def bfly_slots(width: int, twiddle: int) -> list[tuple[str, str, int]]:
    n = bfly_width(width, twiddle)
    return [("mul0", "mul", width), ("add0", "add", n)]


def bfly_design(width: int, twiddle: int, assign=None,
                name: str = "top") -> Design:
    """Butterfly y0 = a + tw*b, y1 = (a - tw*b) mod 2^n with a constant
    twiddle factor; the subtract path is fixed exact logic."""
    n = bfly_width(width, twiddle)
    slots = bfly_slots(width, twiddle)
    d = Design(name)
    d.inputs = [("a", width), ("b", width)]
    d.outputs = [("y0", n + 1), ("y1", n)]
    d.wires = [("tw", width), ("t2", 2 * width), ("ae", n), ("te", n)]
    d.insts = [
        ModuleInst("tw", const_module(twiddle, width), {"c": "tw"}),
        ModuleInst("mul0", _module_for(slots[0], assign),
                   {"a": "b", "b": "tw", "p": "t2"}),
        ModuleInst("ext_a", resize_module(width, n), {"a": "a", "y": "ae"}),
        ModuleInst("ext_t", resize_module(2 * width, n), {"a": "t2", "y": "te"}),
        ModuleInst("add0", _module_for(slots[1], assign),
                   {"a": "ae", "b": "te", "s": "y0"}),
        ModuleInst("sub0", sub_module(n), {"a": "ae", "b": "te", "d": "y1"}),
    ]
    d.groups = [("twid", ["tw"])]
    return d


def bfly_reference(width: int, twiddle: int):
    """Per-output-word references for the butterfly."""
    n = bfly_width(width, twiddle)
    return {
        "y0": lambda wv: wv["a"] + twiddle * wv["b"],
        "y1": lambda wv: (wv["a"] - twiddle * wv["b"]) % (1 << n),
    }


# ---------------------------------------------------------------------------
# uniform handle used by variant search and the experiment harness


@dataclass(frozen=True)
class DesignSpec:
    """A buildable design: its operator slots, a builder from architecture
    assignments to a flat netlist, word-level references and the constant
    word a leak payload would target."""

    name: str
    slots: tuple
    build: object          # assign dict -> Netlist
    reference: object      # callable, or dict output word -> callable
    secret_word: str | None


def fir_spec(width: int = 8, coeffs=(3, 5, 7, 9)) -> DesignSpec:
    coeffs = tuple(coeffs)
    return DesignSpec(
        name=f"fir{len(coeffs)}x{width}",
        slots=tuple(fir_slots(width, len(coeffs))),
        build=lambda assign=None: flatten(fir_design(width, coeffs, assign)),
        reference=fir_reference(coeffs),
        secret_word="coef")


def bfly_spec(width: int = 8, twiddle: int = 3) -> DesignSpec:
    return DesignSpec(
        name=f"bfly{width}t{twiddle}",
        slots=tuple(bfly_slots(width, twiddle)),
        build=lambda assign=None: flatten(bfly_design(width, twiddle, assign)),
        reference=bfly_reference(width, twiddle),
        secret_word="twid")
