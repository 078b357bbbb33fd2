"""Reference designs: a constant-coefficient FIR filter and an FFT
butterfly.

Both are hierarchical compositions of the arithmetic generator modules plus
constant/wiring logic, flattened to single netlists with dotted instance
tags (``top.mul0``).  Arithmetic operator slots accept any architecture
assignment of the matching op type and width; unassigned slots default to
exact.  Constant words, width adapters and the butterfly subtractor are
fixed deterministic logic.

Builds are shared across callers and trials: :attr:`DesignSpec.build`
returns one netlist per (design kind, design parameters, assignment) from a
process-wide LRU of :data:`BUILD_CACHE_SIZE` entries, as
:func:`~axsec.arith.gen_module` does for modules.  That is safe because a
netlist is immutable once built, and every analysis kept on it
(:meth:`~axsec.netlist.Netlist.memo`, its plan, levels and masks) is a pure
function of it that hands out only read-only or fresh values.  A trial that
re-synthesizes a variant an earlier trial built skips its ``flatten``,
validation and analyses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .arith import ArchParams, gen_module
from .errors import BadParams, check_ranges
from .netlist import (Design, GateKind, ModuleInst, Netlist, NetlistBuilder,
                      flatten)


def _check_width(width: int):
    check_ranges({"width": width}, (("width", width >= 2, "at least 2"),
                                    ("width",)))


def _check_const(value: int, width: int, name="constant", low=0):
    # the width is a whole number before 1 << width is taken
    check_ranges({"width": width}, (("width",),))
    check_ranges({name: value}, (
        (name, low <= value < 1 << width, f"in [{low}, 2^width)"), (name,)))


@lru_cache(maxsize=128, typed=True)
def const_module(value: int, width: int) -> Netlist:
    """Constant word ``c`` driver (coefficient / twiddle logic).  The glue
    modules are memoized by type too, so 3.0 misses the build of 3."""
    _check_const(value, width)
    b = NetlistBuilder()
    b.instance("u", "deterministic", "const", "-")
    nets = []
    for i in range(width):
        kind = GateKind.CONST1 if (value >> i) & 1 else GateKind.CONST0
        nets.append(b.gate(kind, (), tag="u", stem=f"k{i}"))
    b.word("c", nets)
    for n in nets:
        b.po(n)
    return b.build()


@lru_cache(maxsize=128, typed=True)
def resize_module(w_in: int, w_out: int) -> Netlist:
    """Buffer the low bits of word ``a`` into ``y`` of a different width,
    zero-filling on top; upper input bits beyond ``w_out`` are ignored."""
    check_ranges({"w_in": w_in, "w_out": w_out}, (("w_in",), ("w_out",)))
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


@lru_cache(maxsize=128, typed=True)
def sub_module(width: int) -> Netlist:
    """Exact two's-complement subtractor: d = (a - b) mod 2^width."""
    check_ranges({"width": width}, (("width",),))
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
    check_ranges({"width": width, "taps": taps}, (("width",), ("taps",)))
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


def fir_design(width: int, coeffs, assign=None) -> Design:
    """Tapped sum of products y = sum(c_i * x_i) with one input word per
    tap, constant coefficients and the balanced adder tree of
    :func:`fir_slots`: each adder sums the two oldest feeds."""
    taps = len(coeffs)
    d = Design("top")
    d.inputs = [(f"x{i}", width) for i in range(taps)]
    d.wires = [(f"c{i}", width) for i in range(taps)]
    for i, c in enumerate(coeffs):
        d.insts.append(
            ModuleInst(f"c{i}", const_module(c, width), {"c": f"c{i}"}))
    mods = [_module_for(slot, assign) for slot in fir_slots(width, taps)]
    for i, mod in enumerate(mods[:taps]):
        d.wires.append((f"m{i}", len(mod.words["p"])))
        d.insts.append(ModuleInst(f"mul{i}", mod,
                                  {"a": f"x{i}", "b": f"c{i}", "p": f"m{i}"}))
    feeds = deque(f"m{i}" for i in range(taps))
    for idx, mod in enumerate(mods[taps:]):
        out = "y" if len(feeds) == 2 else f"t{idx}"
        (d.outputs if out == "y" else d.wires).append(
            (out, len(mod.words["s"])))
        d.insts.append(ModuleInst(f"add{idx}", mod, {
            "a": feeds.popleft(), "b": feeds.popleft(), "s": out}))
        feeds.append(out)
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
    _check_const(twiddle, width, "twiddle", 1)
    return (((1 << width) - 1) * twiddle).bit_length() + 1


def bfly_slots(width: int, twiddle: int) -> list[tuple[str, str, int]]:
    n = bfly_width(width, twiddle)
    return [("mul0", "mul", width), ("add0", "add", n)]


def bfly_design(width: int, twiddle: int, assign=None) -> Design:
    """Butterfly y0 = a + tw*b, y1 = (a - tw*b) mod 2^n with a constant
    twiddle factor; the subtract path is fixed exact logic."""
    n = bfly_width(width, twiddle)
    mul, add = (_module_for(s, assign) for s in bfly_slots(width, twiddle))
    t2 = len(mul.words["p"])
    d = Design("top")
    d.inputs = [("a", width), ("b", width)]
    d.outputs = [("y0", len(add.words["s"])), ("y1", n)]
    d.wires = [("tw", width), ("t2", t2), ("ae", n), ("te", n)]
    d.insts = [
        ModuleInst("tw", const_module(twiddle, width), {"c": "tw"}),
        ModuleInst("mul0", mul, {"a": "b", "b": "tw", "p": "t2"}),
        ModuleInst("ext_a", resize_module(width, n), {"a": "a", "y": "ae"}),
        ModuleInst("ext_t", resize_module(t2, n), {"a": "t2", "y": "te"}),
        ModuleInst("add0", add, {"a": "ae", "b": "te", "s": "y0"}),
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
    word a leak payload would target.  ``build`` hands out shared netlists
    (see the module docstring)."""

    name: str
    slots: tuple
    build: object          # assign dict -> Netlist
    reference: object      # callable, or dict output word -> callable
    secret_word: str | None


#: Flat builds kept per process.  Default trials build about 11 netlists
#: each, from few distinct assignments: 25 over 20 fir seeds, 17 over 20
#: bfly seeds, 38 over 50 fir seeds.  32 entries hit on 89% (fir) and 93%
#: (bfly) of 20-seed builds, as many as 64 do; 16 entries lose a tenth of
#: the hits.  A kept fir netlist with its analyses holds about 0.3 MB: 20
#: fir seeds in one process peaked at 56 MB against 48 MB uncached.
BUILD_CACHE_SIZE = 32


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _build(design, params: tuple, assign: tuple) -> Netlist:
    """The flat netlist of ``design(*params, assign)``, with ``assign`` the
    ``(slot, ArchParams)`` pairs of an assignment, sorted by slot."""
    return flatten(design(*params, dict(assign)))


def _builder(design, params):
    def build(assign=None):
        return _build(design, params, tuple(sorted((assign or {}).items())))
    return build


def fir_spec(width: int = 8, coeffs=(3, 5, 7, 9)) -> DesignSpec:
    _check_width(width)
    coeffs = tuple(coeffs)
    slots = tuple(fir_slots(width, len(coeffs)))
    for c in coeffs:
        _check_const(c, width)
    return DesignSpec(
        name=f"fir{len(coeffs)}x{width}",
        slots=slots,
        build=_builder(fir_design, (width, coeffs)),
        reference=fir_reference(coeffs),
        secret_word="coef")


def bfly_spec(width: int = 8, twiddle: int = 3) -> DesignSpec:
    _check_width(width)
    return DesignSpec(
        name=f"bfly{width}t{twiddle}",
        slots=tuple(bfly_slots(width, twiddle)),
        build=_builder(bfly_design, (width, twiddle)),
        reference=bfly_reference(width, twiddle),
        secret_word="twid")


def design_spec(design: str, width: int, coeffs, twiddle: int) -> DesignSpec:
    """The spec of a design family by name, fir or bfly; each family reads
    and checks only its own parameters."""
    if design == "fir":
        return fir_spec(width, coeffs)
    if design == "bfly":
        return bfly_spec(width, twiddle)
    raise BadParams(f"unknown design {design!r}")
