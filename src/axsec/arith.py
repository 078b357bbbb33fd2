"""Generators for exact and approximate adder/multiplier netlists.

Each generator emits a flat :class:`~axsec.netlist.Netlist` with input words
``a`` and ``b`` and a single output word (``s`` for adders, ``p`` for
multipliers), all gates carrying one instance tag.  The exact word-level
operator lives in :data:`axsec.sim.EXACT_OPS`; the test suite checks every
architecture exhaustively for small widths against its own scalar model.

Architectures
-------------
``exact``
    Ripple-carry adder / carry-save array multiplier.
``loa``
    Lower-part OR adder: the low ``k`` sum bits are ``a[i] | b[i]`` and the
    carry chain restarts above them, either from 0 or, with
    ``loa_and_carry``, from ``a[k-1] & b[k-1]``.
``trunc``
    Adder: the low ``k`` operand bits are ignored, the low ``k`` sum bits
    are constant 0 and the upper slice adds with carry-in 0.  Multiplier:
    partial products with row + column < ``k`` are dropped.
``block22``
    Multiplier tiled from 2x2 digit blocks (one per pair of 2-bit operand
    digits, summed at weight 2(i+j)).  Blocks whose output weight is below
    ``k`` use the reduced block mapping 3*3 to 7 (exact for the other
    fifteen input pairs); the rest stay exact.  Width must be even.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParams, check_ranges
from .netlist import GateKind, Netlist, NetlistBuilder

ARCHS = ("exact", "loa", "trunc", "block22")


@dataclass(frozen=True)
class ArchParams:
    """Parameter block selecting one concrete arithmetic architecture;
    it refuses a bad value when it is made."""

    op_type: str
    arch_id: str
    width: int
    k: int = 0
    loa_and_carry: bool = False

    def __post_init__(self):
        if self.op_type not in ("add", "mul"):
            raise BadParams(f"unknown op_type {self.op_type!r}")
        if self.arch_id not in ARCHS:
            raise BadParams(f"unknown arch_id {self.arch_id!r}")
        if self.op_type == "add" and self.arch_id == "block22":
            raise BadParams("block22 is a multiplier architecture")
        if self.op_type == "mul" and self.arch_id == "loa":
            raise BadParams("loa is an adder architecture")
        check_ranges(self, (
            ("width", self.width >= 2, "at least 2"), ("width",),
            ("k", 0 <= self.k < self.width, "in [0, width)"), ("k",)))
        if self.arch_id == "block22" and self.width % 2:
            raise BadParams("block22 requires an even width")

    def label(self):
        if self.arch_id == "exact":
            return "exact"
        s = f"{self.arch_id}{self.k}"
        if self.arch_id == "loa" and self.loa_and_carry:
            s += "c"
        return s


def _check(p: ArchParams, op: str):
    if p.op_type != op:
        raise BadParams(f"expected op_type {op!r}, got {p.op_type!r}")


# ---------------------------------------------------------------------------
# netlist construction


def _operands(b: NetlistBuilder, width: int):
    a = [b.pi(f"a[{i}]") for i in range(width)]
    bb = [b.pi(f"b[{i}]") for i in range(width)]
    b.word("a", a)
    b.word("b", bb)
    return a, bb


class _Cells:
    """Small gate factory bound to one builder and tag."""

    def __init__(self, builder: NetlistBuilder, tag: str):
        self.b = builder
        self.tag = tag

    def g(self, kind, *ins, stem="n"):
        return self.b.gate(kind, ins, tag=self.tag, stem=stem)

    def zero(self):
        # distinct nets: output bits must never alias (flattening maps
        # each port bit to its own parent net)
        return self.g(GateKind.CONST0, stem="z")

    def half_add(self, x, y):
        return self.g(GateKind.XOR, x, y, stem="s"), self.g(GateKind.AND, x, y, stem="c")

    def full_add(self, x, y, cin):
        t = self.g(GateKind.XOR, x, y, stem="t")
        s = self.g(GateKind.XOR, t, cin, stem="s")
        c = self.g(GateKind.OR, self.g(GateKind.AND, x, y, stem="g"),
                   self.g(GateKind.AND, t, cin, stem="h"), stem="c")
        return s, c

    def ripple(self, xs, ys, cin=None):
        """Ripple-carry sum of two equal-width operand nets.

        Returns len(xs)+1 sum nets (the last is the carry out).
        """
        if len(xs) != len(ys):
            raise BadParams(f"ripple operands differ in width: "
                            f"{len(xs)} and {len(ys)}")
        out = []
        carry = cin
        for x, y in zip(xs, ys):
            if carry is None:
                s, carry = self.half_add(x, y)
            else:
                s, carry = self.full_add(x, y, carry)
            out.append(s)
        out.append(carry if carry is not None else self.zero())
        return out

    def reduce_columns(self, columns):
        """Carry-save reduction of weighted bit columns to one bit each."""
        n = len(columns)
        out = []
        for c in range(n):
            col = list(columns[c])
            if c + 1 == n:
                # top column: its carry out is provably zero, fold with XOR
                while len(col) > 1:
                    col.append(self.g(GateKind.XOR, col.pop(0), col.pop(0), stem="s"))
            while len(col) > 1:
                if len(col) >= 3:
                    s, cy = self.full_add(col.pop(0), col.pop(0), col.pop(0))
                else:
                    s, cy = self.half_add(col.pop(0), col.pop(0))
                col.append(s)
                columns[c + 1].append(cy)
            out.append(col[0] if col else self.zero())
        return out


def gen_adder(params: ArchParams, tag: str = "u") -> Netlist:
    """Build the adder selected by ``params``; output word ``s`` has
    ``width + 1`` bits."""
    _check(params, "add")
    w, k = params.width, params.k
    b = NetlistBuilder()
    b.instance(tag, "approximate", "add", params.arch_id)
    cells = _Cells(b, tag)
    a, bb = _operands(b, w)
    arch = params.arch_id if k > 0 else "exact"
    if arch == "exact":
        s = cells.ripple(a, bb)
    elif arch == "loa":
        lo = [cells.g(GateKind.OR, a[i], bb[i], stem=f"lo{i}") for i in range(k)]
        cin = (cells.g(GateKind.AND, a[k - 1], bb[k - 1], stem="lc")
               if params.loa_and_carry else None)
        s = lo + cells.ripple(a[k:], bb[k:], cin)
    else:  # trunc
        s = [cells.zero() for _ in range(k)] + cells.ripple(a[k:], bb[k:])
    b.word("s", s)
    for i, n in enumerate(s):
        b.po(n)
    return b.build()


def gen_multiplier(params: ArchParams, tag: str = "u") -> Netlist:
    """Build the multiplier selected by ``params``; output word ``p`` has
    ``2 * width`` bits."""
    _check(params, "mul")
    w, k = params.width, params.k
    b = NetlistBuilder()
    b.instance(tag, "approximate", "mul", params.arch_id)
    cells = _Cells(b, tag)
    a, bb = _operands(b, w)
    arch = params.arch_id if k > 0 else "exact"
    if arch == "block22":
        columns = [[] for _ in range(2 * w)]
        for weight, net in _block22_grid(cells, a, bb, k):
            columns[weight].append(net)
        p = cells.reduce_columns(columns)
    else:
        columns = [[] for _ in range(2 * w)]
        for i in range(w):
            for j in range(w):
                if arch == "trunc" and i + j < k:
                    continue
                columns[i + j].append(
                    cells.g(GateKind.AND, a[i], bb[j], stem=f"pp{i}_{j}"))
        p = cells.reduce_columns(columns)
    b.word("p", p)
    for n in p:
        b.po(n)
    return b.build()


def _block22_grid(cells, a, bb, k):
    """One 2x2 block per digit pair; yields (weight, net) partial bits."""
    for i in range(len(a) // 2):
        for j in range(len(bb) // 2):
            off = 2 * (i + j)
            a0, a1 = a[2 * i], a[2 * i + 1]
            b0, b1 = bb[2 * j], bb[2 * j + 1]
            p00 = cells.g(GateKind.AND, a0, b0, stem="q0")
            p01 = cells.g(GateKind.AND, a0, b1, stem="q1")
            p10 = cells.g(GateKind.AND, a1, b0, stem="q2")
            p11 = cells.g(GateKind.AND, a1, b1, stem="q3")
            if off < k:
                # reduced block: out2..0 = a1b1, a1b0|a0b1, a0b0 (3*3 -> 7)
                mid = cells.g(GateKind.OR, p01, p10, stem="qm")
                yield from ((off, p00), (off + 1, mid), (off + 2, p11))
            else:
                t = cells.g(GateKind.XOR, p01, p10, stem="qx")
                c = cells.g(GateKind.AND, p01, p10, stem="qc")
                hi = cells.g(GateKind.XOR, p11, c, stem="qh")
                top = cells.g(GateKind.AND, p11, c, stem="qt")
                yield from ((off, p00), (off + 1, t), (off + 2, hi),
                            (off + 3, top))


@lru_cache(maxsize=128)
def gen_module(params: ArchParams, tag: str = "u") -> Netlist:
    """Dispatch to :func:`gen_adder` or :func:`gen_multiplier`.

    Memoized per ``(params, tag)``: netlists are immutable, and
    :func:`~axsec.netlist.flatten` and ``NetlistBuilder(base)`` only copy
    from them, so every caller may share one build.  ``ArchParams`` refuses
    a width of 4.0 when it is made, so the memo never finds the build of 4.
    """
    return (gen_adder if params.op_type == "add" else gen_multiplier)(
        params, tag)
