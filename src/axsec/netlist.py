"""Gate-level netlist intermediate representation.

A :class:`Netlist` is a flat, combinational, acyclic gate graph over densely
numbered nets.  Primary inputs and outputs are ordered net lists, optionally
grouped into LSB-first words.  Every gate carries an ``instance_tag`` that maps
into an instance table describing the arithmetic module the gate belongs to
(approximate or deterministic, operator type, architecture id).  Netlists are
treated as immutable once built; analyses only read them.  To derive a modified
netlist (for example to splice extra logic into a copy), start a new
:class:`NetlistBuilder` from the existing object.

A built netlist holds its gates as read-only :class:`Columns`, which its
checks and analyses read; a :class:`Gate` is made only on request, by the
:attr:`Netlist.gates` view and :meth:`Netlist.driver`.  A builder makes one
per gate it appends, and none for a base's gates.

A builder that only appended nets, instances and gates with ids above the
base's, and maybe moved outputs and words, builds on its base (kept as
:attr:`Netlist.base`): it checks the new parts only and extends the base's
levels and kernel plan.  Its appended gates also have a plan of their own
over the base's rows (:attr:`Netlist.suffix`), which runs them on a run of
the base and over which its support masks and arrival times extend the
base's.  Any other change, or a failed check, builds in full, so every
error comes from the full build.

Hierarchical designs are expressed with :class:`Design` and :class:`ModuleInst`
and lowered to a flat :class:`Netlist` with :func:`flatten`, which splices
each module's columns through a map of its nets and rewrites instance tags
into hierarchical paths such as ``top.mul0``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import GateKind
from .errors import (
    CycleError,
    NetlistError,
    PortMismatch,
    SemanticError,
    UnknownModule,
)


#: kind -> (min arity, max arity); None means unbounded.
ARITY = {
    GateKind.AND: (2, None),
    GateKind.OR: (2, None),
    GateKind.NAND: (2, None),
    GateKind.NOR: (2, None),
    GateKind.XOR: (2, None),
    GateKind.XNOR: (2, None),
    GateKind.NOT: (1, 1),
    GateKind.BUF: (1, 1),
    GateKind.MUX2: (3, 3),
    GateKind.CONST0: (0, 0),
    GateKind.CONST1: (0, 0),
}

_KINDS = tuple(GateKind)  # by code
# the arity bounds by kind code, unbounded as the largest pin count
_FEWEST, _MOST = np.array([[lo, 2 ** 31 if hi is None else hi]
                           for lo, hi in map(ARITY.get, _KINDS)]).T


@dataclass(frozen=True, slots=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    tag: str


class Columns(NamedTuple):
    """Gates in id order as read-only arrays: gate ``j`` has id ``ids[j]``
    and kind code ``kind[j]``, reads nets ``pins[ptr[j]:ptr[j + 1]]`` in pin
    order, drives net ``out[j]`` and carries tag ``tags[tag[j]]``.  ``ids``
    is ``range(n)`` when the ids are ``0..n-1``, else a tuple."""

    ids: Sequence
    kind: np.ndarray
    ptr: np.ndarray
    pins: np.ndarray
    out: np.ndarray
    tag: np.ndarray
    tags: tuple

    def past(self, k):
        """The columns of the gates from position ``k`` on."""
        p = self.ptr[k:]
        return Columns(self.ids[k:], self.kind[k:], p - p[0],
                       self.pins[p[0]:], self.out[k:], self.tag[k:], self.tags)


def _ids(ids):
    return range(len(ids)) if ids == list(range(len(ids))) else tuple(ids)


def _columns(gates):
    """The :class:`Columns` of ``gates``, :class:`Gate` objects in id
    order; tag indices take the least type that holds them."""
    index = {}
    tag = [index.setdefault(g.tag, len(index)) for g in gates]
    return Columns(
        _ids([g.id for g in gates]),
        np.array([g.kind for g in gates], np.uint8),
        np.array([0, *accumulate(len(g.inputs) for g in gates)], np.int32),
        np.array([i for g in gates for i in g.inputs], np.int32),
        np.array([g.output for g in gates], np.int32),
        np.array(tag, np.min_scalar_type(len(index))), tuple(index))


def _cat(parts, ids):
    """One :class:`Columns` of ``parts`` in order, with gate ids ``ids``:
    each part ``(columns, net map or None, tag name per tag index)``, and
    tags of one name share one index."""
    index = {}  # each column starts empty; ptr at 0
    cols = ([np.zeros(0, np.uint8)], [np.zeros(1, np.int32)],
            [np.zeros(0, np.int32)], [np.zeros(0, np.int32)],
            [np.zeros(0, np.uint8)])
    for c, nets, names in parts:
        tag = [index.setdefault(t, len(index)) for t in names]
        for col, a in zip(cols, (
                c.kind, c.ptr[1:] + cols[1][-1][-1],
                c.pins if nets is None else nets[c.pins],
                c.out if nets is None else nets[c.out],
                np.array(tag, np.min_scalar_type(len(index)))[c.tag])):
            col.append(a)
    return Columns(ids, *map(np.concatenate, cols), tuple(index))


@dataclass(frozen=True)
class Instance:
    """Instance-table entry: provenance of one tagged group of gates."""

    kind_label: str  # "approximate" or "deterministic"
    op_type: str     # e.g. "add", "mul", "const"
    arch_id: str     # e.g. "exact", "loa", "trunc", "block22", "-"


KIND_LABELS = ("approximate", "deterministic")


def _bad_name(name):  # not one token of netlist text, where # comments
    return not name or name.split() != [name] or "#" in name


class Netlist:
    """Flat combinational gate graph.  Build via :class:`NetlistBuilder`;
    raises :class:`CycleError`, carrying the net ids of one loop, on cycles.

    :param net_names: net name per dense net id.
    :param inputs: ordered primary input net ids.
    :param outputs: ordered primary output net ids.
    :param words: word name -> LSB-first tuple of net ids.
    :param gates: :class:`Gate` objects (any order; ids unique), or the
        :class:`Columns` of gates in id order.
    :param instances: instance_tag -> :class:`Instance`.
    :param base: a netlist these fields only append to, as checked by
        :meth:`NetlistBuilder.build`; only what lies past it is validated.
    """

    def __init__(self, net_names, inputs, outputs, words, gates, instances,
                 base=None):
        self.net_names = tuple(net_names)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.words = {w: tuple(nets) for w, nets in words.items()}
        self.columns = gates if isinstance(gates, Columns) else _columns(
            sorted(gates, key=attrgetter("id")))
        for a in self.columns[1:6]:
            a.flags.writeable = False
        self.instances = dict(instances)
        self.base = base
        self._validate()

    # -- accessors ---------------------------------------------------------

    @property
    def n_nets(self):
        return len(self.net_names)

    @property
    def n_gates(self):
        return len(self.columns.out)

    @property
    def gates(self):
        """The :class:`Gate` of each gate in id order, made on each read."""
        return tuple(map(self._gate, range(self.n_gates)))

    def driver(self, net):
        """The :class:`Gate` driving ``net``, made on request; None for a
        primary input."""
        j = int(self._drv[net])
        return None if j < 0 else self._gate(j)

    def _gate(self, j):
        c = self.columns
        return Gate(c.ids[j], _KINDS[c.kind[j]],
                    tuple(c.pins[c.ptr[j]:c.ptr[j + 1]].tolist()),
                    int(c.out[j]), c.tags[c.tag[j]])

    def driver_tags(self, nets):
        """The instance tag of the gate driving each of ``nets``, which
        must all be gate-driven."""
        c = self.columns
        return [c.tags[t] for t in c.tag[self._drv[list(nets)]].tolist()]

    def ordered(self):
        """Kind, input nets and output net of each gate by logic level, so
        after its drivers, as plain values made on each call."""
        c = self.columns
        j = np.argsort(self._depth[c.out], kind="stable")
        pins = c.pins.tolist()
        return list(zip(map(_KINDS.__getitem__, c.kind[j].tolist()),
                        [pins[a:b] for a, b in zip(c.ptr[j].tolist(),
                                                   c.ptr[j + 1].tolist())],
                        c.out[j].tolist()))

    def levelled_pins(self, k=0):
        """The input pins of the gates from position ``k`` on, as arrays
        of the nets read and of their gates' outputs, sorted by the logic
        level of the output, and the bounds of each level's run: a pass
        level by level sees every driver before its readers."""
        c, depth = self.columns.past(k), self._depth
        dst = np.repeat(c.out, np.diff(c.ptr))
        at = np.argsort(depth[dst], kind="stable")
        return c.pins[at], dst[at], np.searchsorted(
            depth[dst[at]], np.arange(depth.max(initial=0) + 2)).tolist()

    def fanout_counts(self):
        """Read-only ``int32`` array: the gate input pins fed by each net."""
        return self._fanout

    @cached_property
    def _fanout(self):
        fanout = np.bincount(self.columns.pins, minlength=self.n_nets)
        fanout = fanout.astype(np.int32)
        fanout.flags.writeable = False
        return fanout

    @cached_property
    def live(self):
        """Read-only per-net mask: the driver is a gate other than CONST0
        and CONST1, so a trigger may tap the net and a screen flag it."""
        c, live = self.columns, np.zeros(self.n_nets, bool)
        live[c.out] = ~np.isin(c.kind, (GateKind.CONST0, GateKind.CONST1))
        live.flags.writeable = False
        return live

    def input_words(self):
        """Canonical ordered input interface as (name, net ids) pairs.

        Declared words whose nets are all primary inputs appear at the
        position of their first bit; ungrouped inputs become 1-bit words
        named after the net.
        """
        return self._io[0]

    def output_words(self):
        return self._io[1]

    def signature(self):
        """Primary I/O words as ((input name, width), ...) and ((output
        name, width), ...); netlists are interchangeable only when their
        signatures agree."""
        return self._io[2]

    @cached_property
    def _io(self):
        ins = self._grouped(self.inputs, "input")
        outs = self._grouped(self.outputs, "output")
        word = {}  # a run fills each input net from one bit of one word
        for name, bits in ins:
            for b in bits:
                if b in word:
                    raise SemanticError(
                        f"net {self.net_names[b]!r} is in input word "
                        f"{word[b]!r} and again in {name!r}")
                word[b] = name
        return ins, outs, tuple(tuple((w, len(b)) for w, b in words)
                                for words in (ins, outs))

    def _grouped(self, nets, side):
        net_set = set(nets)
        owner = {}
        for name, bits in self.words.items():
            if all(b in net_set for b in bits):
                for b in bits:
                    owner.setdefault(b, name)
        out = {}  # a name recurs only as another bit of one word (same tuple)
        for n in nets:
            w = owner.get(n)
            name = self.net_names[n] if w is None else w
            bits = (n,) if w is None else self.words[w]
            if out.setdefault(name, bits) is not bits:
                raise SemanticError(f"two {side} words are named {name!r}")
        return tuple(out.items())

    # -- invariants --------------------------------------------------------

    def _validate(self):
        # only what lies past a base is checked, and its tables extended;
        # the gate checks run over the columns, the first failing gate
        # reported as checking gate by gate in id order would
        base, n = self.base, self.n_nets
        n0, k0 = (base.n_nets, base.n_gates) if base else (0, 0)
        seen = set(self.net_names[:n0])
        for name in self.net_names[n0:]:
            if _bad_name(name):
                raise SemanticError(f"bad net name {name!r}")
            if name in seen:
                raise SemanticError(f"duplicate net name {name!r}")
            seen.add(name)
        c = self.columns
        new = c.past(k0)
        arity = np.diff(new.ptr)
        bad = (arity < _FEWEST[new.kind]) | (arity > _MOST[new.kind])
        bad[np.repeat(np.arange(len(arity)), arity)[
            (new.pins < 0) | (new.pins >= n)]] = True
        ok = (new.out >= 0) & (new.out < n)
        drv = np.full(n, -1, np.int32)  # per net, its driver's position
        if base:
            drv[:n0] = base._drv
        out, again = new.out[ok], np.ones(ok.sum(), bool)
        again[np.unique(out, return_index=True)[1]] = False
        bad[np.flatnonzero(ok)[again | (drv[out] >= 0)]] = True
        bad |= ~ok | ~np.array([t in self.instances for t in c.tags],
                               bool)[new.tag]
        if not isinstance(c.ids, range):  # ids are sorted
            lo = max(k0, 1)
            bad[lo - k0:] |= np.array(
                [a == b for a, b in zip(c.ids[lo - 1:], c.ids[lo:])], bool)
        if bad.any():
            raise SemanticError(self._gate_error(k0 + int(bad.argmax())))
        drv[new.out] = np.arange(k0, len(c.out))
        self._drv = drv
        for i in (*self.inputs, *self.outputs, *chain(*self.words.values())):
            if not 0 <= i < n:
                raise SemanticError(f"interface: unknown net id {i}")
        inputs = set(self.inputs)
        if len(inputs) != len(self.inputs):
            raise SemanticError("repeated primary input")
        for i in self.inputs:
            if drv[i] >= 0:
                raise SemanticError(
                    f"primary input {self.net_names[i]!r} is gate-driven")
        for i in np.flatnonzero(drv[n0:] < 0).tolist():
            if i + n0 not in inputs:
                raise SemanticError(
                    f"net {self.net_names[i + n0]!r} is undriven")
        for w, bits in self.words.items():
            if _bad_name(w):
                raise SemanticError(f"bad word name {w!r}")
            if not bits:
                raise SemanticError(f"empty word {w!r}")
        for tag, inst in self.instances.items():
            if _bad_name(tag):
                raise SemanticError(f"bad instance tag {tag!r}")
            if inst.kind_label not in KIND_LABELS:
                raise SemanticError(f"instance {tag!r}: bad kind {inst.kind_label!r}")
        self.signature()  # derives the I/O words: refuses a name used twice
        self._depth = self._levelize(new)

    def _gate_error(self, j):
        # the first check gate j fails, all gates before it having passed
        g, out = self._gate(j), self.columns.out
        lo, hi = ARITY[g.kind]
        if j and self.columns.ids[j - 1] == g.id:
            return f"duplicate gate id {g.id}"
        if len(g.inputs) < lo or (hi is not None and len(g.inputs) > hi):
            return f"gate {g.id}: {g.kind.name} cannot take {len(g.inputs)} inputs"
        for i in (*g.inputs, g.output):
            if not 0 <= i < self.n_nets:
                return f"gate {g.id}: unknown net id {i}"
        if g.output in out[:j]:
            return f"net {self.net_names[g.output]!r} has two drivers"
        return f"gate {g.id}: tag {g.tag!r} missing from instance table"

    def _levelize(self, new):
        # per net, its driver's level (-1: an input): Kahn's sort of the
        # ``new`` gates' columns, each one above its highest driver once
        # its last new driver is levelled (a pin at a time: a gate reading
        # a net twice waits for it twice); a loop is reported from the
        # lowest stuck gate
        base = self.base
        depth = base._depth.tolist() if base else []
        depth += [-1 if j < 0 else None
                  for j in self._drv[len(depth):].tolist()]
        flat, ptr, out = new.pins.tolist(), new.ptr.tolist(), new.out.tolist()
        pins = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
        readers = {o: [] for o in out}  # of the new gates' outputs
        waits, ready = [0] * len(out), []
        for j, ins in enumerate(pins):
            n = 0
            for i in ins:
                if depth[i] is None:  # driven by a new gate
                    readers[i].append(j)
                    n += 1
            waits[j] = n
            if not n:
                ready.append(j)
        for j in ready:  # grows as gates are levelled
            lv = 0
            for i in pins[j]:
                if depth[i] >= lv:
                    lv = depth[i] + 1
            depth[out[j]] = lv
            for r in readers[out[j]]:
                waits[r] -= 1
                if not waits[r]:
                    ready.append(r)
        if len(ready) < len(out):
            raise CycleError(self._find_cycle(
                {o: n for o, n in zip(out, waits) if n}))
        depth = np.array(depth, np.int32)
        depth.flags.writeable = False
        return depth

    # -- orders ------------------------------------------------------------

    @property
    def plan(self):
        """The kernel plan ``(nets, groups)`` of
        :func:`axsec._kernels.extend`, built once and extended from a
        :attr:`base`'s: the output net of each gate row, and per group its
        kind, row bounds ``lo:hi``, arity and block of input rows; its
        arrays are read-only.  Its gate order runs scheduled level after
        scheduled level, a gate above its drivers, so gates of one level
        never read each other."""
        return self._lowered[0]

    @property
    def rows(self):
        """Read-only: each net's row in a run's net array, the primary
        inputs first, in :meth:`input_words` order, then the gate outputs
        in plan order (a derived build's rows differ from its base's)."""
        return self._lowered[1]

    @cached_property
    def _lowered(self):  # the plan, the row map and the group levels
        base = self.base
        return _kernels.extend(
            base._lowered if base else _kernels.EMPTY,
            self.columns.past(base.n_gates if base else 0), self._depth,
            np.fromiter(chain(*(b for _, b in self.input_words())), np.intp))

    @cached_property
    def suffix(self):
        """The plan and row map ``(plan, rows)`` of a derived netlist's
        appended gates alone: the plan of :func:`axsec._kernels.extend`
        from ``EMPTY`` over the gates past :attr:`base`, whose inputs are
        the base's nets in the base's row order.  A net array whose first
        rows hold a run of the base thus takes the rest from this plan:
        base nets keep the base's rows (``rows[:base.n_nets] ==
        base.rows``) and new nets follow.  The per-net tables of a derived
        netlist extend its base's over it."""
        base = self.base
        plan, rows, _ = _kernels.extend(
            _kernels.EMPTY, self.columns.past(base.n_gates), self._depth,
            np.argsort(base.rows))  # the inverse of the row map
        return plan, rows

    def memo(self, build, *key):
        """``build(self, *key)``, computed on first use per ``(build, key)``
        and kept with the netlist: for pure analyses that other modules
        derive from it, with ``key`` the hashable parameters they take.

        An entry lives as long as the build, which is shared from one trial
        into the next (:mod:`axsec.designs`): it holds no per-trial
        measurement, and ``build`` depends on nothing but the netlist and
        ``key`` and hands out nothing a caller could change: read-only
        arrays, tuples, strings, or values whose owners copy them first."""
        memo = self._memo
        k = (build, key)
        if k not in memo:
            memo[k] = build(self, *key)
        return memo[k]

    def held(self, build, *key):
        """The :meth:`memo` entry of ``(build, key)`` if one is kept."""
        return self._memo.get((build, key))

    @cached_property
    def _memo(self):
        return {}

    def _find_cycle(self, pending):
        # Walk back from the lowest stuck gate's output to the first stuck
        # input net, and on, until a net repeats: the loop starts there.
        net, path = next(iter(pending)), {}
        while net not in path:
            path[net] = len(path)
            net = next(i for i in self.driver(net).inputs if i in pending)
        return list(path)[path[net]:]

    # -- cone queries ------------------------------------------------------

    def input_word_support(self, nets):
        """Names of input words that can influence the given nets, in
        :meth:`input_words` order: those with a bit in the nets' fan-in
        cone."""
        masks = self._support_masks
        m = 0
        for n in nets:
            m |= int(masks[n])
        return tuple(name for i, (name, _) in enumerate(self.input_words())
                     if m >> i & 1)

    @cached_property
    def _support_masks(self):
        # bit i of a net's mask: the i-th input word reaches the net; one
        # pass level by level ORs each pin's mask into its gate's output,
        # past a base on the same input words over the appended gates alone
        base, words, k = self.base, self.input_words(), 0
        masks = np.zeros(self.n_nets,
                         np.uint64 if len(words) <= 64 else object)
        if base and words == base.input_words():
            masks[:base.n_nets], k = base._support_masks, base.n_gates
        else:
            for i, (_, bits) in enumerate(words):
                masks[list(bits)] |= 1 << i
        src, dst, cuts = self.levelled_pins(k)
        for a, b in zip(cuts, cuts[1:]):
            np.bitwise_or.at(masks, dst[a:b], masks[src[a:b]])
        masks = masks.astype(np.min_scalar_type(masks.max(initial=0)))
        masks.flags.writeable = False
        return masks

    def __repr__(self):
        return (f"Netlist({self.n_gates} gates, {self.n_nets} nets, "
                f"{len(self.inputs)} PI, {len(self.outputs)} PO)")


class _Appended:
    """A based builder's gate list: its base's gates, made when read, then
    the appended ones."""

    def __init__(self, base):
        self.base, self.new = base, []

    def append(self, gate):
        self.new.append(gate)

    def __iter__(self):
        return chain(self.base.gates, self.new)


class NetlistBuilder:
    """Incremental netlist construction with automatic net numbering.

    Optionally seeded from an existing netlist, in which case all nets,
    gates, words and instances are copied and may be extended; this is the
    supported way to derive a modified copy of an immutable netlist.  The
    base's gates are read from its columns, made as :class:`Gate` objects
    only if ``gates`` is iterated.
    """

    def __init__(self, base: Netlist | None = None):
        self.net_names: list[str] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.words: dict[str, list[int]] = {}
        self.gates = []
        self.instances: dict[str, Instance] = {}
        self._by_name: dict[str, int] = {}
        self._next_gate = 0
        self._base = base
        if base is not None:
            self.net_names = list(base.net_names)
            self.inputs = list(base.inputs)
            self.outputs = list(base.outputs)
            self.words = {w: list(n) for w, n in base.words.items()}
            self.gates = _Appended(base)
            self.instances = dict(base.instances)
            self._by_name = dict(zip(base.net_names, range(base.n_nets)))
            self._next_gate = base.columns.ids[-1] + 1 if base.n_gates else 0

    def net(self, name: str) -> int:
        """Return the id for ``name``, creating the net if needed."""
        if name in self._by_name:
            return self._by_name[name]
        nid = len(self.net_names)
        self.net_names.append(name)
        self._by_name[name] = nid
        return nid

    def fresh(self, stem: str) -> int:
        """Create a new net with a unique name derived from ``stem``."""
        if stem not in self._by_name:
            return self.net(stem)
        k = 1
        while f"{stem}_{k}" in self._by_name:
            k += 1
        return self.net(f"{stem}_{k}")

    def pi(self, name: str) -> int:
        nid = self.net(name)
        self.inputs.append(nid)
        return nid

    def po(self, net: int):
        self.outputs.append(net)

    def word(self, name: str, nets):
        self.words[name] = list(nets)

    def instance(self, tag: str, kind_label: str, op_type: str, arch_id: str):
        self.instances[tag] = Instance(kind_label, op_type, arch_id)

    def gate(self, kind: GateKind, inputs, out: int | None = None,
             tag: str = "u", stem: str = "n") -> int:
        """Append a gate; returns its output net id."""
        if out is None:
            out = self.fresh(stem)
        self.gates.append(Gate(self._next_gate, kind, tuple(inputs), out, tag))
        self._next_gate += 1
        return out

    def build(self) -> Netlist:
        """The netlist, built on the base if this builder only appended to
        it (see the module docstring)."""
        base = self._base
        cols = gates = self.gates  # Gate objects, which the netlist sorts
        if isinstance(gates, _Appended):
            c, new = base.columns, _columns(gates.new)
            ids = [*(c.ids[-1:] or [-1]), *new.ids]
            if all(a < b for a, b in zip(ids, ids[1:])):  # past the base's
                cols = _cat([(c, None, c.tags), (new, None, new.tags)],
                            _ids([*c.ids, *new.ids]))
            else:
                cols = list(gates)
        fields = (self.net_names, self.inputs, self.outputs, self.words,
                  cols, self.instances)
        if isinstance(cols, Columns) and self._appends(base):
            try:
                return Netlist(*fields, base=base)
            except NetlistError:
                pass  # the full build raises it
        return Netlist(*fields)

    def _appends(self, base: Netlist) -> bool:
        return (tuple(self.inputs) == base.inputs
                and tuple(self.net_names[:base.n_nets]) == base.net_names
                and base.instances.keys() <= self.instances.keys())


# ---------------------------------------------------------------------------
# hierarchy


@dataclass
class ModuleInst:
    """One module instantiation inside a :class:`Design`.

    ``conn`` maps each port word of the child (its canonical input and
    output word names) to a word of the enclosing design.
    """

    name: str
    module: object
    conn: dict[str, str]


@dataclass
class Design:
    """Hierarchical composition of netlists connected through word ports."""

    name: str
    inputs: list[tuple[str, int]] = field(default_factory=list)
    outputs: list[tuple[str, int]] = field(default_factory=list)
    wires: list[tuple[str, int]] = field(default_factory=list)
    insts: list[ModuleInst] = field(default_factory=list)
    groups: list[tuple[str, list[str]]] = field(default_factory=list)


def flatten(design: Design) -> Netlist:
    """Lower a hierarchical design to a single flat netlist.

    Instance tags become hierarchical paths rooted at the design name
    (``top.mul0`` for instance ``mul0`` of a design named ``top``); a leaf
    module whose gates share one tag collapses onto the instance path.
    Each module's gates are spliced in as its columns through a map of its
    nets, numbered on in instance order.
    Raises :class:`PortMismatch` for unmapped or width-incompatible ports
    and for groups that redefine a port word, and :class:`UnknownModule` for
    instances whose module is not a :class:`Netlist`.
    """
    b, words = NetlistBuilder(), {}
    for name, width in design.inputs:
        words[name] = [b.pi(f"{name}[{i}]") for i in range(width)]
        b.word(name, words[name])
    for name, width in design.wires + design.outputs:
        words[name] = [b.net(f"{name}[{i}]") for i in range(width)]
        b.word(name, words[name])
    parts = [_place(inst, b, words, design.name) for inst in design.insts]
    for name, members in design.groups:
        b.word(name, [n for m in members for n in words[m]])
    for name, _ in design.outputs:
        for n in words[name]:
            b.po(n)
    nl = Netlist(b.net_names, b.inputs, b.outputs, b.words,
                 _cat(parts, range(sum(len(c.out) for c, _, _ in parts))),
                 b.instances)
    # a group reusing a port name would silently widen that port
    for name, width in design.inputs + design.outputs:
        if len(nl.words[name]) != width:
            raise PortMismatch(
                f"design {design.name!r}: port word {name!r} is "
                f"{len(nl.words[name])} bits, declared {width}")
    return nl


def _place(inst: ModuleInst, b: NetlistBuilder, words, root: str):
    # the child's columns, its net map and its tags' new names
    child = inst.module
    if not isinstance(child, Netlist):
        raise UnknownModule(
            f"instance {inst.name!r}: not a module: {child!r}")
    tag_path = f"{root}.{inst.name}"
    tags = set(child.instances)
    if len(tags) == 1:
        retag = {next(iter(tags)): tag_path}
    else:
        retag = {t: f"{tag_path}.{t}" for t in tags}

    ports = dict(child.input_words()) | dict(child.output_words())
    for port in inst.conn:
        if port not in ports:
            raise PortMismatch(f"instance {inst.name!r}: no port {port!r}")
    net_map: dict[int, int] = {}
    for port, bits in ports.items():
        if port not in inst.conn:
            raise PortMismatch(f"instance {inst.name!r}: port {port!r} unmapped")
        target = inst.conn[port]
        if target not in words:
            raise PortMismatch(
                f"instance {inst.name!r}: unknown word {target!r} for port {port!r}")
        if len(words[target]) != len(bits):
            raise PortMismatch(
                f"instance {inst.name!r}: port {port!r} is {len(bits)} bits, "
                f"word {target!r} is {len(words[target])}")
        for cb, pb in zip(bits, words[target]):
            net_map[cb] = pb
    nets = [net_map[n] if n in net_map else b.fresh(f"{inst.name}.{name}")
            for n, name in enumerate(child.net_names)]
    for tag, entry in child.instances.items():
        b.instance(retag[tag], entry.kind_label, entry.op_type, entry.arch_id)
    c = child.columns
    return c, np.array(nets, np.int32), [retag[t] for t in c.tags]
