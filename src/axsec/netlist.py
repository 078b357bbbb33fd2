"""Gate-level netlist intermediate representation.

A :class:`Netlist` is a flat, combinational, acyclic gate graph over densely
numbered nets.  Primary inputs and outputs are ordered net lists, optionally
grouped into LSB-first words.  Every gate carries an ``instance_tag`` that maps
into an instance table describing the arithmetic module the gate belongs to
(approximate or deterministic, operator type, architecture id).  Netlists are
treated as immutable once built; analyses only read them.  To derive a modified
netlist (for example to splice extra logic into a copy), start a new
:class:`NetlistBuilder` from the existing object.

A builder that only appended nets, instances and gates with ids above the
base's, and maybe moved outputs and words, builds on its base (kept as
:attr:`Netlist.base`): it checks the new parts only and extends the base's
per-net tables and kernel plan.  Its appended gates also have a plan of
their own over the base's rows (:attr:`Netlist.suffix`), which runs them
on a run of the base and over which its fanout, live mask, support masks
and arrival times extend the base's.  Any other change, or a failed
check, builds in full, so every error comes from the full build.

Hierarchical designs are expressed with :class:`Design` and :class:`ModuleInst`
and lowered to a flat :class:`Netlist` with :func:`flatten`, which rewrites
instance tags into hierarchical paths such as ``top.mul0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter

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


@dataclass(frozen=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    tag: str


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
    :param gates: gate list (any order; ids unique).
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
        self.gates = tuple(sorted(gates, key=attrgetter("id")))
        self.instances = dict(instances)
        self.base = base
        self._validate()

    # -- accessors ---------------------------------------------------------

    @property
    def n_nets(self):
        return len(self.net_names)

    def driver(self, net):
        """The :class:`Gate` driving ``net``, None for a primary input."""
        return self._driver[net]

    def fanout_counts(self):
        """Read-only ``int64`` array: the gate input pins fed by each net."""
        return self._fanout

    @cached_property
    def _fanout(self):
        base = self.base
        pins = [i for g in self.gates[len(base.gates) if base else 0:]
                for i in g.inputs]
        fanout = np.bincount(pins, minlength=self.n_nets)
        if base:
            fanout[:base.n_nets] += base._fanout
        fanout.flags.writeable = False
        return fanout

    @cached_property
    def live(self):
        """Read-only per-net mask: the driver is a gate other than CONST0
        and CONST1, so a trigger may tap the net and a screen flag it."""
        base = self.base
        (_, groups), rows = self.suffix if base else (self.plan, self.rows)
        live = np.zeros(self.n_nets, bool)  # per row
        if base:
            live[base.rows] = base.live
        for kind, lo, hi, _, _ in groups:
            live[lo:hi] = kind not in (GateKind.CONST0, GateKind.CONST1)
        live = live[rows]
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
        # only what lies past a base is checked, and its tables extended
        base = self.base
        n0, k0 = (base.n_nets, len(base.gates)) if base else (0, 0)
        seen = set(self.net_names[:n0])
        for n in self.net_names[n0:]:
            if _bad_name(n):
                raise SemanticError(f"bad net name {n!r}")
            if n in seen:
                raise SemanticError(f"duplicate net name {n!r}")
            seen.add(n)
        driver = list(base._driver) if base else []
        driver += [None] * (self.n_nets - n0)
        last = self.gates[k0 - 1].id if k0 else None  # ids are sorted
        for g in self.gates[k0:]:
            if g.id == last:
                raise SemanticError(f"duplicate gate id {g.id}")
            last = g.id
            lo, hi = ARITY[g.kind]
            if len(g.inputs) < lo or (hi is not None and len(g.inputs) > hi):
                raise SemanticError(
                    f"gate {g.id}: {g.kind.name} cannot take {len(g.inputs)} inputs")
            for i in (*g.inputs, g.output):
                if not 0 <= i < self.n_nets:
                    raise SemanticError(f"gate {g.id}: unknown net id {i}")
            if driver[g.output] is not None:
                raise SemanticError(
                    f"net {self.net_names[g.output]!r} has two drivers")
            driver[g.output] = g
            if g.tag not in self.instances:
                raise SemanticError(
                    f"gate {g.id}: tag {g.tag!r} missing from instance table")
        self._driver = tuple(driver)
        for n in (*self.inputs, *self.outputs, *chain(*self.words.values())):
            if not 0 <= n < self.n_nets:
                raise SemanticError(f"interface: unknown net id {n}")
        inputs = set(self.inputs)
        if len(inputs) != len(self.inputs):
            raise SemanticError("repeated primary input")
        for n in self.inputs:
            if driver[n] is not None:
                raise SemanticError(
                    f"primary input {self.net_names[n]!r} is gate-driven")
        for n in range(n0, self.n_nets):
            if driver[n] is None and n not in inputs:
                raise SemanticError(f"net {self.net_names[n]!r} is undriven")
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
        self._depth = self._levelize(driver, self.gates[k0:])

    def _levelize(self, driver, new):
        # per net, its driver's level (-1: an input): Kahn's sort of the
        # ``new`` gates, each one above its highest driver once its last
        # new driver is levelled (a pin at a time: a gate reading a net
        # twice waits for it twice); pending keys gate outputs in gate id
        # order, so a loop is reported from the lowest stuck gate
        base = self.base
        depth = list(base._depth) if base else []
        depth += [-1 if d is None else None for d in driver[len(depth):]]
        readers = {g.output: [] for g in new}  # of the new gates' outputs
        pending, ready = {}, []
        for g in new:
            n = 0
            for i in g.inputs:
                if depth[i] is None:  # driven by a new gate
                    readers[i].append(g)
                    n += 1
            if n:
                pending[g.output] = n
            else:
                ready.append(g)
        for g in ready:  # grows as gates are levelled
            lv = 0
            for i in g.inputs:
                if depth[i] >= lv:
                    lv = depth[i] + 1
            depth[g.output] = lv
            for r in readers[g.output]:
                pending[r.output] -= 1
                if not pending[r.output]:
                    del pending[r.output]
                    ready.append(r)
        if pending:
            raise CycleError(self._find_cycle(pending))
        return tuple(depth)

    # -- orders ------------------------------------------------------------

    def ordered_gates(self):
        """Gates in kernel plan order: scheduled level after scheduled
        level, a gate above its drivers, so it follows the drivers of its
        inputs and gates of one level never read each other."""
        return self._ordered

    @cached_property
    def _ordered(self):
        return tuple(map(self._driver.__getitem__, self.plan[0].tolist()))

    @property
    def plan(self):
        """The kernel plan ``(nets, groups)`` of
        :func:`axsec._kernels.extend`, built once and extended from a
        :attr:`base`'s: the output net of each gate row, and per group its
        kind, row bounds ``lo:hi``, arity and block of input rows; its
        arrays are read-only."""
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
            self.gates[len(base.gates) if base else 0:], self._depth,
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
            _kernels.EMPTY, self.gates[len(base.gates):], self._depth,
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
            net = next(i for i in self._driver[net].inputs if i in pending)
        return list(path)[path[net]:]

    # -- cone queries ------------------------------------------------------

    def input_word_support(self, nets):
        """Names of input words that can influence the given nets, in
        :meth:`input_words` order: those with a bit in the nets' fan-in
        cone."""
        masks = self._support_masks
        m = 0
        for n in nets:
            m |= masks[n]
        return tuple(name for i, (name, _) in enumerate(self.input_words())
                     if m >> i & 1)

    @cached_property
    def _support_masks(self):
        # bit i of a net's mask: the i-th input word reaches the net;
        # one topological pass ORs each gate's input masks, past a base
        # on the same input words over the appended gates alone
        base = self.base
        if base and self.input_words() == base.input_words():
            masks = [*base._support_masks, *[0] * (self.n_nets - base.n_nets)]
            gates = map(self._driver.__getitem__, self.suffix[0][0].tolist())
        else:
            masks = [0] * self.n_nets
            for i, (_, bits) in enumerate(self.input_words()):
                for b in bits:
                    masks[b] |= 1 << i
            gates = self.ordered_gates()
        for g in gates:
            m = 0
            for i in g.inputs:
                m |= masks[i]
            masks[g.output] = m
        return masks

    def __repr__(self):
        return (f"Netlist({len(self.gates)} gates, {self.n_nets} nets, "
                f"{len(self.inputs)} PI, {len(self.outputs)} PO)")


class NetlistBuilder:
    """Incremental netlist construction with automatic net numbering.

    Optionally seeded from an existing netlist, in which case all nets,
    gates, words and instances are copied and may be extended; this is the
    supported way to derive a modified copy of an immutable netlist.
    """

    def __init__(self, base: Netlist | None = None):
        self.net_names: list[str] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.words: dict[str, list[int]] = {}
        self.gates: list[Gate] = []
        self.instances: dict[str, Instance] = {}
        self._by_name: dict[str, int] = {}
        self._next_gate = 0
        self._base = base
        if base is not None:
            self.net_names = list(base.net_names)
            self.inputs = list(base.inputs)
            self.outputs = list(base.outputs)
            self.words = {w: list(n) for w, n in base.words.items()}
            self.gates = list(base.gates)
            self.instances = dict(base.instances)
            self._by_name = dict(zip(base.net_names, range(base.n_nets)))
            self._next_gate = 1 + (base.gates[-1].id if base.gates else -1)

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
        fields = (self.net_names, self.inputs, self.outputs, self.words,
                  self.gates, self.instances)
        base = self._base
        if base is not None and self._appends(base):
            try:
                return Netlist(*fields, base=base)
            except NetlistError:
                pass  # the full build raises it
        return Netlist(*fields)

    def _appends(self, base: Netlist) -> bool:
        k = len(base.gates)
        ids = [base.gates[-1].id if k else -1, *(g.id for g in self.gates[k:])]
        return (tuple(self.inputs) == base.inputs
                and all(a < b for a, b in zip(ids, ids[1:]))
                and tuple(self.gates[:k]) == base.gates
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
    Raises :class:`PortMismatch` for unmapped or width-incompatible ports
    and for groups that redefine a port word, and :class:`UnknownModule` for
    instances whose module is not a :class:`Netlist`.
    """
    b = NetlistBuilder()
    _emit(design, b)
    nl = b.build()
    # a group reusing a port name would silently widen that port
    for name, width in design.inputs + design.outputs:
        if len(nl.words[name]) != width:
            raise PortMismatch(
                f"design {design.name!r}: port word {name!r} is "
                f"{len(nl.words[name])} bits, declared {width}")
    return nl


def _emit(design: Design, b: NetlistBuilder):
    words: dict[str, list[int]] = {}
    for name, width in design.inputs:
        nets = [b.pi(f"{name}[{i}]") for i in range(width)]
        b.word(name, nets)
        words[name] = nets
    for name, width in design.wires + design.outputs:
        nets = [b.net(f"{name}[{i}]") for i in range(width)]
        b.word(name, nets)
        words[name] = nets
    for inst in design.insts:
        _place(inst, b, words, design.name)
    for name, members in design.groups:
        nets = [n for m in members for n in words[m]]
        b.word(name, nets)
    for name, _ in design.outputs:
        for n in words[name]:
            b.po(n)


def _place(inst: ModuleInst, b: NetlistBuilder, words, root: str):
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
    for n in range(child.n_nets):
        if n not in net_map:
            net_map[n] = b.fresh(f"{inst.name}.{child.net_names[n]}")
    for tag, entry in child.instances.items():
        b.instance(retag[tag], entry.kind_label, entry.op_type, entry.arch_id)
    for g in child.gates:
        b.gate(g.kind, [net_map[i] for i in g.inputs], net_map[g.output],
               tag=retag[g.tag])
