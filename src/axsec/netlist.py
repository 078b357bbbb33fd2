"""Gate-level netlist intermediate representation.

A :class:`Netlist` is a flat, combinational, acyclic gate graph over densely
numbered nets.  Primary inputs and outputs are ordered net lists, optionally
grouped into LSB-first words.  Every gate carries an ``instance_tag`` that maps
into an instance table describing the arithmetic module the gate belongs to
(approximate or deterministic, operator type, architecture id).  Netlists are
treated as immutable once built; analyses only read them.  To derive a modified
netlist (for example to splice extra logic into a copy), start a new
:class:`NetlistBuilder` from the existing object.

Hierarchical designs are expressed with :class:`Design` and :class:`ModuleInst`
and lowered to a flat :class:`Netlist` with :func:`flatten`, which rewrites
instance tags into hierarchical paths such as ``top.mul0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from operator import attrgetter

from . import _kernels
from .errors import (
    CycleError,
    PortMismatch,
    SemanticError,
    UnknownModule,
)


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


class Netlist:
    """Flat combinational gate graph.  Build via :class:`NetlistBuilder`;
    raises :class:`CycleError`, carrying the net ids of one loop, on cycles.

    :param net_names: net name per dense net id.
    :param inputs: ordered primary input net ids.
    :param outputs: ordered primary output net ids.
    :param words: word name -> LSB-first tuple of net ids.
    :param gates: gate list (any order; ids unique).
    :param instances: instance_tag -> :class:`Instance`.
    """

    def __init__(self, net_names, inputs, outputs, words, gates, instances):
        self.net_names = tuple(net_names)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.words = {w: tuple(nets) for w, nets in words.items()}
        self.gates = tuple(sorted(gates, key=lambda g: g.id))
        self.instances = dict(instances)
        self._net_id = {n: i for i, n in enumerate(self.net_names)}
        self._validate()

    # -- accessors ---------------------------------------------------------

    @property
    def n_nets(self):
        return len(self.net_names)

    def net_id(self, name):
        return self._net_id[name]

    def gate_by_id(self, gid):
        return self._gate_by_id[gid]

    def driver(self, net):
        """Gate driving ``net`` or None for primary inputs."""
        gid = self._driver[net]
        return None if gid < 0 else self._gate_by_id[gid]

    def readers(self, net):
        """Gates reading ``net``, each listed once, in gate id order."""
        return self._readers[net]

    def fanout_counts(self):
        """Number of gate input pins fed by each net."""
        return self._fanout

    @cached_property
    def _fanout(self):
        return tuple(sum(g.inputs.count(n) for g in gates)
                     for n, gates in enumerate(self._readers))

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
        ins, outs = self._grouped(self.inputs), self._grouped(self.outputs)
        return ins, outs, tuple(tuple((w, len(b)) for w, b in words)
                                for words in (ins, outs))

    def _grouped(self, nets):
        net_set = set(nets)
        owner = {}
        for name, bits in self.words.items():
            if all(b in net_set for b in bits):
                for b in bits:
                    owner.setdefault(b, name)
        out, seen = [], set()
        for n in nets:
            w = owner.get(n)
            if w is None:
                out.append((self.net_names[n], (n,)))
            elif w not in seen:
                seen.add(w)
                out.append((w, self.words[w]))
        return tuple(out)

    def gates_of_tag(self, tag):
        """Gates carrying ``tag`` in gate id order; () for an unknown tag."""
        return self._by_tag.get(tag, ())

    @cached_property
    def _by_tag(self):
        index = {}
        for g in self.gates:
            index.setdefault(g.tag, []).append(g)
        return {t: tuple(gs) for t, gs in index.items()}

    # -- invariants --------------------------------------------------------

    def _validate(self):
        seen = set()
        for n in self.net_names:
            if not n or n.split() != [n] or n.startswith("#"):
                raise SemanticError(f"bad net name {n!r}")
            if n in seen:
                raise SemanticError(f"duplicate net name {n!r}")
            seen.add(n)
        self._gate_by_id = {}
        driver = [-1] * self.n_nets
        for g in self.gates:
            if g.id in self._gate_by_id:
                raise SemanticError(f"duplicate gate id {g.id}")
            self._gate_by_id[g.id] = g
            lo, hi = ARITY[g.kind]
            if len(g.inputs) < lo or (hi is not None and len(g.inputs) > hi):
                raise SemanticError(
                    f"gate {g.id}: {g.kind.name} cannot take {len(g.inputs)} inputs")
            for i in (*g.inputs, g.output):
                if not 0 <= i < self.n_nets:
                    raise SemanticError(f"gate {g.id}: unknown net id {i}")
            if driver[g.output] >= 0:
                raise SemanticError(
                    f"net {self.net_names[g.output]!r} has two drivers")
            driver[g.output] = g.id
            if g.tag not in self.instances:
                raise SemanticError(
                    f"gate {g.id}: tag {g.tag!r} missing from instance table")
        self._driver = tuple(driver)
        inputs = set(self.inputs)
        if len(inputs) != len(self.inputs):
            raise SemanticError("repeated primary input")
        for n in self.inputs:
            if driver[n] >= 0:
                raise SemanticError(
                    f"primary input {self.net_names[n]!r} is gate-driven")
        for n in range(self.n_nets):
            if driver[n] < 0 and n not in inputs:
                raise SemanticError(f"net {self.net_names[n]!r} is undriven")
        for w, bits in self.words.items():
            if not bits:
                raise SemanticError(f"empty word {w!r}")
        for tag, inst in self.instances.items():
            if inst.kind_label not in KIND_LABELS:
                raise SemanticError(f"instance {tag!r}: bad kind {inst.kind_label!r}")
        self._levels, self._readers = self._levelize(driver)
        self._ordered = tuple(g for level in self._levels for g in level)

    def _levelize(self, driver):
        # Kahn's sort one level at a time; pending keeps gate id order, so
        # a loop is reported from the lowest stuck gate
        readers = [[] for _ in range(self.n_nets)]
        pending, level = {}, []
        for g in self.gates:
            n = 0
            for i in set(g.inputs):
                readers[i].append(g)
                n += driver[i] >= 0
            if n:
                pending[g.id] = n
            else:
                level.append(g)
        levels = []
        while level:
            levels.append(tuple(level))
            level = []
            for g in levels[-1]:
                for r in readers[g.output]:
                    pending[r.id] -= 1
                    if not pending[r.id]:
                        del pending[r.id]
                        level.append(r)
            level.sort(key=attrgetter("id"))
        if pending:
            raise CycleError(self._find_cycle(pending))
        return tuple(levels), tuple(map(tuple, readers))

    # -- orders ------------------------------------------------------------

    def levels(self):
        """Gates by logic level, lowest id first: a gate sits one level above
        its highest driver, so gates of one level never read each other."""
        return self._levels

    def ordered_gates(self):
        """The gates of :meth:`levels`, level after level."""
        return self._ordered

    def topo_order(self):
        """Gate ids in :meth:`levels` order, so every gate follows the
        drivers of its inputs."""
        return tuple(g.id for g in self._ordered)

    @cached_property
    def plan(self):
        """The kernel plan of :func:`axsec._kernels.plan`, built once."""
        return _kernels.plan(self._levels)

    def _find_cycle(self, pending):
        # Walk drivers inside the stuck subgraph until a gate repeats.
        gid = next(iter(pending))
        seen = {}
        path = []
        while gid not in seen:
            seen[gid] = len(path)
            path.append(gid)
            g = self._gate_by_id[gid]
            gid = next(self._driver[i] for i in g.inputs
                       if self._driver[i] in pending or self._driver[i] in seen)
        loop = path[seen[gid]:]
        return [self._gate_by_id[x].output for x in loop]

    # -- cone queries ------------------------------------------------------

    def fanin_nets(self, start):
        """Transitive fan-in net set of the given nets (inclusive)."""
        seen = set()
        stack = list(start)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            g = self.driver(n)
            if g is not None:
                stack.extend(g.inputs)
        return seen

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
        # one topological pass ORs each gate's input masks
        masks = [0] * self.n_nets
        for i, (_, bits) in enumerate(self.input_words()):
            for b in bits:
                masks[b] |= 1 << i
        for g in self._ordered:
            m = 0
            for i in g.inputs:
                m |= masks[i]
            masks[g.output] = m
        return masks

    def __repr__(self):
        return (f"Netlist({len(self.gates)} gates, {self.n_nets} nets, "
                f"{len(self.inputs)} PI, {len(self.outputs)} PO)")


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """True when two netlists are identical up to net-id renumbering.

    Comparison is by net name: the same I/O name sequences, words, gates
    (id, kind, input names, output name, tag) and instance tables.
    """
    def names(nl, ids):
        return tuple(nl.net_names[i] for i in ids)

    if names(a, a.inputs) != names(b, b.inputs):
        return False
    if names(a, a.outputs) != names(b, b.outputs):
        return False
    if set(a.words) != set(b.words):
        return False
    if any(names(a, a.words[w]) != names(b, b.words[w]) for w in a.words):
        return False
    if a.instances != b.instances:
        return False
    if len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if (ga.id, ga.kind, ga.tag) != (gb.id, gb.kind, gb.tag):
            return False
        if names(a, ga.inputs) != names(b, gb.inputs):
            return False
        if a.net_names[ga.output] != b.net_names[gb.output]:
            return False
    return True


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
        if base is not None:
            self.net_names = list(base.net_names)
            self.inputs = list(base.inputs)
            self.outputs = list(base.outputs)
            self.words = {w: list(n) for w, n in base.words.items()}
            self.gates = list(base.gates)
            self.instances = dict(base.instances)
            self._by_name = dict(base._net_id)
            self._next_gate = 1 + max((g.id for g in base.gates), default=-1)

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
        return Netlist(self.net_names, self.inputs, self.outputs,
                       self.words, self.gates, self.instances)


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
    instances that are not modules.
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
    # Nested designs are expanded by _place via a recursive flatten, so this
    # only ever runs for the root.
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
        _place(inst, b, words, [design.name])
    for name, members in design.groups:
        nets = [n for m in members for n in words[m]]
        b.word(name, nets)
    for name, _ in design.outputs:
        for n in words[name]:
            b.po(n)


def _place(inst: ModuleInst, b: NetlistBuilder, words, path):
    tag_path = ".".join(path + [inst.name])
    mod = inst.module
    if isinstance(mod, Design):
        child = flatten(mod)
        # strip the child's own root name from its hierarchical tags
        strip = mod.name + "."
        retag = {t: tag_path + "." + t[len(strip):] if t.startswith(strip)
                 else tag_path + "." + t for t in child.instances}
    elif isinstance(mod, Netlist):
        child = mod
        tags = set(child.instances)
        if len(tags) == 1:
            retag = {next(iter(tags)): tag_path}
        else:
            retag = {t: f"{tag_path}.{t}" for t in tags}
    else:
        raise UnknownModule(f"instance {inst.name!r}: not a module: {mod!r}")

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
