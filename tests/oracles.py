"""Reference definitions the workbench is checked against.

Most are the plain, per-bit or per-column form of what :mod:`axsec.sim`
computes in fewer passes; :func:`eval_vector` is a scalar gate evaluator
with plain-int semantics, independent of the packed kernel;
:func:`rank_errors` is the error ranking's own
float-array form of what :func:`axsec.sim.error_terms` now computes;
:func:`fanin_nets` is the set walk behind the defender's one-pass cone
masks, :func:`gates_of_tag` the linear filter behind their tag bits, and
:func:`structurally_equal` compares two netlists by net name, and
:func:`same_build` a netlist derived by appending with the full build of
its fields; :func:`by_net` puts a run's rows in net id order.  They are
kept here only for the tests.
"""

from operator import attrgetter

import numpy as np

from axsec import _kernels
from axsec.errors import BadParams
from axsec.netlist import GateKind, Netlist
from axsec.sta import DelayModel, arrival_times
from axsec.textfmt import serialize_netlist

_M63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_gate_id = attrgetter("id")


def exhaustive_values(netlist: Netlist) -> dict[str, np.ndarray]:
    """Word values enumerating every input combination once (first input
    word in the low positions of the enumeration index)."""
    words = netlist.input_words()
    total_bits = sum(len(nets) for _, nets in words)
    if total_bits > 26:
        raise BadParams(f"{total_bits} input bits is too wide to enumerate")
    v = np.arange(1 << total_bits, dtype=np.int64)
    out = {}
    off = 0
    for name, nets in words:
        out[name] = (v >> off) & ((1 << len(nets)) - 1)
        off += len(nets)
    return out


def eval_vector(netlist: Netlist, word_values: dict) -> list[int]:
    """Scalar single-vector evaluation with plain-int semantics.

    ``word_values`` maps input word names to integers (missing words read as
    0).  Returns the value of every net.  Gates run in logic-level order,
    not the kernel plan's.
    """
    vals = [0] * netlist.n_nets
    for name, nets in netlist.input_words():
        v = int(word_values.get(name, 0))
        for i, b in enumerate(nets):
            vals[b] = (v >> i) & 1
    for g in sorted(netlist.gates, key=lambda g: netlist._depth[g.output]):
        ins = [vals[i] for i in g.inputs]
        k = g.kind
        if k is GateKind.AND:
            r = int(all(ins))
        elif k is GateKind.OR:
            r = int(any(ins))
        elif k is GateKind.NAND:
            r = 1 - int(all(ins))
        elif k is GateKind.NOR:
            r = 1 - int(any(ins))
        elif k is GateKind.XOR:
            r = sum(ins) & 1
        elif k is GateKind.XNOR:
            r = 1 - (sum(ins) & 1)
        elif k is GateKind.NOT:
            r = 1 - ins[0]
        elif k is GateKind.BUF:
            r = ins[0]
        elif k is GateKind.MUX2:
            r = ins[2] if ins[0] else ins[1]
        elif k is GateKind.CONST0:
            r = 0
        else:
            r = 1
        vals[g.output] = r
    return vals


def word_value(netlist: Netlist, vals, word: str) -> int:
    """Value of one word from a scalar evaluation's per-net values."""
    return sum(vals[b] << i for i, b in enumerate(netlist.words[word]))


def word_values(tr, nets) -> np.ndarray:
    """Per-vector word values of a run, unpacked and shifted bit by bit."""
    out = np.zeros(tr.n_vectors, np.int64)
    for i, net in enumerate(nets):
        out |= tr.bits(net).astype(np.int64) << i
    return out


def chunk_bits(rng, mode, rho, n, width, carry):
    """One chunk of a word's stream: the correlated scan as an index
    maximum-accumulate and a 2-D gather."""
    fresh = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
    if mode == "uniform":
        return fresh, fresh[-1].copy()
    keep = rng.random((n, width)) < rho
    if carry is None:
        keep[0] = False
    idx = np.where(keep, -1, np.arange(n, dtype=np.int64)[:, None])
    np.maximum.accumulate(idx, axis=0, out=idx)
    vals = fresh[np.maximum(idx, 0), np.arange(width)[None, :]]
    if carry is not None:
        vals = np.where(idx < 0, carry[None, :], vals)
    return vals, vals[-1].copy()


def pack_rows(bits) -> np.ndarray:
    """An ``(n, width)`` bit array as ``(width, words)`` rows: every column
    packed on its own and padded to whole words."""
    n, width = bits.shape
    rows = np.zeros((width, (n + 63) // 64), np.uint64)
    for j in range(width):
        packed = np.packbits(bits[:, j], bitorder="little")
        if packed.size % 8:
            packed = np.concatenate(
                [packed, np.zeros(8 - packed.size % 8, np.uint8)])
        rows[j] = packed.view(np.uint64)
    return rows


def pack_inputs(nl: Netlist, bits, n: int) -> np.ndarray:
    """The net array of a chunk before the kernel runs: the input rows of
    :func:`pack_rows`, every other row zero."""
    c = np.zeros((nl.n_nets, (n + 63) // 64), np.uint64)
    for name, nets in nl.input_words():
        c[nl.rows.take(nets)] = pack_rows(bits[name])
    return c


def by_net(nl: Netlist, a) -> np.ndarray:
    """A net array, or per-row counts, of ``nl`` in net id order."""
    return np.asarray(a)[nl.rows]


class ActivitySums:
    """Running ones and toggles over consecutive chunks, with the shifts
    and XORs on strided in-word and cross-word slices."""

    def __init__(self, n_nets: int):
        self.ones = np.zeros(n_nets, np.int64)
        self.tog = np.zeros(n_nets, np.int64)
        self.prev_last = None
        self.total = 0

    def add(self, tr):
        c, n, tog = tr.c, tr.n_vectors, self.tog
        self.ones += np.bitwise_count(c).sum(axis=1, dtype=np.int64)
        y = c ^ (c >> np.uint64(1))
        r = n - 64 * (c.shape[1] - 1)
        if c.shape[1] > 1:
            tog += np.bitwise_count(y[:, :-1] & _M63).sum(axis=1, dtype=np.int64)
            tog += ((c[:, :-1] >> np.uint64(63)) ^ (c[:, 1:] & np.uint64(1))) \
                .sum(axis=1, dtype=np.int64)
        if r >= 2:
            tog += np.bitwise_count(y[:, -1] & np.uint64((1 << (r - 1)) - 1)) \
                .astype(np.int64)
        first = (c[:, 0] & np.uint64(1)).astype(np.int64)
        if self.prev_last is not None:
            tog += self.prev_last ^ first
        self.prev_last = ((c[:, -1] >> np.uint64((n - 1) % 64))
                          & np.uint64(1)).astype(np.int64)
        self.total += n


def rank_errors(stacks, majorities) -> list[tuple]:
    """Per candidate, the (er, med, mred, wce) of the error ranking from
    each output word's (candidates, vectors) stack and its per-vector
    majority, in word order: per-word float means of the absolute
    difference, summed and divided by the word count (wce is the worst)."""
    er = med = mred = wce = 0.0
    for stack, maj in zip(stacks, majorities):
        ad = np.abs(stack - maj).astype(np.float64)
        er = er + (ad > 0).mean(axis=1)
        med = med + ad.mean(axis=1)
        mred = mred + (ad / np.maximum(maj, 1)).mean(axis=1)
        wce = np.maximum(wce, ad.max(axis=1))
    k = len(stacks)
    return [(float(er[i] / k), float(med[i] / k), float(mred[i] / k),
             float(wce[i])) for i in range(len(er))]


def fanin_nets(nl: Netlist, start) -> set:
    """Transitive fan-in net set of the given nets (inclusive), by a set
    walk through each net's driver."""
    seen = set()
    stack = list(start)
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        g = nl.driver(n)
        if g is not None:
            stack.extend(g.inputs)
    return seen


def gates_of_tag(nl: Netlist, tag: str) -> tuple:
    """Gates carrying ``tag`` in gate id order; () for an unknown tag."""
    return tuple(g for g in nl.gates if g.tag == tag)


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


def same_build(derived: Netlist, models=(DelayModel(),)) -> None:
    """Assert that ``derived`` equals the full build of its own fields:
    net levels, readers, drivers, signature, fanout and driver kinds,
    serialized text byte for byte, arrival times under each of ``models``
    bit for bit, and every net's value under its plan ``(nets, groups)``,
    each group ``(kind, lo, hi, arity, ins)`` with int bounds and arity
    and ``ins`` a read-only ``intp`` block of its input rows."""
    full = Netlist(derived.net_names, derived.inputs, derived.outputs,
                   derived.words, derived.gates, derived.instances)
    assert full.base is None
    assert derived._depth == full._depth
    assert sorted(derived.ordered_gates(), key=_gate_id) == list(full.gates)
    assert derived._readers == full._readers
    assert derived._driver == full._driver
    assert derived.signature() == full.signature()
    assert derived.input_words() == full.input_words()
    assert derived.output_words() == full.output_words()
    assert np.array_equal(derived.fanout_counts(), full.fanout_counts())
    assert np.array_equal(derived.driver_kinds, full.driver_kinds)
    # a derived build continues its base's schedule, so its plan may
    # group the gates, and order the rows, otherwise than the full
    # build's, but computes the same value on every net
    (dn, dg), (fn, fg) = derived.plan, full.plan
    for a, b in ((dn, fn), (derived.rows, full.rows)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert not a.flags.writeable
    assert sorted(dn.tolist()) == sorted(fn.tolist())
    assert sum(len(g[4]) for g in dg) == sum(len(g[4]) for g in fg)
    # bounds and arity are ints; ins is a read-only intp block
    for kind, lo, hi, arity, ins in dg + fg:
        assert all(type(x) is int for x in (kind, lo, hi, arity))
        assert ins.dtype == np.intp and not ins.flags.writeable
        assert len(ins) == arity * (hi - lo)
    words = np.random.default_rng(len(derived.gates)).integers(
        0, 2 ** 64, (derived.n_nets, 2), np.uint64)
    runs = []
    for nl in (derived, full):
        c = np.zeros_like(words)
        c[nl.rows.take(nl.inputs)] = words[list(nl.inputs)]
        _kernels.eval_gates(*nl.plan, c)
        runs.append(by_net(nl, c))
    assert np.array_equal(*runs)
    assert serialize_netlist(derived) == serialize_netlist(full)
    for m in models:
        assert arrival_times(derived, m).tobytes() \
            == arrival_times(full, m).tobytes()
