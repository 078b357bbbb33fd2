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
its fields; :func:`flatten` lowers a design through one builder call per
gate, where the package splices each module's gate columns, and
:func:`same_fields` compares two builds field by field; :func:`by_net` puts a run's rows in net id order;
:func:`pareto_pool` peels fronts over every assignment's sums, the full
product the variant pool now builds slot by slot; :func:`verify_stealth`
profiles the clean and the infected netlist in two full runs, where the
package runs an infected netlist's appended gates on its host's run;
:func:`stress_values` fills the stress step's replay third one value at a
time, where the package indexes each word's ranked values, and draws every
job's thirds from a fresh rng of its tag, where the package draws them once
per (tag, cone); :func:`stress_union` fills every job's slice that way and
:func:`stress_scores` simulates every candidate on the whole union, where
the package simulates the union's distinct vectors and gathers back.
They are kept here only for the tests.
"""

from operator import attrgetter

import zlib

import numpy as np

from axsec import _kernels
from axsec.attack import StealthReport
from axsec.detect import (_cone_masks, _consensus, _output_values,
                          _rank_combos, _replay_groups)
from axsec.errors import (BadParams, PortMismatch, SignatureMismatch,
                          UnknownModule)
from axsec.netlist import GateKind, Netlist, NetlistBuilder
from axsec.sim import (activity_and_error, pack, power_proxy, power_ratio,
                       simulate, sub_rng)
from axsec.sta import DelayModel, arrival_times, slacks
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
    """Per-vector word values of a run: each net's row of packed words
    unpacked on its own and shifted in bit by bit."""
    out = np.zeros(tr.n_vectors, np.int64)
    for i, net in enumerate(nets):
        bits = np.unpackbits(tr.c[tr.netlist.rows[net]].view(np.uint8),
                             bitorder="little")[:tr.n_vectors]
        out |= bits.astype(np.int64) << i
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


def ordered_gates(nl: Netlist) -> tuple:
    """The gates in kernel plan order, each made by ``driver``."""
    return tuple(map(nl.driver, nl.plan[0].tolist()))


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


def flatten(design) -> Netlist:
    """:func:`axsec.netlist.flatten` with every module gate emitted through
    :meth:`~axsec.netlist.NetlistBuilder.gate`."""
    b = NetlistBuilder()
    words = {}
    for name, width in design.inputs:
        words[name] = [b.pi(f"{name}[{i}]") for i in range(width)]
        b.word(name, words[name])
    for name, width in design.wires + design.outputs:
        words[name] = [b.net(f"{name}[{i}]") for i in range(width)]
        b.word(name, words[name])
    for inst in design.insts:
        _place(inst, b, words, design.name)
    for name, members in design.groups:
        b.word(name, [n for m in members for n in words[m]])
    for name, _ in design.outputs:
        for n in words[name]:
            b.po(n)
    nl = b.build()
    for name, width in design.inputs + design.outputs:
        if len(nl.words[name]) != width:
            raise PortMismatch(
                f"design {design.name!r}: port word {name!r} is "
                f"{len(nl.words[name])} bits, declared {width}")
    return nl


def _place(inst, b, words, root):
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
    net_map = {}
    for port, bits in ports.items():
        if port not in inst.conn:
            raise PortMismatch(
                f"instance {inst.name!r}: port {port!r} unmapped")
        target = inst.conn[port]
        if target not in words:
            raise PortMismatch(f"instance {inst.name!r}: unknown word "
                               f"{target!r} for port {port!r}")
        if len(words[target]) != len(bits):
            raise PortMismatch(
                f"instance {inst.name!r}: port {port!r} is {len(bits)} "
                f"bits, word {target!r} is {len(words[target])}")
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


def same_fields(got: Netlist, want: Netlist) -> None:
    """Assert that two netlists agree in every field: net names, I/O,
    words in order, instances, gates through the view, levels, plan and
    row map."""
    assert got.net_names == want.net_names
    assert (got.inputs, got.outputs) == (want.inputs, want.outputs)
    assert list(got.words.items()) == list(want.words.items())
    assert list(got.instances.items()) == list(want.instances.items())
    assert got.gates == want.gates
    assert np.array_equal(got._depth, want._depth)
    (gn, gg), (wn, wg) = got.plan, want.plan
    assert np.array_equal(gn, wn) and np.array_equal(got.rows, want.rows)
    assert [g[:4] for g in gg] == [g[:4] for g in wg]
    assert all(np.array_equal(a[4], b[4]) for a, b in zip(gg, wg))


def same_build(derived: Netlist, models=(DelayModel(),)) -> None:
    """Assert that ``derived`` equals the full build of its own fields:
    net levels, drivers, signature, fanout, driver kinds, input word
    support masks,
    serialized text byte for byte, arrival times under each of ``models``
    bit for bit, and every net's value under its plan ``(nets, groups)``,
    each group ``(kind, lo, hi, arity, ins)`` with int bounds and arity
    and ``ins`` a read-only ``intp`` block of its input rows."""
    full = Netlist(derived.net_names, derived.inputs, derived.outputs,
                   derived.words, derived.gates, derived.instances)
    assert full.base is None
    assert np.array_equal(derived._depth, full._depth)
    assert sorted(ordered_gates(derived), key=_gate_id) == list(full.gates)
    assert list(map(derived.driver, range(derived.n_nets))) \
        == list(map(full.driver, range(full.n_nets)))
    assert derived.signature() == full.signature()
    assert derived.input_words() == full.input_words()
    assert derived.output_words() == full.output_words()
    assert np.array_equal(derived.fanout_counts(), full.fanout_counts())
    assert np.array_equal(derived.live, full.live)
    assert np.array_equal(derived._support_masks, full._support_masks)
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


def pareto_pool(E, P, cap):
    """Indices grouped into successive non-dominated fronts (minimising
    both), each front ordered by (E, P, index), until ``cap`` collected:
    the least-P entries of each equal-E run whose P beats all earlier runs."""
    order = np.lexsort((P, E))  # stable: by (E, P, index)
    pool = []
    front = 0
    while order.size and len(pool) < cap:  # what a front leaves stays sorted
        e, p = E[order], P[order]
        starts = np.r_[True, e[1:] != e[:-1]]
        gmin = p[starts]
        on_front = np.r_[True, gmin[1:] < np.minimum.accumulate(gmin)[:-1]]
        run = np.cumsum(starts) - 1
        keep = on_front[run] & (p == gmin[run])
        pool.extend((front, int(ix)) for ix in order[keep])
        order = order[~keep]
        front += 1
    return pool


def product_sums(menus):
    """Every assignment's (E, P) sums from (k, 2) slot menus of (e, p),
    added slot by slot in C order."""
    E = P = np.zeros(1)
    for e, p in (np.asarray(m).T for m in menus):
        E = (E[:, None] + e[None, :]).ravel()
        P = (P[:, None] + p[None, :]).ravel()
    return E, P


def verify_stealth(clean, infected, ht, reference, stream, clock=None,
                   model=None):
    """:func:`axsec.attack.verify_stealth` with each netlist profiled in
    its own full run, one :func:`~axsec.sim.activity_and_error` pass each."""
    if clean.signature() != infected.signature():
        raise SignatureMismatch("clean and infected netlists disagree on "
                                "primary I/O words")
    net = ht.trigger_net
    if not any(net in g.inputs and g.tag in ht.host_instances
               for g in infected.gates):
        raise BadParams(f"trigger net {net} is not read by a host gate "
                        f"{ht.host_instances} of the infected netlist")
    error_delta = power_delta = rate = min_slack = None
    if stream is not None:
        (act_c, err_c), (act_i, err_i) = (
            activity_and_error(nl, reference, stream)
            for nl in (clean, infected))
        if err_c is not None:
            error_delta = err_i.mred - err_c.mred
        power_delta = power_ratio(power_proxy(infected, act_i),
                                  power_proxy(clean, act_c)) - 1.0
        rate = float(act_i.p1[net])
    if clock is not None:
        s = slacks(infected, model or DelayModel(), clock)
        s = s[np.isfinite(s)]
        min_slack = float(s.min()) if s.size else None
    return StealthReport(error_delta, power_delta, rate, min_slack)


def stress_values(nl, tag, vals, profile, rng):
    """:func:`axsec.detect._stress_values` with the replay third written
    one vector and one word at a time."""
    words = dict(nl.input_words())
    masks, bit = nl.memo(_cone_masks), 1 << sorted(nl.instances).index(tag)
    cone = [w for w in sorted(words) if any(masks[b] & bit for b in words[w])]
    budget = len(next(iter(vals.values())))
    b1 = b2 = budget // 3
    lo = b1 + b2
    b3 = budget - lo
    for w in cone:
        wl = len(words[w])
        half = max(1, wl // 2)
        vals[w][:b1] = rng.integers(0, 1 << half, b1)
        vals[w][b1:lo] = ((1 << wl) - (1 << half)
                          + rng.integers(0, 1 << half, b2))
    groups = _replay_groups(profile, masks, bit)
    if groups and b3:
        combos = _rank_combos(tuple(len(r) for _, r in groups), b3)
        for r in range(b3):
            combo = combos[r % len(combos)]
            for (sup, ranked), idx in zip(groups, combo):
                for w, v in ranked[idx].items():
                    vals[w][lo + r] = v
    elif b3:
        for w in cone:
            vals[w][lo:] = rng.integers(0, 1 << len(words[w]), b3)


def stress_union(cands, jobs, profiles, config) -> dict:
    """The stress step's union of word values: job j's slice ``[j *
    budget, (j + 1) * budget)`` filled by :func:`stress_values` from a
    fresh rng of its tag."""
    budget, words = config.stress_budget, cands[0][1].signature()[0]
    vals = {w: np.zeros(len(jobs) * budget, np.int64) for w, _ in words}
    for j, (idx, tag) in enumerate(jobs):
        rng = sub_rng(config.seed, 0xE51, zlib.crc32(tag.encode()))
        stress_values(cands[idx][1], tag,
                      {w: v[j * budget:(j + 1) * budget]
                       for w, v in vals.items()}, profiles[idx], rng)
    return vals


def stress_scores(cands, jobs, vals, config) -> list:
    """:func:`axsec.detect._stress_scores` of the union ``vals``, its
    slices of ``config.stress_budget`` vectors in job order, with every
    candidate simulated on the whole union and the consensus taken over
    every vector, repeats and all."""
    if not jobs:
        return []
    budget = config.stress_budget
    stim = pack(cands[0][1].signature()[0], vals)
    rows = [_output_values(simulate(nl, stim)) for _, nl in cands]
    deviating = np.zeros((len(cands), len(jobs) * budget), bool)
    for stack, maj, tol in _consensus(cands, rows, config.dev_tol):
        deviating |= np.abs(stack - maj) > tol
    return [float(1.0 - deviating[idx, j * budget:(j + 1) * budget].mean())
            for j, (idx, _) in enumerate(jobs)]
