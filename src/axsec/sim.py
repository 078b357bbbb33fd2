"""Vector streams, bit-parallel simulation and activity/error profiling.

Simulation packs 64 test vectors into each machine word and evaluates the
gate graph once per 64-vector slice through the levelized kernel in
:mod:`axsec._kernels`.  A slow scalar evaluator (:func:`eval_vector`) with
plain-int semantics is kept as an independent reference and for single-vector
replay.

Streams are pseudo-random and fully determined by ``(seed, mode, n_vectors)``
plus the ordered input word widths of the netlist under test.  Values are
always drawn in fixed :data:`CHUNK`-sized slices with one generator per input
word, so the same stream is produced no matter how a consumer batches the run
and regardless of any other words present.  A stream that fits in one chunk
is generated once per input signature and reused read-only
(:func:`_single_chunk_bits`); longer streams are generated lazily.

Every error figure of the workbench folds :func:`error_sums` and its one
MRED term :func:`relative_error`; seed salting (:func:`sub_seed`) and
stream identity (:func:`stream_key`) are owned here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import BadParams, BadThreshold
from .netlist import GateKind, Netlist

#: fixed generation granularity (in vectors); a multiple of 64 so packed
#: chunks concatenate without bit shifting
CHUNK = 1 << 16

STREAM_MODES = ("uniform", "correlated")


@dataclass(frozen=True)
class VectorStream:
    """Specification of a reproducible input stream.

    In ``correlated`` mode every input bit repeats its previous value with
    probability ``rho`` and is redrawn uniformly otherwise, which leaves the
    per-vector marginal distribution uniform but makes consecutive vectors
    sticky (fewer toggles).
    """

    n_vectors: int
    seed: int = 0
    mode: str = "uniform"
    rho: float = 0.9

    def __post_init__(self):
        if self.mode not in STREAM_MODES:
            raise BadParams(f"unknown stream mode {self.mode!r}")
        if self.n_vectors <= 0:
            raise BadParams("n_vectors must be positive")
        if self.seed < 0:
            raise BadParams(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.rho <= 1.0:
            raise BadParams("rho must be within [0, 1]")


def stream_key(stream) -> tuple:
    """Identity of a stream, so measurements taken under different streams
    are not mixed."""
    if isinstance(stream, VectorStream):
        return (stream.n_vectors, stream.seed, stream.mode, stream.rho)
    return ("bits", id(stream))


def sub_seed(seed: int, *salt) -> int:
    """Independent child seed of ``seed`` for the given salt values."""
    return int(np.random.SeedSequence((seed,) + salt).generate_state(1)[0])


def _chunk_bits(rng, mode, rho, n, width, carry):
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


def _stream_chunks(stream, words):
    """Yield (start, n, bits) chunks of a :class:`VectorStream`, generated
    lazily one :data:`CHUNK` at a time."""
    rngs = [np.random.default_rng(np.random.SeedSequence((stream.seed, i)))
            for i in range(len(words))]
    carry = [None] * len(words)
    for start in range(0, stream.n_vectors, CHUNK):
        n = min(CHUNK, stream.n_vectors - start)
        bits = {}
        for i, (name, width) in enumerate(words):
            bits[name], carry[i] = _chunk_bits(
                rngs[i], stream.mode, stream.rho, n, width, carry[i])
        yield start, n, bits


@lru_cache(maxsize=2)
def _single_chunk_bits(stream, words):
    """Read-only bits of a stream that fits in one chunk, generated once
    per (stream, input words).  Two entries cover the usual alternation
    (the defender's two profiling streams, a clean and an infected run)."""
    (_, _, bits), = _stream_chunks(stream, words)
    for arr in bits.values():
        arr.flags.writeable = False
    return bits


def _bits_chunks(source, words):
    """Yield (start, n, {word: (n, width) uint8}) chunks from a stream or a
    prebuilt dict of bit arrays."""
    if isinstance(source, VectorStream):
        if source.n_vectors <= CHUNK:
            yield 0, source.n_vectors, dict(_single_chunk_bits(source, words))
        else:
            yield from _stream_chunks(source, words)
        return
    for name, width in words:
        if name not in source:
            raise BadParams(f"missing bits for input word {name!r}")
    total = len(next(iter(source.values()))) if source else 0
    for start in range(0, total, CHUNK):
        n = min(CHUNK, total - start)
        yield start, n, {w: source[w][start:start + n] for w, _ in words}


def exhaustive_bits(netlist: Netlist) -> dict[str, np.ndarray]:
    """Bit arrays enumerating every input combination once (first input word
    in the low positions of the enumeration index)."""
    words = netlist.input_words()
    total_bits = sum(len(nets) for _, nets in words)
    if total_bits > 26:
        raise BadParams(f"{total_bits} input bits is too wide to enumerate")
    v = np.arange(1 << total_bits, dtype=np.uint64)
    out = {}
    off = 0
    for name, nets in words:
        w = len(nets)
        out[name] = ((v[:, None] >> np.arange(off, off + w, dtype=np.uint64))
                     & np.uint64(1)).astype(np.uint8)
        off += w
    return out


# ---------------------------------------------------------------------------
# packed simulation


class Traces:
    """Packed per-net values for a simulated run (vector t lives at bit
    ``t % 64`` of word ``t // 64``)."""

    def __init__(self, netlist: Netlist, c: np.ndarray, n_vectors: int):
        self.netlist = netlist
        self.c = c
        self.n_vectors = n_vectors

    def bits(self, net: int) -> np.ndarray:
        return np.unpackbits(self.c[net].view(np.uint8),
                             bitorder="little")[:self.n_vectors]

    def word_values(self, nets) -> np.ndarray:
        out = np.zeros(self.n_vectors, np.int64)
        for i, net in enumerate(nets):
            out |= self.bits(net).astype(np.int64) << i
        return out

    def ones(self) -> np.ndarray:
        """Per-net count of 1 values."""
        return np.bitwise_count(self.c).sum(axis=1, dtype=np.int64)


def _run_packed(nl: Netlist, bits, n: int) -> np.ndarray:
    c = np.zeros((nl.n_nets, (n + 63) // 64), np.uint64)
    for name, nets in nl.input_words():
        arr = bits[name]
        for j, net in enumerate(nets):
            packed = np.packbits(arr[:, j], bitorder="little")
            if packed.size % 8:
                packed = np.concatenate(
                    [packed, np.zeros(8 - packed.size % 8, np.uint8)])
            c[net] = packed.view(np.uint64)
    _kernels.eval_gates(*nl.plan, c)
    r = n % 64
    if r:
        c[:, -1] &= np.uint64((1 << r) - 1)
    return c


def simulate(netlist: Netlist, source) -> Traces:
    """Simulate a :class:`VectorStream` or a dict of prebuilt bit arrays and
    return full traces.  For very long runs prefer :func:`iter_traces`."""
    parts = []
    total = 0
    for _, n, bits in _bits_chunks(source, netlist.signature()[0]):
        parts.append(_run_packed(netlist, bits, n))
        total += n
    if not parts:
        raise BadParams("empty stream")
    c = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return Traces(netlist, c, total)


def iter_traces(netlist: Netlist, source):
    """Yield (start, :class:`Traces`) chunk by chunk without retaining the
    whole run in memory."""
    for start, n, bits in _bits_chunks(source, netlist.signature()[0]):
        yield start, Traces(netlist, _run_packed(netlist, bits, n), n)


def eval_vector(netlist: Netlist, word_values: dict) -> list[int]:
    """Scalar single-vector evaluation with plain-int semantics.

    ``word_values`` maps input word names to integers (missing words read as
    0).  Returns the value of every net.  Intentionally independent of the
    packed kernels; used for witness replay and as the simulation oracle in
    tests.
    """
    vals = [0] * netlist.n_nets
    for name, nets in netlist.input_words():
        v = int(word_values.get(name, 0))
        for i, b in enumerate(nets):
            vals[b] = (v >> i) & 1
    for g in netlist.ordered_gates():
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
    return sum(vals[b] << i for i, b in enumerate(netlist.words[word]))


# ---------------------------------------------------------------------------
# profiling


@dataclass(frozen=True)
class ErrorReport:
    """Deviation of one output word from a reference function."""

    er: float    # fraction of vectors with any error
    med: float   # mean absolute difference
    mred: float  # mean absolute difference relative to max(1, reference)
    wce: int     # worst absolute difference
    n_vectors: int


#: exact word-level operators of generated modules (input words a and b)
EXACT_OPS = {"add": lambda wv: wv["a"] + wv["b"],
             "mul": lambda wv: wv["a"] * wv["b"]}


def relative_error(diff, exp):
    """Per-vector relative error ``|got - exp| / max(exp, 1)`` from
    ``diff = |got - exp|``."""
    return diff / np.maximum(exp, 1)


def error_sums(tr: Traces, ref) -> list[tuple]:
    """Per referenced output word, the (error count, absolute sum, relative
    sum, worst absolute difference) of a simulated run, whole or one chunk;
    callers divide by their own vector counts.

    ``ref`` is a callable on input word value arrays (checked against the
    first output word), a dict of such callables per output word (taken in
    sorted word order), or arch params whose exact operator is used.
    """
    nl = tr.netlist
    if not isinstance(ref, dict):
        if not callable(ref):
            # an ArchParams-like object selects the exact operator
            if ref.op_type not in EXACT_OPS:
                raise BadParams(f"no reference for op_type {ref.op_type!r}")
            ref = EXACT_OPS[ref.op_type]
        ref = {nl.output_words()[0][0]: ref}
    outs = dict(nl.output_words())
    wv = {w: tr.word_values(nets) for w, nets in nl.input_words()}
    sums = []
    for word, fn in sorted(ref.items()):
        exp = np.asarray(fn(wv), np.int64)
        d = np.abs(tr.word_values(outs[word]) - exp)
        sums.append((int(np.count_nonzero(d)), int(d.sum()),
                     float(relative_error(d, exp).sum()),
                     int(d.max(initial=0))))
    return sums


def error_profile(netlist: Netlist, ref, source) -> ErrorReport:
    """Error statistics of the netlist's single output word against a
    reference (see :func:`error_sums`)."""
    if len(netlist.output_words()) != 1:
        raise BadParams("error_profile needs exactly one output word")
    n = errs = sabs = wce = 0
    srel = 0.0
    for _, tr in iter_traces(netlist, source):
        (e, a, r, w), = error_sums(tr, ref)
        errs += e
        sabs += a
        srel += r
        wce = max(wce, w)
        n += tr.n_vectors
    return ErrorReport(errs / n, sabs / n, srel / n, wce, n)


@dataclass(frozen=True)
class ActivityReport:
    """Per-net signal probability and toggle counts for one run."""

    p1: np.ndarray
    toggles: np.ndarray
    n_vectors: int


_M63 = np.uint64(0x7FFFFFFFFFFFFFFF)


def activity_profile(netlist: Netlist, source) -> ActivityReport:
    ones = np.zeros(netlist.n_nets, np.int64)
    tog = np.zeros(netlist.n_nets, np.int64)
    prev_last = None
    total = 0
    for _, tr in iter_traces(netlist, source):
        c, n = tr.c, tr.n_vectors
        ones += tr.ones()
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
        if prev_last is not None:
            tog += prev_last ^ first
        prev_last = ((c[:, -1] >> np.uint64((n - 1) % 64)) & np.uint64(1)) \
            .astype(np.int64)
        total += n
    return ActivityReport(ones / total, tog, total)


def rare_nets(report: ActivityReport, theta: float = 0.01):
    """Nets stuck near one logic value: (net, v) when value ``v`` shows up
    with probability below ``theta``."""
    if not 0.0 < theta < 0.5:
        raise BadThreshold(f"theta must be in (0, 0.5), got {theta}")
    out = []
    for net, p in enumerate(report.p1):
        if p < theta:
            out.append((net, 1))
        elif 1.0 - p < theta:
            out.append((net, 0))
    return out


@dataclass(frozen=True)
class PowerProxy:
    """Switching-activity power stand-in: sum of toggles weighted by
    1 + fanout.  ``ratio`` is relative to a baseline run when given."""

    value: float
    ratio: float | None = None


def power_proxy(netlist: Netlist, report: ActivityReport,
                baseline: PowerProxy | None = None) -> PowerProxy:
    f = np.asarray(netlist.fanout_counts(), np.int64)
    value = float((report.toggles * (1 + f)).sum())
    if baseline is None:
        return PowerProxy(value)
    if baseline.value == 0:
        return PowerProxy(value, 1.0 if value == 0 else float("inf"))
    return PowerProxy(value, value / baseline.value)
