"""Vector streams, bit-parallel simulation and activity/error profiling.

Simulation packs 64 test vectors into each machine word and evaluates the
gate graph once per 64-vector slice through the levelized kernel in
:mod:`axsec._kernels`, the one gate evaluator of the package.  A run reads
one of three sources: a :class:`VectorStream`, a run of the same netlist
(:class:`Traces`), or word values, a dict holding one ``int64`` per vector
for each input word of the netlist.

Streams are pseudo-random and fully determined by ``(seed, mode, n_vectors)``
plus the ordered input word widths of the netlist under test.  Values are
always drawn in fixed :data:`CHUNK`-sized slices with one generator per input
word, so the same stream is produced no matter how a consumer batches the run
and regardless of any other words present.  A chunk is one ``(m, words)``
``uint64`` block whose row i holds input bit i in input word order, vector t
at bit ``t % 64`` of word ``t // 64``; a correlated word's runs are filled
on those packed words.  Per-vector bytes (a draw's bits, or bits 8p..8p+7
of a value in byte p) and packed rows are each other's bit transpose, made
of 8x8 blocks of three delta swaps each (:func:`_transpose8`).  A stream
that fits in one chunk is generated once per input signature and reused
read-only (:func:`_single_chunk_bits`); longer streams are generated
lazily, the next chunk by one worker thread per stream (a
``concurrent.futures`` executor) while the caller reads the current one,
and a profile runs all their chunks in one net buffer.  Every
bit is made of the generator's raw 64-bit words, a redraw mask's drawn in
blocks sized from :data:`_BLOCK_BYTES`; the same draws as
``Generator.integers`` and ``Generator.random`` calls are kept in
``tests/oracles.py`` as the reference.

A whole run (:func:`simulate`) is one kernel run over one packed block;
a screen packs its stimulus once (:func:`pack`) and replays it on every
candidate.  A profile reads a run in the same chunks as its stream, so a
run measured several ways is simulated once; a reader of signal
probabilities alone counts ones only (:func:`ones_profile`).  A run is
read only through :meth:`Traces.word_values` and :meth:`Traces.hits`,
by its row map; outside this module, only the kernel touches packed
words.  A derived netlist runs on its host's run
(:func:`paired_activity_and_error`).

Every error figure of the workbench is made of :func:`error_terms`: the
error count, absolute sum, relative sum and worst difference of each row
of values against its reference.  Every seed and generator is made here, of
a seed and a salt (:func:`sub_seed`, :func:`sub_rng`): (stream seed, i) for
stream word i; under an experiment's seed, 1 the library stream, 2 the
infection order, (3, ix) and (4, ix) variant ix's trace and stealth streams
(``axsec attack``: (4,)); under a defender's, 0xD57 its two streams (words
0 and 1) and (0xE51, crc32(tag)) the stress vectors.  A frozen
:class:`VectorStream` is its own identity.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import _kernels
from .errors import BadParams, BadThreshold, check_ranges
from .netlist import Netlist

#: fixed generation granularity (in vectors); a multiple of 64 so packed
#: chunks concatenate without bit shifting
CHUNK = 1 << 16

STREAM_MODES = ("uniform", "correlated")

#: bytes a blocked pass takes at once, each counting pass's net-array rows
#: and each draw of a redraw mask; a block stays in L2
_BLOCK_BYTES = 1 << 18


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
        check_ranges(self, (
            ("n_vectors", 1 <= self.n_vectors < math.inf,
             "at least 1 and finite"), ("n_vectors",),
            ("seed", self.seed >= 0, "non-negative"), ("seed",),
            ("rho", 0.0 <= self.rho <= 1.0, "in [0, 1]")))


def sub_seed(seed: int, *salt, word: int = 0) -> int:
    """Word ``word`` of the child seeds of ``seed`` for the given salt."""
    return int(np.random.SeedSequence((seed,) + salt).generate_state(
        word + 1)[word])


def sub_rng(seed: int, *salt) -> np.random.Generator:
    """The generator of ``seed`` for the given salt values."""
    return np.random.default_rng(np.random.SeedSequence((seed,) + salt))


_ONE = np.uint64(1)


def _transpose8(x):
    """Transpose each ``uint64`` of ``x`` in place by three delta swaps as an
    8x8 bit matrix, bit j of byte i to bit i of byte j (its own inverse)."""
    t = np.empty_like(x)
    for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                 (28, 0x00000000F0F0F0F0)):
        np.right_shift(x, s, out=t)
        t ^= x
        t &= m
        t *= 1 + (1 << s)  # t | t << s: the two never overlap
        x ^= t


def _transpose_bits(m, cols):
    """The bit transpose (a view) of a uint8 matrix of b-byte rows, bit j of
    byte k its column 8k + j, padded to ``8 * cols`` rows: ``(8b, cols)``."""
    pad = np.zeros((8 * cols, m.shape[1]), np.uint8)
    pad[:len(m)] = m
    x = np.ascontiguousarray(pad.reshape(cols, 8, -1).transpose(0, 2, 1))
    _transpose8(x.view(np.uint64))
    return x.transpose(1, 2, 0).reshape(-1, cols)


def _planes(a, bit):
    """Per vector, bit ``bit`` of each byte of an ``(n, w)`` uint8 or bool
    array, 8 to a byte by one multiply (bits past w: any); overwrites a."""
    n, w = a.shape
    if w % 8:  # whole uint64 reads: a vector's last runs into the next
        a = np.ndarray((n, -(-w // 8)), np.uint64, np.append(
            a, np.zeros(8, a.dtype)), strides=(w, 8)).copy()
    x = a.view(np.uint64)
    x &= np.uint64(0x0101010101010101 << bit)
    x *= np.uint64(0x0102040810204080 >> bit)
    return x.view(np.uint8)[:, 7::8]


def _rows(planes, widths):
    """The packed rows of ``planes``, per vector the bytes of each word."""
    at = accumulate((-(-w // 8) for w in widths), initial=0)
    keep = [8 * a + j for a, w in zip(at, widths) for j in range(w)]
    return _transpose_bits(planes, 8 * -(-len(planes) // 64)).take(
        keep, axis=0).view(np.uint64)


def _chunk_bits(rng, mode, rho, n, width, carry):
    # Packed rows and the last vector's bits (the carry into the next
    # chunk).  A correlated word is filled on whole words: with the redraw
    # mask R and the fresh values F, A = R & F starts a run of ones and
    # P = ~R continues the run before it.  Adding A << 1 to P carries
    # through the run after every started one and clears it, so
    # A | (P & ~(P + (A << 1))) is every run that starts inside its word.
    # The bits below a word's lowest redraw take the value entering it:
    # the top bit of the last earlier word with a redraw, else the carry.
    # Both draws are raw 64-bit words: ``integers(0, 2, uint8)`` is the top
    # bit of each byte of successive 32-bit draws, low half first (Lemire's
    # method never rejects at range 2), and ``random() >= rho`` is ``raw >=
    # ceil(rho * 2**53) << 11``, all false at rho = 1, drawn in blocks of
    # whole words of vectors of at most :data:`_BLOCK_BYTES` of draws.  The
    # generator ends where those calls left it, but for ``integers``'
    # buffered 32-bit half, which only a last, partial chunk can leave set.
    raw = rng.bit_generator.random_raw
    fresh = raw(-(-n * width // 8)).astype("<u8", copy=False).view(
        np.uint8)[:n * width].reshape(n, width)
    tail, f = fresh[-1] >> 7, _rows(_planes(fresh, 7), (width,))
    if mode == "uniform":
        return f, tail
    step = max(64, _BLOCK_BYTES // (512 * width) * 64)
    r = _rows(np.concatenate([_planes(raw(min(step, n - lo) * width).reshape(
        -1, width) >= math.ceil(rho * 2 ** 53) << 11, 0)
        for lo in range(0, n, step)]), (width,))
    if carry is None:
        r[:, 0] |= _ONE  # the first vector is drawn
        carry = np.zeros(width, np.uint8)
    if n % 64:
        r[:, -1] |= ~np.uint64((1 << n % 64) - 1)  # pad bits: runs of 0
    a, p = r & f, ~r
    v = a | (p & ~(p + (a << _ONE)))
    last = np.where(r != 0, np.arange(r.shape[1]), -1)
    np.maximum.accumulate(last, axis=1, out=last)
    top = np.where(last >= 0, np.take_along_axis(v >> np.uint64(63), last,
                                                 axis=1), carry[:, None])
    enter = np.concatenate([carry[:, None].astype(np.uint64), top[:, :-1]],
                           axis=1)
    v |= ((r & (~r + _ONE)) - _ONE) & (np.uint64(0) - enter)
    return v, ((v[:, -1] >> np.uint64((n - 1) % 64)) & _ONE).astype(np.uint8)


def _stream_chunks(stream, words):
    """Yield (n, block) chunks of a :class:`VectorStream`, one :data:`CHUNK`
    at a time.  Past the first, one worker makes each chunk as a future
    while the caller reads the one before; leaving waits for it."""
    rngs = [sub_rng(stream.seed, i) for i in range(len(words))]
    carry = [None] * len(words)
    at = np.cumsum([0] + [w for _, w in words]).tolist()  # rows per word

    def make(n):
        block = np.empty((at[-1], (n + 63) // 64), np.uint64)
        for i, (_, width) in enumerate(words):
            block[at[i]:at[i + 1]], carry[i] = _chunk_bits(
                rngs[i], stream.mode, stream.rho, n, width, carry[i])
        return block

    sizes = [min(CHUNK, stream.n_vectors - start)
             for start in range(0, stream.n_vectors, CHUNK)]
    block = make(sizes[0])
    if len(sizes) > 1:
        from concurrent import futures  # here: 4 ms off `import axsec`
        with futures.ThreadPoolExecutor(max_workers=1) as worker:
            for n, later in zip(sizes, sizes[1:]):
                ahead = worker.submit(make, later)
                yield n, block
                block = ahead.result()
    yield sizes[-1], block


@lru_cache(maxsize=2)
def _single_chunk_bits(stream, words):
    """The read-only block of a stream that fits in one chunk, generated
    once per (stream, input words)."""
    (_, block), = _stream_chunks(stream, words)
    block.flags.writeable = False
    return block


def _checked_values(source, words) -> list:
    """The checked value arrays of ``source`` in ``words`` order, as int64."""
    vals = []
    for name, width in words:
        if name not in source:
            raise BadParams(f"missing values for input word {name!r}")
        v = np.asarray(source[name])
        n = len(vals[0]) if vals else v.size
        if v.dtype.kind not in "iu" or v.shape != (n,):
            raise BadParams(f"input word {name!r} holds {v.dtype} of shape "
                            f"{v.shape}, not {n} integers")
        v = np.ascontiguousarray(v, "<i8")
        if (v >> min(width, 63)).any():
            raise BadParams(f"a value of input word {name!r} lies outside "
                            f"[0, 2**{width})")
        vals.append(v)
    return vals


@dataclass(frozen=True, eq=False)
class Stimulus:
    """The input ``words`` of :func:`pack`, one read-only block of all
    its vectors (a run's input rows) and their count."""

    words: tuple
    block: np.ndarray
    n_vectors: int


#: the sources of a run, as the refusal of any other names them
_RUN = "a VectorStream, a run or a mapping of word values"


def pack(words, *sources) -> Stimulus:
    """The :class:`Stimulus` on ``words`` of the vectors of ``sources``,
    streams or word values, in order: each chunk's block is shifted in
    after the vectors before it, and no vector is unpacked.  The block of
    a single chunk is passed on as it is."""
    return _pack(words, sources, "a VectorStream or a mapping of word values")


def _pack(words, sources, takes):
    chunks = [c for s in sources for c in _bits_chunks(s, words, takes)]
    at = np.cumsum([0] + [n for n, _ in chunks]).tolist()
    if not at[-1]:  # no source: a stimulus holds at least one vector
        raise BadParams("empty stream")
    if len(chunks) == 1:
        block = chunks[0][1]
    else:
        block = np.zeros((sum(w for _, w in words), at[-1] // 64 + 2),
                         np.uint64)
        for a, (_, b) in zip(at, chunks):  # pad bits are 0s: OR as 0s
            lo, s = divmod(a, 64)  # numpy shifts a uint64 by 64 to 0
            block[:, lo:lo + b.shape[1]] |= b << np.uint64(s)
            block[:, lo + 1:lo + 1 + b.shape[1]] |= b >> np.uint64(64 - s)
        block = block[:, :(at[-1] + 63) // 64]
    block.flags.writeable = False
    return Stimulus(words, block, at[-1])


def _bits_chunks(source, words, takes=_RUN):
    """Yield (n, block) chunks, pad bits clear, of a stream or a
    dict of word values; any other source is refused as not ``takes``."""
    if isinstance(source, VectorStream):
        if source.n_vectors <= CHUNK:
            yield source.n_vectors, _single_chunk_bits(source, words)
        else:
            yield from _stream_chunks(source, words)
        return
    if not isinstance(source, Mapping):
        raise BadParams(f"a source is {takes}, not {type(source).__name__}")
    vals = _checked_values(source, words)
    total = len(vals[0]) if vals else 0
    if not total:  # a stream holds at least one vector
        raise BadParams("empty stream")
    for start in range(0, total, CHUNK):
        n = min(CHUNK, total - start)
        yield n, _rows(np.concatenate([  # the low bytes of each value
            v[start:start + n, None].view(np.uint8)[:, :-(-width // 8)]
            for (_, width), v in zip(words, vals)], 1), [w for _, w in words])


def check_value_words(netlist: Netlist, outputs=()) -> None:
    """Raise :class:`BadParams` for a word over 63 bits, whose values no
    ``int64`` holds, among the input words and the ``outputs`` named."""
    ins, outs = netlist.signature()
    for word, width in ins + tuple(o for o in outs if o[0] in outputs):
        if width > 63:
            raise BadParams(f"word {word!r} is {width} bits wide; values "
                            f"are read only from words of at most 63 bits")


# ---------------------------------------------------------------------------
# packed simulation


class Traces:
    """Packed values of a simulated run, one row per net (``rows``: by
    default its netlist's :attr:`~axsec.netlist.Netlist.rows`), vector t
    at bit ``t % 64`` of word ``t // 64``; every method answers per net.
    A run is a valid source for its own netlist wherever a stream or word
    values are accepted."""

    def __init__(self, netlist: Netlist, c: np.ndarray, n_vectors: int,
                 rows: np.ndarray | None = None):
        self.netlist = netlist
        self.c = c
        self.n_vectors = n_vectors
        self._rows = rows

    @property
    def rows(self) -> np.ndarray:
        return self.netlist.rows if self._rows is None else self._rows

    def word_values(self, nets, at=None) -> np.ndarray:
        """Per vector of the run, or per vector listed in ``at``, the
        ``int64`` whose bit i is the value of ``nets[i]`` (63 nets at most)."""
        if len(nets) > 63:
            raise BadParams(f"{len(nets)} nets make no value of 63 bits")
        w = self.c[self.rows.take(nets)]
        if at is None:  # bits 8p..8p+7 of each value are byte p
            p = max(1, -(-len(nets) // 8))
            out = np.zeros((self.n_vectors, 8), np.uint8)
            out[:, :p] = _transpose_bits(w.view(np.uint8), p)[:self.n_vectors]
            return out.view(np.int64).reshape(-1)
        at = np.asarray(at, np.int64)
        if at.size and not 0 <= at.min() <= at.max() < self.n_vectors:
            raise BadParams(f"vectors {at.min()}..{at.max()} reach outside "
                            f"a run of {self.n_vectors}")
        bits = (w[:, at // 64] >> (at % 64).astype(np.uint64)
                & _ONE).view(np.int64)
        weights = np.int64(1) << np.arange(len(bits), dtype=np.int64)
        return np.einsum("i,ij->j", weights, bits)

    def hits(self, taps, limit: int) -> list[list[int]]:
        """Per (net, value) tap, the first ``limit`` vectors on which the
        net carries the value: the bits that do of its first ``limit``
        words holding one, pad bits no vectors."""
        w = self.c[self.rows.take([n for n, _ in taps])]
        w ^= (np.array([v for _, v in taps], np.uint64) - _ONE)[:, None]
        w[:, -1] &= ~np.uint64(0) >> np.uint64(-self.n_vectors % 64)
        tap, word = np.nonzero(w)  # by tap, then word
        n = np.bincount(tap, minlength=len(w))
        first = np.arange(len(tap)) - np.repeat(np.cumsum(n) - n, n) < limit
        tap, word = tap[first], word[first]
        hit, bit = np.nonzero(np.unpackbits(w[tap, word, None].view(
            np.uint8), axis=1, bitorder="little"))
        times = (64 * word[hit] + bit).tolist()
        ends = np.cumsum(np.bincount(tap[hit], minlength=len(w))).tolist()
        return [times[a:b][:limit] for a, b in zip([0, *ends], ends)]


def _run_packed(nl: Netlist, block, n: int, buf=None) -> Traces:
    """The run of an input block of ``n`` vectors: the block copied into
    the first rows, the kernel run and the pad bits cleared, in the memory
    of ``buf`` when given, else in a new array."""
    shape = (nl.n_nets, (n + 63) // 64)
    c = (np.empty(shape, np.uint64) if buf is None
         else buf[:shape[0] * shape[1]].reshape(shape))
    c[:len(block)] = block
    _kernels.eval_gates(*nl.plan, c)
    if n % 64:
        c[:, -1] &= np.uint64((1 << n % 64) - 1)
    return Traces(nl, c, n)


def simulate(netlist: Netlist, source) -> Traces:
    """The whole run of a :class:`VectorStream`, of word values or of a
    :class:`Stimulus` on the input words of ``netlist``, one kernel run
    over one packed block; a run of ``netlist`` is returned as is."""
    if isinstance(source, Traces):
        if source.netlist is not netlist:
            raise BadParams("a run is only a source for its own netlist")
        return source
    words = netlist.signature()[0]
    if not isinstance(source, Stimulus):
        source = _pack(words, (source,), _RUN)
    elif source.words != words:
        raise BadParams("a packed stimulus runs only on its input words")
    return _run_packed(netlist, source.block, source.n_vectors)


def _runs(netlist: Netlist, source):
    """Yield the :class:`Traces` of ``source`` chunk by chunk, run in one
    net buffer, so a chunk is valid only until the next is asked for.  A
    run of ``netlist`` is yielded as views of its words, in the same
    :data:`CHUNK` slices its stream would produce."""
    if isinstance(source, Traces):
        c, n = simulate(netlist, source).c, source.n_vectors  # netlist checked
        for at in range(0, n, CHUNK):
            yield Traces(netlist, c[:, at // 64:(at + CHUNK) // 64],
                         min(CHUNK, n - at), source.rows)
        return
    buf = None
    for n, block in _bits_chunks(source, netlist.signature()[0]):
        if buf is None:  # the first chunk is the widest
            buf = np.empty(netlist.n_nets * ((n + 63) // 64), np.uint64)
        yield _run_packed(netlist, block, n, buf)


# ---------------------------------------------------------------------------
# profiling


@dataclass(frozen=True)
class ErrorReport:
    """Deviation of the referenced output words from a reference,
    averaged over the words (``wce`` is the worst of any word)."""

    er: float    # fraction of vectors with an error
    med: float   # mean absolute difference
    mred: float  # mean absolute difference relative to max(1, reference)
    wce: int     # worst absolute difference
    n_vectors: int


#: exact word-level operators of generated modules (input words a and b)
EXACT_OPS = {"add": lambda wv: wv["a"] + wv["b"],
             "mul": lambda wv: wv["a"] * wv["b"]}


def error_terms(got, exp):
    """Per row of ``got`` (vectors along the last axis) against ``exp``:
    the error count, the sum of ``|got - exp|``, the sum of ``|got - exp| /
    max(exp, 1)`` and the worst ``|got - exp|``.  Integer values give exact
    counts and absolute sums."""
    d = np.abs(got - exp)
    return (np.count_nonzero(d, axis=-1), d.sum(axis=-1),
            (d / np.maximum(exp, 1)).sum(axis=-1), d.max(axis=-1, initial=0))


def error_sums(tr: Traces, ref) -> list[tuple]:
    """Per referenced output word, the :func:`error_terms` of a simulated
    run, whole or one chunk, as Python numbers; callers divide by their own
    vector counts.

    ``ref`` is a callable on input word value arrays (checked against the
    one output word), such as an :data:`EXACT_OPS` entry, or a dict of such
    callables per output word (taken in sorted word order).
    """
    ref = check_reference(tr.netlist, ref)
    return _error_sums(tr, _expected(tr, ref))


def _expected(tr: Traces, ref: dict) -> dict:  # ref checked
    wv = {w: tr.word_values(nets) for w, nets in tr.netlist.input_words()}
    return {word: np.asarray(fn(wv), np.int64) for word, fn in ref.items()}


def _error_sums(tr: Traces, expected: dict) -> list[tuple]:
    outs = dict(tr.netlist.output_words())
    sums = []
    for word, exp in sorted(expected.items()):
        e, a, r, w = error_terms(tr.word_values(outs[word]), exp)
        sums.append((int(e), int(a), float(r), int(w)))
    return sums


def check_reference(nl: Netlist, ref) -> dict:
    """``ref`` as {output word: reference}, its words checked before any
    run."""
    outs = [w for w, _ in nl.output_words()]
    if not isinstance(ref, dict):
        if len(outs) != 1:
            raise BadParams("a single reference needs exactly one output "
                            "word; give one per output word")
        ref = {outs[0]: ref}
    if not ref:
        raise BadParams("a reference dict needs at least one output word")
    unknown = sorted(set(ref) - set(outs))
    if unknown:
        raise BadParams(f"reference word {unknown[0]!r} is no output word")
    check_value_words(nl, ref)
    return ref


def error_profile(netlist: Netlist, ref, source) -> ErrorReport:
    """Error statistics against a reference (see :func:`error_sums`),
    summed chunk by chunk and word by word, over vectors times words."""
    return _profiled(netlist, source, _ErrorSums(netlist, ref))[0]


class _ErrorSums:
    """Running :func:`error_sums` of consecutive chunks of one run."""

    def __init__(self, netlist: Netlist, ref):
        self.ref = check_reference(netlist, ref)
        self.n = self.errs = self.sabs = self.wce = 0
        self.srel = 0.0

    def add(self, tr: Traces, expected: dict | None = None):
        if expected is None:  # else taken on a run of the same inputs
            expected = _expected(tr, self.ref)
        for e, a, r, w in _error_sums(tr, expected):
            self.errs += e
            self.sabs += a
            self.srel += r
            self.wce = max(self.wce, w)
        self.n += tr.n_vectors

    def report(self) -> ErrorReport:
        d = self.n * len(self.ref)
        return ErrorReport(self.errs / d, self.sabs / d, self.srel / d,
                           self.wce, self.n)


@dataclass(frozen=True)
class ActivityReport:
    """Per-net signal probability and toggle counts (or None) of a run."""

    p1: np.ndarray
    toggles: np.ndarray | None
    n_vectors: int


def activity_profile(netlist: Netlist, source) -> ActivityReport:
    return _profiled(netlist, source, _ActivitySums(netlist.rows))[0]


def ones_profile(run: Traces) -> ActivityReport:
    """:func:`activity_profile` of a run for a reader of ``p1`` alone."""
    n = run.n_vectors  # int32 counts are exact and twice as fast to sum
    ones = np.bitwise_count(run.c).sum(1, np.int32 if n < 2 ** 31 else int)
    return ActivityReport(ones[run.rows] / n, None, n)


def activity_and_error(netlist: Netlist, ref, source):
    """(:func:`activity_profile`, :func:`error_profile`) of one run,
    simulated once, chunk by chunk; the error is None without a ``ref``."""
    if ref is None:
        return activity_profile(netlist, source), None
    return _profiled(netlist, source, _ActivitySums(netlist.rows),
                     _ErrorSums(netlist, ref))


def paired_activity_and_error(host: Netlist, derived: Netlist, ref,
                              source) -> tuple:
    """(:func:`activity_and_error` of ``host``, of ``derived``).  Where
    ``derived`` is built on ``host`` with its I/O words and the source is
    no run, the two share one run: per chunk the host's run fills the
    first rows of one buffer and ``derived.suffix`` the rest, and one
    count and one reference serve both; else each takes its own."""
    if (derived.base is not host or isinstance(source, Traces)
            or derived.input_words() != host.input_words()
            or derived.signature() != host.signature()):
        return (activity_and_error(host, ref, source),
                activity_and_error(derived, ref, source))
    plan, rows = derived.suffix
    acts = _ActivitySums(rows)
    errs = () if ref is None else (_ErrorSums(host, ref),
                                   _ErrorSums(derived, ref))
    buf, m = None, host.n_nets
    for n, block in _bits_chunks(source, host.signature()[0]):
        shape = (derived.n_nets, (n + 63) // 64)
        if buf is None:  # the first chunk is the widest
            buf = np.empty(shape[0] * shape[1], np.uint64)
        c = buf[:shape[0] * shape[1]].reshape(shape)
        run = _run_packed(host, block, n, buf)  # in c[:m]
        _kernels.eval_gates(*plan, c)
        if n % 64:
            c[m:, -1] &= np.uint64((1 << n % 64) - 1)
        tr = Traces(derived, c, n, rows)
        acts.add(tr)
        if errs:  # the two runs share their inputs and so the reference
            expected = _expected(run, errs[0].ref)
            for acc, t in zip(errs, (run, tr)):
                acc.add(t, expected)
    err_h, err_d = (acc.report() for acc in errs) if errs else (None, None)
    return (acts.report(host.rows), err_h), (acts.report(), err_d)


def _profiled(netlist: Netlist, source, *sums) -> tuple:
    """The reports of running ``sums`` over one run, chunk by chunk."""
    for tr in _runs(netlist, source):
        for acc in sums:
            acc.add(tr)
    return tuple(acc.report() for acc in sums)


class _ActivitySums:
    """Running ones and toggle counts per row of consecutive chunks of one
    run, reported per net through ``rows``, the row of each net; a toggle
    across a chunk boundary counts in the later chunk.

    A toggle at vector t is bit t of ``c ^ (c << 1)`` over a net's words,
    each word shifted in the top bit of the word before it; bit 0 of a
    net's first word and the pad bits of its last word are no toggles of
    the chunk.  Each block of whole rows, at most :data:`_BLOCK_BYTES`
    but at least one row, runs every pass in scratch kept across chunks."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.ones = np.zeros(len(rows), np.int64)
        self.tog = np.zeros(len(rows), np.int64)
        self.prev_last = None
        self.total = 0
        self._scratch = None

    def add(self, tr: Traces):
        c, n = tr.c, tr.n_vectors
        rows = max(1, _BLOCK_BYTES // (8 * c.shape[1]))
        shape = (min(rows, len(c)), c.shape[1])
        if self._scratch is None or self._scratch[0].shape != shape:
            self._scratch = [np.empty(shape, t)
                             for t in (np.uint64, np.uint64, np.uint8)]
        for lo in range(0, len(c), rows):
            blk = c[lo:lo + rows]
            y, top, cnt = (s[:len(blk)] for s in self._scratch)
            ones, tog = self.ones[lo:lo + rows], self.tog[lo:lo + rows]
            ones += np.bitwise_count(blk, out=cnt).sum(axis=1, dtype=np.int32)
            # carried flat through the scratch: a row's first word takes
            # the previous row's top bit into bit 0, which is cleared
            np.left_shift(blk, np.uint64(1), out=y)
            np.right_shift(blk, np.uint64(63), out=top)
            y.reshape(-1)[1:] |= top.reshape(-1)[:-1]
            y ^= blk
            y[:, 0] &= ~np.uint64(1)
            if n % 64:
                y[:, -1] &= np.uint64((1 << n % 64) - 1)
            tog += np.bitwise_count(y, out=cnt).sum(axis=1, dtype=np.int32)
        first = (c[:, 0] & np.uint64(1)).astype(np.int64)
        if self.prev_last is not None:
            self.tog += self.prev_last ^ first
        self.prev_last = ((c[:, -1] >> np.uint64((n - 1) % 64))
                          & np.uint64(1)).astype(np.int64)
        self.total += n

    def report(self, rows=None) -> ActivityReport:  # rows: each net's
        rows = self.rows if rows is None else rows
        return ActivityReport(self.ones[rows] / self.total, self.tog[rows],
                              self.total)


def check_theta(theta: float) -> None:
    """Raise :class:`BadThreshold` unless ``theta`` lies in (0, 0.5), the
    range of :func:`rare_nets`; NaN does not."""
    check_ranges({"theta": theta}, (("theta", 0.0 < theta < 0.5,
                                     "in (0, 0.5)"),), BadThreshold)


def rare_nets(report: ActivityReport, theta: float = 0.01):
    """Nets stuck near one logic value: (net, v) when value ``v`` shows up
    with probability below ``theta``.  Only ``report.p1`` is read."""
    check_theta(theta)
    p = np.asarray(report.p1, np.float64)
    low = p < theta
    nets = np.flatnonzero(low | (1.0 - p < theta))
    return list(zip(nets.tolist(), low[nets].astype(int).tolist()))


def power_proxy(netlist: Netlist, report: ActivityReport) -> float:
    """Switching-activity power stand-in: the sum of toggles weighted by
    1 + fanout.  The report must hold one toggle count per net."""
    if report.toggles is None:
        raise BadParams("an activity report of ones only holds no toggles")
    if len(report.toggles) != netlist.n_nets:
        raise BadParams(f"an activity report of {len(report.toggles)} nets "
                        f"for a netlist of {netlist.n_nets} nets")
    return float((report.toggles * (1 + netlist.fanout_counts())).sum())


def power_ratio(value: float, baseline: float) -> float:
    """``value`` relative to a baseline power: 1.0 when both are 0, inf
    when only the baseline is."""
    if baseline == 0:
        return 1.0 if value == 0 else math.inf
    return value / baseline
