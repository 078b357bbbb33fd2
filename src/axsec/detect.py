"""Trojan screening for sets of functionally interchangeable netlists.

The defender holds several candidate implementations of one design and no
golden reference.  Agreement between the candidates stands in for ground
truth: per-vector majority values anchor both the error ranking and the
deviation checks, so a lone tampered netlist gives itself away by
disagreeing under the right stimulus.  Per-instance suspicion fuses three
signals: presence on near-critical paths, loss of resilience under directed
stress vectors, and ownership of rarely switching nets.

Candidates must share one :meth:`Netlist.signature`, so a screen packs the
profiling streams once, as one :class:`axsec.sim.Stimulus`, and replays it
on every candidate; so does the stress step with its union's distinct
vectors.  Each candidate is simulated once on the profiling stimulus;
its :class:`_Profile` keeps what the screen reads of that run at its one
``theta``: output word values, rare net tags, and the first hit and its
input values of each rare value the activity count shows.  The ranking
and the stress step each take one :func:`_consensus` of their runs; the
ranking scores :func:`axsec.sim.error_terms` against its majority.  An
instance's fan-in cone is the nets whose tag mask (:func:`_cone_masks`,
one reverse pass per netlist) holds its bit.
"""

from __future__ import annotations

import heapq
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadParams, EmptySet, LabelMismatch, SignatureMismatch,
                     check_ranges)
from .netlist import Netlist
from .sim import (Stimulus, VectorStream, check_theta, check_value_words,
                  error_terms, ones_profile, pack, rare_nets, simulate,
                  sub_rng, sub_seed)
from .sta import calibrated_model, near_critical_paths, paths_to_instances

__all__ = [
    "DetectConfig", "RankEntry", "InstanceScore", "NetlistReport",
    "DetectionReport", "Metrics", "rank_by_error", "suspect_instances",
    "classify", "score", "defender_streams",
]


@dataclass(frozen=True)
class DetectConfig:
    """Knobs for the screening pipeline.

    ``margin`` places the calibrated critical delay at ``margin * clock`` so
    the slack window is meaningful on netlists whose raw unit delays have
    nothing to do with the clock.  ``vectors`` is the profiling length per
    stream mode, ``dev_tol`` the fraction of an output word's range a value
    may stray from the majority before the vector counts as a deviation.
    """

    clock: float = 10.0
    margin: float = 0.9
    scales: tuple = (1.0, 1.2)
    n_paths: int = 100
    window: float | None = None
    theta: float = 0.1
    vectors: int = 2000
    rho: float = 0.9
    stress_budget: int = 300
    dev_tol: float = 0.05
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_theta(self.theta)
        check_ranges(self, (
            ("seed", self.seed >= 0, "non-negative"), ("seed",),
            ("clock", self.clock),
            ("margin", self.margin),
            ("scales", len(self.scales) > 0
             and all(0 < s < math.inf for s in self.scales),
             "non-empty, all > 0 and finite"),
            ("dev_tol", 0.0 <= self.dev_tol <= 1.0, "in [0, 1]"),
            ("threshold", 0.0 < self.threshold <= 1.0, "in (0, 1]"),
            ("window", self.window is None or 0 < self.window < math.inf,
             "positive when set, and finite"),
            ("n_paths", self.n_paths >= 0, "non-negative"), ("n_paths",),
            ("vectors", self.vectors >= 1, "at least 1"), ("vectors",),
            ("stress_budget", self.stress_budget >= 1, "at least 1"),
            ("stress_budget",)))


def defender_streams(config: DetectConfig) -> dict:
    """The two profiling streams every candidate is replayed under."""
    su, sc = (sub_seed(config.seed, 0xD57, word=i) for i in (0, 1))
    return {"uniform": VectorStream(config.vectors, su, "uniform"),
            "correlated": VectorStream(config.vectors, sc, "correlated",
                                       config.rho)}


# ---------------------------------------------------------------------------
# candidate bookkeeping


def _checked(candidates):
    named = {}
    for cid, nl in (candidates.items() if isinstance(candidates, dict)
                    else candidates):
        if str(cid) in named:
            raise BadParams(f"candidate id {str(cid)!r} is given twice")
        named[str(cid)] = nl
    cands = sorted(named.items())
    if not cands:
        raise EmptySet("no candidate netlists")
    sig = cands[0][1].signature()
    for cid, nl in cands[1:]:
        if nl.signature() != sig:
            raise SignatureMismatch(
                f"netlist {cid!r} does not match the common I/O words")
    for side, words in zip(("input", "output"), sig):
        if not words:
            raise BadParams(f"the candidates have no {side} word")
    check_value_words(cands[0][1], [w for w, _ in sig[1]])
    return cands


def _majority(vals: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Per-column consensus of a (candidates, vectors) array: the value
    whose ``tol``-neighbourhood collects the most votes, smallest such
    value on ties.

    Counting blocs instead of exact matches keeps the reference honest
    when several tampered candidates agree bit-for-bit while the honest
    ones spread over nearby values through their differing approximations.
    """
    counts = np.zeros(vals.shape, np.int64)
    for c in range(vals.shape[0]):
        counts[c] = (np.abs(vals - vals[c]) <= tol).sum(axis=0)
    best = counts.max(axis=0)
    masked = np.where(counts == best, vals, np.iinfo(np.int64).max)
    return masked.min(axis=0)


@dataclass(frozen=True)
class _Profile:
    """What a screen reads of one candidate's profiling run: output word
    values per vector, the instance tags of the rare live nets at the
    screen's ``theta``, and per rare net that was realized, in net order,
    (net, input word support, (rarity, first hit, net name, the support's
    values at that hit))."""

    out_vals: dict
    rare_tags: frozenset
    replay: tuple


def _output_values(run) -> dict:
    return {w: run.word_values(b) for w, b in run.netlist.output_words()}


def _profile(nl: Netlist, stim: Stimulus, theta: float) -> _Profile:
    """The :class:`_Profile` of one candidate, simulated once on the
    screen's stimulus ``stim``; the run itself is not kept."""
    run = simulate(nl, stim)
    act = ones_profile(run)
    rare = [(net, v) for net, v in rare_nets(act, theta) if nl.live[net]]
    # the activity is of this run, so a rare value shows in it exactly
    # when its net's p1 lies strictly between 0 and 1
    shows = ((0.0 < act.p1) & (act.p1 < 1.0)).tolist()
    shown = [(net, v) for net, v in rare if shows[net]]
    first = [hit[0] for hit in run.hits(shown, 1)]
    vals = {w: run.word_values(b, first).tolist()
            for w, b in nl.input_words()}
    replay = []
    for i, (net, val) in enumerate(shown):
        sup, p = nl.input_word_support((net,)), float(act.p1[net])
        # keyed by first realization and name, not net id: ids are
        # renumbered on a serialization round trip and must not steer
        # tie-breaks
        replay.append((net, sup, (p if val == 1 else 1.0 - p, first[i],
                                  nl.net_names[net],
                                  tuple(vals[w][i] for w in sup))))
    return _Profile(_output_values(run),
                    frozenset(nl.driver(n).tag for n, _ in rare),
                    tuple(replay))


# ---------------------------------------------------------------------------
# error ranking


@dataclass(frozen=True)
class RankEntry:
    """One candidate's deviation from the per-vector majority."""

    netlist_id: str
    er: float
    med: float
    mred: float
    wce: float
    n_vectors: int


def _consensus(cands, out_vals, tol_frac):
    """Per output word, in sorted order: the (candidates, vectors) stack of
    the candidates' ``out_vals``, its per-vector :func:`_majority` and the
    tolerance it was taken at, ``tol_frac`` of the word's range."""
    widths = dict(cands[0][1].signature()[1])
    words = []
    for w in sorted(out_vals[0]):
        stack = np.stack([v[w] for v in out_vals])
        tol = tol_frac * ((1 << widths[w]) - 1)
        words.append((stack, _majority(stack, tol), tol))
    return words


def _rank(cands, out_vals, tol_frac):
    words = _consensus(cands, out_vals, tol_frac)
    n = words[0][0].shape[1]
    er, med, mred, wce = np.zeros((4, len(cands)))
    for stack, maj, _ in words:
        e, a, r, top = error_terms(stack, maj)
        er += e / n
        med += a / n
        mred += r / n
        wce = np.maximum(wce, top)
    k = len(words)
    entries = [RankEntry(cid, float(er[i] / k), float(med[i] / k),
                         float(mred[i] / k), float(wce[i]), n)
               for i, (cid, _) in enumerate(cands)]
    entries.sort(key=lambda e: (e.mred, e.netlist_id))
    return entries


def rank_by_error(candidates, streams,
                  tol: float = 0.05) -> list[RankEntry]:
    """Order candidates by mean relative deviation from the consensus
    value, least deviating first (ties by id).  ``streams`` maps mode names
    to :class:`VectorStream` instances; all of them contribute vectors."""
    cands = _checked(candidates)
    stim = pack(cands[0][1].signature()[0], *map(streams.get, sorted(streams)))
    return _rank(cands, [_output_values(simulate(nl, stim))
                         for _, nl in cands], tol)


# ---------------------------------------------------------------------------
# structural suspects


def suspect_instances(nl: Netlist, clock: float, scales=(1.0, 1.2),
                      n_paths: int = 100, window: float | None = None,
                      margin: float = 0.9) -> dict:
    """Near-critical path membership counts per instance tag, summed over
    delay scales; most hit first.  Computed once per netlist and checked
    arguments (:meth:`Netlist.memo`); each call gets its own dict."""
    check_ranges({"n_paths": n_paths}, (
        ("n_paths", n_paths >= 0, "non-negative"), ("n_paths",)))
    return dict(nl.memo(_suspects, clock, tuple(scales), n_paths, window,
                        margin))


def _suspects(nl, clock, scales, n_paths, window, margin):
    base = calibrated_model(nl, clock, margin)
    hits = Counter()
    for s in scales:
        paths = near_critical_paths(nl, base.scaled(s), clock, n_paths,
                                    window)
        for tag, c in paths_to_instances(paths):
            hits[tag] += c
    return dict(sorted(hits.items(), key=lambda kv: (-kv[1], kv[0])))


# ---------------------------------------------------------------------------
# resilience


@lru_cache(maxsize=256)
def _rank_combos(lengths: tuple, limit: int) -> np.ndarray:
    """Index tuples over the ranges by rank sum, cycled to ``limit`` rows."""
    start = (0,) * len(lengths)
    heap = [(0, start)]
    seen = {start}
    out = []
    while heap and len(out) < limit:
        s, t = heapq.heappop(heap)
        out.append(t)
        for i, top in enumerate(lengths):
            if t[i] + 1 < top:
                nxt = t[:i] + (t[i] + 1,) + t[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (s + 1, nxt))
    out = np.array(out)[np.arange(limit) % len(out)]
    out.flags.writeable = False
    return out


def _cone_masks(nl):
    """Per net, the mask of the instance tags (bit i: the i-th in sorted
    order) whose gate outputs the net is or feeds: one pass in reverse
    topological order, each gate passing its output's mask to its inputs."""
    bit = {t: 1 << i for i, t in enumerate(sorted(nl.instances))}
    masks = [0] * nl.n_nets
    for g in reversed(nl.ordered_gates()):
        masks[g.output] |= bit[g.tag]
        for i in g.inputs:
            masks[i] |= masks[g.output]
    return tuple(masks)


def _replay_groups(profile, masks, bit):
    """Rarity-ranked input word assignments that reproduce observed rare
    values of the nets whose ``masks`` entry holds ``bit``, grouped by
    disjoint word support (most specific support wins)."""
    per_sup = {}
    for net, sup, entry in profile.replay:
        if masks[net] & bit:
            per_sup.setdefault(sup, []).append(entry)
    claimed = set()
    groups = []
    order = sorted(per_sup, key=lambda s: (len(s), min(per_sup[s])[0], s))
    for sup in order:
        if claimed & set(sup):
            continue
        claimed |= set(sup)
        ranked, seen_vals = [], set()
        for *_, key in sorted(per_sup[sup]):
            if key in seen_vals:
                continue
            seen_vals.add(key)
            ranked.append(dict(zip(sup, key)))
            if len(ranked) >= 8:
                break
        groups.append((sup, ranked))
    return groups


def _stress_values(nl, tag, vals, profile, seed, drawn):
    """Fill ``vals``, a zeroed int64 array per input word, with directed
    values for one instance: a low-operand and a high-operand third on the
    input words of its fan-in cone, and a third replaying composed rare
    values of the cone's nets: the nets and input word bits whose
    :func:`_cone_masks` entry holds the instance's bit, else a random third;
    drawn from the tag's rng once per (tag, cone), kept in ``drawn``."""
    words = dict(nl.input_words())
    masks, bit = nl.memo(_cone_masks), 1 << sorted(nl.instances).index(tag)
    cone = tuple(w for w in sorted(words)
                 if any(masks[b] & bit for b in words[w]))
    budget = len(next(iter(vals.values())))
    b1 = budget // 3
    lo, b3 = 2 * b1, budget - 2 * b1  # b3 >= 1
    if (tag, cone) not in drawn:
        rng = sub_rng(seed, 0xE51, zlib.crc32(tag.encode()))
        tops = [(1 << len(words[w]), 1 << max(1, len(words[w]) // 2))
                for w in cone]
        ends = [(rng.integers(0, h, b1), top - h + rng.integers(0, h, b1))
                for top, h in tops]
        drawn[tag, cone] = {w: np.concatenate((*e, rng.integers(0, top, b3)))
                            for w, e, (top, _) in zip(cone, ends, tops)}
    groups = _replay_groups(profile, masks, bit)
    n = lo if groups else budget
    for w in cone:
        vals[w][:n] = drawn[tag, cone][w][:n]
    if groups:  # the groups' words are disjoint
        combos = _rank_combos(tuple(len(r) for _, r in groups), b3)
        for (sup, ranked), idx in zip(groups, combos.T):
            for w in sup:
                vals[w][lo:] = np.array([v[w] for v in ranked])[idx]


def _stress_scores(cands, jobs, profiles, config):
    """Resilience of each ``(candidate index, tag)`` job against the
    per-vector majority of all candidates.

    Every job's stress vectors come from its own per-tag rng, so they do
    not depend on which other jobs share the batch.  Each job fills its
    slice of one dict of word values; its distinct vectors are packed once,
    and each candidate is simulated once on them, in candidate order; only
    its output word values are kept.  Their :func:`_consensus` is taken
    once; its majority is per vector, so a job's slice of the deviations,
    gathered back, scores the same float as simulating that job alone.
    """
    if not jobs:
        return []
    budget, words, drawn = config.stress_budget, cands[0][1].signature()[0], {}
    vals = {w: np.zeros(len(jobs) * budget, np.int64) for w, _ in words}
    for j, (idx, tag) in enumerate(jobs):
        _stress_values(cands[idx][1], tag, {w: v[j * budget:(j + 1) * budget]
                                            for w, v in vals.items()},
                       profiles[idx], config.seed, drawn)
    # one int64 key per vector up to 63 input bits, else a row of bytes
    offs = np.cumsum([0] + [n for _, n in words]).tolist()
    key = (sum(vals[w] << off for (w, _), off in zip(words, offs))
           if offs[-1] <= 63 else np.stack([vals[w] for w, _ in words], 1)
           .view(np.dtype((np.void, 8 * len(words)))).ravel())
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    stim = pack(words, {w: v[first] for w, v in vals.items()})
    rows = [_output_values(simulate(nl, stim)) for _, nl in cands]
    deviating = np.zeros((len(cands), len(first)), bool)
    for stack, maj, tol in _consensus(cands, rows, config.dev_tol):
        deviating |= np.abs(stack - maj) > tol
    return [float(1.0 - deviating[idx, inverse[j * budget:(j + 1) * budget]]
                  .mean()) for j, (idx, _) in enumerate(jobs)]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class InstanceScore:
    """Fused evidence for one instance of one candidate."""

    tag: str
    kind_label: str
    hits: int
    resilience: float | None
    rare: bool
    raw: float
    suspicion: float
    flagged: bool


@dataclass(frozen=True)
class NetlistReport:
    netlist_id: str
    verdict: str
    error_rank: int
    mred: float
    instances: tuple


@dataclass(frozen=True)
class DetectionReport:
    netlists: tuple

    def verdicts(self) -> dict:
        return {r.netlist_id: r.verdict for r in self.netlists}


def classify(candidates, config: DetectConfig | None = None) \
        -> DetectionReport:
    """Run the full screening pipeline and flag suspicious instances.

    Per candidate: rank against the majority, collect near-critical path
    hits per instance, stress-test the approximate instances that sit on
    those paths, and double the evidence of instances owning rare nets.
    Deterministic instances skip the stress step and are flagged on the
    path plus rare-net combination alone.  Scores are normalised to the
    worst instance of the same netlist; a netlist with at least one flag is
    INFECTED.  The stress vectors of all instances are batched: each
    candidate is simulated once on their distinct vectors.
    """
    config = config or DetectConfig()
    cands = _checked(candidates)
    streams = defender_streams(config)
    stim = pack(cands[0][1].signature()[0], *map(streams.get, sorted(streams)))
    profiles = [_profile(nl, stim, config.theta) for _, nl in cands]
    rank = _rank(cands, [p.out_vals for p in profiles], config.dev_tol)
    pos = {e.netlist_id: i for i, e in enumerate(rank)}
    mred = {e.netlist_id: e.mred for e in rank}
    hits = [suspect_instances(nl, config.clock, config.scales,
                              config.n_paths, config.window, config.margin)
            for _, nl in cands]
    jobs = [(idx, tag) for idx, (_, nl) in enumerate(cands)
            for tag in sorted(nl.instances)
            if nl.instances[tag].kind_label == "approximate"
            and hits[idx].get(tag, 0)]
    stressed = dict(zip(jobs, _stress_scores(cands, jobs, profiles, config)))
    reports = []
    for idx, (cid, nl) in enumerate(cands):
        rare = profiles[idx].rare_tags
        rows = []
        for tag in sorted(nl.instances):
            inst = nl.instances[tag]
            h = hits[idx].get(tag, 0)
            r = tag in rare
            res = stressed.get((idx, tag))
            if inst.kind_label == "approximate":
                raw = h * (1.0 - (res if res is not None else 1.0)) \
                    * (2.0 if r else 1.0)
            else:
                raw = float(2 * h) if r else 0.0
            rows.append((tag, inst.kind_label, h, res, r, raw))
        mx = max((row[-1] for row in rows), default=0.0)
        entries = []
        for tag, label, h, res, r, raw in rows:
            s = raw / mx if mx > 0.0 else 0.0
            fl = mx > 0.0 and s >= config.threshold
            entries.append(InstanceScore(tag, label, h, res, r, raw, s, fl))
        reports.append(NetlistReport(
            cid, "INFECTED" if any(e.flagged for e in entries) else "CLEAN",
            pos[cid], mred[cid], tuple(entries)))
    return DetectionReport(tuple(reports))


# ---------------------------------------------------------------------------
# scoring against ground truth


@dataclass(frozen=True)
class Metrics:
    """Instance-level confusion summary of one detection run."""

    accuracy: float
    fpr: float
    fnr: float | None
    tp: int
    fp: int
    tn: int
    fn: int


def score(report: DetectionReport, truth: dict) -> Metrics:
    """Compare flags against known infected instance tags per netlist.

    ``truth`` maps every netlist id to the (possibly empty) collection of
    its infected instance tags.  fpr is flagged-clean over clean, fnr is
    missed over infected (None when nothing was infected).
    """
    ids = sorted(r.netlist_id for r in report.netlists)
    if ids != sorted(truth):
        raise LabelMismatch("ground truth does not cover the report")
    tp = fp = tn = fn = 0
    for r in report.netlists:
        bad = set(truth[r.netlist_id])
        known = {e.tag for e in r.instances}
        if not bad <= known:
            raise LabelMismatch(
                f"unknown infected tags {sorted(bad - known)} "
                f"in {r.netlist_id!r}")
        for e in r.instances:
            if e.flagged and e.tag in bad:
                tp += 1
            elif e.flagged:
                fp += 1
            elif e.tag in bad:
                fn += 1
            else:
                tn += 1
    total = tp + fp + tn + fn
    if not total:
        raise LabelMismatch("empty report")
    acc = (tp + tn) / total
    fpr = fp / (fp + tn) if (fp + tn) else 0.0
    fnr = fn / (tp + fn) if (tp + fn) else None
    return Metrics(acc, fpr, fnr, tp, fp, tn, fn)
