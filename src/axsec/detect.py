"""Trojan screening for sets of functionally interchangeable netlists.

The defender holds several candidate implementations of one design and no
golden reference.  Agreement between the candidates stands in for ground
truth: per-vector majority values anchor both the error ranking and the
deviation checks, so a lone tampered netlist gives itself away by
disagreeing under the right stimulus.  Per-instance suspicion fuses three
signals: presence on near-critical paths, loss of resilience under directed
stress vectors, and ownership of rarely switching nets.

Candidates must share one :meth:`Netlist.signature`; the ranking scores
vectors with :func:`axsec.sim.relative_error` against the majority, reading
the one profiling simulation per candidate kept in :class:`_Profile`.
"""

from __future__ import annotations

import heapq
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (BadParams, EmptySet, LabelMismatch, SignatureMismatch,
                     UnknownInstance)
from .netlist import GateKind, Netlist
from .sim import VectorStream, relative_error, simulate
from .sta import calibrated_model, near_critical_paths, paths_to_instances

__all__ = [
    "DetectConfig", "RankEntry", "InstanceScore", "NetlistReport",
    "DetectionReport", "Metrics", "rank_by_error", "suspect_instances",
    "resilience_test", "classify", "score", "defender_streams",
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
        if self.seed < 0:
            raise BadParams(f"seed must be non-negative, got {self.seed}")
        if not self.clock > 0:  # also rejects NaN
            raise BadParams(f"clock must be positive, got {self.clock}")


def defender_streams(config: DetectConfig) -> dict:
    """The two profiling streams every candidate is replayed under."""
    su, sc = (int(x) for x in np.random.SeedSequence(
        (config.seed, 0xD57)).generate_state(2))
    return {
        "uniform": VectorStream(config.vectors, su, "uniform"),
        "correlated": VectorStream(config.vectors, sc, "correlated",
                                   config.rho),
    }


# ---------------------------------------------------------------------------
# candidate bookkeeping


def _checked(candidates):
    if isinstance(candidates, dict):
        cands = sorted(candidates.items())
    else:
        cands = sorted((str(i), nl) for i, nl in candidates)
    if not cands:
        raise EmptySet("no candidate netlists")
    sig = cands[0][1].signature()
    for cid, nl in cands[1:]:
        if nl.signature() != sig:
            raise SignatureMismatch(
                f"netlist {cid!r} does not match the common I/O words")
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


class _Profile:
    """Cached per-candidate simulation of the profiling streams."""

    def __init__(self, nl: Netlist, streams: dict):
        self.nl = nl
        self.traces = [simulate(nl, streams[m]) for m in sorted(streams)]
        self.n = sum(t.n_vectors for t in self.traces)
        ones = sum(t.ones() for t in self.traces)
        self.p1 = ones / self.n
        self.in_vals = {w: np.concatenate([t.word_values(b)
                                           for t in self.traces])
                        for w, b in nl.input_words()}
        self.out_vals = {w: np.concatenate([t.word_values(b)
                                            for t in self.traces])
                         for w, b in nl.output_words()}
        self._first = {}
        self._rare = {}

    def rare(self, theta: float) -> dict:
        """Non-constant gate outputs stuck near one value, each mapped to
        the value it takes with probability below ``theta``.  Memoized per
        ``theta``; callers must not mutate the result."""
        if theta in self._rare:
            return self._rare[theta]
        out = self._rare[theta] = {}
        for g in self.nl.gates:
            if g.kind in (GateKind.CONST0, GateKind.CONST1):
                continue
            p = self.p1[g.output]
            if p < theta:
                out[g.output] = 1
            elif 1.0 - p < theta:
                out[g.output] = 0
        return out

    def first(self, net: int, val: int) -> int | None:
        """Index of the first profiling vector on which ``net`` carries
        ``val``, or None.  Only the index is cached, not the net's bits."""
        key = (net, val)
        if key not in self._first:
            hits = np.flatnonzero(np.concatenate([t.bits(net)
                                                  for t in self.traces])
                                  == val)
            self._first[key] = int(hits[0]) if len(hits) else None
        return self._first[key]


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


def _rank(cands, out_vals, tol_frac):
    widths = dict(cands[0][1].signature()[1])
    words = sorted(out_vals[0])
    n = len(out_vals[0][words[0]])
    er = np.zeros(len(cands))
    med = np.zeros(len(cands))
    mred = np.zeros(len(cands))
    wce = np.zeros(len(cands))
    for w in words:
        stack = np.stack([v[w] for v in out_vals])
        maj = _majority(stack, tol_frac * ((1 << widths[w]) - 1))
        ad = np.abs(stack - maj).astype(np.float64)
        er += (ad > 0).mean(axis=1)
        med += ad.mean(axis=1)
        mred += relative_error(ad, maj).mean(axis=1)
        wce = np.maximum(wce, ad.max(axis=1))
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
    return _rank(cands, [_Profile(nl, streams).out_vals for _, nl in cands],
                 tol)


# ---------------------------------------------------------------------------
# structural suspects


def suspect_instances(nl: Netlist, clock: float, scales=(1.0, 1.2),
                      n_paths: int = 100, window: float | None = None,
                      margin: float = 0.9) -> dict:
    """Near-critical path membership counts per instance tag, summed over
    delay scales; most hit first."""
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


def _rank_combos(lengths, limit):
    """Index tuples over the given ranges, ordered by increasing rank sum."""
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
    return out


def _replay_groups(nl, profile, cone_nets, theta):
    """Rarity-ranked input word assignments that reproduce observed rare
    values, grouped by disjoint word support (most specific support wins)."""
    per_sup = {}
    for net, val in profile.rare(theta).items():
        if net not in cone_nets:
            continue
        p = float(profile.p1[net])
        t = profile.first(net, val)
        if t is None:
            continue
        sup = nl.input_word_support((net,))
        rarity = p if val == 1 else 1.0 - p
        # key by first realization and name, not net id: ids are renumbered
        # on a serialization round trip and must not steer tie-breaks
        per_sup.setdefault(sup, []).append((rarity, t, nl.net_names[net]))
    claimed = set()
    groups = []
    order = sorted(per_sup, key=lambda s: (len(s), min(per_sup[s])[0], s))
    for sup in order:
        if claimed & set(sup):
            continue
        claimed |= set(sup)
        ranked, seen_vals = [], set()
        for rarity, t, _name in sorted(per_sup[sup]):
            key = tuple(int(profile.in_vals[w][t]) for w in sup)
            if key in seen_vals:
                continue
            seen_vals.add(key)
            ranked.append(dict(zip(sup, key)))
            if len(ranked) >= 8:
                break
        groups.append((sup, ranked))
    return groups


def _stress_values(nl, tag, budget, profile, theta, rng):
    """Directed input word values for one instance: a low-operand third, a
    high-operand third, and a third replaying composed rare values."""
    words = dict(nl.input_words())
    outs = [g.output for g in nl.gates_of_tag(tag)]
    cone_nets = nl.fanin_nets(outs)
    cone = set(nl.input_word_support(outs))
    vals = {w: np.zeros(budget, np.int64) for w in words}
    b1 = budget // 3
    b2 = budget // 3
    lo = b1 + b2
    b3 = budget - lo
    for w in sorted(cone):
        wl = len(words[w])
        half = max(1, wl // 2)
        vals[w][:b1] = rng.integers(0, 1 << half, b1)
        vals[w][b1:lo] = ((1 << wl) - (1 << half)
                          + rng.integers(0, 1 << half, b2))
    groups = _replay_groups(nl, profile, cone_nets, theta)
    if groups and b3:
        combos = _rank_combos([len(r) for _, r in groups], b3)
        for r in range(b3):
            combo = combos[r % len(combos)]
            for (sup, ranked), idx in zip(groups, combo):
                for w, v in ranked[idx].items():
                    vals[w][lo + r] = v
    elif b3:
        for w in sorted(cone):
            wl = len(words[w])
            vals[w][lo:] = rng.integers(0, 1 << wl, b3)
    return vals


def _word_bits(vals, widths):
    return {w: ((v[:, None] >> np.arange(widths[w], dtype=np.int64))
                & 1).astype(np.uint8)
            for w, v in vals.items()}


def _output_values(nl, bits):
    """Output word values of one run; the full traces are dropped."""
    tr = simulate(nl, bits)
    return {w: tr.word_values(b) for w, b in nl.output_words()}


def _stress_scores(jobs, peers, budget, config):
    """Resilience of each ``(netlist, tag, profile)`` job against the
    per-vector majority of the ``peers`` candidates.

    Every job's stress vectors come from its own per-tag rng, so they do
    not depend on which other jobs share the batch.  The jobs' vectors are
    concatenated and each distinct netlist is simulated once on the union;
    only its output word values are kept.  The majority is taken per
    vector, so scoring a job's column slice of the union gives the same
    float as simulating that job alone.  A job netlist that is not one of
    the peers is simulated as an extra, non-voting row.
    """
    if not jobs:
        return []
    if budget <= 0:
        raise BadParams("stress budget must be positive")
    for nl, tag, _ in jobs:
        if not nl.gates_of_tag(tag):
            raise UnknownInstance(tag)
    voters = [nl for _, nl in _checked(peers)]
    stress = []
    for nl, tag, profile in jobs:
        if profile is None:
            profile = _Profile(nl, defender_streams(config))
        rng = np.random.default_rng(np.random.SeedSequence(
            (config.seed, 0xE51, zlib.crc32(tag.encode()))))
        stress.append(_stress_values(nl, tag, budget, profile, config.theta,
                                     rng))
    widths = dict(jobs[0][0].signature()[0])
    bits = _word_bits({w: np.concatenate([v[w] for v in stress])
                       for w in widths}, widths)
    rows = {}
    for nl in voters + [nl for nl, _, _ in jobs]:
        if id(nl) not in rows:
            rows[id(nl)] = _output_values(nl, bits)
    tols = {w: config.dev_tol * ((1 << len(b)) - 1)
            for w, b in jobs[0][0].output_words()}
    scores = []
    for j, (nl, _, _) in enumerate(jobs):
        cols = slice(j * budget, (j + 1) * budget)
        deviating = np.zeros(budget, bool)
        for w, tol in tols.items():
            maj = _majority(np.stack([rows[id(v)][w][cols] for v in voters]),
                            tol)
            deviating |= np.abs(rows[id(nl)][w][cols] - maj) > tol
        scores.append(float(1.0 - deviating.mean()))
    return scores


def resilience_test(netlist: Netlist, instance_tag: str, budget: int,
                    peers=None, config: DetectConfig | None = None,
                    profile: _Profile | None = None) -> float:
    """Fraction of directed stress vectors on which the netlist still agrees
    with the candidate majority (1.0 is fully resilient).

    Stress aims at the instance's input cone: small operands, large
    operands, and composed replays of input values that made cone nets take
    their rare values during profiling.  ``peers`` supplies the candidates
    that vote on the expected outputs; a netlist that is not among them does
    not vote.  Without peers the netlist is its own majority and the score
    is vacuously 1.
    """
    config = config or DetectConfig()
    (res,) = _stress_scores([(netlist, instance_tag, profile)],
                            peers or [("self", netlist)], budget, config)
    return res


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

    def flagged(self) -> dict:
        return {r.netlist_id: tuple(e.tag for e in r.instances if e.flagged)
                for r in self.netlists}


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
    candidate is simulated once on their union, not once per instance.
    """
    config = config or DetectConfig()
    cands = _checked(candidates)
    streams = defender_streams(config)
    profiles = [_Profile(nl, streams) for _, nl in cands]
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
    stressed = dict(zip(jobs, _stress_scores(
        [(cands[idx][1], tag, profiles[idx]) for idx, tag in jobs],
        cands, config.stress_budget, config)))
    reports = []
    for idx, (cid, nl) in enumerate(cands):
        rare = {nl.driver(n).tag for n in profiles[idx].rare(config.theta)}
        rows = []
        raws = {}
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
            raws[tag] = raw
            rows.append((tag, inst.kind_label, h, res, r, raw))
        mx = max(raws.values(), default=0.0)
        entries = []
        infected = False
        for tag, label, h, res, r, raw in rows:
            s = raw / mx if mx > 0.0 else 0.0
            fl = mx > 0.0 and s >= config.threshold
            infected = infected or fl
            entries.append(InstanceScore(tag, label, h, res, r, raw, s, fl))
        reports.append(NetlistReport(
            cid, "INFECTED" if infected else "CLEAN", pos[cid], mred[cid],
            tuple(entries)))
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
