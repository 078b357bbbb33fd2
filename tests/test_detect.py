"""Screening pipeline: consensus, ranking, stress tests, classification."""

import re
import zlib
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec import detect, experiment
from axsec.arith import ArchParams, gen_module
from axsec.attack import AttackConfig, insert_trojan
from axsec.designs import bfly_spec, fir_spec
from axsec.detect import (DetectConfig, DetectionReport, InstanceScore,
                          Metrics, NetlistReport, classify, defender_streams,
                          rank_by_error, score, suspect_instances, _checked,
                          _majority, _profile, _stress_scores)
from axsec.errors import (BadParams, EmptySet, LabelMismatch,
                          SignatureMismatch)
from axsec.experiment import ExperimentConfig, run_experiment
from axsec.netlist import GateKind, NetlistBuilder
from axsec.sim import (VectorStream, activity_profile, pack, simulate,
                       sub_rng)
from axsec.textfmt import parse_netlist

from tests import oracles
from tests.conftest import dags
from tests.oracles import (by_net, fanin_nets, gates_of_tag, rank_errors,
                           word_values)

SPEC = fir_spec(8, (3, 5, 7, 9))
ASSIGN = {"add0": ArchParams("add", "loa", 16, 4),
          "add2": ArchParams("add", "loa", 17, 4)}


@pytest.fixture(scope="module")
def trio():
    """Exact build, clean approximate variant, infected approximate
    variant."""
    clean = SPEC.build(ASSIGN)
    stream = VectorStream(20_000, 7, "correlated", 0.9)
    act = activity_profile(clean, stream)
    cfg = AttackConfig(q=4, theta=0.08, scoap_ceiling=500, payload="leak",
                       secret_word="coef", stream=stream, clock=55.0, seed=3)
    infected, ht = insert_trojan(clean, act, None, cfg)
    return {"v0": SPEC.build(None), "v1": clean, "v2": infected}, ht


# -- consensus --------------------------------------------------------------

def test_majority_without_tolerance():
    vals = np.array([[3, 1, 7],
                     [3, 2, 7],
                     [5, 3, 7]])
    assert _majority(vals).tolist() == [3, 1, 7]  # ties take the smallest


def test_majority_tolerance_bloc():
    # two tampered candidates agree exactly on 10; three honest ones spread
    # over 13..15.  With tol 2 the honest bloc wins even though no two of
    # them match bit for bit.
    col = np.array([[10], [10], [13], [14], [15]])
    assert _majority(col, tol=0.0).tolist() == [10]
    assert _majority(col, tol=2.0).tolist() == [13]


# -- profiling --------------------------------------------------------------

def _stimulus(cands, streams):
    """A screen's profiling stimulus: its streams packed in mode order."""
    return pack(cands[0][1].signature()[0],
                *(streams[m] for m in sorted(streams)))


class _TwoRunProfile:
    """Reference profile: one simulation per stream, concatenated per
    figure, ones counted word by word, first hits and input values looked
    up net by net in the unpacked bits."""

    def __init__(self, nl, streams):
        self.nl = nl
        self.traces = [simulate(nl, streams[m]) for m in sorted(streams)]
        self.n = sum(t.n_vectors for t in self.traces)
        self.p1 = by_net(nl, sum(np.bitwise_count(t.c).sum(axis=1)
                                 for t in self.traces)) / self.n
        self.in_vals = {w: np.concatenate([word_values(t, b)
                                           for t in self.traces])
                        for w, b in nl.input_words()}
        self.out_vals = {w: np.concatenate([t.word_values(b)
                                            for t in self.traces])
                         for w, b in nl.output_words()}

    def rare(self, theta):
        out = {}
        for g in self.nl.gates:
            if g.kind in (GateKind.CONST0, GateKind.CONST1):
                continue
            p = self.p1[g.output]
            if p < theta:
                out[g.output] = 1
            elif 1.0 - p < theta:
                out[g.output] = 0
        return out

    def first(self, net, val):
        hits = np.flatnonzero(np.concatenate([word_values(t, [net])
                                              for t in self.traces]) == val)
        return int(hits[0]) if len(hits) else None

    def replay(self, theta):
        out = []
        for net, val in sorted(self.rare(theta).items()):
            t = self.first(net, val)
            if t is not None:
                p = float(self.p1[net])
                rarity = p if val else 1.0 - p
                sup = self.nl.input_word_support((net,))
                out.append((net, sup, (rarity, t, self.nl.net_names[net],
                                       tuple(int(self.in_vals[w][t])
                                             for w in sup))))
        return tuple(out)


BFLY = bfly_spec()


def _bfly_builds():
    add = BFLY.slots[1][2]
    return {"exact": BFLY.build(None),
            "loa": BFLY.build({"add0": ArchParams("add", "loa", add, 4)}),
            "trunc": BFLY.build({"mul0": ArchParams("mul", "trunc", 8, 4)})}


@pytest.mark.parametrize("vectors", [64, 700, 2000, 40_000])
@pytest.mark.parametrize("design", ["fir", "bfly"])
def test_one_run_profile_equals_the_two_run_profile(trio, design, vectors):
    # at 40,000 vectors per stream the concatenation spans two chunks; the
    # p1 and first hits a profile reads are checked on every net
    cands = _checked(trio[0] if design == "fir" else _bfly_builds())
    streams = defender_streams(DetectConfig(vectors=vectors, seed=vectors))
    stim = _stimulus(cands, streams)
    for cid, nl in cands:
        old = _TwoRunProfile(nl, streams)
        run = simulate(nl, stim)
        for w, b in nl.input_words():  # the two streams, concatenated
            assert np.array_equal(run.word_values(b), old.in_vals[w])
        p1 = activity_profile(nl, run).p1
        assert p1.dtype == old.p1.dtype
        assert np.array_equal(p1, old.p1), cid
        firsts = [(net, v) for net in range(nl.n_nets) for v in (0, 1)]
        assert [hit[0] if hit else None for hit in run.hits(firsts, 1)] \
            == [old.first(*k) for k in firsts], cid
        for theta in (0.05, 0.1, 0.3):
            new = _profile(nl, stim, theta)
            # a profile keeps only what the screen reads
            assert [f.name for f in fields(new)] == ["out_vals", "rare_tags",
                                                     "replay"]
            assert new.out_vals.keys() == old.out_vals.keys()
            for w in old.out_vals:
                assert np.array_equal(new.out_vals[w], old.out_vals[w]), \
                    (cid, w)
            assert new.rare_tags == {nl.driver(n).tag
                                     for n in old.rare(theta)}, (cid, theta)
            assert new.replay == old.replay(theta), (cid, theta)


def test_replay_groups_replay_the_first_rare_hits_of_a_clean_candidate(trio):
    """Every replayed assignment of a clean candidate is the input words of
    its support at the first profiling vector where a cone net carries its
    rare value, found by scanning the bits; per support, the rarest nets
    come first, then the earliest hits, and a repeated assignment is
    dropped."""
    nl, config = trio[0]["v1"], DetectConfig()
    streams = defender_streams(config)
    profile = _profile(nl, _stimulus([("v1", nl)], streams), config.theta)
    ref = _TwoRunProfile(nl, streams)
    replayed = 0
    masks = nl.memo(detect._cone_masks)
    for i, tag in enumerate(sorted(nl.instances)):
        if nl.instances[tag].kind_label != "approximate":
            continue
        cone = fanin_nets(nl, [g.output for g in gates_of_tag(nl, tag)])
        groups = detect._replay_groups(profile, masks, 1 << i)
        for sup, ranked in groups:
            hits = []
            for net, val in ref.rare(config.theta).items():
                t = ref.first(net, val)  # None: the rare value never showed
                if (net in cone and t is not None
                        and nl.input_word_support((net,)) == sup):
                    p = float(ref.p1[net])
                    hits.append((p if val else 1.0 - p, t, nl.net_names[net]))
            hits.sort()
            want = []
            for _, t, _ in hits:
                vals = {w: int(ref.in_vals[w][t]) for w in sup}
                if vals not in want:
                    want.append(vals)
            assert ranked == want[:8], (tag, sup)
            replayed += len(ranked)
    assert replayed


def test_replay_groups_keep_eight_distinct_assignments_per_support():
    # ten rare nets of one support hit at ten vectors, word a repeating
    # its first value: the eight rarest distinct values are replayed
    a = [5, 5, 1, 2, 3, 4, 6, 7, 8, 9]
    profile = SimpleNamespace(replay=tuple(
        (n, ("a",), (0.01 * n, n, f"n{n}", (a[n],))) for n in range(10)))
    assert detect._replay_groups(profile, [1] * 10, 1) == [
        (("a",), [{"a": v} for v in (5, 1, 2, 3, 4, 6, 7, 8)])]


_NO_REPLAY = SimpleNamespace(replay=())


def _assert_cone_masks(nl):
    """Each tag's bit is set on exactly the fan-in cone of its gate outputs,
    by the set-walk oracle, and no mask holds a bit past the last tag.  The
    stress step reads the cone's input words off the masks: without rare
    values to replay, it draws exactly the words with a bit in the cone."""
    masks = detect._cone_masks(nl)
    assert type(masks) is tuple and len(masks) == nl.n_nets
    tags = sorted(nl.instances)
    for i, tag in enumerate(tags):
        outs = [g.output for g in gates_of_tag(nl, tag)]
        assert {n for n, m in enumerate(masks) if m >> i & 1} \
            == fanin_nets(nl, outs), tag
        drawn = {}
        for _ in range(2):  # a second job of the tag reads the kept draws
            vals, want = ({w: np.zeros(300, np.int64)
                           for w, _ in nl.input_words()} for _ in range(2))
            detect._stress_values(nl, tag, vals, _NO_REPLAY, i, drawn)
            oracles.stress_values(nl, tag, want, _NO_REPLAY, sub_rng(
                i, 0xE51, zlib.crc32(tag.encode())))
            assert all(np.array_equal(vals[w], want[w]) for w in vals)
            assert tuple(w for w, _ in nl.input_words() if vals[w].any()) \
                == nl.input_word_support(outs), tag
    assert not any(m >> len(tags) for m in masks)


def _one_tag(reads_b):
    """Inputs a and b and one instance u, y = NOT(a) AND b, or AND NOT(a)
    alone, whose cone then leaves b out."""
    b = NetlistBuilder()
    a, c = b.pi("a"), b.pi("b")
    b.instance("u", "approximate", "add", "x")
    n = b.gate(GateKind.NOT, (a,), stem="n")
    b.po(b.gate(GateKind.AND, (n, c if reads_b else n), stem="y"))
    return b.build()


def test_a_screen_draws_each_tag_and_cone_once():
    # one tag over two cones, in both orders, by jobs that replay a value
    # of word a or nothing: each fill equals a fresh draw of the tag's rng,
    # and a replaying job leaves the last third of b at 0
    narrow, wide = _one_tag(False), _one_tag(True)
    for order in ((narrow, wide), (wide, narrow)):
        drawn = {}
        for nl in order * 2:
            net = nl.net_names.index("n")
            for profile in (_NO_REPLAY, SimpleNamespace(replay=(
                    (net, ("a",), (0.01, 0, "n", (1,))),))):
                vals, want = ({w: np.zeros(30, np.int64)
                               for w, _ in nl.input_words()} for _ in range(2))
                detect._stress_values(nl, "u", vals, profile, 5, drawn)
                oracles.stress_values(nl, "u", want, profile,
                                      sub_rng(5, 0xE51, zlib.crc32(b"u")))
                assert all(np.array_equal(vals[w], want[w]) for w in vals)
                if nl is wide:
                    assert vals["b"][:20].any()
                    assert vals["b"][20:].any() != bool(profile.replay)
        assert len(drawn) == 2


@settings(max_examples=300, deadline=None)
@given(dags())
def test_cone_masks_are_the_fanin_cones_of_random_dags(nl):
    # three tags over shuffled gate ids: a tag recurs further down a path,
    # and id order is not level order
    _assert_cone_masks(nl)


def test_stress_values_equal_the_one_at_a_time_fill(tmp_path, monkeypatch):
    # every stress job of fir seeds 1-4; each replays rare values.  The
    # oracle draws from a fresh rng of the tag, the step from the thirds
    # its screen drew once per (tag, cone)
    jobs, real = [], detect._stress_values

    def compared(nl, tag, vals, profile, seed, drawn):
        want = {w: v.copy() for w, v in vals.items()}
        oracles.stress_values(nl, tag, want, profile,
                              sub_rng(seed, 0xE51, zlib.crc32(tag.encode())))
        real(nl, tag, vals, profile, seed, drawn)
        jobs.append(all(np.array_equal(vals[w], want[w]) for w in vals))

    monkeypatch.setattr(detect, "_stress_values", compared)
    for seed in range(1, 5):
        run_experiment(ExperimentConfig(seed=seed), tmp_path / f"o{seed}")
    assert len(jobs) == 136 and all(jobs)


class _Screened(Exception):
    """Raised in place of the screen, once its candidates are seen."""


@pytest.mark.parametrize("design", ["fir", "bfly"])
def test_cone_masks_are_the_fanin_cones_of_every_trial_candidate(
        design, tmp_path, monkeypatch):
    seen = []

    def capture(cands, config):
        seen.append(cands)
        raise _Screened

    monkeypatch.setattr(experiment, "classify", capture)
    for seed in range(3):
        with pytest.raises(_Screened):
            run_experiment(ExperimentConfig(design=design, seed=seed),
                           tmp_path / str(seed))
    infected = 0
    for cands in seen:
        for _, nl in cands:
            _assert_cone_masks(nl)
            infected += any(re.search(r"\.g\d+$", t) for t in nl.instances)
    assert len(seen) == 3
    # every bfly insertion is rejected by its budget or its clock
    assert infected > 0 if design == "fir" else infected == 0


def test_the_cone_pass_runs_once_per_distinct_netlist(trio, monkeypatch):
    calls = []
    real = detect._cone_masks

    def counting(nl):
        calls.append(nl)
        return real(nl)

    monkeypatch.setattr(detect, "_cone_masks", counting)
    (cands, _), config = trio, DetectConfig(vectors=500, stress_budget=60)
    cands = dict(cands, v1b=cands["v1"])  # a shared build, listed twice
    first = classify(cands, config)
    assert len(calls) == len({id(nl) for nl in calls})
    stressed = {r.netlist_id for r in first.netlists
                if any(e.resilience is not None for e in r.instances)}
    assert stressed == {"v0", "v1", "v1b", "v2"}
    assert {id(nl) for nl in calls} == {id(cands[c]) for c in stressed}
    assert classify(cands, config) == first
    assert len(calls) == 3  # the second screen reads the kept masks


# -- error ranking ----------------------------------------------------------

@pytest.mark.parametrize("design", ["fir", "bfly"])
def test_a_screen_takes_one_consensus_per_step(trio, design, monkeypatch):
    # the stress step took a majority per (job, word); now the ranking and
    # the stress step each take one per output word, the stress step's
    # over the distinct vectors of its union
    if design == "fir":
        cands = trio[0]
    else:
        spec = bfly_spec()
        cands = {"v0": spec.build(None),
                 "v1": spec.build({"add0": ArchParams("add", "loa", 11, 4)}),
                 "v2": spec.build({"mul0": ArchParams("mul", "trunc", 8, 4)})}
    calls = []
    real = detect._majority

    def counting(vals, tol=0.0):
        calls.append(vals.shape)
        return real(vals, tol)

    slices, fill = [], detect._stress_values

    def kept(nl, tag, vals, *args):
        fill(nl, tag, vals, *args)
        slices.append(vals)

    monkeypatch.setattr(detect, "_majority", counting)
    monkeypatch.setattr(detect, "_stress_values", kept)
    rep = classify(cands, DetectConfig(vectors=500, stress_budget=60))
    jobs = sum(e.resilience is not None for r in rep.netlists
               for e in r.instances)
    nl = next(iter(cands.values()))
    words = len(nl.output_words())
    assert jobs > 1 and words == (1 if design == "fir" else 2)
    assert len(slices) == jobs
    union = set(zip(*(np.concatenate([v[w] for v in slices]).tolist()
                      for w, _ in nl.input_words())))
    assert 1 < len(union) < 60 * jobs
    assert calls == [(3, 1000)] * words + [(3, len(union))] * words


def test_rank_by_error_majority_is_not_the_exact_build(trio):
    cands, _ = trio
    entries = rank_by_error(cands, defender_streams(DetectConfig()))
    assert [e.netlist_id for e in entries] == ["v1", "v2", "v0"]
    # the two rough builds agree bit for bit off the trigger, so the
    # consensus is theirs and the exact netlist is the deviant one
    assert entries[0].mred == 0.0 and entries[0].er == 0.0
    assert entries[1].mred == 0.0
    assert entries[2].mred > 0.0 and entries[2].wce > 0.0
    assert entries[0].n_vectors == 4000


def test_rank_rejects_mismatched_candidates(trio):
    cands, _ = trio
    streams = defender_streams(DetectConfig())
    with pytest.raises(EmptySet):
        rank_by_error({}, streams)
    with pytest.raises(SignatureMismatch):
        rank_by_error({"a": cands["v0"],
                       "b": fir_spec(4, (1, 2, 3, 4)).build(None)}, streams)


@pytest.mark.parametrize("screen", ["classify", "rank_by_error"])
@pytest.mark.parametrize("given,twice", [
    ("list-two-netlists", "a"), ("list-one-netlist", "a"),
    ("list-int-and-str", "1"), ("dict-int-and-str", "1"),
])
def test_a_candidate_id_given_twice_is_refused(trio, kernel_calls, screen,
                                               given, twice):
    # ids are compared as strings, before any run, whatever the netlists
    a, b = trio[0]["v0"], trio[0]["v1"]
    cands = {"list-two-netlists": [("a", a), ("b", b), ("a", b)],
             "list-one-netlist": [("a", a), ("a", a)],
             "list-int-and-str": [(1, a), ("1", a)],
             "dict-int-and-str": {1: a, "1": b, "c": a}}[given]
    run = {"classify": lambda c: classify(c, DetectConfig(vectors=100)),
           "rank_by_error": lambda c: rank_by_error(
               c, defender_streams(DetectConfig(vectors=100)))}[screen]
    with pytest.raises(BadParams,
                       match=f"^candidate id '{twice}' is given twice$"):
        run(cands)
    assert not kernel_calls


def test_a_ranking_without_streams_is_refused(trio, kernel_calls):
    with pytest.raises(BadParams, match="^empty stream$"):
        rank_by_error(trio[0], {})
    assert not kernel_calls


def test_a_screen_refuses_an_output_word_over_63_bits(kernel_calls):
    # 63-bit inputs pass; the 64-bit sum would read negative as an int64
    nl = gen_module(ArchParams("add", "loa", 63, 8))
    with pytest.raises(BadParams, match="word 's' is 64 bits wide"):
        classify({"a": nl, "b": nl}, DetectConfig(vectors=100))
    assert not kernel_calls


@pytest.mark.parametrize("text,side", [
    ("input a\n", "output"),
    ("output y\ngate 0 CONST1 y\n", "input"),
], ids=["no-output", "no-input"])
def test_a_screen_refuses_candidates_without_a_word(kernel_calls, text,
                                                    side):
    nl = parse_netlist(text)
    streams = defender_streams(DetectConfig())
    for screen in (lambda c: classify(c, DetectConfig(vectors=100)),
                   lambda c: rank_by_error(c, streams)):
        with pytest.raises(BadParams,
                           match=f"^the candidates have no {side} word$"):
            screen({"a": nl, "b": nl})
    assert not kernel_calls


@st.composite
def _candidate_words(draw):
    """Output word values of 1-6 candidates over 1-3 words of 1-12 bits;
    about half the values are 0, so many vectors have a majority of 0."""
    n_cands, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    widths = {f"y{i}": w for i, w in enumerate(
        draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))}
    vals = [{} for _ in range(n_cands)]
    for w, bits in widths.items():
        value = st.one_of(st.just(0), st.integers(0, (1 << bits) - 1))
        for v in vals:
            v[w] = np.array(draw(st.lists(value, min_size=n, max_size=n)),
                            np.int64)
    return widths, vals


@settings(max_examples=200, deadline=None)
@given(_candidate_words(), st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_rank_terms_equal_the_float_array_oracle(words, tol):
    widths, vals = words
    nl = SimpleNamespace(signature=lambda: ((), tuple(widths.items())))
    cands = [(f"c{i}", nl) for i in range(len(vals))]
    stacks = [np.stack([v[w] for v in vals]) for w in sorted(widths)]
    majs = [_majority(s, tol * ((1 << widths[w]) - 1))
            for s, w in zip(stacks, sorted(widths))]
    got = {e.netlist_id: e for e in detect._rank(cands, vals, tol)}
    for (cid, _), want in zip(cands, rank_errors(stacks, majs)):
        e = got[cid]
        # repr tells floats apart bit for bit
        assert repr((e.er, e.med, e.mred, e.wce)) == repr(want)


# -- structural suspects ----------------------------------------------------

def test_suspect_instances_cover_the_slow_cone(trio):
    cands, _ = trio
    hits = suspect_instances(cands["v0"], 10.0)
    assert hits == {"top.add0": 200, "top.add2": 200, "top.mul0": 200}
    infected = suspect_instances(cands["v2"], 10.0)
    assert "top.mul0.g0" in infected


# -- resilience -------------------------------------------------------------

def test_resilience_pinned_values(trio):
    """Figure recorded before stress vectors were batched across
    instances."""
    cands, ht = trio
    (host,) = ht.host_instances
    by_tag = {e.tag: e for r in classify(cands).netlists
              if r.netlist_id == "v2" for e in r.instances}
    assert by_tag[host].resilience == 0.9733333333333334


# -- classification ---------------------------------------------------------

def test_classify_clean_exact_set_raises_no_flags():
    cands = {f"c{i}": SPEC.build(None) for i in range(3)}
    rep = classify(cands)
    assert set(rep.verdicts().values()) == {"CLEAN"}
    assert not any(e.flagged for r in rep.netlists for e in r.instances)
    for r in rep.netlists:
        assert all(e.suspicion == 0.0 for e in r.instances)


def test_classify_isolates_the_infected_candidate(trio):
    cands, ht = trio
    rep = classify(cands)
    v = rep.verdicts()
    assert v == {"v0": "CLEAN", "v1": "CLEAN", "v2": "INFECTED"}
    (host,) = ht.host_instances
    by_tag = {e.tag: e for r in rep.netlists if r.netlist_id == "v2"
              for e in r.instances}
    assert by_tag[host].flagged
    assert by_tag[host].suspicion == 1.0
    assert by_tag[host].rare
    assert by_tag[host].resilience is not None
    assert by_tag[host].resilience < 1.0


def test_classify_resilience_matches_standalone_test(trio):
    cands, _ = trio
    config = DetectConfig()
    rep = classify(cands, config)
    scored = [(r.netlist_id, e.tag, e.resilience) for r in rep.netlists
              for e in r.instances if e.resilience is not None]
    assert len({cid for cid, _, _ in scored}) == len(cands)
    # each score equals that of a batch holding its job alone
    checked = _checked(cands)
    idx = {cid: i for i, (cid, _) in enumerate(checked)}
    stim = _stimulus(checked, defender_streams(config))
    profiles = [_profile(nl, stim, config.theta) for _, nl in checked]
    for cid, tag, res in scored:
        assert _stress_scores(checked, [(idx[cid], tag)], profiles,
                              config) == [res], (cid, tag)


def _xor_trio(wa, wb):
    """Three candidates on input words a and b of ``wa`` and ``wb`` bits
    and a 4-bit output word y, bit i of it a[i] XOR b[i] (indices wrapped):
    v1 ANDs bit 0 and v2 ORs bit 1, so each deviates on some vectors."""
    cands = {}
    for cid, kinds in (("v0", "XXXX"), ("v1", "AXXX"), ("v2", "XOXX")):
        b = NetlistBuilder()
        a, c = ([b.pi(f"{w}{i}") for i in range(n)]
                for w, n in (("a", wa), ("b", wb)))
        b.instance("u", "approximate", "add", "x")
        ys = [b.gate({"X": GateKind.XOR, "A": GateKind.AND,
                      "O": GateKind.OR}[k], (a[i % wa], c[i % wb]),
                     stem=f"y{i}") for i, k in enumerate(kinds)]
        for w, nets in (("a", a), ("b", c), ("y", ys)):
            b.word(w, nets)
        for y in ys:
            b.po(y)
        cands[cid] = b.build()
    return _checked(cands)


@pytest.mark.parametrize("widths", [(8, 8), (40, 30)], ids=["key", "rows"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_stress_step_equals_the_full_union(widths, data):
    # drawn unions with repeats, and the union of one distinct vector, of
    # 16 input bits (one int64 key) and of 70 (rows of bytes)
    cands = _xor_trio(*widths)
    words = cands[0][1].signature()[0]
    # a few values per word, so distinct vectors share some of them
    per_word = [data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                   max_size=3)) for _, n in words]
    pool = data.draw(st.lists(st.tuples(*map(st.sampled_from, per_word)),
                              min_size=1, max_size=6))
    budget = data.draw(st.integers(1, 12))
    jobs = data.draw(st.lists(st.tuples(st.integers(0, 2), st.just("u")),
                              min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=len(jobs) * budget,
                               max_size=len(jobs) * budget))
    config = DetectConfig(stress_budget=budget)
    mixed = {w: np.array([pool[k][i] for k in picks], np.int64)
             for i, (w, _) in enumerate(words)}
    for union in (mixed, {w: np.full_like(v, v[0]) for w, v in mixed.items()}):
        slices = iter(range(len(jobs)))

        def fill(nl, tag, vals, profile, seed, kept):
            j = next(slices)
            for w, v in vals.items():
                v[:] = union[w][j * budget:(j + 1) * budget]

        with mock.patch.object(detect, "_stress_values", fill), \
                mock.patch.object(detect, "pack", wraps=pack) as packed:
            got = _stress_scores(cands, jobs, [None] * 3, config)
        assert got == oracles.stress_scores(cands, jobs, union, config)
        # the step simulates each distinct vector of the union once
        (_, once), _ = packed.call_args
        vectors = [list(zip(*(v[w].tolist() for w, _ in words)))
                   for v in (union, once)]
        assert sorted(vectors[1]) == sorted(set(vectors[0]))


@pytest.mark.parametrize("design,seed", [("fir", 1), ("fir", 2),
                                         ("bfly", 0)])
def test_the_stress_step_equals_the_full_union_on_trials(design, seed,
                                                         tmp_path,
                                                         monkeypatch):
    screens, real = [], detect._stress_scores

    def compared(cands, jobs, profiles, config):
        got = real(cands, jobs, profiles, config)
        union = oracles.stress_union(cands, jobs, profiles, config)
        screens.append((len(jobs), got == oracles.stress_scores(
            cands, jobs, union, config)))
        return got

    monkeypatch.setattr(detect, "_stress_scores", compared)
    run_experiment(ExperimentConfig(design=design, seed=seed), tmp_path)
    assert len(screens) == 1 and screens[0][0] > 1 and screens[0][1]


def test_classify_simulates_each_candidate_once_for_stress(trio,
                                                           monkeypatch):
    cands, _ = trio
    calls = []
    real = detect.simulate
    monkeypatch.setattr(detect, "simulate",
                        lambda nl, source: calls.append(nl) or real(nl, source))
    classify(cands)
    # one profiling run and one batched stress run per candidate
    assert len(calls) <= 2 * len(cands)


def test_a_screen_draws_each_profiling_stream_once(trio, kernel_calls,
                                                   monkeypatch):
    cands = dict(trio[0], v3=SPEC.build(ASSIGN), v4=SPEC.build(None))
    packed = []
    real = detect.pack
    monkeypatch.setattr(detect, "pack", lambda words, *sources:
                        packed.append(sources) or real(words, *sources))
    classify(cands)
    streams = defender_streams(DetectConfig())
    # the screen packs twice, not twice per candidate: the profiling
    # streams in mode order, then one dict of every job's stress values
    assert len(packed) == 2
    assert packed[0] == tuple(streams[m] for m in sorted(streams))
    assert len(packed[1]) == 1 and isinstance(packed[1][0], dict)
    # one profiling run and one batched stress run per candidate
    assert len(kernel_calls) == 2 * len(cands)


def test_classify_report_shape(trio):
    cands, _ = trio
    rep = classify(cands)
    assert isinstance(rep, DetectionReport)
    ids = [r.netlist_id for r in rep.netlists]
    assert ids == sorted(cands)
    for r in rep.netlists:
        assert 0 <= r.error_rank < len(cands)
        assert [e.tag for e in r.instances] == sorted(cands[r.netlist_id]
                                                      .instances)


# -- metrics ----------------------------------------------------------------

def _report(flag_map):
    nets = []
    for nid, tags in sorted(flag_map.items()):
        entries = tuple(
            InstanceScore(t, "approximate", 0, None, False,
                          1.0 if fl else 0.0, 1.0 if fl else 0.0, fl)
            for t, fl in tags)
        verdict = "INFECTED" if any(fl for _, fl in tags) else "CLEAN"
        nets.append(NetlistReport(nid, verdict, 0, 0.0, entries))
    return DetectionReport(tuple(nets))


def test_score_hand_confusion():
    rep = _report({"n0": [("a", True), ("b", False)],
                   "n1": [("a", True), ("b", False)]})
    m = score(rep, {"n0": ("a",), "n1": ()})
    assert m == Metrics(accuracy=0.75, fpr=1 / 3, fnr=0.0,
                        tp=1, fp=1, tn=2, fn=0)


def test_score_fnr_is_undefined_without_infections():
    rep = _report({"n0": [("a", False)], "n1": [("a", False)]})
    m = score(rep, {"n0": (), "n1": ()})
    assert m.fnr is None
    assert m.accuracy == 1.0 and m.fpr == 0.0


def test_score_label_mismatches():
    rep = _report({"n0": [("a", False)]})
    with pytest.raises(LabelMismatch):
        score(rep, {"n0": (), "n1": ()})      # extra id
    with pytest.raises(LabelMismatch):
        score(rep, {"n0": ("zz",)})           # unknown instance tag


# -- configuration ----------------------------------------------------------

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("field,value", [
    ("margin", 0.0), ("margin", NAN), ("scales", ()), ("scales", (1.0, NAN)),
    ("scales", (1.0, -1.2)), ("dev_tol", -0.1), ("dev_tol", 1.5),
    ("dev_tol", NAN), ("threshold", 0.0), ("threshold", 1.01),
    ("threshold", NAN), ("window", 0.0), ("window", NAN), ("n_paths", -1),
    ("vectors", 0), ("stress_budget", 0), ("clock", INF), ("margin", INF),
    ("scales", (1.0, INF)), ("window", INF)])
def test_detect_config_rejects_out_of_range_values(field, value):
    with pytest.raises(BadParams, match=f"^{field} must be"):
        DetectConfig(**{field: value})


def test_detect_config_accepts_the_range_bounds():
    DetectConfig(dev_tol=0.0, threshold=1.0, n_paths=0, vectors=1,
                 stress_budget=1)
    DetectConfig(dev_tol=1.0, window=0.5, scales=(0.5,))


# -- streams ----------------------------------------------------------------

def test_defender_streams_are_deterministic():
    a = defender_streams(DetectConfig(seed=5))
    b = defender_streams(DetectConfig(seed=5))
    c = defender_streams(DetectConfig(seed=6))
    assert sorted(a) == ["correlated", "uniform"]
    for mode in a:
        assert (a[mode].seed, a[mode].n_vectors) == (b[mode].seed,
                                                     b[mode].n_vectors)
    assert a["uniform"].seed != c["uniform"].seed
    assert a["correlated"].rho == 0.9
