"""Insertion pipeline: scoring, budgets, trigger construction, stealth.

The heavyweight fixture (a 4-tap FIR with rough adders and an inserted
leak) is built once per module; most tests only inspect it.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from axsec import _kernels, attack, experiment
from axsec.arith import ArchParams, gen_module
from axsec.attack import (AttackConfig, BudgetConstraints, HTInstance,
                          ModuleSpec, StealthReport, attack_score,
                          characterize, check_budget, insert_trojan,
                          verify_stealth)
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import (BadParams, BadThreshold, NoRareNets, NoWitness,
                          SignatureMismatch, UnitMismatch,
                          WouldViolateTiming)
from axsec.experiment import ExperimentConfig
from axsec.netlist import GateKind, NetlistBuilder
from axsec.sim import (EXACT_OPS, ActivityReport, Traces, VectorStream,
                       activity_profile, error_profile, power_proxy,
                       rare_nets, simulate, sub_seed)
from axsec.sta import DelayModel, calibrated_model, slacks
from axsec.textfmt import serialize_netlist

from tests import oracles
from tests.oracles import eval_vector, structurally_equal, word_value

SPEC = fir_spec(8, (3, 5, 7, 9))
ASSIGN = {"add0": ArchParams("add", "loa", 16, 4),
          "add2": ArchParams("add", "loa", 17, 4)}


def _spec(e, p, r):
    return ModuleSpec(ArchParams("add", "loa", 8), e, p, 4, r, 9)


@pytest.fixture(scope="module")
def inserted():
    clean = SPEC.build(ASSIGN)
    stream = VectorStream(20_000, 7, "correlated", 0.9)
    act = activity_profile(clean, stream)
    cfg = AttackConfig(q=4, theta=0.08, scoap_ceiling=500, payload="leak",
                       secret_word="coef", stream=stream, clock=55.0, seed=3)
    infected, ht = insert_trojan(clean, act, None, cfg)
    return clean, act, cfg, infected, ht


# -- scoring ----------------------------------------------------------------

def test_attack_score_hand_value():
    # 0.5*(0.2 + (1 - 0.7)) + 0.5*0.1 = 0.25 + 0.05
    s = _spec(0.2, 0.7, 0.1)
    assert attack_score(s) == pytest.approx(0.30)


def test_characterize_exact_is_the_baseline():
    st = VectorStream(2000, 5, "uniform")
    ex = characterize(ArchParams("add", "exact", 8), st, theta=0.05)
    assert ex.e_norm == 0.0
    assert ex.p_norm == 1.0
    assert attack_score(ex) == 0.0
    assert ex.stream_key == VectorStream(2000, 5, "uniform", 0.9)


def test_characterize_lower_arch_trades_error_for_power():
    st = VectorStream(2000, 5, "uniform")
    lo = characterize(ArchParams("add", "loa", 8, 3), st, theta=0.05)
    assert lo.e_norm > 0.0
    assert 0.0 < lo.p_norm < 1.0
    assert attack_score(lo) > 0.0


# -- budgets ----------------------------------------------------------------

def test_check_budget_hand_margins():
    sel = [_spec(0.04, 0.5, 0.0), _spec(0.06, 0.45, 0.0)]  # sums 0.10, 0.95
    budget = BudgetConstraints(0.2, 1.2, 0.05, 0.10)
    ck = check_budget(sel, 0.12, 1.00, budget)
    assert ck.e_margin == pytest.approx(0.03)
    assert ck.p_margin == pytest.approx(0.05)
    assert ck.ok
    # larger composed error blows the slack
    assert not check_budget(sel, 0.20, 1.00, budget).ok
    # composed below the module sum: negative excess, wide margin
    ck = check_budget(sel, 0.05, 1.00, budget)
    assert ck.e_margin == pytest.approx(0.10)
    assert ck.ok


def test_check_budget_boundary_is_a_failure():
    # dyadic values so the zero margin is exact, not approximately zero
    sel = [_spec(0.25, 1.0, 0.0)]
    budget = BudgetConstraints(1.0, 2.0, 0.25, 0.5)
    ck = check_budget(sel, 0.5, 1.5, budget)
    assert ck.e_margin == 0.0 and ck.p_margin == 0.0
    assert not ck.ok


def test_check_budget_rejects_mixed_streams():
    sel = [dataclasses.replace(_spec(0.1, 1.0, 0.0),
                               stream_key=(1000, 0, "uniform", 0.9))]
    budget = BudgetConstraints(0.2, 1.2, 0.05, 0.05)
    with pytest.raises(UnitMismatch):
        check_budget(sel, 0.1, 1.0, budget,
                     stream_key=(2000, 0, "uniform", 0.9))
    ck = check_budget(sel, 0.1, 1.0, budget,
                      stream_key=(1000, 0, "uniform", 0.9))
    assert ck.ok


def test_check_budget_compares_the_streams_of_the_specs():
    stream = VectorStream(2000, 5, "uniform")
    sel = [characterize(ArchParams("add", "loa", 8, 3), stream, theta=0.05)]
    budget = BudgetConstraints(0.2, 1.2, 1.0, 1.0)
    # an equal stream is the same stream
    assert check_budget(sel, 0.0, 0.0, budget,
                        VectorStream(2000, 5, "uniform")).ok
    for other in (VectorStream(2000, 6, "uniform"),
                  VectorStream(2001, 5, "uniform"),
                  VectorStream(2000, 5, "correlated"),
                  VectorStream(2000, 5, "uniform", 0.5)):
        with pytest.raises(UnitMismatch, match="characterized under"):
            check_budget(sel, 0.0, 0.0, budget, other)


def test_budget_slacks_must_be_positive():
    with pytest.raises(BadParams):
        BudgetConstraints(0.2, 1.2, 0.0, 0.05)
    with pytest.raises(BadParams):
        BudgetConstraints(0.2, 1.2, 0.05, -1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(BadParams, match="positive and finite"):
            BudgetConstraints(0.2, 1.2, bad, 0.05)
        with pytest.raises(BadParams, match="positive and finite"):
            BudgetConstraints(0.2, 1.2, 0.05, bad)


# -- insertion --------------------------------------------------------------

def test_trigger_taps_are_rare_on_the_profile(inserted):
    _, act, cfg, _, ht = inserted
    assert len(ht.trigger_nets) == cfg.q == 4
    for net, val in ht.trigger_nets:
        p1 = float(act.p1[net])
        assert p1 < cfg.theta if val == 1 else p1 > 1.0 - cfg.theta


def test_trigger_taps_have_disjoint_input_cones(inserted):
    clean, _, _, _, ht = inserted
    sups = [set(clean.input_word_support([n])) for n, _ in ht.trigger_nets]
    for s in sups:
        assert s
    for i, a in enumerate(sups):
        for b in sups[i + 1:]:
            assert not (a & b)


def test_payload_lives_in_a_fresh_instance(inserted):
    clean, _, _, infected, ht = inserted
    (fresh,) = ht.host_instances
    assert fresh not in clean.instances
    assert fresh in infected.instances
    added = [g for g in infected.gates if g.tag == fresh]
    assert added and all(g.tag != fresh for g in clean.gates)


def test_witness_fires_and_leaks_the_coefficients(inserted):
    _, _, _, infected, ht = inserted
    vals = eval_vector(infected, dict(ht.witness))
    assert vals[ht.trigger_net] == 1
    for net, want in ht.trigger_nets:
        assert vals[net] == want
    # y is 18 bits; the packed coefficient word 3|5<<8|7<<16|9<<24
    # truncates to its low 18 bits
    packed = 3 | (5 << 8) | (7 << 16) | (9 << 24)
    assert word_value(infected, vals, "y") == packed & ((1 << 18) - 1)
    assert word_value(infected, vals, "y") == 197891


def test_outputs_match_clean_off_the_trigger(inserted):
    clean, _, _, infected, ht = inserted
    stream = VectorStream(4000, 91, "uniform")
    tc = simulate(clean, stream)
    ti = simulate(infected, stream)
    fire = np.ones(4000, bool)
    for net, val in ht.trigger_nets:
        fire &= ti.word_values([net]) == val
    y = dict(clean.output_words())["y"]
    yc = tc.word_values(y)
    yi = ti.word_values(y)
    assert np.array_equal(yc[~fire], yi[~fire])
    assert fire.sum() == 0  # rare^4 never shows up in 4k uniform vectors


def test_corrupt_payload_flips_the_msb(inserted):
    clean, act, cfg, _, _ = inserted
    infected, ht = insert_trojan(
        clean, act, None, dataclasses.replace(cfg, payload="corrupt"))
    assert ht.payload_kind == "corrupt"
    w = dict(ht.witness)
    yc = word_value(clean, eval_vector(clean, w), "y")
    yi = word_value(infected, eval_vector(infected, w), "y")
    assert yi == yc ^ (1 << 17)


def test_impossible_requests_fail_closed(inserted):
    clean, act, cfg, _, _ = inserted
    # four input words means at most four disjoint trigger cones
    with pytest.raises(NoWitness, match="4 composable"):
        insert_trojan(clean, act, None, dataclasses.replace(cfg, q=5))
    with pytest.raises(NoRareNets):
        insert_trojan(clean, act, None,
                      dataclasses.replace(cfg, theta=1e-6))
    with pytest.raises(WouldViolateTiming):
        insert_trojan(clean, act, None,
                      dataclasses.replace(cfg, clock=5.0))
    with pytest.raises(BadParams):
        insert_trojan(clean, act, None,
                      dataclasses.replace(cfg, payload="glitter"))
    with pytest.raises(BadParams):
        insert_trojan(clean, act, None,
                      dataclasses.replace(cfg, secret_word=None))


def test_insertion_refuses_an_input_word_over_63_bits(kernel_calls):
    # the witness is read off input word values; a 64-bit word's values
    # read negative, so the netlist was emitted or refused by the stream
    nl = gen_module(ArchParams("add", "exact", 64))
    rare = ActivityReport(np.full(nl.n_nets, 0.001),
                          np.zeros(nl.n_nets, np.int64), 1000)
    cfg = AttackConfig(q=2, theta=0.01, scoap_ceiling=10 ** 6,
                       payload="corrupt", stream=VectorStream(1000, 1))
    with pytest.raises(BadParams, match="word 'a' is 64 bits wide"):
        insert_trojan(nl, rare, None, cfg)
    assert not kernel_calls


def test_insertion_needs_the_profiling_stream(inserted, kernel_calls):
    clean, act, _, _, _ = inserted
    with pytest.raises(BadParams, match="config.stream must carry the "
                                        "profiling stream"):
        insert_trojan(clean, act, None, AttackConfig())
    assert not kernel_calls


def _const_tap_netlist(buffered):
    # two input bits and a constant, buffered or not, ORed into the output
    b = NetlistBuilder()
    a = [b.pi(f"a{i}") for i in range(2)]
    b.word("a", a)
    b.instance("u", "approximate", "misc", "exact")
    c = b.gate(GateKind.CONST0, (), tag="u")
    tap = b.gate(GateKind.BUF, (c,), tag="u") if buffered else c
    b.po(b.gate(GateKind.OR, (a[0], a[1], tap), tag="u"))
    return b.build(), tap


def _rare_at_its_value(nl, tap):
    # a report, not measured on the trace, marking the tap rare at the
    # value it holds: the tap is realized in every cycle
    p1 = np.full(nl.n_nets, 0.5)
    p1[tap] = 1.0  # rare at 0
    act = ActivityReport(p1, np.zeros(nl.n_nets, np.int64), 1000)
    cfg = AttackConfig(q=1, theta=0.08, scoap_ceiling=2 ** 30,
                       payload="corrupt", stream=VectorStream(1000, 1))
    assert rare_nets(act, cfg.theta) == [(tap, 0)]
    return act, cfg


def test_insertion_skips_a_tap_no_input_word_reaches():
    # a live gate fed only by a constant: no witness can set it
    nl, tap = _const_tap_netlist(buffered=True)
    assert nl.live[tap]
    act, cfg = _rare_at_its_value(nl, tap)
    with pytest.raises(NoWitness, match="only 0 composable trigger taps "
                                        "of 1 requested"):
        insert_trojan(nl, act, None, cfg)


def test_a_constant_is_no_trigger_candidate():
    # the constant itself is no live net, so it never reaches the trace
    nl, tap = _const_tap_netlist(buffered=False)
    assert not nl.live[tap]
    act, cfg = _rare_at_its_value(nl, tap)
    with pytest.raises(NoRareNets, match="0 usable trigger candidates"):
        insert_trojan(nl, act, None, cfg)


def test_a_second_insertion_takes_the_next_free_tag(inserted):
    clean, _, cfg, _, _ = inserted
    cfg = dataclasses.replace(cfg, q=1, payload="corrupt")
    once, ht = insert_trojan(clean, activity_profile(clean, cfg.stream),
                             None, cfg)
    twice, again = insert_trojan(once, activity_profile(once, cfg.stream),
                                 None, cfg)
    assert (ht.host_instances, again.host_instances) \
        == (("top.mul2.g0",), ("top.mul2.g1",))
    assert twice.instances["top.mul2.g1"] == clean.instances["top.mul2"]
    tags = {g.id: g.tag for g in once.gates}
    assert all(tags.get(g.id, "top.mul2.g1") == g.tag for g in twice.gates)


def test_stealth_refuses_an_output_word_over_63_bits(kernel_calls):
    nl = gen_module(ArchParams("add", "loa", 63, 8))
    a0 = nl.words["a"][0]
    host = next(g.tag for g in nl.gates if a0 in g.inputs)
    ht = HTInstance((), 1, "corrupt", (), (host,), a0)
    with pytest.raises(BadParams, match="word 's' is 64 bits wide"):
        verify_stealth(nl, nl, ht, EXACT_OPS["add"], VectorStream(100, 1))
    assert not kernel_calls


@pytest.mark.parametrize("field,value,error", [
    ("theta", 0.0, BadThreshold), ("theta", 0.5, BadThreshold),
    ("theta", float("nan"), BadThreshold), ("q", 0, BadParams),
    ("q", float("nan"), BadParams), ("scoap_ceiling", -1, BadParams),
    ("scoap_ceiling", float("nan"), BadParams),
    ("trace_vectors", 0, BadParams),
    ("clock", -1.0, BadParams), ("clock", float("inf"), BadParams)])
def test_attack_config_rejects_out_of_range_values(field, value, error):
    # checked on construction, so a bad value never reaches a simulation
    with pytest.raises(error, match=f"{field} must be"):
        AttackConfig(**{field: value})


@pytest.mark.parametrize("clock", [float("nan"), 0.0, -1.0])
def test_insertion_rejects_a_clock_that_is_not_positive(inserted, clock):
    # NaN used to skip the timing check, 0 and -1 to fail it as a violation
    clean, act, cfg, _, _ = inserted
    with pytest.raises(BadParams, match="clock must be positive"):
        insert_trojan(clean, act, None, dataclasses.replace(cfg, clock=clock))


def test_insertion_reads_a_run_like_its_stream(inserted, kernel_calls):
    clean, act, cfg, infected, ht = inserted
    run = simulate(clean, cfg.stream)
    del kernel_calls[:]
    bad, got = insert_trojan(clean, act, None,
                             dataclasses.replace(cfg, stream=run))
    assert structurally_equal(bad, infected)
    assert got == ht
    # the trigger realizes on the run as given; the one kernel run is the
    # witness check
    assert len(kernel_calls) == 1


def test_the_witness_check_is_one_kernel_run(inserted, kernel_calls,
                                             monkeypatch):
    clean, act, cfg, _, _ = inserted
    run = simulate(clean, cfg.stream)
    real, sources = attack.simulate, []
    monkeypatch.setattr(attack, "simulate", lambda nl, source:
                        sources.append((nl, source)) or real(nl, source))
    del kernel_calls[:]
    # two taps: a witness of two of the four input words
    bad, ht = insert_trojan(clean, act, None,
                            dataclasses.replace(cfg, stream=run, q=2))
    assert len(kernel_calls) == 1
    assert [nl for nl, _ in sources] == [clean, bad]
    # one vector: the witness, the other input words at 0
    witness = dict(ht.witness)
    assert {w: list(v) for w, v in sources[1][1].items()} == \
        {w: [witness.get(w, 0)] for w, _ in bad.input_words()}
    assert set(witness) < set(dict(bad.input_words()))


def test_a_witness_that_does_not_fire_emits_nothing(inserted, monkeypatch):
    # every input word read off the trace as 0: the witness composed from
    # it sets no tap's rare value, and the check on the built netlist fails
    clean, act, cfg, _, _ = inserted
    run = simulate(clean, cfg.stream)
    read = Traces.word_values
    monkeypatch.setattr(Traces, "word_values", lambda self, nets, at=None:
                        read(self, nets) if at is None
                        else np.zeros(len(at), np.int64))
    emitted = []
    with pytest.raises(NoWitness, match="does not fire the assembled"):
        emitted.append(insert_trojan(clean, act, None,
                                     dataclasses.replace(cfg, stream=run)))
    assert emitted == []


_SWEEP = [
    (SPEC, ASSIGN, 0.08),
    (SPEC, {"mul1": ArchParams("mul", "trunc", 8, 4)}, 0.08),
    (bfly_spec(8, 3), {"add0": ArchParams("add", "loa", 11, 4)}, 0.2),
    (bfly_spec(8, 3), {"mul0": ArchParams("mul", "trunc", 8, 4)}, 0.2),
]


def test_the_composed_witness_sets_every_tap():
    # the witness is each tap group's words at the group's first realized
    # cycle; it must cover exactly the taps' supports and set every tap on
    # the clean netlist, before any payload logic is in the way
    done = []
    for spec, assign, theta in _SWEEP:
        clean = spec.build(assign)
        stream = VectorStream(5000, 4, "correlated", 0.9)
        run = simulate(clean, stream)
        act = activity_profile(clean, run)
        for q in range(1, 5):
            for disjoint in (True, False):
                for payload in ("leak", "corrupt"):
                    for source in (stream, run):
                        cfg = AttackConfig(
                            q=q, theta=theta, scoap_ceiling=500,
                            payload=payload, secret_word=spec.secret_word,
                            stream=source, trace_vectors=5000,
                            require_disjoint=disjoint)
                        try:
                            _, ht = insert_trojan(clean, act, None, cfg)
                        except (NoRareNets, NoWitness) as exc:
                            # too few taps, never a witness that misfires
                            assert "does not fire" not in str(exc)
                            continue
                        sups = [clean.input_word_support([net])
                                for net, _ in ht.trigger_nets]
                        words = set().union(*sups)
                        assert set(dict(ht.witness)) == words
                        vals = eval_vector(clean, dict(ht.witness))
                        for net, want in ht.trigger_nets:
                            assert vals[net] == want
                        done.append((disjoint,
                                     sum(map(len, sups)) > len(words)))
    assert len(done) >= 10
    assert {d for d, _ in done} == {True, False}
    assert any(shared for _, shared in done)  # some group was merged


def test_characterize_simulates_the_module_once(kernel_calls):
    # a stream no other test profiles: its baseline is not kept yet
    stream = VectorStream(2000, 305, "uniform")
    characterize(ArchParams("add", "loa", 8, 3), stream, theta=0.05)
    assert len(kernel_calls) == 2  # the module and the exact baseline
    characterize(ArchParams("add", "trunc", 8, 2), stream, theta=0.05)
    assert len(kernel_calls) == 3  # the baseline is profiled once per stream


def test_characterize_keeps_the_baseline_it_would_profile():
    stream = VectorStream(1500, 306, "correlated")
    menu = [ArchParams("add", "exact", 8), ArchParams("add", "loa", 8, 3),
            ArchParams("add", "trunc", 8, 2)]
    kept = [characterize(p, stream, theta=0.05) for p in menu]
    exact = gen_module(menu[0])
    run = simulate(exact, stream)
    vals = {w: run.word_values(b) for w, b in exact.input_words()}
    # profiled anew on the stream's values, the baseline outside the memo
    base, _ = attack._measure(exact, menu[0], vals, 0.05)
    for params, spec in zip(menu, kept):
        fresh = attack._measure(gen_module(params), params, vals, 0.05,
                                None if params == menu[0] else base)[1]
        assert dataclasses.replace(fresh, stream_key=spec.stream_key) == spec


def test_characterize_takes_only_a_stream(kernel_calls):
    # word values and runs used to be profiled unmemoized, under a key
    # made of the source's id()
    params = ArchParams("add", "loa", 8, 3)
    stream = VectorStream(500, 307, "uniform")
    nl = gen_module(params)
    run = simulate(nl, stream)
    sources = ({w: run.word_values(b) for w, b in nl.input_words()}, run)
    del kernel_calls[:]
    for source in sources:
        with pytest.raises(BadParams, match="characterize takes a "
                                            "VectorStream"):
            characterize(params, source, theta=0.05)
    assert kernel_calls == []


def test_taps_are_gate_outputs_when_inputs_are_the_rarest_nets():
    # x0 = 1 on one vector of 64, every other value 0: the input x0[0] is
    # as rare as any gate it reaches and had the lowest net id, so it was
    # the one tap, and the host fell back to tag "u", which no design
    # build has (KeyError: 'u')
    clean = SPEC.build(None)
    vals = {w: np.zeros(64, np.int64) for w, _ in clean.input_words()}
    vals["x0"][0] = 1
    run = simulate(clean, vals)
    act = activity_profile(clean, run)
    assert (clean.words["x0"][0], 1) in rare_nets(act, 0.1)
    cfg = AttackConfig(q=1, theta=0.1, scoap_ceiling=10 ** 6,
                       payload="corrupt", stream=run)
    _, ht = insert_trojan(clean, act, None, cfg)
    assert all(clean.driver(n) is not None for n, _ in ht.trigger_nets)
    assert ht.host_instances[0].startswith("top.")
    assert ht.witness == (("x0", 1),)


# -- stealth ----------------------------------------------------------------

def test_stealth_report_on_the_leak(inserted):
    clean, _, cfg, infected, ht = inserted
    rep = verify_stealth(clean, infected, ht, SPEC.reference,
                         VectorStream(10_000, 91, "uniform"), clock=55.0)
    assert rep.trigger_rate == 0.0
    assert rep.error_delta == 0.0       # identical outputs off the trigger
    assert abs(rep.power_delta_fraction) <= 0.02
    assert rep.min_slack is not None and rep.min_slack > 0.0


def test_stealth_error_delta_is_the_mred_difference(inserted):
    _, _, _, infected, ht = inserted
    exact = SPEC.build(None)
    stream = VectorStream(3000, 17, "uniform")
    # the exact build plays the clean side: its error is 0, the rough
    # adders of the infected one are not
    rep = verify_stealth(exact, infected, ht, SPEC.reference, stream)
    assert rep.error_delta > 0.0
    assert rep.error_delta == (
        error_profile(infected, SPEC.reference, stream).mred
        - error_profile(exact, SPEC.reference, stream).mred)


def test_stealth_against_itself_under_word_references():
    spec = bfly_spec()
    nl = spec.build({"add0": ArchParams("add", "loa", spec.slots[1][2], 4)})
    a0 = dict(nl.input_words())["a"][0]
    # a one-tap trigger on a 1 value is the tap itself, read by its host
    host = (next(g.tag for g in nl.gates if a0 in g.inputs),)
    ht = HTInstance(((a0, 1),), 1, "corrupt", (), host, a0)
    stream = VectorStream(2000, 4, "uniform")
    rep = verify_stealth(nl, nl, ht, spec.reference, stream)
    assert rep.error_delta == 0.0
    assert rep.power_delta_fraction == 0.0
    assert rep.trigger_rate == simulate(nl, stream).word_values([a0]).mean()


def test_stealth_trigger_rate_is_the_trigger_nets_mean_over_chunks():
    spec = bfly_spec()
    clean = spec.build({"add0": ArchParams("add", "loa", spec.slots[1][2],
                                           4)})
    cfg = AttackConfig(q=3, theta=0.2, scoap_ceiling=500, payload="corrupt",
                       stream=VectorStream(2000, 5, "correlated", 0.9),
                       trace_vectors=5000, require_disjoint=False)
    infected, ht = insert_trojan(clean, activity_profile(clean, cfg.stream),
                                 None, cfg)
    stream = VectorStream(70_000, 9, "uniform")  # past one 65,536 chunk
    rate = verify_stealth(clean, infected, ht, spec.reference,
                          stream).trigger_rate
    assert type(rate) is float and rate > 0.0
    assert rate == simulate(infected, stream).word_values(
        [ht.trigger_net]).mean()


class _Screened(Exception):
    """Ends a trial once its infection stage is done."""


def _trial_stealth_calls(config, out, monkeypatch):
    """The argument tuples of every :func:`attack.verify_stealth` call of
    a trial, which stops before its screen."""
    calls, real = [], attack.verify_stealth

    def recording(*args):
        calls.append(args)
        return real(*args)

    def screened(*args):
        raise _Screened

    monkeypatch.setattr(attack, "verify_stealth", recording)
    monkeypatch.setattr(experiment, "classify", screened)
    with pytest.raises(_Screened):
        experiment.run_experiment(config, out)
    return calls


@pytest.mark.parametrize("payload", attack.PAYLOADS)
def test_stealth_on_the_hosts_run_equals_two_full_runs(tmp_path, monkeypatch,
                                                       payload):
    # every insertion of fir seeds 0-5 and of bfly seeds 0-2 at q=1,
    # with its reference and without
    configs = [ExperimentConfig(seed=s, payload=payload) for s in range(6)]
    configs += [ExperimentConfig(seed=s, design="bfly", q=1, payload=payload)
                for s in range(3)]
    calls = [c for i, cfg in enumerate(configs)
             for c in _trial_stealth_calls(cfg, tmp_path / f"o{i}",
                                           monkeypatch)]
    assert len(calls) == 4 * len(configs)
    for clean, infected, ht, reference, stream, clock, model in calls:
        assert infected.base is clean
        for ref in (reference, None):
            args = (clean, infected, ht, ref, stream, clock, model)
            assert repr(verify_stealth(*args)) \
                == repr(oracles.verify_stealth(*args))


def test_stealth_past_one_chunk_equals_two_full_runs(inserted):
    clean, _, _, infected, ht = inserted
    stream = VectorStream(70_000, 9, "uniform")  # past one 65,536 chunk
    for ref in (SPEC.reference, None):
        args = (clean, infected, ht, ref, stream, 55.0)
        assert repr(verify_stealth(*args)) \
            == repr(oracles.verify_stealth(*args))


def test_stealth_runs_only_the_appended_gates_on_the_hosts_run(
        inserted, monkeypatch):
    # a derived netlist's second kernel run per chunk is its suffix plan;
    # a netlist not derived from the clean one takes its own full run
    clean, _, _, infected, ht = inserted
    other = fir_spec(8, (1, 1, 1, 1)).build(None)
    gates, run = [], _kernels.eval_gates

    def counting(nets, groups, c):
        gates.append(len(nets))
        return run(nets, groups, c)

    monkeypatch.setattr(_kernels, "eval_gates", counting)
    stream = VectorStream(3000, 17, "uniform")
    new = len(infected.gates) - len(clean.gates)
    verify_stealth(clean, infected, ht, SPEC.reference, stream)
    assert gates == [len(clean.gates), new]
    del gates[:]
    verify_stealth(other, infected, ht, SPEC.reference, stream)
    assert gates == [len(other.gates), len(infected.gates)]


def test_stealth_requires_matching_signatures(inserted):
    clean, _, _, infected, ht = inserted
    other = fir_spec(8, (1, 1, 1, 1)).build(None)
    shrunk = fir_spec(4, (1, 2, 3, 4)).build(None)
    stream = VectorStream(100, 0, "uniform")
    with pytest.raises(SignatureMismatch):
        verify_stealth(clean, shrunk, ht, SPEC.reference, stream)
    # same I/O words at the same widths is fine even across builds
    rep = verify_stealth(other, infected, ht, SPEC.reference, stream)
    assert rep.error_delta == (
        error_profile(infected, SPEC.reference, stream).mred
        - error_profile(other, SPEC.reference, stream).mred)
    assert rep.trigger_rate == simulate(infected, stream).word_values(
        [ht.trigger_net]).mean()


def test_stealth_rejects_a_trigger_foreign_to_the_infected_netlist(
        inserted, kernel_calls):
    clean, _, _, infected, ht = inserted
    other = fir_spec(8, (1, 1, 1, 1)).build(None)
    tap = ht.trigger_nets[0][0]
    foreign = [
        (other, ht),      # a net id of an unrelated build
        (clean, ht),      # the host tag is fresh: clean has no host gate
        (clean, dataclasses.replace(ht, trigger_net=tap)),  # a clean net
        (infected, dataclasses.replace(ht, trigger_net=infected.n_nets)),
        (infected, dataclasses.replace(ht, trigger_net=-1)),
    ]
    for nl, bad in foreign:
        with pytest.raises(BadParams,
                           match=rf"trigger net {bad.trigger_net} "):
            verify_stealth(clean, nl, bad, SPEC.reference,
                           VectorStream(100, 0, "uniform"))
    assert not kernel_calls


def test_stealth_without_a_reference_leaves_only_the_error_open(inserted):
    clean, _, _, infected, ht = inserted
    stream = VectorStream(3000, 17, "uniform")
    full = verify_stealth(clean, infected, ht, SPEC.reference, stream,
                          clock=55.0)
    rep = verify_stealth(clean, infected, ht, None, stream, clock=55.0)
    assert rep == dataclasses.replace(full, error_delta=None)
    assert full.error_delta is not None
    # infected over clean: the payload gates add switching power
    power = [power_proxy(nl, activity_profile(nl, stream))
             for nl in (clean, infected)]
    assert rep.power_delta_fraction == power[1] / power[0] - 1.0 > 0.0
    assert rep.trigger_rate == simulate(infected, stream).word_values(
        [ht.trigger_net]).mean()


def test_stealth_without_a_stream_gives_only_the_slack(inserted,
                                                       kernel_calls):
    clean, _, _, infected, ht = inserted
    rep = verify_stealth(clean, infected, ht, SPEC.reference, None,
                         clock=55.0)
    s = slacks(infected, DelayModel(), 55.0)
    assert rep == StealthReport(None, None, None,
                                float(s[np.isfinite(s)].min()))
    assert verify_stealth(clean, infected, ht, None, None) == \
        StealthReport(None, None, None)
    assert kernel_calls == []


def test_stealth_simulates_each_netlist_once(inserted, kernel_calls):
    clean, _, _, infected, ht = inserted
    verify_stealth(clean, infected, ht, SPEC.reference,
                   VectorStream(3000, 17, "uniform"))
    assert len(kernel_calls) == 2


def test_stealth_slack_is_none_without_a_path_to_an_output():
    # no slack is finite here, and the least of none raised a bare
    # ValueError
    b = NetlistBuilder()
    a = b.pi("a")
    b.instance("u", "deterministic", "misc", "exact")
    y = b.gate(GateKind.NOT, (a,), tag="u")
    b.gate(GateKind.BUF, (y,), tag="u")
    nl = b.build()
    ht = HTInstance((), 1, "corrupt", (), ("u",), y)
    assert verify_stealth(nl, nl, ht, None, None, clock=10.0) == \
        StealthReport(None, None, None, None)


# -- the insertion step -----------------------------------------------------

def _hand_assembled(nl, config, reference, stealth):
    """The step as ``axsec attack`` and the experiment each assembled it
    before they shared :func:`attack.mount`."""
    run = simulate(nl, config.stream)
    infected, ht = insert_trojan(nl, activity_profile(nl, run), None,
                                 dataclasses.replace(config, stream=run))
    del run
    return infected, ht, verify_stealth(nl, infected, ht, reference, stealth,
                                        config.clock, config.model)


def _outcome(step, *args):
    try:
        infected, ht, rep = step(*args)
    except (NoRareNets, NoWitness) as exc:
        return type(exc), str(exc)
    return serialize_netlist(infected), ht, repr(rep)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec,assign,q,payload", [
    (SPEC, ASSIGN, 4, "leak"),
    (bfly_spec(), {}, 4, "leak"),   # rejected: too few composable taps
    (bfly_spec(), {}, 1, "corrupt"),
], ids=["fir", "bfly-rejected", "bfly-q1"])
def test_mount_is_the_hand_assembled_step(kernel_calls, spec, assign, q,
                                          payload, seed):
    # on the streams the experiment draws for its first variant
    nl = spec.build(assign)
    exp = ExperimentConfig(seed=seed)
    config = AttackConfig(
        q=q, theta=exp.theta, scoap_ceiling=exp.scoap_ceiling,
        payload=payload, secret_word=spec.secret_word,
        stream=VectorStream(exp.trace_vectors, sub_seed(seed, 3, 0),
                            "correlated", exp.rho),
        clock=exp.clock, model=calibrated_model(nl, exp.clock, exp.margin))
    stealth = VectorStream(exp.stealth_vectors, sub_seed(seed, 4, 0),
                           "uniform")
    want = _outcome(_hand_assembled, nl, config, spec.reference, stealth)
    runs = len(kernel_calls)
    assert _outcome(attack.mount, nl, config, spec.reference, stealth) == want
    assert len(kernel_calls) == 2 * runs


def test_mount_refuses_a_64_bit_word_before_any_run(kernel_calls):
    nl = gen_module(ArchParams("add", "loa", 64, 8))
    with pytest.raises(BadParams, match="word 'a' is 64 bits wide"):
        attack.mount(nl, AttackConfig(payload="corrupt",
                                      stream=VectorStream(2000, 0)),
                     None, None)
    with pytest.raises(BadParams, match="must carry the profiling stream"):
        attack.mount(SPEC.build(ASSIGN), AttackConfig(), None, None)
    for secret in (None, "", "nope"):
        with pytest.raises(BadParams, match="needs an existing secret_word"):
            attack.mount(SPEC.build(ASSIGN),
                         AttackConfig(secret_word=secret,
                                      stream=VectorStream(2000, 0)),
                         None, None)
    assert kernel_calls == []


def test_mount_releases_the_run_before_the_stealth_check(monkeypatch):
    runs, alive = [], []
    real_simulate, real_check = attack.simulate, attack.verify_stealth

    def recorded(*args):
        run = real_simulate(*args)
        runs.append(weakref.ref(run))
        return run

    def check(*args):
        alive.append(runs[0]() is not None)
        return real_check(*args)

    monkeypatch.setattr(attack, "simulate", recorded)
    monkeypatch.setattr(attack, "verify_stealth", check)
    config = AttackConfig(theta=0.08, scoap_ceiling=500, secret_word="coef",
                          stream=VectorStream(20_000, 7, "correlated", 0.9))
    attack.mount(SPEC.build(ASSIGN), config, None, None)
    assert alive == [False]
