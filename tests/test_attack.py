"""Insertion pipeline: scoring, budgets, trigger construction, stealth.

The heavyweight fixture (a 4-tap FIR with rough adders and an inserted
leak) is built once per module; most tests only inspect it.
"""

import dataclasses

import numpy as np
import pytest

from axsec.arith import ArchParams
from axsec.attack import (AttackConfig, BudgetConstraints, CostWeights,
                          HTInstance, ModuleSpec, attack_score, characterize,
                          check_budget, insert_trojan, rank_candidates,
                          verify_stealth)
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import (BadParams, BadThreshold, NoRareNets, NoWitness,
                          SignatureMismatch, UnitMismatch,
                          WouldViolateTiming)
from axsec.netlist import structurally_equal
from axsec.sim import (VectorStream, activity_profile, error_profile,
                       eval_vector, simulate, word_value)

SPEC = fir_spec(8, (3, 5, 7, 9))
ASSIGN = {"add0": ArchParams("add", "loa", 16, 4),
          "add2": ArchParams("add", "loa", 17, 4)}


def _spec(e, p, r, label_k=0):
    return ModuleSpec(ArchParams("add", "loa", 8, label_k), e, p, 4, r, 9)


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
    assert attack_score(s, CostWeights(1.0, 0.0)) == pytest.approx(0.5)
    assert attack_score(s, CostWeights(0.0, 1.0)) == pytest.approx(0.1)


def test_weights_must_be_non_negative():
    with pytest.raises(BadParams):
        CostWeights(-0.1, 0.5)


def test_rank_candidates_orders_by_descending_score():
    a = _spec(0.30, 0.9, 0.0, label_k=1)   # score 0.20
    b = _spec(0.05, 0.5, 0.1, label_k=2)   # score 0.325
    c = _spec(0.00, 1.0, 0.0, label_k=3)   # score 0.0
    ranked = rank_candidates([a, c, b])
    assert ranked == [b, a, c]
    # ties resolve on the architecture label
    t1 = _spec(0.1, 0.9, 0.1, label_k=1)
    t2 = _spec(0.1, 0.9, 0.1, label_k=2)
    assert rank_candidates([t2, t1]) == [t1, t2]


def test_characterize_exact_is_the_baseline():
    st = VectorStream(2000, 5, "uniform")
    ex = characterize(ArchParams("add", "exact", 8), st, theta=0.05)
    assert ex.e_norm == 0.0
    assert ex.p_norm == 1.0
    assert attack_score(ex) == 0.0
    assert ex.stream_key == (2000, 5, "uniform", 0.9)


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


def test_budget_slacks_must_be_positive():
    with pytest.raises(BadParams):
        BudgetConstraints(0.2, 1.2, 0.0, 0.05)
    with pytest.raises(BadParams):
        BudgetConstraints(0.2, 1.2, 0.05, -1.0)


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
    assert set(ht.tap_instances) <= set(clean.instances)
    added = [g for g in infected.gates if g.tag == fresh]
    assert added and all(g.tag != fresh for g in clean.gates)


def test_witness_fires_and_leaks_the_coefficients(inserted):
    _, _, _, infected, ht = inserted
    vals = eval_vector(infected, ht.witness_dict())
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
        fire &= ti.bits(net) == val
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
    assert ht.payload_bits == (17,)
    w = ht.witness_dict()
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


@pytest.mark.parametrize("field,value,error", [
    ("theta", 0.0, BadThreshold), ("theta", 0.5, BadThreshold),
    ("theta", float("nan"), BadThreshold), ("q", 0, BadParams),
    ("q", float("nan"), BadParams), ("scoap_ceiling", -1, BadParams),
    ("scoap_ceiling", float("nan"), BadParams),
    ("trace_vectors", 0, BadParams),
    ("clock", -1.0, BadParams)])
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
    assert not kernel_calls  # the trigger realizes on the run as given


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
                        assert set(ht.witness_dict()) == words
                        vals = eval_vector(clean, ht.witness_dict())
                        for net, want in ht.trigger_nets:
                            assert vals[net] == want
                        done.append((disjoint,
                                     sum(map(len, sups)) > len(words)))
    assert len(done) >= 10
    assert {d for d, _ in done} == {True, False}
    assert any(shared for _, shared in done)  # some group was merged


def test_characterize_simulates_the_module_once(kernel_calls):
    characterize(ArchParams("add", "loa", 8, 3),
                 VectorStream(2000, 5, "uniform"), theta=0.05)
    assert len(kernel_calls) == 2  # the module and the exact baseline


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
    clean, _, _, _, ht = inserted
    exact = SPEC.build(None)
    stream = VectorStream(3000, 17, "uniform")
    rep = verify_stealth(exact, clean, ht, SPEC.reference, stream)
    assert rep.error_delta > 0.0
    assert rep.error_delta == (
        error_profile(clean, SPEC.reference, stream).mred
        - error_profile(exact, SPEC.reference, stream).mred)


def test_stealth_against_itself_under_word_references():
    spec = bfly_spec()
    nl = spec.build({"add0": ArchParams("add", "loa", spec.slots[1][2], 4)})
    a0 = dict(nl.input_words())["a"][0]
    ht = HTInstance(((a0, 1),), 1, "corrupt", "y0", (0,), (), (), (), a0)
    stream = VectorStream(2000, 4, "uniform")
    rep = verify_stealth(nl, nl, ht, spec.reference, stream)
    assert rep.error_delta == 0.0
    assert rep.power_delta_fraction == 0.0
    assert rep.trigger_rate == simulate(nl, stream).bits(a0).mean()


def test_stealth_requires_matching_signatures(inserted):
    clean, _, _, _, ht = inserted
    other = fir_spec(8, (1, 1, 1, 1)).build(None)
    shrunk = fir_spec(4, (1, 2, 3, 4)).build(None)
    with pytest.raises(SignatureMismatch):
        verify_stealth(clean, shrunk, ht, SPEC.reference,
                       VectorStream(100, 0, "uniform"))
    # same I/O words at the same widths is fine even across builds
    rep = verify_stealth(other, other, ht, SPEC.reference,
                         VectorStream(100, 0, "uniform"))
    assert rep.error_delta == 0.0


def test_stealth_simulates_each_netlist_once(inserted, kernel_calls):
    clean, _, _, infected, ht = inserted
    verify_stealth(clean, infected, ht, SPEC.reference,
                   VectorStream(3000, 17, "uniform"))
    assert len(kernel_calls) == 2
