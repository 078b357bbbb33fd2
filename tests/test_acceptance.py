"""Release gate: ten workbench-level checks, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test also fails loudly through its assertion.  The heavyweight
detection-quality check (criterion 7) runs fifty seeded end-to-end trials
and dominates the runtime.
"""

import dataclasses
import time

import numpy as np
import pytest

from axsec.arith import ArchParams, gen_adder, gen_module
from axsec.attack import (AttackConfig, BudgetConstraints, ModuleSpec,
                          check_budget, insert_trojan, verify_stealth)
from axsec.designs import fir_spec
from axsec.detect import DetectConfig, classify
from axsec.errors import NoRareNets, NoWitness, WouldViolateTiming
from axsec.experiment import ExperimentConfig, run_experiment
from axsec.netlist import GateKind, NetlistBuilder
from axsec.scoap import scoap
from axsec.sim import (EXACT_OPS, VectorStream, _runs, activity_profile,
                       error_profile, simulate)
from axsec.sta import critical_delay, near_critical_paths

from tests.conftest import random_dag
from tests.oracles import eval_vector, exhaustive_values, word_value
from tests.test_arith import (block22_model, loa_model, trunc_add_model,
                              trunc_mul_model)
from tests.test_sta import _enumerate_paths

SPEC = fir_spec(8, (3, 5, 7, 9))
ASSIGN = {"add0": ArchParams("add", "loa", 16, 4),
          "add2": ArchParams("add", "loa", 17, 4)}


def _verdict(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
          f"{name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def leak_case():
    clean = SPEC.build(ASSIGN)
    stream = VectorStream(20_000, 7, "correlated", 0.9)
    act = activity_profile(clean, stream)
    cfg = AttackConfig(q=4, theta=0.08, scoap_ceiling=500, payload="leak",
                       secret_word="coef", stream=stream, clock=55.0, seed=3)
    infected, ht = insert_trojan(clean, act, None, cfg)
    return clean, act, cfg, infected, ht


def test_01_generators_reduce_to_the_exact_operator():
    families = [("add", "loa", range(2, 9)),
                ("add", "trunc", range(2, 9)),
                ("mul", "trunc", range(2, 9)),
                ("mul", "block22", range(2, 9, 2))]
    mismatches = 0
    configs = 0
    slowest = 0.0
    for op, arch, widths in families:
        t0 = time.perf_counter()
        for w in widths:
            nl = gen_module(ArchParams(op, arch, w, 0))
            tr = simulate(nl, exhaustive_values(nl))
            iw = dict(nl.input_words())
            a = tr.word_values(iw["a"])
            b = tr.word_values(iw["b"])
            out = tr.word_values(nl.output_words()[0][1])
            exp = a + b if op == "add" else a * b
            mismatches += int(np.count_nonzero(out != exp))
            configs += 1
        slowest = max(slowest, time.perf_counter() - t0)
    _verdict(1, "k=0 generators equal the exact operator",
             mismatches == 0 and slowest < 10.0,
             f"{configs} generator configs across 4 families, "
             f"{mismatches} mismatches, slowest family {slowest:.2f}s")


def test_02_profiler_metrics_equal_scalar_brute_force():
    cases = [
        (ArchParams("add", "loa", 4, 2), loa_model),
        (ArchParams("add", "loa", 8, 4), loa_model),
        (ArchParams("add", "trunc", 5, 2), trunc_add_model),
        (ArchParams("mul", "trunc", 4, 2), trunc_mul_model),
        (ArchParams("mul", "block22", 6, 4), block22_model),
    ]
    exact_hits = 0
    for params, model in cases:
        w, k = params.width, params.k
        n = 1 << (2 * w)
        errs = 0
        total = 0
        worst = 0
        ratios = []
        for bv in range(1 << w):
            for av in range(1 << w):
                got = model(av, bv, w, k)
                exp = av + bv if params.op_type == "add" else av * bv
                d = abs(got - exp)
                errs += 1 if d else 0
                total += d
                worst = max(worst, d)
                ratios.append(d / max(exp, 1))
        nl = gen_module(params)
        rep = error_profile(nl, EXACT_OPS[params.op_type],
                            exhaustive_values(nl))
        same = (rep.er == errs / n and rep.med == total / n
                and rep.mred == float(np.sum(np.array(ratios))) / n
                and rep.wce == worst and rep.n_vectors == n)
        exact_hits += same
        assert same, params.label()
    _verdict(2, "ER/MED/MRED/WCE equal the scalar recomputation",
             exact_hits == len(cases),
             f"{exact_hits}/{len(cases)} exhaustive profiles bit-equal")


def _not_chain():
    b = NetlistBuilder()
    n = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    for i in range(4):
        n = b.gate(GateKind.NOT, (n,), tag="u", stem=f"y{i + 1}")
    b.po(n)
    return b.build(), {"x": (1, 1, 4), "y1": (2, 2, 3), "y2": (3, 3, 2),
                       "y3": (4, 4, 1), "y4": (5, 5, 0)}


def _buf_chain():
    b = NetlistBuilder()
    n = b.pi("x")
    b.instance("u", "deterministic", "misc", "exact")
    for i in range(3):
        n = b.gate(GateKind.BUF, (n,), tag="u", stem=f"y{i + 1}")
    b.po(n)
    return b.build(), {"x": (1, 1, 3), "y1": (2, 2, 2), "y2": (3, 3, 1),
                       "y3": (4, 4, 0)}


def _gate2(kind, cc):
    def make():
        b = NetlistBuilder()
        a = b.pi("a")
        c = b.pi("b")
        b.instance("u", "deterministic", "misc", "exact")
        b.po(b.gate(kind, (a, c), tag="u", stem="y"))
        return b.build(), {"a": (1, 1, 2), "b": (1, 1, 2),
                           "y": (cc[0], cc[1], 0)}
    return make


def _mux():
    b = NetlistBuilder()
    s = b.pi("s")
    a = b.pi("a")
    c = b.pi("b")
    b.instance("u", "deterministic", "misc", "exact")
    b.po(b.gate(GateKind.MUX2, (s, a, c), tag="u", stem="y"))
    return b.build(), {"s": (1, 1, 5), "a": (1, 1, 6), "b": (1, 1, 5),
                       "y": (5, 4, 0)}


def _and_tree():
    b = NetlistBuilder()
    ins = [b.pi(x) for x in "abcd"]
    b.instance("u", "deterministic", "misc", "exact")
    t1 = b.gate(GateKind.AND, (ins[0], ins[1]), tag="u", stem="t1")
    t2 = b.gate(GateKind.AND, (ins[2], ins[3]), tag="u", stem="t2")
    b.po(b.gate(GateKind.AND, (t1, t2), tag="u", stem="y"))
    return b.build(), {"a": (1, 1, 6), "b": (1, 1, 6), "c": (1, 1, 6),
                       "d": (1, 1, 6), "t1": (2, 3, 4), "t2": (2, 3, 4),
                       "y": (3, 7, 0)}


def _ripple2():
    return gen_adder(ArchParams("add", "exact", 2)), {
        "a[0]": (1, 1, 2), "b[0]": (1, 1, 2),
        "a[1]": (1, 1, 5), "b[1]": (1, 1, 5),
        "s": (3, 3, 0), "c": (2, 3, 4), "t": (3, 3, 3), "s_1": (6, 6, 0),
        "g": (2, 3, 4), "h": (3, 7, 3), "c_1": (6, 4, 0)}


def test_03_scoap_matches_hand_worked_recurrences():
    circuits = [
        ("not-chain", _not_chain), ("buf-chain", _buf_chain),
        ("and2", _gate2(GateKind.AND, (2, 3))),
        ("or2", _gate2(GateKind.OR, (3, 2))),
        ("nand2", _gate2(GateKind.NAND, (3, 2))),
        ("nor2", _gate2(GateKind.NOR, (2, 3))),
        ("xor2", _gate2(GateKind.XOR, (3, 3))),
        ("mux2", _mux), ("and4-tree", _and_tree),
        ("ripple2", _ripple2)]
    passed = 0
    for name, make in circuits:
        nl, want = make()
        rep = scoap(nl)
        ids = {nl.net_names[n]: n for n in range(nl.n_nets)}
        ok = all((rep.cc0[ids[nm]], rep.cc1[ids[nm]], rep.co[ids[nm]])
                 == tuple(v) for nm, v in want.items())
        passed += ok
        assert ok, name
    _verdict(3, "SCOAP agrees on the hand-worked circuits",
             passed == 10, f"{passed}/10 circuits, every net exact")


def test_04_timing_against_exhaustive_path_enumeration():
    rng = np.random.default_rng(np.random.SeedSequence((0xACC, 4)))
    crit_ok = paths_ok = 0
    most = 0
    for trial in range(50):
        nl, model = random_dag(rng)
        every = _enumerate_paths(nl, model)
        most = max(most, len(every))
        assert len(every) <= 10 ** 4
        crit_ok += critical_delay(nl, model) == max(d for _, d in every)
        clock = max(d for _, d in every) * float(rng.uniform(1.0, 1.3))
        window = clock * float(rng.uniform(0.1, 0.5))
        got = near_critical_paths(nl, model, clock, n_paths=10 ** 4,
                                  window=window)
        want = {nets for nets, d in every
                if clock - window - 1e-9 <= d <= clock + 1e-9}
        by_nets = dict(every)
        paths_ok += ({p.nets for p in got} == want
                     and all(p.delay == pytest.approx(by_nets[p.nets])
                             and p.slack == pytest.approx(clock - p.delay)
                             for p in got))
    _verdict(4, "critical delay and near-critical paths match the DFS",
             crit_ok == 50 and paths_ok == 50,
             f"{crit_ok}/50 critical delays, {paths_ok}/50 window sets, "
             f"largest DAG {most} paths")


def test_05_leak_is_invisible_off_the_witness(leak_case):
    clean, _, _, infected, ht = leak_case
    tr = simulate(infected, VectorStream(101_000, 901, "uniform"))
    fire = np.ones(tr.n_vectors, bool)
    for net, val in ht.trigger_nets:
        fire &= tr.word_values([net]) == val
    keep = np.nonzero(~fire)[0]
    assert keep.size >= 100_000
    keep = keep[:100_000]
    vals = {w: tr.word_values(nets)[keep]
            for w, nets in infected.input_words()}
    rep = verify_stealth(clean, infected, ht, SPEC.reference, vals)

    wit = dict(ht.witness)
    vals = eval_vector(infected, wit)
    leaked = word_value(infected, vals, "y")
    honest = word_value(clean, eval_vector(clean, wit), "y")
    packed = word_value(infected, vals, "coef")
    fired = (vals[ht.trigger_net] == 1 and leaked != honest
             and leaked == (packed & ((1 << 18) - 1)))
    _verdict(5, "FIR leak stealth",
             rep.error_delta == 0.0 and rep.trigger_rate == 0.0
             and abs(rep.power_delta_fraction) <= 0.02 and fired,
             f"error_delta={rep.error_delta} on {keep.size} non-witness "
             f"vectors, power_delta={rep.power_delta_fraction:.4f}, "
             f"witness leaks y={leaked} (clean {honest})")


def test_06_trigger_rarity_and_fail_closed(leak_case):
    clean, act, cfg, infected, ht = leak_case
    fires = 0
    total = 0
    # one chunk's run at a time, each overwriting the last
    for tr in _runs(infected, VectorStream(10 ** 6, 17, "uniform")):
        m = np.ones(tr.n_vectors, bool)
        for net, val in ht.trigger_nets:
            m &= tr.word_values([net]) == val
        fires += int(m.sum())
        total += tr.n_vectors
    rate = fires / total
    bound = cfg.theta ** cfg.q * 10

    emitted = 0
    unverified = 0
    for seed in range(6):
        c = dataclasses.replace(cfg, seed=seed,
                                payload=("leak", "corrupt")[seed % 2])
        try:
            bad, got = insert_trojan(clean, act, None, c)
        except (NoRareNets, NoWitness, WouldViolateTiming):
            continue
        emitted += 1
        vals = eval_vector(bad, dict(got.witness))
        if not all(vals[n] == v for n, v in got.trigger_nets):
            unverified += 1
    _verdict(6, "trigger rarity with verified witnesses",
             rate <= bound and emitted > 0 and unverified == 0,
             f"rate {rate:.2e} <= bound {bound:.2e} over {total} vectors; "
             f"{emitted} insertions emitted, {unverified} without a "
             f"working witness")


def test_07_detection_quality_over_fifty_trials(tmp_path):
    t0 = time.perf_counter()
    tp = fp = tn = fn = 0
    for seed in range(50):
        res = run_experiment(ExperimentConfig(seed=seed),
                             tmp_path / f"trial{seed:02d}")
        m = res.metrics
        tp += m.tp
        fp += m.fp
        tn += m.tn
        fn += m.fn
    elapsed = time.perf_counter() - t0
    acc = (tp + tn) / (tp + fp + tn + fn)
    fpr = fp / (fp + tn)
    fnr = fn / (fn + tp)
    _verdict(7, "detection quality, 50 seeded trials",
             acc >= 0.85 and fpr <= 0.12 and fnr <= 0.08 and elapsed <= 600,
             f"measured accuracy={acc:.4f} fpr={fpr:.4f} fnr={fnr:.4f} "
             f"against the 0.90/0.08/0.02 reference triple (gate "
             f">=0.85/<=0.12/<=0.08) in {elapsed:.0f}s")


def test_08_clean_exact_sets_raise_no_flags():
    exact = SPEC.build(None)
    cands = {f"c{i}": exact for i in range(3)}
    silent = 0
    for seed in range(20):
        rep = classify(cands, DetectConfig(seed=seed))
        silent += not any(e.flagged for r in rep.netlists
                          for e in r.instances)
    _verdict(8, "zero false alarms on clean exact candidate sets",
             silent == 20, f"{silent}/20 seeded trials flag nothing")


def test_09_experiment_artifacts_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(seed=11, n_variants=4, infected_fraction=0.5,
                           characterize_vectors=400, trace_vectors=4000,
                           stealth_vectors=2000, detect_vectors=500,
                           detect_stress=100)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(b)
                           for p in b.rglob("*") if p.is_file())
    diff = [str(rel) for rel in names
            if (a / rel).read_bytes() != (b / rel).read_bytes()]
    _verdict(9, "identical config and seed reproduce every artifact",
             not diff,
             f"{len(names)} files compared, differing: {diff or 'none'}")


def test_10_budget_check_is_exact_and_monotone():
    rng = np.random.default_rng(np.random.SeedSequence((0xB06,)))
    p0 = ArchParams("add", "exact", 8)
    wrong = 0
    flipped = 0
    n = 10_000
    for _ in range(n):
        m = int(rng.integers(1, 4))
        es = [float(x) for x in rng.uniform(0.0, 0.2, m)]
        ps = [float(x) for x in rng.uniform(0.3, 1.2, m)]
        sel = [ModuleSpec(p0, e, p, 0, 0.0, 0) for e, p in zip(es, ps)]
        budget = BudgetConstraints(1.0, 2.0,
                                   float(rng.uniform(1e-6, 0.3)),
                                   float(rng.uniform(1e-6, 0.3)))
        ce = float(rng.uniform(0.0, 0.8))
        cp = float(rng.uniform(0.3, 2.0))
        ck = check_budget(sel, ce, cp, budget)
        direct = (ce - sum(s.e_norm for s in sel) < budget.delta_e
                  and cp - sum(s.p_norm for s in sel) < budget.delta_p)
        if ck.ok != direct:
            wrong += 1
        # decreasing either composed measurement must never flip pass->fail
        lower = check_budget(sel, ce - float(rng.uniform(0.0, 0.5)),
                             cp - float(rng.uniform(0.0, 0.5)), budget)
        if ck.ok and not lower.ok:
            flipped += 1
    _verdict(10, "budget check equals the direct inequality",
             wrong == 0 and flipped == 0,
             f"{n} random cases, {wrong} disagreements, "
             f"{flipped} monotonicity violations")
