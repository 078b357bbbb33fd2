"""End-to-end harness: menus, Pareto selection, artifact determinism."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec import arith, designs, sta
from axsec.arith import ArchParams
from axsec.attack import BudgetConstraints, characterize
from axsec.designs import bfly_spec, fir_spec
from axsec.errors import BadParams, BudgetInfeasible, UnitMismatch
from axsec.experiment import (ExperimentConfig, _pareto_pool, arch_menu,
                              generate_variants, run_experiment)
from axsec.netlist import NetlistBuilder
from axsec.sim import VectorStream, simulate

from tests.oracles import pareto_pool, product_sums
from tests.test_cli import _child_env
from tests.test_golden import _dir_digest

SMALL = ExperimentConfig(
    seed=11, n_variants=4, infected_fraction=0.5,
    characterize_vectors=400, trace_vectors=4000, stealth_vectors=2000,
    detect_vectors=500, detect_stress=100)


def test_arch_menu_add8():
    assert arch_menu("add", 8) == [
        ArchParams("add", "exact", 8),
        ArchParams("add", "loa", 8, 2), ArchParams("add", "loa", 8, 4),
        ArchParams("add", "trunc", 8, 2), ArchParams("add", "trunc", 8, 4)]


def test_arch_menu_mul_widths():
    assert arch_menu("mul", 8) == [
        ArchParams("mul", "exact", 8),
        ArchParams("mul", "trunc", 8, 2), ArchParams("mul", "trunc", 8, 4),
        ArchParams("mul", "block22", 8, 2),
        ArchParams("mul", "block22", 8, 4)]
    # odd widths drop the 2x2-block family
    assert [p.arch_id for p in arch_menu("mul", 7)] == \
        ["exact", "trunc", "trunc"]


def test_pareto_pool_fronts():
    E = np.array([1.0, 2.0, 1.0, 3.0])
    P = np.array([2.0, 1.0, 3.0, 1.0])
    # front 0: (1,2) and (2,1); (1,3) is dominated by (1,2), (3,1) by (2,1)
    assert pareto_pool(E, P, cap=10) == [(0, 0), (0, 1), (1, 2), (1, 3)]
    # exact duplicates share a front slot
    assert pareto_pool(np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                       cap=4) == [(0, 0), (0, 1)]
    assert pareto_pool(E, P, cap=1) == [(0, 0), (0, 1)]


def _pareto_pool_loop(E, P, cap):
    """The front peeling as a plain loop over each equal-E run."""
    remaining = np.arange(len(E))
    pool = []
    front = 0
    while remaining.size and len(pool) < cap:
        e, p = E[remaining], P[remaining]
        order = np.lexsort((remaining, p, e))
        keep = np.zeros(len(order), bool)
        best = np.inf
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and e[order[j]] == e[order[i]]:
                j += 1
            gmin = p[order[i:j]].min()
            if gmin < best:
                for t in range(i, j):
                    if p[order[t]] == gmin:
                        keep[order[t]] = True
                best = gmin
            i = j
        sel = remaining[order][keep[order]]
        pool.extend((front, int(ix)) for ix in sel)
        mask = np.ones(remaining.size, bool)
        mask[keep] = False
        remaining = remaining[mask]
        front += 1
    return pool


_TIED = [0.0, 0.5, 1.0, 1.5, 2.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TIED + [np.inf]),
                          st.sampled_from(_TIED)), max_size=60),
       st.integers(0, 70))
def test_pareto_pool_matches_the_loop_on_tied_values(points, cap):
    # an infinite P never beats the loop's initial best, so the loop would
    # peel nothing and spin; only E takes the infinite value here
    E = np.array([e for e, _ in points], float)
    P = np.array([p for _, p in points], float)
    pool = pareto_pool(E, P, cap)
    assert pool == _pareto_pool_loop(E, P, cap)
    # each index at most once, so generate_variants needs no duplicate guard
    assert len({ix for _, ix in pool}) == len(pool)


def test_pareto_pool_peels_an_infinite_power():
    # (0, inf) and (1, 0) do not dominate each other
    assert pareto_pool(np.array([0.0, 1.0]), np.array([np.inf, 0.0]),
                       cap=10) == [(0, 0), (0, 1)]


# sums of these in another order can differ by an ulp: (0.1 + 0.2) + 0.3
# is not (0.1 + 0.3) + 0.2
_ULPS = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7]


@st.composite
def _slot_menus(draw, points=4096):
    """1-8 slot menus of 1-6 (e, p) entries and at most ``points``
    assignments, where a slot may repeat an earlier slot's menu."""
    menus, size = [], 1
    for _ in range(draw(st.integers(1, 8))):
        fits = [m for m in menus if size * len(m) <= points]
        if fits and draw(st.booleans()):
            m = draw(st.sampled_from(fits))
        else:
            k = draw(st.integers(1, max(1, min(6, points // size))))
            m = np.array(draw(st.lists(
                st.tuples(st.sampled_from(_ULPS),
                          st.sampled_from(_ULPS + [np.inf])),
                min_size=k, max_size=k)))
        menus.append(m)
        size *= len(m)
    return menus


@settings(max_examples=300, deadline=None)
@given(_slot_menus(), st.integers(1, 300))
def test_pareto_pool_slot_by_slot_equals_the_full_product(menus, cap):
    E, P = product_sums(menus)
    lens = [len(m) for m in menus]
    pool = [(f, int(np.ravel_multi_index(choice, lens)), e, p)
            for f, choice, e, p in _pareto_pool(menus, cap)]
    assert pool == [(f, ix, float(E[ix]), float(P[ix]))
                    for f, ix in pareto_pool(E, P, cap)]


def test_pareto_pool_keeps_ulp_ties_of_permuted_slots():
    # three slots share a menu, so permuted partial sums differ by an ulp in
    # E, and the last slot's addition rounds the difference away; pruning
    # on plain dominance keeps 16 of these 20 entries
    menu = np.array([(0.3, 0.2), (0.2, 0.3), (0.1, 0.3)])
    menus = [menu] * 3 + [np.array([(0.2, 0.1), (0.7, 0.2)])]
    E, P = product_sums(menus)
    pool = [(f, np.ravel_multi_index(c, [3, 3, 3, 2]))
            for f, c, _, _ in _pareto_pool(menus, cap=10)]
    assert pool == pareto_pool(E, P, 10) and len(pool) == 20


def test_generate_variants_budget_infeasible():
    spec = fir_spec(8, (3, 5, 7, 9))
    stream = VectorStream(400, 1, "correlated", 0.9)
    lib = {}
    for key in {(op, w) for _, op, w in spec.slots}:
        op, w = key
        # menu of understating approximations only: every composed build
        # carries real error against a declared sum of zero
        specs = [characterize(p, stream, 0.08)
                 for p in arch_menu(op, w)[1:]]
        lib[key] = [dataclasses.replace(s, e_norm=0.0) for s in specs]
    tight = BudgetConstraints(0.05, 1.0, 1e-9, 1.0)
    log = []
    with pytest.raises(BudgetInfeasible):
        generate_variants(spec, lib, 3, tight, stream, log)
    assert log and all("rejected by budget" in line for line in log)


def test_generate_variants_takes_the_stream_of_its_library(kernel_calls):
    spec = bfly_spec()
    stream = VectorStream(400, 1, "correlated", 0.9)
    lib = {(op, w): [characterize(p, stream, 0.08) for p in arch_menu(op, w)]
           for _, op, w in spec.slots}
    base = spec.build(None)
    run = simulate(base, stream)
    sources = ({w: run.word_values(b) for w, b in base.input_words()}, run)
    del kernel_calls[:]
    loose = BudgetConstraints(1.0, 1.0, 1e9, 1e9)
    for source in sources:
        with pytest.raises(BadParams, match="generate_variants takes a "
                                            "VectorStream"):
            generate_variants(spec, lib, 3, loose, source)
    assert kernel_calls == []
    with pytest.raises(UnitMismatch, match="characterized under"):
        generate_variants(spec, lib, 3, loose,
                          VectorStream(400, 2, "correlated", 0.9))


def test_each_variant_takes_the_menu_entries_of_its_index():
    # menus of unequal lengths: a slot read off the wrong digit of the
    # joint index picks another entry, or none
    spec = bfly_spec()
    stream = VectorStream(400, 1, "correlated", 0.9)
    lib = {(op, w): [characterize(p, stream, 0.08)
                     for p in arch_menu(op, w)[:3 + 2 * i]]
           for i, (_, op, w) in enumerate(spec.slots)}
    assert [len(m) for m in lib.values()] == [3, 5]
    loose = BudgetConstraints(1.0, 1.0, 1e9, 1e9)
    variants = generate_variants(spec, lib, 15, loose, stream)
    assert len(variants) == 15
    for v in variants:
        picked = [next(s for s in lib[(op, w)] if s.params == v.assign[name])
                  for name, op, w in spec.slots]
        assert (v.sum_e, v.sum_p) == (sum(s.e_norm for s in picked),
                                      sum(s.p_norm for s in picked))


def test_config_validation():
    with pytest.raises(BadParams):
        ExperimentConfig(design="iir")
    with pytest.raises(BadParams):
        ExperimentConfig(infected_fraction=1.5)
    with pytest.raises(BadParams):
        ExperimentConfig(n_variants=0)


def test_config_helpers_carry_the_fields():
    c = SMALL
    assert c.budget() == BudgetConstraints(0.05, 1.0, 0.05, 0.05)
    d = c.detect_config()
    assert (d.vectors, d.stress_budget, d.seed) == (500, 100, 11)
    assert d.theta == c.detect_theta
    assert c.design_spec().name == "fir4x8"


def test_attack_config_forwards_the_insertion_settings_once():
    c = dataclasses.replace(SMALL, q=3, theta=0.2, scoap_ceiling=7,
                            payload="corrupt")
    a = c.attack_config(secret_word="coef", clock=9.0)
    assert (a.q, a.theta, a.scoap_ceiling, a.payload) == (3, 0.2, 7,
                                                        "corrupt")
    assert (a.secret_word, a.clock, a.stream) == ("coef", 9.0, None)
    # the config refuses what its attack settings refuse, in their words
    for field, value, message in [("q", 0, "q must be at least 1"),
                                  ("payload", "x", "payload must be one of")]:
        with pytest.raises(BadParams, match=f"^{message}"):
            dataclasses.replace(SMALL, **{field: value})


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    return run_experiment(SMALL, out), out


def test_small_run_completes(small_run):
    result, out = small_run
    assert result.n_variants == 4
    assert result.n_infected == 2
    assert sorted(result.verdicts) == ["v00", "v01", "v02", "v03"]
    assert set(result.verdicts.values()) <= {"CLEAN", "INFECTED"}
    m = result.metrics
    assert 0.0 <= m.accuracy <= 1.0
    assert m.tp + m.fp + m.tn + m.fn > 0


def test_artifact_layout(small_run):
    _, out = small_run
    for name in ("config.txt", "library.csv", "variants.csv", "stealth.csv",
                 "ht_ground_truth.csv", "detect_report.csv",
                 "detect_debug.csv", "ranking.csv", "metrics.csv",
                 "experiment.log"):
        assert (out / name).is_file(), name
    assert sorted(p.name for p in (out / "variants").iterdir()) == \
        ["v00.nl", "v01.nl", "v02.nl", "v03.nl"]
    assert sorted(p.name for p in (out / "candidates").iterdir()) == \
        ["v00.nl", "v01.nl", "v02.nl", "v03.nl"]


def test_artifact_headers(small_run):
    _, out = small_run
    heads = {
        "library.csv": "op,width,arch,k,label,e_norm,p_norm,rare_count,"
                       "r_norm,scoap_summary,attack_score",
        "stealth.csv": "netlist,error_delta,power_delta_fraction,"
                       "trigger_rate,min_slack",
        "ht_ground_truth.csv": "netlist,infected,host,payload,trigger_net,"
                               "taps,witness",
        "detect_report.csv": "netlist,verdict,instance,suspicion",
        "detect_debug.csv": "netlist,instance,kind,hits,resilience,rare,"
                            "raw,suspicion,flagged",
        "ranking.csv": "netlist,error_rank,mred,verdict",
        "metrics.csv": "accuracy,fpr,fnr",
    }
    for name, head in heads.items():
        first = (out / name).read_text().splitlines()[0]
        assert first == head, name
    first = (out / "variants.csv").read_text().splitlines()[0]
    assert first.startswith("netlist,front,")
    assert first.endswith(",sum_e,sum_p,composed_e,composed_p,"
                          "e_margin,p_margin")


def test_ground_truth_matches_result(small_run):
    result, out = small_run
    lines = (out / "ht_ground_truth.csv").read_text().splitlines()[1:]
    infected = [ln.split(",")[0] for ln in lines
                if ln.split(",")[1] == "1"]
    assert len(infected) == result.n_infected
    for ln in lines:
        cells = ln.split(",")
        if cells[1] == "1":
            assert cells[2]            # host tag recorded
            assert "=" in cells[6]     # witness assignment present
        else:
            assert cells[2] == ""


def test_rerun_is_byte_identical(small_run, tmp_path):
    _, out = small_run
    again = tmp_path / "again"
    run_experiment(SMALL, again)
    names = sorted(p.relative_to(out)
                   for p in out.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(again)
                           for p in again.rglob("*") if p.is_file())
    for rel in names:
        assert (out / rel).read_bytes() == (again / rel).read_bytes(), rel


def test_failed_run_removes_a_directory_it_created(tmp_path, monkeypatch):
    import axsec.experiment as exp
    out = tmp_path / "doomed"

    def boom(*a, **k):
        raise RuntimeError("nope")
    monkeypatch.setattr(exp, "characterize_library", boom)
    with pytest.raises(RuntimeError):
        run_experiment(SMALL, out)
    assert not out.exists()


def test_an_out_that_holds_anything_is_refused_before_any_run(
        tmp_path, kernel_calls):
    # an earlier run's v02.nl stayed beside a 2-variant run's files
    out = tmp_path / "out"
    (out / "candidates").mkdir(parents=True)
    (out / "candidates" / "v02.nl").write_text("old\n")
    with pytest.raises(BadParams,
                       match=f"{out}: exists and is not an empty directory"):
        run_experiment(SMALL, out)
    assert not kernel_calls
    assert [p.name for p in out.rglob("*")] == ["candidates", "v02.nl"]
    assert (out / "candidates" / "v02.nl").read_text() == "old\n"


@pytest.mark.parametrize("design,runs", [("fir", 61), ("bfly", 52)],
                         ids=["fir", "bfly"])
def test_a_trial_simulates_each_run_once(tmp_path, kernel_calls, design,
                                         runs):
    # 120 and 105 kernel runs when every measure re-simulated its stream,
    # 83 and 73 while the defender simulated each profiling stream apart,
    # 73 and 63 while characterize re-profiled the exact baseline once per
    # menu entry, 61 and 54 while it did so once per slot shape, 58 and 52
    # while the exact entry's own run was the baseline (fir has 3 slot
    # shapes, bfly 2) but variant generation ran the all-exact build twice;
    # its base run became also the all-exact variant's run: one kernel run
    # per (netlist, stream) pair, 57 of them on fir and 52 on bfly (51
    # after a fir trial of the same seed while the exact modules kept that
    # trial's baselines).  The witness check of an insertion is one
    # more one-vector run since it left the scalar evaluator: fir seed 1
    # reaches it 4 times, bfly never.  The trial is a cold one: no build,
    # or run kept on one, of an earlier trial in this process is reused
    arith.gen_module.cache_clear()
    designs._build.cache_clear()
    run_experiment(ExperimentConfig(seed=1, design=design), tmp_path / "o")
    assert len(kernel_calls) == runs


#: a trial in this process, counting its kernel runs on stdout
_COUNTED_TRIAL = """import sys
from axsec import _kernels
from axsec.experiment import ExperimentConfig, run_experiment
runs, run = [], _kernels.eval_gates
def counting(*args):
    runs.append(None)
    return run(*args)
_kernels.eval_gates = counting
seed, design, out = sys.argv[1:]
run_experiment(ExperimentConfig(seed=int(seed), design=design), out)
print(len(runs))
"""


@pytest.mark.parametrize("design,seed,runs", [("fir", 1, 61), ("bfly", 0, 52)],
                         ids=["fir", "bfly"])
def test_a_cold_trial_in_a_fresh_process_takes_its_pinned_kernel_runs(
        tmp_path, design, seed, runs):
    # no memo of any module is warm in a fresh process, so these are the
    # kernel runs one `axsec experiment` pays; an insertion's stealth
    # check is two per chunk, the host's run and its infected netlist's
    # appended gates, as two full runs were
    done = subprocess.run(
        [sys.executable, "-c", _COUNTED_TRIAL, str(seed), design,
         str(tmp_path / "o")], env=_child_env(), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == runs


def test_an_infected_netlist_builds_on_its_host(tmp_path, infected_work):
    # an insertion only appends: no infected netlist is levelized or
    # planned from scratch, and its clock check and stealth slacks share
    # one arrival pass, the screen's calibration takes the other
    run_experiment(ExperimentConfig(seed=1), tmp_path / "o")
    work = infected_work()
    assert len(work) == 4
    assert all(w["levelize"] == w["plan"] == 0 and 1 <= w["arrival"] <= 2
               for w in work), work


def test_no_arrival_pass_runs_only_to_be_extended(tmp_path, monkeypatch):
    # a derived netlist extends its base's arrival times only where the
    # base holds them, so no pass runs inside another: fir seeds 1-4 made 9
    # base passes under their insertions' calibrated models that way, each
    # kept on a cached build only to be read once
    depth, passes = [0], []
    real = sta._arrival_times

    def counting(nl, model):
        passes.append(depth[0])
        depth[0] += 1
        try:
            return real(nl, model)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sta, "_arrival_times", counting)
    for seed in range(1, 5):
        run_experiment(ExperimentConfig(seed=seed), tmp_path / str(seed))
    assert passes and not any(passes)


def test_the_build_guard_sees_a_full_rebuild(tmp_path, infected_work,
                                             monkeypatch):
    monkeypatch.setattr(NetlistBuilder, "_appends", lambda self, base: False)
    run_experiment(ExperimentConfig(seed=1), tmp_path / "o")
    assert [(w["levelize"], w["plan"]) for w in infected_work()] \
        == [(1, 1)] * 4


@pytest.mark.parametrize("design", ["bfly", "fir"])
def test_trials_leak_no_state_into_each_other(design, tmp_path, monkeypatch):
    # seed 1 after seed 0 reuses seed 0's shared builds and what is kept
    # on them, and must write what seed 1 writes from an empty build cache
    flattens = []
    real = designs.flatten

    def counting(design):
        flattens.append(None)
        return real(design)

    monkeypatch.setattr(designs, "flatten", counting)
    designs._build.cache_clear()
    counts = []
    for seed in (0, 1):
        n = len(flattens)
        run_experiment(ExperimentConfig(seed=seed, design=design),
                       tmp_path / f"warm{seed}")
        counts.append(len(flattens) - n)
    designs._build.cache_clear()
    run_experiment(ExperimentConfig(seed=1, design=design), tmp_path / "cold")
    assert _dir_digest(tmp_path / "warm1") == _dir_digest(tmp_path / "cold")
    assert counts[1] < counts[0]


def test_a_sweep_keeps_no_trial_state_on_shared_modules(tmp_path):
    # each trial characterizes on a stream of its own; its exact baselines
    # were kept in the memo of the process-wide exact modules, which grew
    # by one entry per trial (2 up to 7 over 6 trials)
    sizes = []
    for seed in range(6):
        run_experiment(ExperimentConfig(seed=seed), tmp_path / str(seed))
        sizes.append([len(arith.gen_module(ArchParams(op, "exact", w))._memo)
                      for op, w in (("mul", 8), ("add", 16), ("add", 17))])
    assert sizes == sizes[:1] * 6, sizes
