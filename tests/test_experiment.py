"""End-to-end harness: menus, Pareto selection, artifact determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axsec.arith import ArchParams
from axsec.attack import BudgetConstraints, characterize
from axsec.designs import fir_spec
from axsec.errors import BadParams, BudgetInfeasible
from axsec.experiment import (ExperimentConfig, _pareto_pool, arch_menu,
                              generate_variants, run_experiment)
from axsec.sim import VectorStream

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
    assert _pareto_pool(E, P, cap=10) == [(0, 0), (0, 1), (1, 2), (1, 3)]
    # exact duplicates share a front slot
    assert _pareto_pool(np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                        cap=4) == [(0, 0), (0, 1)]
    assert _pareto_pool(E, P, cap=1) == [(0, 0), (0, 1)]


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
    pool = _pareto_pool(E, P, cap)
    assert pool == _pareto_pool_loop(E, P, cap)
    # each index at most once, so generate_variants needs no duplicate guard
    assert len({ix for _, ix in pool}) == len(pool)


def test_pareto_pool_peels_an_infinite_power():
    # (0, inf) and (1, 0) do not dominate each other
    assert _pareto_pool(np.array([0.0, 1.0]), np.array([np.inf, 0.0]),
                        cap=10) == [(0, 0), (0, 1)]


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


@pytest.mark.parametrize("design,most", [("fir", 73), ("bfly", 63)],
                         ids=["fir", "bfly"])
def test_a_trial_simulates_each_run_once(tmp_path, kernel_calls, design,
                                         most):
    # 120 and 105 kernel runs when every measure re-simulated its stream,
    # 83 and 73 while the defender simulated each profiling stream apart;
    # what is left re-profiles the exact baseline once per menu entry
    run_experiment(ExperimentConfig(seed=1, design=design), tmp_path / "o")
    assert len(kernel_calls) <= most
