"""Golden digests: artifacts and error figures pinned across code versions.

Every value below was recorded from the code before any of the error,
I/O-signature, seed or report routines were folded into a single owner.
A refactor must reproduce them exactly; a change that means to move one
has to say so and record the new value here.

Two paths are pinned outside the experiment artifacts because no
artifact reaches them: stealth under a per-word dict reference over more
than one 65,536-vector chunk, and error ranking of multi-word candidates.
"""

import dataclasses
import hashlib

import pytest

from axsec.arith import ArchParams
from axsec.attack import AttackConfig, insert_trojan, verify_stealth
from axsec.designs import bfly_spec
from axsec.detect import DetectConfig, defender_streams, rank_by_error
from axsec.experiment import ExperimentConfig, run_experiment
from axsec.sim import VectorStream, activity_profile

FIR_LEAK = ExperimentConfig(seed=0, n_variants=6, detect_vectors=500,
                            detect_stress=120, trace_vectors=5000,
                            stealth_vectors=2000)
FIR_CORRUPT = dataclasses.replace(FIR_LEAK, seed=1, payload="corrupt")
BFLY = ExperimentConfig(seed=0, design="bfly")

GOLDEN_DIRS = {
    "fir-leak": (FIR_LEAK,
        "2b4c963cb9c6445a105b29a64d329d8b"
        "ae78dbbfd865eb32c565fe0aa51a3578"),
    "fir-corrupt": (FIR_CORRUPT,
        "9057f43f52bc8325a6eeaa8f1e9f7d22"
        "c8eaa13aea0502fa0ea53c03d8d5749f"),
    "bfly": (BFLY,
        "00afe26ab6a03bc08911f04526df4d19"
        "22dea41e01f111c4996f92a42162b52e"),
}

BFLY_SPEC = bfly_spec()
BFLY_ADD = BFLY_SPEC.slots[1][2]


def _dir_digest(path):
    """sha256 over the sorted (relative path, file sha256) pairs."""
    lines = []
    for p in sorted(path.rglob("*")):
        if p.is_file():
            lines.append(f"{p.relative_to(path).as_posix()} "
                         f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIRS))
def test_experiment_artifacts_match_golden(name, tmp_path):
    config, digest = GOLDEN_DIRS[name]
    run_experiment(config, tmp_path / name)
    assert _dir_digest(tmp_path / name) == digest


@pytest.fixture(scope="module")
def bfly_pair():
    clean = BFLY_SPEC.build({"add0": ArchParams("add", "loa", BFLY_ADD, 4)})
    stream = VectorStream(2000, 5, "correlated", 0.9)
    cfg = AttackConfig(q=3, theta=0.2, scoap_ceiling=500, payload="corrupt",
                       stream=stream, trace_vectors=5000, seed=1,
                       require_disjoint=False)
    infected, ht = insert_trojan(clean, activity_profile(clean, stream),
                                 None, cfg)
    return clean, infected, ht


def test_bfly_stealth_under_word_references_matches_golden(bfly_pair):
    clean, infected, ht = bfly_pair
    # 70,000 vectors spill past one generation chunk
    rep = verify_stealth(clean, infected, ht, BFLY_SPEC.reference,
                         VectorStream(70_000, 9, "uniform"))
    assert repr(rep) == (
        "StealthReport(error_delta=0.011838121139639904, "
        "power_delta_fraction=0.0018051685915496662, "
        "trigger_rate=0.007557142857142857, min_slack=None)")


def test_bfly_rank_by_error_matches_golden(bfly_pair):
    clean, infected, _ = bfly_pair
    cands = {"exact": BFLY_SPEC.build(None), "loa": clean,
             "trunc": BFLY_SPEC.build(
                 {"mul0": ArchParams("mul", "trunc", 8, 4)}),
             "infected": infected}
    rank = rank_by_error(cands, defender_streams(DetectConfig(vectors=700)))
    assert [repr(e) for e in rank] == [
        "RankEntry(netlist_id='loa', "
        "er=0.4082142857142857, med=5.073214285714286, "
        "mred=0.01690575663162185, wce=29.0, n_vectors=1400)",
        "RankEntry(netlist_id='exact', "
        "er=0.47214285714285714, med=6.96, "
        "mred=0.023162455941917622, wce=29.0, n_vectors=1400)",
        "RankEntry(netlist_id='infected', "
        "er=0.4082142857142857, med=11.656071428571428, "
        "mred=0.026695555413215877, wce=2065.0, n_vectors=1400)",
        "RankEntry(netlist_id='trunc', "
        "er=0.47214285714285714, med=27.764285714285716, "
        "mred=0.07316491672497627, wce=2045.0, n_vectors=1400)",
    ]
