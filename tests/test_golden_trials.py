"""Golden digests of five trials off the default configs.

``tests/test_golden.py`` pins the default trials; these cover what they
do not reach:

- ``bfly-q1`` infects 4 of 10 variants, so a derived bfly build lands in
  the artifacts;
- ``fir-two-chunks`` screens on 2 x 33,000 profiling vectors, two
  chunks with the second stream starting at bit 40 of a word, and on a
  stress union of 34 jobs x 2000 vectors, also two chunks;
- ``fir-w6-q3`` is a 6-bit fir with 3-tap triggers and a corrupting
  payload, screened on a profiling length that is no multiple of 64;
- ``fir-theta02-v6`` screens 6 variants, 2 of them infected, at
  ``theta`` 0.2, so its stress step replays 50 groups of rare values;
- ``bfly-q1-theta03-v8`` screens 8 bfly variants, 3 of them infected, at
  ``theta`` 0.3, replaying 16 groups.

Each tree is pinned by the sha256 of ``test_golden._dir_digest``.  A
change that means to move one has to say so and record the new value here.
"""

import pytest

from axsec.experiment import ExperimentConfig, run_experiment
from tests.test_golden import _dir_digest

TRIALS = {
    "bfly-q1": (ExperimentConfig(design="bfly", q=1, seed=0),
        "85f76cd76d148c3c3273069907b72b9f"
        "84ed08501280a66089706e18a5f9a571"),
    "fir-two-chunks": (ExperimentConfig(seed=1, detect_vectors=33000,
                                        detect_stress=2000),
        "3d6644963bb0f233bbd6b797e72981ca"
        "b0267e74360bc52cc44fd5001368f5f1"),
    "fir-w6-q3": (ExperimentConfig(seed=2, width=6, q=3, detect_vectors=700,
                                   payload="corrupt"),
        "66b2e09a2ab2edcb0a0788a8d615332e"
        "66a60b978af0a1078bc1c47c9f4b73a4"),
    "fir-theta02-v6": (ExperimentConfig(seed=2, detect_theta=0.2,
                                        n_variants=6),
        "54bb6e108620a60bcb60b27568994058"
        "c52ae694e4b656901283c611a3fc07f0"),
    "bfly-q1-theta03-v8": (ExperimentConfig(seed=3, design="bfly", q=1,
                                            detect_theta=0.3, n_variants=8),
        "a38b25b499d04d83165b28a874495ae4"
        "0d57b2dabc9133d49b52d0237cb69da0"),
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trial_artifacts_match_golden(name, tmp_path):
    config, digest = TRIALS[name]
    run_experiment(config, tmp_path / name)
    assert _dir_digest(tmp_path / name) == digest
