"""Golden digests of three trials off the default configs.

``tests/test_golden.py`` pins the default trials; these cover what they
do not reach:

- ``bfly-q1`` infects 4 of 10 variants, so a derived bfly build lands in
  the artifacts;
- ``fir-two-chunks`` screens on 2 x 33,000 profiling vectors, two
  chunks with the second stream starting at bit 40 of a word, and on a
  stress union of 34 jobs x 2000 vectors, also two chunks;
- ``fir-w6-q3`` is a 6-bit fir with 3-tap triggers and a corrupting
  payload, screened on a profiling length that is no multiple of 64.

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
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trial_artifacts_match_golden(name, tmp_path):
    config, digest = TRIALS[name]
    run_experiment(config, tmp_path / name)
    assert _dir_digest(tmp_path / name) == digest
