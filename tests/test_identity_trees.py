"""The identity trees of the benchmark record: 29 experiment artifact
trees whose digests a refactor must leave unchanged.

``BENCH_49.json`` lists each tree under ``identity.tree_digests``, hashed
by ``test_golden._dir_digest``; the digests below are copied from there.
The trees are fir and bfly (bfly at ``q=1``, so it infects) x leak and
corrupt x seeds 0-5, plus five long-stimulus or non-default configs:

- ``fir-1-33000``: fir seed 1 on 33,000 profiling and 2000 stress vectors;
- ``fir-3-70000``: fir seed 3 on 70,000 and 1000;
- ``bfly-q1-1-700c``: bfly seed 1 on 700 profiling vectors, corrupting;
- ``fir-2-theta02-v6``: fir seed 2 at ``detect_theta`` 0.2, 6 variants;
- ``bfly-q1-3-theta03-v8``: bfly seed 3 at ``detect_theta`` 0.3, 8
  variants.
"""

import pytest

from axsec.experiment import ExperimentConfig, run_experiment
from tests.test_golden import _dir_digest

DIGESTS = {
    "bfly-corrupt-0":
        "18d534496eb880a5f4d1b5822252f996"
        "49f64979468fa076b8306d98a36ccc89",
    "bfly-corrupt-1":
        "7d5d36d6b9c0783615e76eeaee77747a"
        "6db2f45c3cb63923ae1e67dd7abf79ab",
    "bfly-corrupt-2":
        "2c8f71bc45f13ae6f8c548f79885fc4a"
        "8c1922aa7f5cc51dbde6f76423b76b67",
    "bfly-corrupt-3":
        "cdefe7d54c8db4ed975827f9857a724b"
        "2f99eb1874138880647e6624b4bfabe6",
    "bfly-corrupt-4":
        "3af23c49762dec9607e9cc57a5d1411f"
        "0e7e5cbb39e02ac534fdd3d80f6132b4",
    "bfly-corrupt-5":
        "3230fa38094d3ecd388d9faf031593f2"
        "054aa79c31e4998a0f3758eecd3d7d8c",
    "bfly-leak-0":
        "85f76cd76d148c3c3273069907b72b9f"
        "84ed08501280a66089706e18a5f9a571",
    "bfly-leak-1":
        "70c0b85e3ca907532ea870531d8477c7"
        "6bd74cff58be3e41c72b39cbcf517bc6",
    "bfly-leak-2":
        "ac15e2b8c0e029fee62f0604329ab305"
        "2cffe0cbf295c8037eb04e06fb63f896",
    "bfly-leak-3":
        "933918956cbeb3a0e74e7da9b5e1b58f"
        "f9a47acd49adc3dea8d43273985478ee",
    "bfly-leak-4":
        "f974945744af41770c5fa98fcd9fd1f0"
        "65c34fa6f07fdca20b21b26083b6eedc",
    "bfly-leak-5":
        "7a9900c5d977e35d23e799aa89e290ed"
        "e6f44f3eb38ff3aff63ded4fccd0fbe6",
    "bfly-q1-1-700c":
        "ffcfab4a3b7e027f103f880188a0f1c0"
        "61c63eb9c99896f6be0f5aae8a9a72bd",
    "bfly-q1-3-theta03-v8":
        "a38b25b499d04d83165b28a874495ae4"
        "0d57b2dabc9133d49b52d0237cb69da0",
    "fir-1-33000":
        "3d6644963bb0f233bbd6b797e72981ca"
        "b0267e74360bc52cc44fd5001368f5f1",
    "fir-2-theta02-v6":
        "54bb6e108620a60bcb60b27568994058"
        "c52ae694e4b656901283c611a3fc07f0",
    "fir-3-70000":
        "67584b7dd2f2e4647ac35ca242898a23"
        "c193d807bd38140ca8c5ffcbe33c3cc3",
    "fir-corrupt-0":
        "65f6d1024ddc11cfdeceaea4bd1168cf"
        "fe9e036c4b60758d4f1a9a16e229fb87",
    "fir-corrupt-1":
        "b6572efb7d2995a284b32cdcc9080506"
        "a72f41aef87a4deb2cc5612263afa029",
    "fir-corrupt-2":
        "cc964e67334e021b328b7240b6b95c21"
        "07a9512b1ceabfd9f858cda9c8ef4405",
    "fir-corrupt-3":
        "e073fe734f15d4f3832d4bcc57a86994"
        "46e9c45c00d9ff84c1971b12dfb42d7e",
    "fir-corrupt-4":
        "6b8c6709778d7f74dcaa2e75f4ce863d"
        "d8729a5073cdf861716654c42c4ec5a3",
    "fir-corrupt-5":
        "36a46aac9d390698dd3adffa11890b35"
        "3e9b4f9f2ba72a4de9338551922e7b57",
    "fir-leak-0":
        "47c8eef216fbbe372f550f3478f2c345"
        "73903383033a2e36dba3c58250bf4a4c",
    "fir-leak-1":
        "13e11e739b2094b4598e08ce5af74f41"
        "2199de08fb7a522394c9076e7d22fcdb",
    "fir-leak-2":
        "cb933f0007beca141e60b167f84a6bfa"
        "b3d6b57bc83931c8a77c569a4851dbf9",
    "fir-leak-3":
        "c84f6b9c9819e5075355abcd79a00622"
        "cad022d623c72df0201d1adf9df14668",
    "fir-leak-4":
        "141593c70ebf76c06c1a00417b156654"
        "097a569a5f57a8057eef7ccf22889535",
    "fir-leak-5":
        "1528fee2334901ea04bfc33a25ecbb2e"
        "33a57d182102a2b7a421a9bb4443b855",
}

OTHERS = {
    "fir-1-33000": ExperimentConfig(seed=1, detect_vectors=33000,
                                    detect_stress=2000),
    "fir-3-70000": ExperimentConfig(seed=3, detect_vectors=70000,
                                    detect_stress=1000),
    "bfly-q1-1-700c": ExperimentConfig(seed=1, design="bfly", q=1,
                                       detect_vectors=700, payload="corrupt"),
    "fir-2-theta02-v6": ExperimentConfig(seed=2, detect_theta=0.2,
                                         n_variants=6),
    "bfly-q1-3-theta03-v8": ExperimentConfig(seed=3, design="bfly", q=1,
                                             detect_theta=0.3, n_variants=8),
}


def _config(name):
    """The config a tree is named after: ``<design>-<payload>-<seed>`` or
    one of :data:`OTHERS`."""
    if name in OTHERS:
        return OTHERS[name]
    design, payload, seed = name.split("-")
    bfly = {"design": "bfly", "q": 1} if design == "bfly" else {}
    return ExperimentConfig(seed=int(seed), payload=payload, **bfly)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_identity_tree_matches_the_benchmark_record(name, tmp_path):
    run_experiment(_config(name), tmp_path / name)
    assert _dir_digest(tmp_path / name) == DIGESTS[name]
