"""Every parameter range is a :func:`axsec.errors.check_ranges` row: a value
just past an end of the range, NaN, and infinity where it lies outside,
each end in one error of the form ``<name> must be <wanted>, got <value>``.
A count or a seed in range that is not a Python or numpy integer ends in
the one whole-number text, checked after its range.
"""

import math

import numpy as np
import pytest

from axsec.arith import ArchParams, gen_module
from axsec.attack import AttackConfig, BudgetConstraints
from axsec.designs import (bfly_spec, bfly_width, const_module, fir_slots,
                           fir_spec, resize_module, sub_module)
from axsec.detect import DetectConfig, suspect_instances
from axsec.errors import BadParams, BadThreshold
from axsec.experiment import ExperimentConfig
from axsec.sim import VectorStream, check_theta
from axsec.sta import DelayModel, near_critical_paths

NAN, INF = math.nan, math.inf
ABOVE_1, BELOW_0 = math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0)
_NL = gen_module(ArchParams("add", "exact", 4))
WHOLE = "a whole number"

# (owner, name, wanted, call on the value, bad values, error type)
RULES = [
    ("stream", "n_vectors", "at least 1 and finite", lambda v: VectorStream(v),
     (0, 0.5, NAN, INF), BadParams),
    ("stream", "seed", "non-negative", lambda v: VectorStream(10, v),
     (-1, NAN), BadParams),
    ("stream", "rho", "in [0, 1]",
     lambda v: VectorStream(10, 0, "correlated", v),
     (BELOW_0, ABOVE_1, NAN, INF), BadParams),
    ("experiment", "rho", "in [0, 1]", lambda v: ExperimentConfig(rho=v),
     (BELOW_0, ABOVE_1, NAN, INF), BadParams),
    ("budget", "delta_e", "positive and finite",
     lambda v: BudgetConstraints(0.1, 1.0, v, 0.05), (0.0, NAN, INF),
     BadParams),
    ("budget", "delta_p", "positive and finite",
     lambda v: BudgetConstraints(0.1, 1.0, 0.05, v), (0.0, NAN, INF),
     BadParams),
    ("arith", "width", "at least 2",
     lambda v: gen_module(ArchParams("add", "exact", v)), (1, NAN), BadParams),
    ("arith", "k", "in [0, width)",
     lambda v: gen_module(ArchParams("mul", "trunc", 8, v)),
     (-1, 8, NAN, INF), BadParams),
    ("sta", "n_paths", "non-negative",
     lambda v: near_critical_paths(_NL, DelayModel(), 10.0, v), (-1, NAN),
     BadParams),
    ("sta", "window", "positive when set, and finite",
     lambda v: near_critical_paths(_NL, DelayModel(), 10.0, 5, v),
     (0.0, NAN, INF), BadParams),
    ("fir", "width", "at least 2", lambda v: fir_spec(v, (3, 5, 7, 9)),
     (1, NAN), BadParams),
    ("bfly", "width", "at least 2", lambda v: bfly_spec(v, 1), (1, NAN),
     BadParams),
    ("bfly", "twiddle", "in [1, 2^width)", lambda v: bfly_spec(8, v),
     (0, 256, NAN), BadParams),
    ("const", "constant", "in [0, 2^width)", lambda v: const_module(v, 8),
     (-1, 256, NAN), BadParams),
    ("sim", "theta", "in (0, 0.5)", check_theta, (0.0, 0.5, NAN),
     BadThreshold),
    ("detect", "stress_budget", "at least 1",
     lambda v: DetectConfig(stress_budget=v), (0, 0.5, NAN), BadParams),
    # in range, but no whole number: a float, integral or not
    ("stream", "n_vectors", WHOLE, lambda v: VectorStream(v), (2.5, 2.0),
     BadParams),
    ("stream", "seed", WHOLE, lambda v: VectorStream(10, v),
     (1.5, INF, np.float64(3.0)), BadParams),
    ("arith", "width", WHOLE,
     lambda v: gen_module(ArchParams("add", "exact", v)), (INF, 4.5),
     BadParams),
    ("arith", "k", WHOLE,
     lambda v: gen_module(ArchParams("mul", "trunc", 8, v)), (0.5, 2.5),
     BadParams),
    ("detect", "stress_budget", WHOLE,
     lambda v: DetectConfig(stress_budget=v), (INF, 1.5), BadParams),
    ("sta", "n_paths", WHOLE,
     lambda v: near_critical_paths(_NL, DelayModel(), 10.0, v), (INF, 2.5),
     BadParams),
    ("suspects", "n_paths", WHOLE,
     lambda v: suspect_instances(_NL, 10.0, (1.0,), v), (INF, 2.5, 2.0),
     BadParams),
    ("attack", "q", WHOLE, lambda v: AttackConfig(q=v), (INF, 2.5),
     BadParams),
    ("attack", "scoap_ceiling", WHOLE,
     lambda v: AttackConfig(scoap_ceiling=v), (INF, 50.0), BadParams),
    ("attack", "trace_vectors", WHOLE,
     lambda v: AttackConfig(trace_vectors=v), (INF, 1.5), BadParams),
    ("attack", "seed", WHOLE, lambda v: AttackConfig(seed=v),
     (NAN, -1.5, 2.0), BadParams),
    ("detect", "seed", WHOLE, lambda v: DetectConfig(seed=v), (INF, 1.5),
     BadParams),
    ("detect", "n_paths", WHOLE, lambda v: DetectConfig(n_paths=v),
     (INF, 2.5), BadParams),
    ("detect", "vectors", WHOLE, lambda v: DetectConfig(vectors=v),
     (INF, 2.5), BadParams),
    ("experiment", "seed", WHOLE, lambda v: ExperimentConfig(seed=v),
     (1.5,), BadParams),
    ("experiment", "q", WHOLE, lambda v: ExperimentConfig(q=v), (2.5,),
     BadParams),
    ("experiment", "n_variants", WHOLE,
     lambda v: ExperimentConfig(n_variants=v), (INF, 2.5), BadParams),
    ("experiment", "characterize_vectors", WHOLE,
     lambda v: ExperimentConfig(characterize_vectors=v), (INF, 2.5),
     BadParams),
    ("experiment", "trace_vectors", WHOLE,
     lambda v: ExperimentConfig(trace_vectors=v), (INF, 2.5), BadParams),
    ("experiment", "stealth_vectors", WHOLE,
     lambda v: ExperimentConfig(stealth_vectors=v), (INF, 2.5), BadParams),
    ("experiment", "twiddle", WHOLE,
     lambda v: ExperimentConfig(design="bfly", twiddle=v), (3.0,),
     BadParams),
    ("fir", "width", WHOLE, lambda v: fir_spec(v, (3, 5, 7, 9)), (INF, 8.0),
     BadParams),
    ("fir", "constant", WHOLE, lambda v: fir_spec(8, (v, 5, 7, 9)),
     (3.0, np.float64(2.5)), BadParams),
    ("bfly", "width", WHOLE, lambda v: bfly_spec(v, 1), (INF, 8.0),
     BadParams),
    ("bfly", "twiddle", WHOLE, lambda v: bfly_spec(8, v), (3.0, 2.5),
     BadParams),
    ("const", "constant", WHOLE, lambda v: const_module(v, 8), (3.0, 2.5),
     BadParams),
    ("const", "width", WHOLE, lambda v: const_module(3, v), (8.0, INF, NAN),
     BadParams),
    ("resize", "w_in", WHOLE, lambda v: resize_module(v, 11), (8.0,),
     BadParams),
    ("resize", "w_out", WHOLE, lambda v: resize_module(8, v), (11.0,),
     BadParams),
    ("sub", "width", WHOLE, sub_module, (11.0,), BadParams),
    # public design helpers, called past the specs' own checks
    ("bfly_width", "width", WHOLE, lambda v: bfly_width(v, 3), (8.0, INF),
     BadParams),
    ("bfly_width", "twiddle", WHOLE, lambda v: bfly_width(8, v), (3.0,),
     BadParams),
    ("bfly_width", "twiddle", "in [1, 2^width)", lambda v: bfly_width(8, v),
     (0, 256, NAN), BadParams),
    ("fir_slots", "width", WHOLE, lambda v: fir_slots(v, 4), (8.0,),
     BadParams),
    ("fir_slots", "taps", WHOLE, lambda v: fir_slots(8, v), (4.0, 2.5, NAN),
     BadParams),
]


@pytest.mark.parametrize(
    "name,want,call,value,error",
    [r[1:4] + (v, r[5]) for r in RULES for v in r[4]],
    ids=[f"{r[0]}-{r[1]}-{v!r}" for r in RULES for v in r[4]])
def test_a_value_out_of_range_is_refused_in_the_one_form(name, want, call,
                                                         value, error):
    with pytest.raises(error) as info:
        call(value)
    assert info.type is error
    got = value.item() if isinstance(value, np.generic) else value
    assert str(info.value) == f"{name} must be {want}, got {got!r}"


def test_a_numpy_scalar_is_named_by_its_plain_value():
    with pytest.raises(BadThreshold, match=r"got 0\.9$"):
        check_theta(np.float64(0.9))
    with pytest.raises(BadParams, match=r"got 8$"):
        gen_module(ArchParams("mul", "trunc", 8, np.int64(8)))


def test_the_ends_of_each_range_are_accepted():
    VectorStream(1, 0, "correlated", 0.0)
    VectorStream(1, 0, "correlated", 1.0)
    assert near_critical_paths(_NL, DelayModel(), 10.0, 0) == []
    gen_module(ArchParams("mul", "trunc", 8, 7))
    bfly_spec(8, 255)
    const_module(255, 8)
    assert fir_spec(2, (0, 1, 2, 3)).name == "fir4x2"


def test_python_and_numpy_integers_and_bools_are_whole_numbers():
    VectorStream(np.int64(3), np.uint32(7))
    VectorStream(True, False)
    gen_module(ArchParams("mul", "trunc", np.int16(8), True))
    DetectConfig(stress_budget=np.int64(1))
    assert len(near_critical_paths(_NL, DelayModel(), 7.0, np.int8(2))) == 2


def test_an_integral_float_is_refused_past_a_warm_memo():
    # ArchParams(..., 4.0) == ArchParams(..., 4), and 3.0 == 3 as a key,
    # so a memo once found the entry of the integer for the float
    gen_module(ArchParams("add", "exact", 4))
    with pytest.raises(BadParams, match="width must be a whole number"):
        gen_module(ArchParams("add", "exact", 4.0))
    spec = fir_spec(8)
    assert len(spec.build({"mul0": ArchParams("mul", "trunc", 8, 2)}).gates)
    with pytest.raises(BadParams, match="k must be a whole number, got 2.0"):
        spec.build({"mul0": ArchParams("mul", "trunc", 8, 2.0)})
    assert len(const_module(3, 8).gates) == 8
    with pytest.raises(BadParams,
                       match="constant must be a whole number, got 3.0"):
        const_module(3.0, 8)
    assert suspect_instances(_NL, 10.0, (1.0, 1.2), 2)
    with pytest.raises(BadParams,
                       match="n_paths must be a whole number, got 2.0"):
        suspect_instances(_NL, 10.0, (1.0, 1.2), 2.0)
