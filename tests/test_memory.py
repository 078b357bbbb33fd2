"""What a cached build holds, and which :class:`Gate` objects a trial
makes: a built netlist keeps its gates as columns."""

import gc
import tracemalloc

import pytest

from axsec import attack, designs, detect
from axsec.arith import ArchParams
from axsec.designs import bfly_spec, fir_spec
from axsec.experiment import ExperimentConfig, run_experiment
from axsec.netlist import Gate
from axsec.scoap import scoap
from axsec.textfmt import serialize_netlist


def _traced_build(spec):
    """Bytes tracemalloc traces for one build of the ``trunc:2``
    assignment on every slot, with the analyses a trial keeps on it: its
    plan, live mask, fanout and support masks, the suspects, SCOAP
    controllability, text and cone masks.  Its modules are made first."""
    assign = {name: ArchParams(op, "trunc", w, 2)
              for name, op, w in spec.slots}
    spec.build(assign)
    designs._build.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        nl = spec.build(assign)
        nl.plan, nl.live, nl.fanout_counts(), nl.input_word_support([0])
        detect.suspect_instances(nl, detect.DetectConfig().clock)
        scoap(nl, observability=False)
        serialize_netlist(nl)
        nl.memo(detect._cone_masks)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# a build that kept a Gate object per gate traced 928 KB (fir, 1444
# gates) and 275 KB (bfly); the columns must hold at most half of that
@pytest.mark.parametrize("spec,bound", [(fir_spec(), 464_000),
                                        (bfly_spec(), 138_000)],
                         ids=["fir", "bfly"])
def test_a_cached_build_holds_at_most_half_of_a_gate_object_build(spec,
                                                                  bound):
    _traced_build(spec)  # first-use imports and caches
    assert _traced_build(spec) <= bound


def test_a_warm_trial_makes_gate_objects_only_for_appended_gates(
        tmp_path, monkeypatch):
    # module builds are memoized from the cold trial on; a design build
    # splices their columns, and an insertion reads its base's
    run_experiment(ExperimentConfig(seed=0), tmp_path / "cold")
    made, inside, appended = [], [], []
    init, insert = Gate.__init__, attack.insert_trojan

    def counting(self, *args):
        made.append(bool(inside))
        init(self, *args)

    def recording(nl, *args):
        inside.append(nl)
        try:
            infected, ht = insert(nl, *args)
        finally:
            inside.pop()
        appended.append(infected.n_gates - nl.n_gates)
        return infected, ht

    monkeypatch.setattr(Gate, "__init__", counting)
    monkeypatch.setattr(attack, "insert_trojan", recording)
    run_experiment(ExperimentConfig(seed=1), tmp_path / "warm")
    assert appended and made.count(False) == 0
    assert made.count(True) >= sum(appended) > 0
