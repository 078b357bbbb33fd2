"""The benchmark's workloads: fixed input pools, one operation each, and
the sha256 digest that pins an operation's output.

An operation is one ``run_experiment`` trial or one profiling call pair.
Digests of every pool entry are recorded in ``pins.json`` by ``pin.py``;
a run compares against them, so a pool entry without a pin cannot run.
"""

import hashlib
import random
import shutil
import time

WORKLOADS = ("fir-trial", "bfly-trial", "profile-wide")

# Host seconds one operation takes on the reference host (2 cores, numpy
# kernel); turns --seconds into a fixed operation count, so both sides of a
# comparison do identical work however fast they are.
NOMINAL_OP_S = {"fir-trial": 6.0, "bfly-trial": 2.0, "profile-wide": 1.5}

# probe micro-tasks whose speed tracks each workload's own (see probe.py)
PROBE = {"fir-trial": ("interp", "calls"), "bfly-trial": ("interp", "calls"),
         "profile-wide": ("interp", "calls", "wide")}

POOL = {"fir-trial": range(16), "bfly-trial": range(32),
        "profile-wide": range(40)}

# Full 65,536-vector chunks per profiling stream.
PROFILE_CHUNKS = 8
CHUNK = 1 << 16


def cold_repeats(workload, budget_s):
    """How many extra fresh processes repeat the cold operation, and the
    budget left for the main run.  One cold sample per run is too noisy to
    bound; a fifth of the budget buys up to four more."""
    extra = min(4, round(budget_s / NOMINAL_OP_S[workload]) // 5)
    return extra, budget_s - extra * NOMINAL_OP_S[workload]


def operations(workload, seed, budget_s):
    """Pool ids for one run: the anchor (pool entry 0) first, so the cold
    operation is the same input on every run, then the next pool entries in
    an order drawn from ``seed``.  At least one operation follows the
    anchor."""
    pool = list(POOL[workload])
    n = min(len(pool), max(2, round(budget_s / NOMINAL_OP_S[workload])))
    rest = pool[1:n]
    random.Random(seed).shuffle(rest)
    return [pool[0]] + rest


class Inputs:
    """Everything a workload's operations need, generated before timing."""

    def __init__(self, workload, ids):
        self.workload = workload
        if workload == "profile-wide":
            from axsec.arith import ArchParams
            from axsec.designs import fir_spec
            spec = fir_spec(8)
            assign = {"mul0": ArchParams("mul", "trunc", 8, 2),
                      "mul3": ArchParams("mul", "block22", 8, 2),
                      "add0": ArchParams("add", "loa", 16, 4),
                      "add2": ArchParams("add", "loa", 17, 4)}
            self.netlist = spec.build(assign)
            self.reference = spec.reference
            self.vectors = PROFILE_CHUNKS * CHUNK
        else:
            from axsec.experiment import ExperimentConfig
            design = workload.split("-")[0]
            self.configs = {i: ExperimentConfig(seed=i, design=design)
                            for i in ids}


def run_op(inputs, i, work_dir):
    """Run operation ``i``; returns (host seconds, output).  Pass the output
    to :func:`summarize` once the clock has stopped."""
    if inputs.workload == "profile-wide":
        from axsec.sim import VectorStream, activity_profile, error_profile
        act_s = VectorStream(inputs.vectors, i, "correlated", 0.9)
        err_s = VectorStream(inputs.vectors, i, "uniform")
        t0 = time.perf_counter()
        act = activity_profile(inputs.netlist, act_s)
        err = error_profile(inputs.netlist, inputs.reference, err_s)
        return time.perf_counter() - t0, (act, err)
    from axsec.experiment import run_experiment
    out = work_dir / f"{inputs.workload}-{i}"
    t0 = time.perf_counter()
    res = run_experiment(inputs.configs[i], out)
    return time.perf_counter() - t0, (res, out)


def summarize(inputs, output):
    """Digest and summary of one operation's output; removes a trial's
    artifact directory once it is hashed."""
    if inputs.workload == "profile-wide":
        act, err = output
        return {"digest": profile_digest(act, err),
                "vectors": act.n_vectors + err.n_vectors}
    res, out = output
    m = res.metrics
    summary = {"digest": dir_digest(out), "infected": res.n_infected,
               "tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn}
    shutil.rmtree(out)
    return summary


def dir_digest(path):
    """sha256 over the sorted (relative path, file sha256) list."""
    lines = []
    for p in sorted(path.rglob("*")):
        if p.is_file():
            lines.append(f"{p.relative_to(path).as_posix()} "
                         f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def profile_digest(act, err):
    """sha256 of the activity report (p1, toggles) and the error report,
    in canonical dtypes so a storage change alone does not move it."""
    import numpy as np
    h = hashlib.sha256()
    h.update(np.asarray(act.p1, np.float64).tobytes())
    h.update(np.asarray(act.toggles, np.int64).tobytes())
    h.update(repr((act.n_vectors, float(err.er), float(err.med),
                   float(err.mred), int(err.wce), err.n_vectors)).encode())
    return h.hexdigest()
