#!/usr/bin/env python3
"""axsec workbench benchmark.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fir-trial --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh child interpreter (``worker.py``) with
``src`` on ``PYTHONPATH``; this process only imports the standard library.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Either way every operation's output is
hashed and compared with ``pins.json``; the human-readable report goes to
standard output and the last line is one JSON object.  See README.md for
the workloads, the metrics and what each layer metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# the run must end within 180 s; each child gets what is left of this
DEADLINE_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "axsec" / "__init__.py").is_file():
        sys.exit("error: run from the root of an axsec checkout "
                 "(src/axsec is missing)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=root))
    bench = Bench(root, work, args)
    try:
        if args.trace:
            result = bench.traced(pins, spec)
        else:
            result = bench.untraced(pins, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


class Bench:
    def __init__(self, root, work, args):
        self.root = root
        self.work = work
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, mode, budget, *extra):
        """Run one worker to completion and return its JSON line."""
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--budget", str(budget),
               "--work", str(self.work), "--spawned", repr(time.time()),
               *extra]
        left = DEADLINE_S - (time.monotonic() - self.start)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.exit(f"error: {mode} worker exceeded the {DEADLINE_S} s "
                     f"deadline")
        if proc.returncode != 0:
            sys.exit(f"error: {mode} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def untraced(self, pins, spec):
        extra, budget = wl.cold_repeats(self.args.workload, self.args.seconds)
        setups = [self.child("setup", budget) for _ in range(SETUP_SAMPLES)]
        colds = [self.child("cold", budget) for _ in range(extra)]
        run = self.child("run", budget)
        checks = Checks(pins)
        for r in (*colds, run):
            checks.ops(r["ops"])
        done = [op for op in run["ops"] if "s" in op]
        cold = [r["ops"][0]["s"] for r in colds if "s" in r["ops"][0]]
        if len(done) < 2:
            sys.exit("error: fewer than two operations finished")
        setups += colds + [run]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "cold_op_s": statistics.median([done[0]["s"], *cold]),
            "op_s_p50": statistics.median(op["s"] for op in done[1:]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        report(self.args, run, checks, setups)
        print("# cold op reference seconds: "
              + " ".join(f"{x:.4f}" for x in [done[0]["s"], *cold]))
        for key, label in (("s", "reference"), ("host_s", "host"),
                           ("speed", "host speed")):
            vals = [op[key] for op in done[1:]]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"# warm op {label}: n={len(vals)} q1={q[0]:.4f} "
                  f"median={statistics.median(vals):.4f} q3={q[2]:.4f} "
                  f"max={max(vals):.4f}")
        if self.args.workload == "profile-wide":
            vec = done[0]["vectors"]
            print(f"# profile throughput: "
                  f"{vec / metrics['op_s_p50'] / 1e6:.3f} Mvec per "
                  f"reference second ({vec} vectors per operation)")
        return checks.result(metrics, spec["end_to_end"])

    def traced(self, pins, spec):
        # a third of the budget each: untraced, traced, traced again
        budget = self.args.seconds / 3
        out_dir = self.root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        base = self.child("run", budget, "--sweep")
        runs = [self.child("trace", budget, "--spans", str(
            out_dir / f"spans-{self.args.workload}-{self.args.seed}-{k}.jsonl"))
            for k in (1, 2)]
        checks = Checks(pins)
        for r in (base, *runs):
            checks.ops(r["ops"])
        checks.same_counts(*runs)
        for name in runs[0]["missing"]:
            print(f"# warning: layer {name} not found; it reads 0",
                  file=sys.stderr)
        metrics = layer_metrics(runs, base)
        report(self.args, runs[0], checks, [])
        print(f"# tracing overhead: {metrics['trace.overhead_s']:.3f} s on "
              f"{_op_seconds(base):.3f} reference seconds untraced; spans "
              f"in {out_dir}")
        return checks.result(metrics, spec["per_layer"])


class Checks:
    """Operation outcomes against the pinned digests, plus any other
    correctness problem found on the way."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.confusion = [0, 0, 0, 0]

    def ops(self, ops):
        for op in ops:
            self.attempted += 1
            if "error" in op:
                self.failed += 1
                self.problems.append(f"op {op['id']} raised:\n{op['error']}")
            elif op["digest"] != self.pins.get(str(op["id"])):
                self.failed += 1
                self.problems.append(f"op {op['id']} digest {op['digest']} "
                                     f"!= pinned {self.pins.get(str(op['id']))}")
            if "tp" in op:
                for k, key in enumerate(("tp", "fp", "tn", "fn")):
                    self.confusion[k] += op[key]

    def same_counts(self, a, b):
        ca = _counts(a)
        cb = _counts(b)
        for name in sorted(set(ca) | set(cb)):
            if ca.get(name) != cb.get(name):
                self.problems.append(f"count {name} differs between traced "
                                     f"runs: {ca.get(name)} vs {cb.get(name)}")

    def result(self, metrics, declared):
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                     f"disagree with BENCHMARK.json")
        for p in self.problems:
            print(f"# FAIL {p}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]}
                            for k in sorted(metrics)}}


def _op_seconds(run):
    return sum(op.get("s", 0.0) for op in run["ops"])


def _counts(run):
    out = {f"{k}.calls": v["calls"] for k, v in run["stats"].items()}
    out.update(run["counts"])
    return out


def layer_metrics(runs, base):
    """Per-layer figures: counts from the first traced run (the second must
    match it), times averaged over both."""
    stats = [r["stats"] for r in runs]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def s(name, key):
        return statistics.fmean(st.get(name, zero)[key] for st in stats)

    def count(name):
        return runs[0]["counts"].get(name, 0)

    m = {}
    for name, _, _ in tr.TARGETS:
        m[f"{name}.calls"] = stats[0].get(name, zero)["calls"]
        m[f"{name}.s"] = s(name, "s")
        m[f"{name}.self_s"] = s(name, "self_s")
    m["kernels.gate_words"] = count("kernels.gate_words")
    m["kernels.ns_per_gate_word"] = \
        m["kernels.eval_gates.s"] * 1e9 / max(m["kernels.gate_words"], 1)
    for label in ("w320", "w2k", "w64k"):
        m[f"kernels.ns_per_gate_word.{label}"] = \
            base.get("sweep", {}).get(label, 0.0)
    m["sim.vectors"] = count("sim.vectors")
    m["sim.vectors_per_call"] = \
        m["sim.vectors"] / max(m["sim.simulate.calls"], 1)
    m["attack.insert_ok_ratio"] = \
        count("attack.insert_ok") / max(m["attack.insert_trojan.calls"], 1)
    m["experiment.other.s"] = m["experiment.run_experiment.s"] \
        - sum(m[f"{st}.s"] for st in tr.STAGES)
    m["trace.overhead_s"] = statistics.fmean(map(_op_seconds, runs)) \
        - _op_seconds(base)
    return m


def report(args, run, checks, setups):
    env = run["env"]
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} trace {args.trace}")
    print(f"# env backend={env['backend']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"# operations: {' '.join(str(op['id']) for op in run['ops'])}")
    for key, label in (("setup_s", "reference"), ("setup_host_s", "host")):
        if setups:
            print(f"# setup {label} seconds: "
                  + " ".join(f"{r[key]:.4f}" for r in setups))
    tp, fp, tn, fn = checks.confusion
    if tp + fp + tn + fn:
        fnr = f"{fn / (fn + tp):.4f}" if fn + tp else "n/a"
        print(f"# detection: accuracy={(tp + tn) / (tp + fp + tn + fn):.4f} "
              f"fpr={fp / max(fp + tn, 1):.4f} fnr={fnr} "
              f"(tp={tp} fp={fp} tn={tn} fn={fn})")
    print(f"# fail_ratio: {checks.failed}/{checks.attempted}")


if __name__ == "__main__":
    main()
