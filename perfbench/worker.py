"""One benchmark process: import axsec, generate a workload's inputs, run
its operations, and print one JSON line.  Started by ``run.py``; each mode
runs in a fresh interpreter so that cold costs and peak memory belong to
the workload alone.

Modes: ``setup`` stops once the inputs are ready; ``cold`` runs only the
first operation; ``run`` times all operations untraced and then sweeps the
kernel width under the tracer when ``--sweep`` is given; ``trace`` times
them with every layer wrapped.
Times are host seconds and, through :mod:`probe`, reference seconds.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import probe
import tracer as tr
import workloads as wl

SWEEP_WIDTHS = {"w320": 320, "w2k": 2048, "w64k": 65536}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "cold", "run", "trace"))
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="wall clock (time.time) just before this process "
                         "was started")
    ap.add_argument("--work", type=Path, required=True,
                    help="scratch directory for trial artifacts")
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--spans", metavar="FILE")
    args = ap.parse_args()

    speed = probe.SpeedProbe(wl.PROBE[args.workload])
    speed.start()
    root = Path.cwd()
    import axsec
    if Path(axsec.__file__).resolve().parent != root / "src" / "axsec":
        sys.exit(f"axsec imported from {axsec.__file__}, not from "
                 f"{root / 'src'}")
    ids = wl.operations(args.workload, args.seed, args.budget)
    if args.mode == "cold":
        ids = ids[:1]
    inputs = wl.Inputs(args.workload, ids)
    host_s = time.time() - args.spawned
    out = {"setup_s": host_s * speed.factor(0), "setup_host_s": host_s}
    if args.mode == "setup":
        speed.stop()
        print(json.dumps(out))
        return

    if args.mode == "trace":
        tracer = tr.Tracer()
        out["missing"] = tr.install(tracer)
    ops = []
    for i in ids:
        try:
            mark = speed.mark()
            dt, output = wl.run_op(inputs, i, args.work)
            f = speed.factor(mark)
            ops.append({"id": i, "s": dt * f, "host_s": dt, "speed": f,
                        **wl.summarize(inputs, output)})
        except Exception:
            ops.append({"id": i, "error": traceback.format_exc()})
    speed.stop()
    out["ops"] = ops
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        out["stats"] = tracer.stats()
        out["counts"] = dict(tracer.counts)
        if args.spans:
            tracer.write(args.spans)
    if args.sweep:
        out["sweep"] = kernel_sweep()
    out["env"] = environment()
    print(json.dumps(out))


def kernel_sweep():
    """Kernel nanoseconds per (gate x packed 64-vector word) on the exact
    fir8 netlist at detection, variant-search and full-chunk widths;
    median over repeated single-chunk ``simulate`` calls."""
    from axsec.designs import fir_spec
    from axsec.sim import VectorStream, simulate
    tracer = tr.Tracer()
    if "kernels.eval_gates" in tr.install(tracer):
        return {}
    nl = fir_spec(8).build(None)
    out = {}
    for label, width in SWEEP_WIDTHS.items():
        per = []
        for rep in range(10 if width > 4096 else 30):
            n0 = len(tracer.spans)
            words0 = tracer.counts["kernels.gate_words"]
            simulate(nl, VectorStream(width, rep, "uniform"))
            t = sum(s[2] - s[1] for s in tracer.spans[n0:]
                    if s[0] == "kernels.eval_gates")
            per.append(t * 1e9
                       / (tracer.counts["kernels.gate_words"] - words0))
        per.sort()
        out[label] = per[len(per) // 2]
    return out


def environment():
    import numpy
    from axsec import _kernels
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"backend": getattr(_kernels, "BACKEND", "unknown"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": model or platform.machine()}


if __name__ == "__main__":
    main()
