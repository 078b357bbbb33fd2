#!/usr/bin/env python3
"""Time the packed simulator under both kernel backends.

The backend is picked at import time from ``AXSEC_BACKEND``, so every
measurement runs in a fresh child interpreter with the checkout's ``src``
on ``PYTHONPATH``.  Each child does one untimed warm-up pass (which also
pays the jit compile cost) and then reports the best of ``--repeat`` timed
passes over a flattened filter netlist.  A backend whose dependency is not
installed is reported as unavailable; the script fails when no backend
produced a timing.

    python3 benchmarks/bench_sim.py [--vectors N] [--width W] [--repeat R]
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _child(args):
    backend = os.environ["AXSEC_BACKEND"]
    try:
        from axsec._kernels import BACKEND
    except ImportError as exc:
        if exc.name != backend:
            raise
        print(json.dumps({"backend": backend, "unavailable": str(exc)}))
        return
    from axsec.designs import fir_spec
    from axsec.sim import VectorStream, simulate

    nl = fir_spec(args.width).build(None)
    simulate(nl, VectorStream(args.vectors, 0, "uniform"))
    best = min(_timed(nl, args.vectors) for _ in range(args.repeat))
    print(json.dumps({"backend": BACKEND, "gates": len(nl.gates),
                      "seconds": best}))


def _timed(nl, vectors):
    from axsec.sim import VectorStream, simulate
    t0 = time.perf_counter()
    simulate(nl, VectorStream(vectors, 0, "uniform"))
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vectors", type=int, default=200_000)
    ap.add_argument("--width", type=int, default=8)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args)
        return

    rows = []
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    for backend in ("numba", "numpy"):
        env = dict(os.environ, AXSEC_BACKEND=backend, PYTHONPATH=path)
        cmd = [sys.executable, __file__, "--child",
               "--vectors", str(args.vectors), "--width", str(args.width),
               "--repeat", str(args.repeat)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{backend}: failed\n{out.stderr.strip()}", file=sys.stderr)
            continue
        row = json.loads(out.stdout.strip().splitlines()[-1])
        if "unavailable" in row:
            print(f"{backend}: unavailable ({row['unavailable']})",
                  file=sys.stderr)
            continue
        rows.append(row)
    if not rows:
        sys.exit("no backend produced a timing")

    print(f"{'backend':<8} {'gates':>6} {'vectors':>9} {'seconds':>9} "
          f"{'Mvec/s':>8}")
    for r in rows:
        rate = args.vectors / r["seconds"] / 1e6
        print(f"{r['backend']:<8} {r['gates']:>6} {args.vectors:>9} "
              f"{r['seconds']:>9.3f} {rate:>8.2f}")
    if len(rows) == 2 and rows[0]["seconds"] > 0:
        print(f"numba speedup over numpy: "
              f"{rows[1]['seconds'] / rows[0]['seconds']:.1f}x")


if __name__ == "__main__":
    main()
