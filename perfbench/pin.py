#!/usr/bin/env python3
"""Record the sha256 digest of every pool operation into pins.json.

Run from the checkout root, on the commit whose outputs are the reference::

    PYTHONPATH=src python3 perfbench/pin.py [workload ...]

The benchmark fails an operation whose digest differs from its pin, so
rerun this only when an output change is intended.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

PINS = Path(__file__).resolve().parent / "pins.json"


def main():
    names = sys.argv[1:] or list(wl.WORKLOADS)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=Path.cwd()))
    try:
        for name in names:
            ids = list(wl.POOL[name])
            inputs = wl.Inputs(name, ids)
            pins[name] = {}
            for i in ids:
                dt, output = wl.run_op(inputs, i, work)
                summary = wl.summarize(inputs, output)
                pins[name][str(i)] = summary["digest"]
                print(f"{name} {i} {dt:.3f}s {summary}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
