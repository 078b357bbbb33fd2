"""Per-layer timing of an unmodified axsec, from outside the package.

:func:`install` replaces every module-level binding of each timed function
(``axsec.sim.simulate``, ``axsec.detect.simulate``, ``axsec.simulate``, ...)
and each timed method by a wrapper that records a span.  Spans are kept in
memory; :meth:`Tracer.stats` folds them into per-layer figures and
:meth:`Tracer.write` dumps them once the run is over.
"""

import dataclasses
import functools
import json
import sys
import time
from collections import Counter

# (metric name, module, attribute path).  Private helpers are listed only
# where they are the one place a layer's work can be seen from outside:
# ``_chunk_bits`` is stream generation, ``_infect`` the infection stage.
TARGETS = [
    ("kernels.eval_gates", "axsec._kernels", "eval_gates"),
    ("sim.simulate", "axsec.sim", "simulate"),
    ("sim.activity_profile", "axsec.sim", "activity_profile"),
    ("sim.error_profile", "axsec.sim", "error_profile"),
    ("sim.stream", "axsec.sim", "_chunk_bits"),
    ("netlist.Netlist", "axsec.netlist", "Netlist.__init__"),
    ("netlist.flatten", "axsec.netlist", "flatten"),
    ("netlist.fanin_nets", "axsec.netlist", "Netlist.fanin_nets"),
    ("netlist.input_word_support", "axsec.netlist",
     "Netlist.input_word_support"),
    ("arith.gen_adder", "axsec.arith", "gen_adder"),
    ("arith.gen_multiplier", "axsec.arith", "gen_multiplier"),
    ("designs.build", "axsec.designs", None),
    ("scoap.scoap", "axsec.scoap", "scoap"),
    ("sta.critical_delay", "axsec.sta", "critical_delay"),
    ("sta.near_critical_paths", "axsec.sta", "near_critical_paths"),
    ("attack.characterize", "axsec.attack", "characterize"),
    ("attack.insert_trojan", "axsec.attack", "insert_trojan"),
    ("attack.verify_stealth", "axsec.attack", "verify_stealth"),
    ("detect.classify", "axsec.detect", "classify"),
    ("detect.suspect_instances", "axsec.detect", "suspect_instances"),
    ("detect.resilience_test", "axsec.detect", "resilience_test"),
    ("experiment.run_experiment", "axsec.experiment", "run_experiment"),
    ("experiment.characterize_library", "axsec.experiment",
     "characterize_library"),
    ("experiment.generate_variants", "axsec.experiment",
     "generate_variants"),
    ("experiment.infect", "axsec.experiment", "_infect"),
    ("textfmt.write_netlist", "axsec.textfmt", "write_netlist"),
]

STAGES = ("experiment.characterize_library", "experiment.generate_variants",
          "experiment.infect", "detect.classify")


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` with a span around each call; ``count(args, result,
        counts)`` adds work counters after a call that returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if count is not None:
                count(args, out, self.counts)
            return out

        return timed

    def stats(self):
        """Per-name calls, inclusive seconds (outermost calls only, so
        recursion is not counted twice) and self seconds."""
        out = {}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += t1 - t0 - child[i]
            if not self._inside(parent, name):
                st["s"] += t1 - t0
        return out

    def _inside(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _count_kernel(args, out, counts):
    kinds, c = args[0], args[-1]
    counts["kernels.gate_words"] += int(kinds.shape[0]) * int(c.shape[1])


def _count_simulate(args, out, counts):
    counts["sim.vectors"] += int(out.n_vectors)


def _count_insert(args, out, counts):
    counts["attack.insert_ok"] += 1


COUNTERS = {"kernels.eval_gates": _count_kernel,
            "sim.simulate": _count_simulate,
            "attack.insert_trojan": _count_insert}


def _axsec_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "axsec" or k.startswith("axsec."))]


def _rebind(fn, timed):
    """Point every module-level name bound to ``fn`` at ``timed``."""
    for m in _axsec_modules():
        for k, v in list(vars(m).items()):
            if v is fn:
                setattr(m, k, timed)


def install(tracer):
    """Wrap every target in every loaded ``axsec`` module.  Returns the
    names of targets that no longer exist, so a renamed layer shows up as
    missing instead of silently reading zero."""
    missing = []
    for name, modname, attr in TARGETS:
        mod = sys.modules[modname]
        if attr is None:
            missing += _wrap_spec_builders(tracer, name, mod)
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, fn_name, None)
        if fn is None:
            missing.append(name)
            continue
        timed = tracer.wrap(name, fn, COUNTERS.get(name))
        if owner_name:
            setattr(owner, fn_name, timed)
        else:
            _rebind(fn, timed)
    return missing


def _wrap_spec_builders(tracer, name, mod):
    """Time ``DesignSpec.build``, a callable stored per spec rather than a
    method, by wrapping the spec factories so that every spec they return
    builds inside a span."""
    missing = []
    for fn_name in ("fir_spec", "bfly_spec"):
        make = getattr(mod, fn_name, None)
        if make is None:
            missing.append(f"{name} ({fn_name})")
            continue

        def timed_make(*args, _make=make, **kwargs):
            spec = _make(*args, **kwargs)
            return dataclasses.replace(
                spec, build=tracer.wrap(name, spec.build))

        _rebind(make, functools.wraps(make)(timed_make))
    return missing
