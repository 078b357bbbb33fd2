"""Static timing analysis over the gate graph.

One delay scale times every netlist: each gate costs ``scale`` (1.0 by
default), constants cost nothing.  Detection probes the same netlist at a
few scales.  Arrival times are the longest path from any primary input;
slack is measured against a clock period.

:func:`near_critical_paths` enumerates complete input-to-output paths whose
slack falls inside a window below the clock, longest first, with one walk:
every path of g gates costs ``scale * g``, so the window maps to a range of
gate counts and paths outside it are never visited.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import BadParams, check_ranges
from .netlist import GateKind, Netlist

_EPS = 1e-9

_CONSTS = frozenset((GateKind.CONST0, GateKind.CONST1))


@dataclass(frozen=True, kw_only=True)
class DelayModel:
    """Unit gate delays under a global scale, which must be positive and
    finite: every gate costs ``scale``, constants cost nothing."""

    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        check_ranges(self, (("scale", self.scale),))

    def of(self, kind: GateKind) -> float:
        return 0.0 if kind in _CONSTS else self.scale

    def scaled(self, factor: float) -> "DelayModel":
        return DelayModel(scale=self.scale * factor)


def arrival_times(nl: Netlist, model: DelayModel | None = None) -> np.ndarray:
    """Latest arrival time at every net, one kernel-plan group at a time:
    a read-only array, computed once per (netlist, model)."""
    return nl.memo(_arrival_times, model or DelayModel())


def _arrival_times(nl: Netlist, model: DelayModel) -> np.ndarray:
    arr = np.zeros(nl.n_nets, np.float64)  # per row; no arrival is negative
    for kind, lo, hi, arity, ins in nl.plan[1]:
        arr[lo:hi] = model.of(kind) + arr[ins].reshape(arity, hi - lo).max(
            0, initial=0.0)
    arr = arr[nl.rows]
    arr.flags.writeable = False
    return arr


def critical_delay(nl: Netlist, model: DelayModel | None = None) -> float:
    """Latest output arrival."""
    arr = arrival_times(nl, model)
    return float(max((arr[o] for o in nl.outputs), default=0.0))


def calibrated_model(nl: Netlist, clock: float,
                     margin: float = 0.9) -> DelayModel:
    """Unit delays scaled so the critical path sits at ``margin * clock``."""
    check_ranges(None, (("clock", clock), ("margin", margin)))
    crit = critical_delay(nl)
    if crit <= 0.0:
        return DelayModel()
    return DelayModel(scale=margin * clock / crit)


def slacks(nl: Netlist, model: DelayModel, clock: float) -> np.ndarray:
    """Per-net slack against the clock period (inf where no output is
    reachable)."""
    arr, rows = arrival_times(nl, model), nl.rows
    req = np.full(nl.n_nets, np.inf)  # per row
    req[rows.take(nl.outputs)] = clock
    for kind, lo, hi, arity, ins in reversed(nl.plan[1]):
        np.minimum.at(req, ins, np.tile(req[lo:hi] - model.of(kind), arity))
    return req[rows] - arr


@dataclass(frozen=True)
class TimingPath:
    """One complete input-to-output path."""

    nets: tuple
    delay: float
    slack: float
    tags: tuple


def _path_index(nl: Netlist):
    """What the path walk needs of a netlist and no delay scale changes:
    each net's readers sorted by output net, the suffix-length bitmasks
    (bit k of a net's mask: some path of k gates runs from it to an
    output) and the sorted primary inputs."""
    by_out = attrgetter("output")
    cons = [rs if len(rs) < 2 else sorted(rs, key=by_out)
            for rs in map(nl.readers, range(nl.n_nets))]
    suf = [0] * nl.n_nets
    for o in nl.outputs:
        suf[o] = 1
    for g in reversed(nl.ordered_gates()):
        s = suf[g.output]
        if s:
            for i in g.inputs:
                suf[i] |= s << 1
    return cons, suf, sorted(nl.inputs)


def _uniform_paths(index, u: float, clock: float, n_paths: int,
                   lo: float) -> list[TimingPath]:
    """Exact-length path enumeration for gate delay ``u``.

    Every complete path of g gates costs u*g, so the slack band maps to a
    small range of gate counts and paths can be walked longest-first with a
    per-net bitmask of achievable completion lengths.  Out-of-band paths
    are never visited, which keeps this immune to the path explosion above
    the clock.
    """
    cons, suf, pis = index
    # no path is longer than the longest one from a primary input, however
    # far the clock lies above it
    top = max((suf[pi].bit_length() - 1 for pi in pis), default=-1)
    hi_len = math.floor(min((clock + _EPS) / u, top))
    lo_len = max(0, math.ceil(min((lo - _EPS) / u, top + 1)))
    out = []
    for length in range(hi_len, lo_len - 1, -1):
        d = u * length
        for pi in pis:
            if not suf[pi] >> length & 1:
                continue
            # depth-first, pos[k] is the next reader to try at depth k
            nets, gates, pos = [pi], [], [0]
            while pos:
                depth = len(gates)
                if depth == length:
                    # the path's distinct tags in first-use order
                    out.append(TimingPath(
                        tuple(nets), d, clock - d,
                        tuple(dict.fromkeys(g.tag for g in gates))))
                    if len(out) >= n_paths:
                        return out
                else:
                    cs, k, bit = cons[nets[-1]], pos[-1], length - depth - 1
                    while k < len(cs) and not suf[cs[k].output] >> bit & 1:
                        k += 1
                    if k < len(cs):
                        g = cs[k]
                        pos[-1] = k + 1
                        pos.append(0)
                        nets.append(g.output)
                        gates.append(g)
                        continue
                pos.pop()
                nets.pop()
                if gates:
                    gates.pop()
    return out


def near_critical_paths(nl: Netlist, model: DelayModel, clock: float,
                        n_paths: int = 100,
                        window: float | None = None) -> list[TimingPath]:
    """Up to ``n_paths`` maximal paths with slack in [0, window], ordered by
    increasing slack (ties by net sequence).  ``window`` defaults to a tenth
    of the clock.  Raises :class:`BadParams` for a clock or a set
    ``window`` that is not positive and finite, or a negative ``n_paths``."""
    check_ranges(None, (("clock", clock),))
    if n_paths < 0:
        raise BadParams(f"n_paths must be non-negative, got {n_paths}")
    if window is None:
        window = 0.1 * clock
    elif not 0 < window < math.inf:
        raise BadParams(f"window must be positive when set, and finite, "
                        f"got {window!r}")
    lo = clock - window
    if n_paths == 0:
        return []
    return _uniform_paths(nl.memo(_path_index), model.scale, clock, n_paths,
                          lo)


def paths_to_instances(paths) -> list[tuple[str, int]]:
    """How many of the given paths touch each instance tag, most-hit first
    (ties alphabetical)."""
    counts = Counter()
    for p in paths:
        counts.update(p.tags)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
