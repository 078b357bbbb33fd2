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

import numpy as np

from .errors import check_ranges
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
    a read-only array, computed once per (netlist, model), for a derived
    netlist by extending its base's (:attr:`Netlist.suffix`) only where the
    base holds it already, so no base keeps an array read only once."""
    return nl.memo(_arrival_times, model or DelayModel())


def _arrival_times(nl: Netlist, model: DelayModel) -> np.ndarray:
    held = nl.base.held(_arrival_times, model) if nl.base else None
    (_, groups), rows = (nl.plan, nl.rows) if held is None else nl.suffix
    arr = np.zeros(nl.n_nets, np.float64)  # per row; no arrival is negative
    if held is not None:
        arr[nl.base.rows] = held
    for kind, lo, hi, arity, ins in groups:
        arr[lo:hi] = model.of(kind) + arr[ins].reshape(arity, hi - lo).max(
            0, initial=0.0)
    arr = arr[rows]
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
    """What the path walk needs of a netlist and no delay scale changes,
    as read-only arrays: each net's readers in CSR form, by their output
    nets, each reader once and in output net order (net ``n``'s at
    ``outs[ptr[n]:ptr[n + 1]]``); the suffix-length bitmasks (bit k of a
    net's mask: some path of k gates runs from it to an output), ``uint64``
    where every path has under 64 gates; the tag index of each net's
    driver, the tag names and the sorted primary inputs."""
    c, n = nl.columns, nl.n_nets
    pairs = np.sort(c.pins.astype(np.int64) * n
                    + np.repeat(c.out, np.diff(c.ptr)))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each reader once
    ptr = np.searchsorted(pairs // n, np.arange(n + 1)).astype(np.int32)
    src, dst, cuts = nl.levelled_pins()  # a path has at most a gate a level
    suf = np.zeros(n, np.uint64 if len(cuts) <= 64 else object)
    suf[list(nl.outputs)] = 1
    for a, b in reversed([*zip(cuts, cuts[1:])]):
        np.bitwise_or.at(suf, src[a:b], suf[dst[a:b]] << 1)
    tag = np.zeros(n, c.tag.dtype)
    tag[c.out] = c.tag
    index = ptr, (pairs % n).astype(np.int32), suf, tag
    for a in index:
        a.flags.writeable = False
    return *index, c.tags, tuple(sorted(nl.inputs))


def _uniform_paths(index, u: float, clock: float, n_paths: int,
                   lo: float) -> list[TimingPath]:
    """Exact-length path enumeration for gate delay ``u``.

    Every complete path of g gates costs u*g, so the slack band maps to a
    small range of gate counts and paths can be walked longest-first with a
    per-net bitmask of achievable completion lengths.  Out-of-band paths
    are never visited, which keeps this immune to the path explosion above
    the clock.
    """
    *arrays, tags, pis = index
    ptr, outs, suf, tag = (a.tolist() for a in arrays)
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
            # depth-first, pos[k] is the next reader of nets[k] to try, an
            # index into outs
            nets, pos = [pi], [ptr[pi]]
            while pos:
                depth = len(nets) - 1
                if depth == length:
                    # the path's distinct tags in first-use order
                    out.append(TimingPath(
                        tuple(nets), d, clock - d,
                        tuple(dict.fromkeys(tags[tag[o]] for o in nets[1:]))))
                    if len(out) >= n_paths:
                        return out
                else:
                    k, end = pos[-1], ptr[nets[-1] + 1]
                    bit = length - depth - 1
                    while k < end and not suf[outs[k]] >> bit & 1:
                        k += 1
                    if k < end:
                        o = outs[k]
                        pos[-1] = k + 1
                        pos.append(ptr[o])
                        nets.append(o)
                        continue
                pos.pop()
                nets.pop()
    return out


def near_critical_paths(nl: Netlist, model: DelayModel, clock: float,
                        n_paths: int = 100,
                        window: float | None = None) -> list[TimingPath]:
    """Up to ``n_paths`` maximal paths with slack in [0, window], ordered by
    increasing slack (ties by net sequence).  ``window`` defaults to a tenth
    of the clock; every argument is range-checked first."""
    check_ranges({"n_paths": n_paths, "window": window}, (
        ("clock", clock),
        ("n_paths", n_paths >= 0, "non-negative"), ("n_paths",),
        ("window", window is None or 0 < window < math.inf,
         "positive when set, and finite")))
    if n_paths == 0:
        return []
    return _uniform_paths(nl.memo(_path_index), model.scale, clock, n_paths,
                          clock - (0.1 * clock if window is None else window))


def paths_to_instances(paths) -> list[tuple[str, int]]:
    """How many of the given paths touch each instance tag, most-hit first
    (ties alphabetical)."""
    counts = Counter()
    for p in paths:
        counts.update(p.tags)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
