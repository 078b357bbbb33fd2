"""Static timing analysis over the gate graph.

Unit-delay by default: every gate costs 1.0, constants cost 0.0, and a
:class:`DelayModel` can override per-kind costs or scale everything (used to
probe the same netlist at several delay scales).  Arrival times are the
longest path from any primary input; slack is measured against a clock
period.

:func:`near_critical_paths` enumerates complete input-to-output paths whose
slack falls inside a window below the clock, longest first.  Uniform-delay
models take an exact-length enumeration shortcut that never visits paths
outside the band; mixed-delay models fall back to best-first search with
longest/shortest completion bounds per net.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .netlist import GateKind, Netlist

_EPS = 1e-9

_DEFAULT_DELAYS = {k: 1.0 for k in GateKind}
_DEFAULT_DELAYS[GateKind.CONST0] = 0.0
_DEFAULT_DELAYS[GateKind.CONST1] = 0.0


class DelayModel:
    """Per-gate-kind delay table with a global scale factor."""

    def __init__(self, delays=None, scale: float = 1.0):
        table = dict(_DEFAULT_DELAYS)
        if delays:
            table.update(delays)
        self._table = tuple(table[k] for k in GateKind)
        self.scale = float(scale)

    def of(self, kind: GateKind) -> float:
        return self._table[kind] * self.scale

    def scaled(self, factor: float) -> "DelayModel":
        m = DelayModel()
        m._table = self._table
        m.scale = self.scale * factor
        return m


def arrival_times(nl: Netlist, model: DelayModel | None = None) -> np.ndarray:
    model = model or DelayModel()
    arr = np.zeros(nl.n_nets, np.float64)
    for gid in nl.topo_order():
        g = nl.gate_by_id(gid)
        d = model.of(g.kind)
        arr[g.output] = d + (max(arr[i] for i in g.inputs) if g.inputs else 0.0)
    return arr


def critical_delay(nl: Netlist, model: DelayModel | None = None) -> float:
    arr = arrival_times(nl, model)
    return float(max((arr[o] for o in nl.outputs), default=0.0))


def slacks(nl: Netlist, model: DelayModel, clock: float) -> np.ndarray:
    """Per-net slack against the clock period (inf where no output is
    reachable)."""
    arr = arrival_times(nl, model)
    req = np.full(nl.n_nets, np.inf)
    for o in nl.outputs:
        req[o] = min(req[o], clock)
    for gid in reversed(nl.topo_order()):
        g = nl.gate_by_id(gid)
        r = req[g.output] - model.of(g.kind)
        for i in g.inputs:
            req[i] = min(req[i], r)
    return req - arr


@dataclass(frozen=True)
class TimingPath:
    """One complete input-to-output path."""

    nets: tuple
    gates: tuple
    delay: float
    slack: float
    tags: tuple

    def __len__(self):
        return len(self.nets)


def _uniform_delay(nl: Netlist, model: DelayModel):
    """Common positive delay of every non-constant gate kind present, or
    None when the model mixes delays (constants must cost nothing)."""
    u = None
    for g in nl.gates:
        d = model.of(g.kind)
        if g.kind in (GateKind.CONST0, GateKind.CONST1):
            if d != 0.0:
                return None
        elif u is None:
            u = d
        elif d != u:
            return None
    return u if u is not None and u > 0.0 else None


def _consumers(nl: Netlist):
    cons: list[list] = [[] for _ in range(nl.n_nets)]
    for gid in nl.topo_order():
        g = nl.gate_by_id(gid)
        for i in set(g.inputs):
            cons[i].append(g)
    return cons


def _uniform_paths(nl: Netlist, u: float, clock: float, n_paths: int,
                   lo: float) -> list[TimingPath]:
    """Exact-length path enumeration for uniform gate delays.

    Every complete path of g gates costs u*g, so the slack band maps to a
    small range of gate counts and paths can be walked longest-first with a
    per-net bitmask of achievable completion lengths.  Out-of-band paths
    are never visited, which keeps this immune to the path explosion above
    the clock that the general search would have to wade through.
    """
    cons = _consumers(nl)
    for c in cons:
        c.sort(key=lambda g: g.output)
    suf = [0] * nl.n_nets
    for o in set(nl.outputs):
        suf[o] = 1
    for gid in reversed(nl.topo_order()):
        g = nl.gate_by_id(gid)
        s = suf[g.output]
        if s:
            for i in set(g.inputs):
                suf[i] |= s << 1
    hi_len = math.floor((clock + _EPS) / u)
    lo_len = max(0, math.ceil((lo - _EPS) / u))

    def walk(pi, length):
        nets, gids = [pi], []
        iters = [iter(cons[pi])]
        while iters:
            if length == len(gids):
                yield tuple(nets), tuple(gids)
                step = None
            else:
                rem = length - len(gids)
                step = next((g for g in iters[-1]
                             if suf[g.output] >> (rem - 1) & 1), None)
            if step is None:
                iters.pop()
                nets.pop()
                if gids:
                    gids.pop()
            else:
                nets.append(step.output)
                gids.append(step.id)
                iters.append(iter(cons[step.output]))

    out = []
    for length in range(hi_len, lo_len - 1, -1):
        for pi in sorted(set(nl.inputs)):
            if not suf[pi] >> length & 1:
                continue
            for nets, gids in walk(pi, length):
                tags = tuple(dict.fromkeys(
                    nl.gate_by_id(g).tag for g in gids))
                d = u * length
                out.append(TimingPath(nets, gids, d, clock - d, tags))
                if len(out) >= n_paths:
                    return out
    return out


def near_critical_paths(nl: Netlist, model: DelayModel, clock: float,
                        n_paths: int = 100,
                        window: float | None = None) -> list[TimingPath]:
    """Up to ``n_paths`` maximal paths with slack in [0, window], ordered by
    increasing slack (ties by net sequence).  ``window`` defaults to a tenth
    of the clock.  Raises :class:`BadParams` for a clock that is not
    positive or a negative ``n_paths``."""
    if not clock > 0:  # also rejects NaN
        raise BadParams(f"clock must be positive, got {clock}")
    if n_paths < 0:
        raise BadParams(f"n_paths must be non-negative, got {n_paths}")
    if window is None:
        window = 0.1 * clock
    lo = clock - window
    if n_paths == 0:
        return []
    u = _uniform_delay(nl, model)
    if u is not None:
        return _uniform_paths(nl, u, clock, n_paths, lo)
    topo = nl.topo_order()
    consumers = _consumers(nl)

    # longest and shortest completion distance from each net to any output
    maxsuf = np.full(nl.n_nets, -np.inf)
    minsuf = np.full(nl.n_nets, np.inf)
    po_set = frozenset(nl.outputs)
    for o in po_set:
        maxsuf[o], minsuf[o] = 0.0, 0.0
    for gid in reversed(topo):
        g = nl.gate_by_id(gid)
        if maxsuf[g.output] == -np.inf:
            continue
        d = model.of(g.kind)
        for i in g.inputs:
            maxsuf[i] = max(maxsuf[i], d + maxsuf[g.output])
            minsuf[i] = min(minsuf[i], d + minsuf[g.output])

    # heap items: (-best_total, nets, 0 if complete else 1, dist, gate_ids)
    heap = []
    for pi in nl.inputs:
        if maxsuf[pi] >= lo - _EPS:
            heapq.heappush(heap, (-maxsuf[pi], (pi,), 1, 0.0, ()))
    out = []
    while heap and len(out) < n_paths:
        neg, nets, partial, dist, gids = heapq.heappop(heap)
        if -neg < lo - _EPS:
            break
        if not partial:
            slack = clock - dist
            if slack < -_EPS:
                continue
            tags = tuple(dict.fromkeys(nl.gate_by_id(g).tag for g in gids))
            out.append(TimingPath(nets, gids, dist, slack, tags))
            continue
        net = nets[-1]
        if net in po_set and dist >= lo - _EPS:
            heapq.heappush(heap, (-dist, nets, 0, dist, gids))
        for g in consumers[net]:
            d2 = dist + model.of(g.kind)
            if d2 + maxsuf[g.output] < lo - _EPS:
                continue
            if d2 + minsuf[g.output] > clock + _EPS:
                continue
            heapq.heappush(
                heap, (-(d2 + maxsuf[g.output]), nets + (g.output,), 1, d2,
                       gids + (g.id,)))
    return out


def paths_to_instances(paths) -> list[tuple[str, int]]:
    """How many of the given paths touch each instance tag, most-hit first
    (ties alphabetical)."""
    counts = Counter()
    for p in paths:
        counts.update(p.tags)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
