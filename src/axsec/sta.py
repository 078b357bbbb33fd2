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
from operator import attrgetter

import numpy as np

from .errors import BadParams, check_ranges
from .netlist import GateKind, Netlist

_EPS = 1e-9

_DEFAULT_DELAYS = {k: 1.0 for k in GateKind}
_DEFAULT_DELAYS[GateKind.CONST0] = 0.0
_DEFAULT_DELAYS[GateKind.CONST1] = 0.0
_CONSTS = frozenset((GateKind.CONST0, GateKind.CONST1))


class DelayModel:
    """Per-gate-kind delay table with a global scale factor, which must be
    positive and finite.  Models with equal tables and scales are equal."""

    def __init__(self, delays=None, scale: float = 1.0):
        table = dict(_DEFAULT_DELAYS)
        if delays:
            table.update(delays)
        self._table = tuple(table[k] for k in GateKind)
        self.scale = float(scale)
        check_ranges(self, (("scale", self.scale),))

    def __eq__(self, other):
        return (isinstance(other, DelayModel) and self._table == other._table
                and self.scale == other.scale)

    def __hash__(self):
        return hash((self._table, self.scale))

    def of(self, kind: GateKind) -> float:
        return self._table[kind] * self.scale

    def scaled(self, factor: float) -> "DelayModel":
        m = DelayModel(scale=self.scale * factor)
        m._table = self._table
        return m


def arrival_times(nl: Netlist, model: DelayModel | None = None) -> np.ndarray:
    """Latest arrival time at every net, one kernel-plan group at a time."""
    model = model or DelayModel()
    outs, ins, groups = nl.plan
    arr = np.zeros(nl.n_nets, np.float64)
    for kind, start, stop, arity in groups:
        m = arr[ins[0, start:stop]] if arity else np.zeros(stop - start)
        for j in range(1, arity):
            np.maximum(m, arr[ins[j, start:stop]], out=m)
        arr[outs[start:stop]] = model.of(kind) + m
    return arr


def critical_delay(nl: Netlist, model: DelayModel | None = None) -> float:
    """Latest output arrival, computed once per (netlist, model)."""
    return nl.memo(_critical_delay, model or DelayModel())


def _critical_delay(nl: Netlist, model: DelayModel) -> float:
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
    arr = arrival_times(nl, model)
    outs, ins, groups = nl.plan
    req = np.full(nl.n_nets, np.inf)
    req[list(nl.outputs)] = clock
    for kind, start, stop, arity in reversed(groups):
        r = req[outs[start:stop]] - model.of(kind)
        for j in range(arity):
            np.minimum.at(req, ins[j, start:stop], r)
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


def _path_index(nl: Netlist):
    """What the uniform walk needs of a netlist and no delay model changes:
    each net's readers sorted by output net, the suffix-length bitmasks
    (bit k of a net's mask: some path of k gates runs from it to an
    output), the gate kinds present and the sorted primary inputs."""
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
    return cons, suf, frozenset(g.kind for g in nl.gates), sorted(nl.inputs)


def _uniform_delay(kinds, model: DelayModel):
    """Common positive delay of every non-constant gate kind present, or
    None when the model mixes delays (constants must cost nothing)."""
    delays = {model.of(k) for k in kinds - _CONSTS}
    if len(delays) != 1 or any(model.of(k) != 0.0 for k in kinds & _CONSTS):
        return None
    u = delays.pop()
    return u if u > 0.0 else None


def _uniform_paths(index, u: float, clock: float, n_paths: int,
                   lo: float) -> list[TimingPath]:
    """Exact-length path enumeration for uniform gate delays.

    Every complete path of g gates costs u*g, so the slack band maps to a
    small range of gate counts and paths can be walked longest-first with a
    per-net bitmask of achievable completion lengths.  Out-of-band paths
    are never visited, which keeps this immune to the path explosion above
    the clock that the general search would have to wade through.
    """
    cons, suf, _, pis = index
    hi_len = math.floor((clock + _EPS) / u)
    lo_len = max(0, math.ceil((lo - _EPS) / u))
    out = []
    for length in range(hi_len, lo_len - 1, -1):
        d = u * length
        for pi in pis:
            if not suf[pi] >> length & 1:
                continue
            # depth-first, pos[k] is the next reader to try at depth k;
            # tags holds the path's distinct tags in first-use order and
            # refs how many of its gates carry each
            nets, gates, pos, tags, refs = [pi], [], [0], [], {}
            while pos:
                depth = len(gates)
                if depth == length:
                    gids = tuple([g.id for g in gates])
                    out.append(TimingPath(tuple(nets), gids, d, clock - d,
                                          tuple(tags)))
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
                        refs[g.tag] = refs.get(g.tag, 0) + 1
                        if refs[g.tag] == 1:
                            tags.append(g.tag)
                        continue
                pos.pop()
                nets.pop()
                if gates:
                    t = gates.pop().tag
                    refs[t] -= 1
                    if not refs[t]:
                        tags.pop()
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
    index = nl.memo(_path_index)
    u = _uniform_delay(index[2], model)
    if u is not None:
        return _uniform_paths(index, u, clock, n_paths, lo)

    # longest and shortest completion distance from each net to any output
    maxsuf = np.full(nl.n_nets, -np.inf)
    minsuf = np.full(nl.n_nets, np.inf)
    po_set = frozenset(nl.outputs)
    for o in po_set:
        maxsuf[o], minsuf[o] = 0.0, 0.0
    for g in reversed(nl.ordered_gates()):
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
        for g in nl.readers(net):
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
