"""Bottom-up Trojan insertion: architecture characterization, cost ranking,
budget checking, rare-net trigger construction and stealth verification.

The trigger is an AND over q rare gate-output literals chosen from
profiled activity, by default from nets whose input-word cones are pairwise
disjoint, and the firing probability under independent uniform inputs is
the product of the per-literal rarities.  The witness is composed word-wise:
each tap group's input words take their values at the first trace cycle
that realized all of the group's taps.  The groups' supports are disjoint,
so that composition sets every tap at once.  Insertion is fail-closed: the
witness is replayed on the built netlist, and a netlist is only emitted
together with a witness that fired its trigger.

Stealth error is the difference of two :func:`axsec.sim.error_profile`
figures and checks :meth:`Netlist.signature`; the trigger rate is the
signal probability of the built trigger net, read off the same profile as
the infected netlist's power.

``axsec attack`` and the experiment share one insertion step, :func:`mount`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .arith import ArchParams, gen_module
from .errors import (BadParams, NoRareNets, NoWitness, SignatureMismatch,
                     UnitMismatch, WouldViolateTiming, check_ranges)
from .netlist import GateKind, Netlist, NetlistBuilder
from .scoap import ScoapReport, scoap
from .sim import (EXACT_OPS, ActivityReport, VectorStream,
                  activity_and_error, check_reference, check_theta,
                  check_value_words, ones_profile, paired_activity_and_error,
                  power_proxy, power_ratio, rare_nets, simulate)
from .sta import DelayModel, critical_delay, slacks


@dataclass(frozen=True)
class ModuleSpec:
    """Characterization of one architecture under a fixed stream."""

    params: ArchParams
    e_norm: float        # MRED against the exact operator
    p_norm: float        # power proxy ratio vs the exact architecture
    rare_count: int
    r_norm: float        # rare nets / total nets
    scoap_summary: int   # max cc1 among rare nets (0 when none)
    stream_key: VectorStream | None = None  # the stream measured on


def characterize(params: ArchParams, stream, theta: float = 0.01) -> ModuleSpec:
    """Measure one architecture's error, relative power and rare-net profile
    on a :class:`VectorStream`, against the exact architecture as baseline.
    The exact architecture's own run is the baseline, held one at a time
    (:func:`_baseline`), so a menu walked in turn measures it once."""
    if not isinstance(stream, VectorStream):
        raise BadParams(f"characterize takes a VectorStream, not "
                        f"{type(stream).__name__}")
    exact = ArchParams(params.op_type, "exact", params.width)
    base, spec = _baseline(exact, stream, theta)
    if params == exact:
        return spec
    return _measure(gen_module(params), params, stream, theta, base)[1]


@lru_cache(maxsize=1)  # the last one only: a trial's streams are its own
def _baseline(exact: ArchParams, stream: VectorStream, theta: float) -> tuple:
    return _measure(gen_module(exact), exact, stream, theta)


def _measure(nl: Netlist, params: ArchParams, stream, theta: float,
             base: float | None = None) -> tuple:
    """(power, spec) of one architecture from one pass over the stream;
    without ``base`` the run is its own baseline."""
    act, err = activity_and_error(nl, EXACT_OPS[params.op_type], stream)
    power = power_proxy(nl, act)
    ratio = power_ratio(power, power if base is None else base)
    rare = rare_nets(act, theta)
    sc = scoap(nl, observability=False)
    summary = max((int(sc.cc1[n]) for n, _ in rare), default=0)
    return power, ModuleSpec(params, err.mred, ratio, len(rare),
                             len(rare) / nl.n_nets, summary, stream)


def attack_score(spec: ModuleSpec) -> float:
    """Selection cost: error gained plus power saved, plus rare-net supply,
    weighted equally; higher means a more attractive host."""
    return 0.5 * (spec.e_norm + (1.0 - spec.p_norm)) + 0.5 * spec.r_norm


@dataclass(frozen=True)
class BudgetConstraints:
    """Declared composed-netlist budgets and admissible slacks."""

    e_prime: float
    p_prime: float
    delta_e: float
    delta_p: float

    def __post_init__(self):
        check_ranges(self, (("delta_e", self.delta_e),
                            ("delta_p", self.delta_p)))


@dataclass(frozen=True)
class BudgetCheck:
    e_margin: float
    p_margin: float
    ok: bool


def check_budget(selected, composed_error: float, composed_power: float,
                 budget: BudgetConstraints, stream_key=None) -> BudgetCheck:
    """Composed measurements against the sum of module norms: passes when
    both excesses stay strictly inside the declared slacks; with
    ``stream_key``, every spec must be characterized under that stream."""
    if stream_key is not None:
        for s in selected:
            if s.stream_key != stream_key:
                raise UnitMismatch(
                    f"spec {s.params.label()} was characterized under "
                    f"{s.stream_key}, composition used {stream_key}")
    e_margin = budget.delta_e - (composed_error - sum(s.e_norm for s in selected))
    p_margin = budget.delta_p - (composed_power - sum(s.p_norm for s in selected))
    return BudgetCheck(e_margin, p_margin, e_margin > 0 and p_margin > 0)


# ---------------------------------------------------------------------------
# insertion


PAYLOADS = ("leak", "corrupt")


@dataclass(frozen=True)
class AttackConfig:
    q: int = 4
    theta: float = 0.01
    scoap_ceiling: int = 50
    payload: str = "leak"            # one of PAYLOADS
    secret_word: str | None = None   # required for leak
    stream: object = None            # stream or run behind the activity
    trace_vectors: int = 20_000      # realization length when ``stream``
                                     # is a shorter VectorStream
    clock: float | None = None       # reject insertions beyond this period
    model: DelayModel | None = None
    require_disjoint: bool = True
    seed: int = 0                    # dead knob: insertion draws nothing

    def __post_init__(self):
        check_theta(self.theta)
        check_ranges(self, (
            ("q", self.q >= 1, "at least 1"), ("q",),
            ("payload", self.payload in PAYLOADS, f"one of {PAYLOADS}"),
            ("scoap_ceiling", self.scoap_ceiling >= 0, "non-negative"),
            ("scoap_ceiling",),
            ("trace_vectors", self.trace_vectors >= 1, "at least 1"),
            ("trace_vectors",),
            ("clock", self.clock is None or 0 < self.clock < math.inf,
             "positive when set, and finite"),
            ("seed",)))


@dataclass(frozen=True)
class HTInstance:
    """Ground truth of one inserted Trojan (hidden from detection runs)."""

    trigger_nets: tuple      # ((net, required_value), ...)
    q: int
    payload_kind: str
    witness: tuple           # sorted ((input word, value), ...)
    host_instances: tuple    # fresh tags carrying trigger/payload gates
    trigger_net: int         # the AND tree of the tap literals


def _and_tree(b, nets, tag):
    layer = list(nets)
    while len(layer) > 1:
        nxt = [b.gate(GateKind.AND, (layer[i], layer[i + 1]), tag=tag)
               for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _replace_output(b, old, new):
    # the new net takes over every output/word position of the old one;
    # gates that read the old net keep reading the pre-payload value
    b.outputs = [new if n == old else n for n in b.outputs]
    for w, bits in b.words.items():
        b.words[w] = [new if n == old else n for n in bits]


def _check_insertable(nl: Netlist, config: AttackConfig):
    """Refuse, before any run, an insertion that could not be built."""
    if config.stream is None:
        raise BadParams("config.stream must carry the profiling stream")
    check_value_words(nl)  # the witness is read off input word values
    if not nl.outputs:
        raise BadParams("the netlist has no output for a payload to take over")
    if config.payload == "leak" and config.secret_word not in nl.words:
        raise BadParams("leak payload needs an existing secret_word")


def insert_trojan(nl: Netlist, activity: ActivityReport,
                  testability: ScoapReport | None, config: AttackConfig):
    """Insert a rare-net-triggered combinational payload.

    Taps are realized on a run of ``config.stream`` (a shorter
    :class:`VectorStream` is extended), held whole in memory.

    Returns (infected netlist, :class:`HTInstance`).  Raises
    :class:`BadParams` before any run for a missing stream, an input word
    over 63 bits, no output or a leak without an existing ``secret_word``;
    then :class:`NoRareNets`, :class:`NoWitness` or
    :class:`WouldViolateTiming`.  On any failure nothing is emitted.
    """
    _check_insertable(nl, config)
    if testability is None:
        testability = scoap(nl, observability=False)
    rare = rare_nets(activity, config.theta)
    if len(rare) < config.q:
        raise NoRareNets(f"{len(rare)} rare nets at theta={config.theta}, "
                         f"need {config.q}")
    # taps are live nets (Netlist.live), as the defender's rare nets are
    ceiling = config.scoap_ceiling
    cand = [(n, v) for n, v in rare if nl.live[n]
            and testability.cc0[n] <= ceiling and testability.cc1[n] <= ceiling]

    # realization: the first 64 cycles that show each candidate's rare
    # value
    trace = config.stream
    if isinstance(trace, VectorStream) and config.trace_vectors > trace.n_vectors:
        trace = replace(trace, n_vectors=config.trace_vectors)
    tr = simulate(nl, trace)
    times = dict(zip(cand, tr.hits(cand, 64)))
    cand = [c for c in cand if times[c]]
    if len(cand) < config.q:
        raise NoRareNets(
            f"{len(cand)} usable trigger candidates (testable and realized "
            f"in the trace), need {config.q}")

    sup = {c: frozenset(nl.input_word_support([c[0]])) for c in cand}
    p_rare = {(n, v): float(activity.p1[n]) if v else 1.0 - float(activity.p1[n])
              for n, v in cand}
    order = sorted(cand, key=lambda c: (p_rare[c], c[0]))
    groups = []  # each: dict(words=frozenset, taps=[...], times=[...])
    for c in order:
        if sum(len(g["taps"]) for g in groups) == config.q:
            break
        if not sup[c]:
            continue
        hit = [g for g in groups if g["words"] & sup[c]]
        if not hit:
            groups.append({"words": sup[c], "taps": [c],
                           "times": sorted(times[c])})
            continue
        if config.require_disjoint:
            continue
        common = set(times[c])
        for g in hit:
            common &= set(g["times"])
        if not common:
            continue
        merged = {"words": sup[c].union(*(g["words"] for g in hit)),
                  "taps": [t for g in hit for t in g["taps"]] + [c],
                  "times": sorted(common)}
        groups = [g for g in groups if g not in hit] + [merged]
    taps = [t for g in groups for t in g["taps"]]
    if len(taps) < config.q:
        raise NoWitness(f"only {len(taps)} composable trigger taps of "
                        f"{config.q} requested")

    # a tap depends only on the words of its support, every tap of a group
    # held at each of the group's times, and no two groups share a word:
    # each group's words at its first time set every tap at once
    words = dict(nl.input_words())
    witness = {w: int(tr.word_values(words[w], [g["times"][0]])[0])
               for g in groups for w in g["words"]}
    del tr

    # build the infected copy
    b = NetlistBuilder(nl)
    host = min(Counter(nl.driver(n).tag for n, _ in taps).most_common(),
               key=lambda kv: (-kv[1], kv[0]))[0]
    k = 0
    while f"{host}.g{k}" in b.instances:
        k += 1
    fresh = f"{host}.g{k}"
    entry = nl.instances[host]
    b.instance(fresh, entry.kind_label, entry.op_type, entry.arch_id)
    lits = [n if v else b.gate(GateKind.NOT, (n,), tag=fresh)
            for n, v in taps]
    trig = _and_tree(b, lits, fresh)

    out_nets = nl.words[nl.output_words()[0][0]]
    if config.payload == "leak":
        for out, sec in zip(out_nets, nl.words[config.secret_word]):
            mux = b.gate(GateKind.MUX2, (trig, out, sec), tag=fresh)
            _replace_output(b, out, mux)
    else:
        x = b.gate(GateKind.XOR, (out_nets[-1], trig), tag=fresh)
        _replace_output(b, out_nets[-1], x)
    infected = b.build()

    if config.clock is not None:
        model = config.model or DelayModel()
        if critical_delay(infected, model) > config.clock:
            raise WouldViolateTiming(
                f"critical delay {critical_delay(infected, model):.3f} "
                f"exceeds clock {config.clock}")

    # fail-closed: the witness, other words at 0, must fire the built trigger
    run = simulate(infected, {w: [witness.get(w, 0)]
                              for w, _ in infected.input_words()})
    if not run.word_values([trig])[0]:
        raise NoWitness("witness does not fire the assembled trigger")

    ht = HTInstance(tuple(taps), config.q, config.payload,
                    tuple(sorted(witness.items())), (fresh,), trig)
    return infected, ht


# ---------------------------------------------------------------------------
# stealth


@dataclass(frozen=True)
class StealthReport:
    """A figure is None when :func:`verify_stealth` lacked its inputs, and
    min_slack also when no net reaches an output."""

    error_delta: float | None
    power_delta_fraction: float | None
    trigger_rate: float | None
    min_slack: float | None = None


def verify_stealth(clean: Netlist, infected: Netlist, ht: HTInstance,
                   reference, stream, clock: float | None = None,
                   model: DelayModel | None = None) -> StealthReport:
    """Differential stealth measurement of an insertion.

    With a ``stream``, both netlists are profiled chunk by chunk, in one
    run where ``infected`` is derived from ``clean``
    (:func:`~axsec.sim.paired_activity_and_error`):
    power_delta_fraction is the infected-over-clean power ratio less 1
    and trigger_rate the trigger net's signal probability in the infected
    profile.  A ``reference`` (anything :func:`~axsec.sim.error_sums`
    accepts) makes that pass an :func:`~axsec.sim.activity_and_error`
    one, and error_delta the infected-minus-clean difference of MRED
    against it.  With a ``clock``,
    min_slack is the least finite slack of the infected netlist or None.

    ``ht`` must be the insertion that built ``infected``: its trigger net
    is read by a gate of one of its host instances (every payload gate
    is).
    """
    if clean.signature() != infected.signature():
        raise SignatureMismatch("clean and infected netlists disagree on "
                                "primary I/O words")
    net = ht.trigger_net
    if not any(net in g.inputs and g.tag in ht.host_instances
               for g in infected.gates):
        raise BadParams(f"trigger net {net} is not read by a host gate "
                        f"{ht.host_instances} of the infected netlist")
    error_delta = power_delta = rate = min_slack = None
    if stream is not None:
        (act_c, err_c), (act_i, err_i) = paired_activity_and_error(
            clean, infected, reference, stream)
        if err_c is not None:
            error_delta = err_i.mred - err_c.mred
        power_delta = power_ratio(power_proxy(infected, act_i),
                                  power_proxy(clean, act_c)) - 1.0
        rate = float(act_i.p1[net])
    if clock is not None:
        s = slacks(infected, model or DelayModel(), clock)
        s = s[np.isfinite(s)]
        min_slack = float(s.min()) if s.size else None
    return StealthReport(error_delta, power_delta, rate, min_slack)


def mount(nl: Netlist, config: AttackConfig, reference, stealth):
    """(infected netlist, :class:`HTInstance`, :class:`StealthReport`) of
    one insertion: profile and realize on one run of ``config.stream``,
    insert, release the run, then :func:`verify_stealth` on ``stealth`` (a
    stream or None) under ``config.clock`` and ``config.model``.  The
    preconditions :func:`insert_trojan` checks first are checked before,
    and a ``reference`` when there is a ``stealth`` stream."""
    _check_insertable(nl, config)
    if stealth is not None and reference is not None:
        check_reference(nl, reference)
    run = simulate(nl, config.stream)
    infected, ht = insert_trojan(nl, ones_profile(run), None,
                                 replace(config, stream=run))
    del run  # the stealth check holds only its own chunks
    return infected, ht, verify_stealth(nl, infected, ht, reference, stealth,
                                        config.clock, config.model)
