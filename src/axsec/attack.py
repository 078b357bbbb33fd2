"""Bottom-up Trojan insertion: architecture characterization, cost ranking,
budget checking, rare-net trigger construction and stealth verification.

The trigger is an AND over q rare-net literals chosen from profiled
activity, by default from nets whose input-word cones are pairwise
disjoint, and the firing probability under independent uniform inputs is
the product of the per-literal rarities.  The witness is composed word-wise:
each tap group's input words take their values at the first trace cycle
that realized all of the group's taps.  The groups' supports are disjoint,
so that composition sets every tap at once.  Insertion is fail-closed: the
witness is replayed on the built netlist, and a netlist is only emitted
together with a witness that fired its trigger.

Stealth error is the difference of two :func:`axsec.sim.error_profile`
figures and checks :meth:`Netlist.signature`; :func:`_fire_mask` alone
evaluates a trigger over simulated traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .arith import ArchParams, gen_module
from .errors import (BadParams, NoRareNets, NoWitness, SignatureMismatch,
                     UnitMismatch, WouldViolateTiming, check_ranges)
from .netlist import GateKind, Netlist, NetlistBuilder
from .scoap import ScoapReport, scoap
from .sim import (ActivityReport, VectorStream, activity_profile,
                  check_theta, error_profile, eval_vector, power_proxy,
                  rare_nets, simulate, stream_key)
from .sta import DelayModel, critical_delay, slacks


@dataclass(frozen=True)
class CostWeights:
    """Priority weights of the selection cost: accuracy+power vs rare
    nets."""

    w_ap: float = 0.5
    w_r: float = 0.5

    def __post_init__(self):
        if self.w_ap < 0 or self.w_r < 0:
            raise BadParams("weights must be non-negative")


@dataclass(frozen=True)
class ModuleSpec:
    """Characterization of one architecture under a fixed stream."""

    params: ArchParams
    e_norm: float        # MRED against the exact operator
    p_norm: float        # power proxy ratio vs the exact architecture
    rare_count: int
    r_norm: float        # rare nets / total nets
    scoap_summary: int   # max cc1 among rare nets (0 when none)
    stream_key: tuple = ()


def characterize(params: ArchParams, stream, theta: float = 0.01) -> ModuleSpec:
    """Measure one architecture's error, relative power and rare-net profile
    on the given stream, against the exact architecture as baseline."""
    nl = gen_module(params)
    run = simulate(nl, stream)
    err = error_profile(nl, params, run)
    act = activity_profile(nl, run)
    base_nl = gen_module(ArchParams(params.op_type, "exact", params.width))
    base = power_proxy(base_nl, activity_profile(base_nl, stream))
    proxy = power_proxy(nl, act, base)
    rare = rare_nets(act, theta)
    sc = scoap(nl)
    summary = max((int(sc.cc1[n]) for n, _ in rare), default=0)
    return ModuleSpec(params, err.mred, proxy.ratio, len(rare),
                      len(rare) / nl.n_nets, summary, stream_key(stream))


def attack_score(spec: ModuleSpec, weights: CostWeights = CostWeights()) -> float:
    """Selection cost: error gained plus power saved, plus rare-net supply;
    higher means a more attractive host."""
    return (weights.w_ap * (spec.e_norm + (1.0 - spec.p_norm))
            + weights.w_r * spec.r_norm)


def rank_candidates(specs, weights: CostWeights = CostWeights()):
    """Specs ordered by descending attack score (ties by label)."""
    return sorted(specs, key=lambda s: (-attack_score(s, weights),
                                        s.params.label(), s.params.op_type))


@dataclass(frozen=True)
class BudgetConstraints:
    """Declared composed-netlist budgets and admissible slacks."""

    e_prime: float
    p_prime: float
    delta_e: float
    delta_p: float

    def __post_init__(self):
        if not (self.delta_e > 0 and self.delta_p > 0):  # also rejects NaN
            raise BadParams("budget slacks must be positive")


@dataclass(frozen=True)
class BudgetCheck:
    e_margin: float
    p_margin: float
    ok: bool


def check_budget(selected, composed_error: float, composed_power: float,
                 budget: BudgetConstraints, stream_key=None) -> BudgetCheck:
    """Composed measurements against the sum of module norms: passes when
    both excesses stay strictly inside the declared slacks."""
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


@dataclass(frozen=True)
class AttackConfig:
    q: int = 4
    theta: float = 0.01
    scoap_ceiling: int = 50
    payload: str = "leak"            # or "corrupt"
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
            ("q", self.q >= 1, "at least 1"),
            ("scoap_ceiling", self.scoap_ceiling >= 0, "non-negative"),
            ("trace_vectors", self.trace_vectors >= 1, "at least 1"),
            ("clock", self.clock is None or self.clock > 0,
             "positive when set")))


@dataclass(frozen=True)
class HTInstance:
    """Ground truth of one inserted Trojan (hidden from detection runs)."""

    trigger_nets: tuple      # ((net, required_value), ...)
    q: int
    payload_kind: str
    payload_word: str
    payload_bits: tuple      # replaced bit positions of payload_word
    witness: tuple           # sorted ((input word, value), ...)
    host_instances: tuple    # fresh tags carrying trigger/payload gates
    tap_instances: tuple     # tags whose nets the trigger taps (informative)
    trigger_net: int

    def witness_dict(self):
        return dict(self.witness)


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


def _fire_mask(tr, taps):
    """Per-vector truth of the trigger conjunction over simulated traces."""
    fire = np.ones(tr.n_vectors, bool)
    for net, val in taps:
        fire &= tr.bits(net) == val
    return fire


def insert_trojan(nl: Netlist, activity: ActivityReport,
                  testability: ScoapReport | None, config: AttackConfig):
    """Insert a rare-net-triggered combinational payload.

    Taps are realized on a run of ``config.stream`` (a shorter
    :class:`VectorStream` is extended), held whole in memory.

    Returns (infected netlist, :class:`HTInstance`).  Raises
    :class:`NoRareNets`, :class:`NoWitness` or :class:`WouldViolateTiming`;
    on any failure nothing is emitted.
    """
    if config.stream is None:
        raise BadParams("config.stream must carry the profiling stream")
    if testability is None:
        testability = scoap(nl)
    rare = rare_nets(activity, config.theta)
    if len(rare) < config.q:
        raise NoRareNets(f"{len(rare)} rare nets at theta={config.theta}, "
                         f"need {config.q}")
    ceiling = config.scoap_ceiling
    cand = [(n, v) for n, v in rare
            if testability.cc0[n] <= ceiling and testability.cc1[n] <= ceiling]

    # realization: the first 64 cycles that show each candidate's rare
    # value, and the input word values of every cycle
    trace = config.stream
    if isinstance(trace, VectorStream) and config.trace_vectors > trace.n_vectors:
        trace = replace(trace, n_vectors=config.trace_vectors)
    tr = simulate(nl, trace)
    times = {c: np.flatnonzero(tr.bits(c[0]) == c[1])[:64].tolist()
             for c in cand}
    word_vals = {w: tr.word_values(bits) for w, bits in nl.input_words()}
    del tr
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
    witness = {w: int(word_vals[w][g["times"][0]])
               for g in groups for w in g["words"]}

    # build the infected copy
    b = NetlistBuilder(nl)
    tap_tags = [nl.driver(n).tag for n, _ in taps if nl.driver(n) is not None]
    host = min(Counter(tap_tags).most_common(),
               key=lambda kv: (-kv[1], kv[0]))[0] if tap_tags else "u"
    k = 0
    while f"{host}.g{k}" in b.instances:
        k += 1
    fresh = f"{host}.g{k}"
    entry = nl.instances[host]
    b.instance(fresh, entry.kind_label, entry.op_type, entry.arch_id)
    lits = [n if v else b.gate(GateKind.NOT, (n,), tag=fresh)
            for n, v in taps]
    trig = _and_tree(b, lits, fresh)

    out_word = nl.output_words()[0][0]
    out_nets = list(nl.words[out_word])
    if config.payload == "leak":
        if not config.secret_word or config.secret_word not in nl.words:
            raise BadParams("leak payload needs an existing secret_word")
        secret = nl.words[config.secret_word]
        bits = tuple(range(min(len(secret), len(out_nets))))
        for i in bits:
            mux = b.gate(GateKind.MUX2, (trig, out_nets[i], secret[i]),
                         tag=fresh)
            _replace_output(b, out_nets[i], mux)
    elif config.payload == "corrupt":
        bits = (len(out_nets) - 1,)
        x = b.gate(GateKind.XOR, (out_nets[bits[0]], trig), tag=fresh)
        _replace_output(b, out_nets[bits[0]], x)
    else:
        raise BadParams(f"unknown payload {config.payload!r}")
    infected = b.build()

    if config.clock is not None:
        model = config.model or DelayModel()
        if critical_delay(infected, model) > config.clock:
            raise WouldViolateTiming(
                f"critical delay {critical_delay(infected, model):.3f} "
                f"exceeds clock {config.clock}")

    # fail-closed: the witness must fire the built trigger; this replay
    # is the witness's verification
    tvals = eval_vector(infected, witness)
    if tvals[trig] != 1:
        raise NoWitness("witness does not fire the assembled trigger")

    ht = HTInstance(tuple(taps), config.q, config.payload, out_word, bits,
                    tuple(sorted(witness.items())), (fresh,),
                    tuple(sorted(set(tap_tags))), trig)
    return infected, ht


# ---------------------------------------------------------------------------
# stealth


@dataclass(frozen=True)
class StealthReport:
    error_delta: float
    power_delta_fraction: float
    trigger_rate: float
    min_slack: float | None = None


def verify_stealth(clean: Netlist, infected: Netlist, ht: HTInstance,
                   reference, stream, clock: float | None = None,
                   model: DelayModel | None = None) -> StealthReport:
    """Differential stealth measurement of an insertion.

    ``reference`` is anything :func:`~axsec.sim.error_sums` accepts;
    error_delta is the infected-minus-clean difference of MRED against it
    (:func:`~axsec.sim.error_profile`).  trigger_rate counts cycles where
    every trigger literal holds.  Both runs are held whole in memory.
    """
    if clean.signature() != infected.signature():
        raise SignatureMismatch("clean and infected netlists disagree on "
                                "primary I/O words")
    run_c, run_i = simulate(clean, stream), simulate(infected, stream)
    error_delta = (error_profile(infected, reference, run_i).mred
                   - error_profile(clean, reference, run_c).mred)
    rate = int(_fire_mask(run_i, ht.trigger_nets).sum()) / run_i.n_vectors
    p_clean = power_proxy(clean, activity_profile(clean, run_c))
    p_inf = power_proxy(infected, activity_profile(infected, run_i), p_clean)
    min_slack = None
    if clock is not None:
        s = slacks(infected, model or DelayModel(), clock)
        min_slack = float(np.min(s[np.isfinite(s)]))
    return StealthReport(error_delta, p_inf.ratio - 1.0, rate, min_slack)
