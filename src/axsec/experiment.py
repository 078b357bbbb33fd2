"""Seeded end-to-end runs: characterize an architecture library, spread
design variants along the accuracy/power front, infect a fraction of them,
screen the candidate set and score the verdicts.

Every artifact is a CSV with a header row (floats via ``repr`` so reruns
are byte-identical) and all randomness descends from the one config seed.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith import ArchParams
from .attack import (AttackConfig, BudgetConstraints, attack_score,
                     characterize, check_budget, mount)
from .designs import DesignSpec, design_spec
from .detect import DetectConfig, classify, score
from .errors import (BadParams, BudgetInfeasible, NoRareNets, NoWitness,
                     WouldViolateTiming, check_ranges)
from .netlist import Netlist
from .sim import (VectorStream, activity_profile, error_sums, power_proxy,
                  power_ratio, simulate, sub_seed)
from .sta import calibrated_model
from .textfmt import write_netlist

__all__ = [
    "ExperimentConfig", "ExperimentResult", "Variant", "arch_menu",
    "characterize_library", "csv_value", "generate_variants", "ht_text",
    "run_experiment", "write_csv", "write_detection",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible attack-then-detect run."""

    seed: int = 0
    design: str = "fir"            # fir | bfly
    width: int = 8
    coeffs: tuple = (3, 5, 7, 9)
    twiddle: int = 3
    n_variants: int = 10
    infected_fraction: float = 0.4
    characterize_vectors: int = 1000
    rho: float = 0.9
    theta: float = 0.08            # attacker-side rare threshold
    q: int = 4
    scoap_ceiling: int = 500
    payload: str = "leak"
    trace_vectors: int = 20000
    stealth_vectors: int = 10000
    clock: float = 10.0
    margin: float = 0.9
    delta_e: float = 0.05
    delta_p: float = 0.05
    e_target: float = 0.05
    p_target: float = 1.0
    detect_theta: float = 0.1      # defender-side, deliberately wider
    detect_vectors: int = 2000
    detect_stress: int = 300
    detect_threshold: float = 0.5
    detect_scales: tuple = (1.0, 1.2)
    detect_paths: int = 100
    dev_tol: float = 0.05

    def __post_init__(self):
        check_ranges(self, (
            ("n_variants", self.n_variants >= 1, "at least 1"),
            ("infected_fraction", 0.0 <= self.infected_fraction <= 1.0,
             "in [0, 1]"),
            ("characterize_vectors", self.characterize_vectors >= 1,
             "at least 1"),
            ("rho", 0.0 <= self.rho <= 1.0, "in [0, 1]"),
            ("trace_vectors", self.trace_vectors >= 1, "at least 1"),
            ("stealth_vectors", self.stealth_vectors >= 1, "at least 1")))
        # forwarded values are checked by their owners, before any output
        self.design_spec()
        AttackConfig(q=self.q, theta=self.theta,
                     scoap_ceiling=self.scoap_ceiling)
        self.detect_config()
        self.budget()

    def design_spec(self) -> DesignSpec:
        return design_spec(self.design, self.width, self.coeffs,
                           self.twiddle)

    def budget(self) -> BudgetConstraints:
        return BudgetConstraints(self.e_target, self.p_target,
                                 self.delta_e, self.delta_p)

    def detect_config(self) -> DetectConfig:
        return DetectConfig(
            clock=self.clock, margin=self.margin,
            scales=tuple(self.detect_scales), n_paths=self.detect_paths,
            theta=self.detect_theta, vectors=self.detect_vectors,
            rho=self.rho, stress_budget=self.detect_stress,
            dev_tol=self.dev_tol, threshold=self.detect_threshold,
            seed=self.seed)


def csv_value(x) -> str:
    """One CSV cell: ``n/a`` for None, 0/1 for a bool, a float's repr."""
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def ht_text(ht) -> tuple[str, str]:
    """The ``taps`` and ``witness`` cells of an insertion's CSV row:
    ``net:value`` and ``word=value`` pairs joined by ``;``."""
    return (";".join(f"{n}:{v}" for n, v in ht.trigger_nets),
            ";".join(f"{w}={x}" for w, x in ht.witness))


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([csv_value(x) for x in r])


def write_detection(report, path, debug_path=None):
    """Write a detection report as per-instance suspicion rows and, when
    ``debug_path`` is given, the full per-instance evidence."""
    rows, dbg = [], []
    for r in report.netlists:
        for e in r.instances:
            rows.append((r.netlist_id, r.verdict, e.tag, e.suspicion))
            dbg.append((r.netlist_id, e.tag, e.kind_label, e.hits,
                        e.resilience, e.rare, e.raw, e.suspicion, e.flagged))
    write_csv(path, ["netlist", "verdict", "instance", "suspicion"], rows)
    if debug_path:
        write_csv(debug_path,
                  ["netlist", "instance", "kind", "hits", "resilience",
                   "rare", "raw", "suspicion", "flagged"], dbg)


# ---------------------------------------------------------------------------
# architecture library


def arch_menu(op: str, width: int) -> list[ArchParams]:
    """The assignment choices offered per operator slot: exact plus two
    depths of each applicable approximation."""
    ks = sorted({max(1, width // 4), width // 2})
    out = [ArchParams(op, "exact", width)]
    if op == "add":
        for arch in ("loa", "trunc"):
            out += [ArchParams(op, arch, width, k) for k in ks]
    else:
        out += [ArchParams(op, "trunc", width, k) for k in ks]
        if width % 2 == 0:
            out += [ArchParams(op, "block22", width, k) for k in ks]
    return out


def characterize_library(spec: DesignSpec, stream,
                         theta: float) -> dict:
    """Per (op, width) slot shape, the measured menu of architectures."""
    lib = {}
    for _, op, w in spec.slots:
        if (op, w) not in lib:
            lib[(op, w)] = [characterize(p, stream, theta)
                            for p in arch_menu(op, w)]
    return lib


# ---------------------------------------------------------------------------
# variant generation


@dataclass(frozen=True)
class Variant:
    """One emitted netlist variant and its budget accounting."""

    netlist_id: str
    assign: dict
    netlist: Netlist
    front: int
    sum_e: float
    sum_p: float
    composed_e: float
    composed_p: float
    e_margin: float
    p_margin: float


def _pareto_pool(E, P, cap):
    """Indices grouped into successive non-dominated fronts (minimising
    both), each front ordered by (E, P, index), until ``cap`` collected:
    the least-P entries of each equal-E run whose P beats all earlier runs."""
    order = np.lexsort((P, E))  # stable: by (E, P, index)
    pool = []
    front = 0
    while order.size and len(pool) < cap:  # what a front leaves stays sorted
        e, p = E[order], P[order]
        starts = np.r_[True, e[1:] != e[:-1]]
        gmin = p[starts]
        on_front = np.r_[True, gmin[1:] < np.minimum.accumulate(gmin)[:-1]]
        run = np.cumsum(starts) - 1
        keep = on_front[run] & (p == gmin[run])
        pool.extend((front, int(ix)) for ix in order[keep])
        order = order[~keep]
        front += 1
    return pool


def generate_variants(spec: DesignSpec, library: dict, n_variants: int,
                      budget: BudgetConstraints, stream: VectorStream,
                      log=None) -> list[Variant]:
    """Distinct slot assignments from the first Pareto fronts of the summed
    (e_norm, p_norm) objectives, kept only when the built netlist passes
    the composed budget check on ``stream``, the :class:`VectorStream` of
    the library.  Deterministic; BudgetInfeasible when no candidate passes."""
    if not isinstance(stream, VectorStream):
        raise BadParams(f"generate_variants takes a VectorStream, not "
                        f"{type(stream).__name__}")
    log = log if log is not None else []
    menus = [library[(op, w)] for _, op, w in spec.slots]
    lens = [len(m) for m in menus]
    E = np.zeros(1)
    P = np.zeros(1)
    for menu in menus:
        e = np.array([s.e_norm for s in menu])
        p = np.array([s.p_norm for s in menu])
        E = (E[:, None] + e[None, :]).ravel()
        P = (P[:, None] + p[None, :]).ravel()
    pool = _pareto_pool(E, P, cap=max(4 * n_variants, n_variants + 12))

    base_assign = {name: ArchParams(op, "exact", w)
                   for name, op, w in spec.slots}
    base_nl = spec.build(base_assign)
    base_run = simulate(base_nl, stream)
    base_power = power_proxy(base_nl, activity_profile(base_nl, base_run))

    out = []
    for front, ix in pool:
        if len(out) >= n_variants:
            break
        specs = [m[j] for m, j in zip(menus, np.unravel_index(ix, lens))]
        assign = {spec.slots[s][0]: m.params for s, m in enumerate(specs)}
        nl = spec.build(assign)
        # builds are shared: the all-exact variant is the base netlist
        run = base_run if nl is base_nl else simulate(nl, stream)
        # MRED averaged over the referenced output words
        ce = float(np.mean([rel / run.n_vectors for _, _, rel, _
                            in error_sums(run, spec.reference)]))
        cp = power_ratio(power_proxy(nl, activity_profile(nl, run)),
                         base_power)
        chk = check_budget(specs, ce, cp, budget, stream)
        label = ";".join(f"{spec.slots[s][0]}={m.params.label()}"
                         for s, m in enumerate(specs))
        if not chk.ok:
            log.append(f"variant rejected by budget: {label}")
            continue
        vid = f"v{len(out):02d}"
        out.append(Variant(vid, assign, nl, front, float(E[ix]),
                           float(P[ix]), ce, cp, chk.e_margin, chk.p_margin))
    if not out:
        raise BudgetInfeasible("no assignment passes the composed budget")
    return out


# ---------------------------------------------------------------------------
# the run itself


@dataclass(frozen=True)
class ExperimentResult:
    out_dir: str
    metrics: object
    n_variants: int
    n_infected: int
    verdicts: dict


def _infect(config: ExperimentConfig, spec: DesignSpec, variants,
            log) -> tuple[dict, dict, list]:
    """Replace a seeded selection of variants by trojaned builds.  A variant
    that offers no viable trigger is skipped and the next one in the
    shuffled order is tried instead."""
    n_inf = int(round(config.n_variants * config.infected_fraction))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    order = [variants[i] for i in rng.permutation(len(variants))]
    infected = {}
    truth = {v.netlist_id: () for v in variants}
    stealth_rows = []
    for v in order:
        if len(infected) >= n_inf:
            break
        ix = int(v.netlist_id[1:])
        acfg = AttackConfig(
            q=config.q, theta=config.theta, scoap_ceiling=config.scoap_ceiling,
            payload=config.payload, secret_word=spec.secret_word,
            stream=VectorStream(config.trace_vectors,
                                sub_seed(config.seed, 3, ix), "correlated",
                                config.rho),
            clock=config.clock,
            model=calibrated_model(v.netlist, config.clock, config.margin))
        try:
            bad, ht, sv = mount(
                v.netlist, acfg, spec.reference,
                VectorStream(config.stealth_vectors,
                             sub_seed(config.seed, 4, ix), "uniform"))
        except (NoRareNets, NoWitness, WouldViolateTiming) as exc:
            log.append(f"skip {v.netlist_id}: {type(exc).__name__}: {exc}")
            continue
        infected[v.netlist_id] = (bad, ht)
        truth[v.netlist_id] = ht.host_instances
        stealth_rows.append((v.netlist_id, sv.error_delta,
                             sv.power_delta_fraction, sv.trigger_rate,
                             sv.min_slack))
        log.append(f"infected {v.netlist_id}: host {ht.host_instances[0]} "
                   f"q={ht.q} payload={ht.payload_kind}")
    if len(infected) < n_inf:
        log.append(f"warning: only {len(infected)} of {n_inf} requested "
                   f"infections succeeded")
    return infected, truth, stealth_rows


def run_experiment(config: ExperimentConfig, out_dir) -> ExperimentResult:
    """Full pipeline into one artifact directory; see module docstring.
    The directory is removed again if it did not pre-exist and the run
    fails partway."""
    out = Path(out_dir)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _run(config, out)
    except BaseException:
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise


def _run(config: ExperimentConfig, out: Path) -> ExperimentResult:
    log = []
    spec = config.design_spec()
    log.append(f"design {spec.name} seed {config.seed}")

    with open(out / "config.txt", "w", encoding="utf-8") as f:
        for k in sorted(vars(config)):
            f.write(f"{k}={csv_value(getattr(config, k))}\n")

    char_stream = VectorStream(config.characterize_vectors,
                               sub_seed(config.seed, 1), "correlated",
                               config.rho)
    library = characterize_library(spec, char_stream, config.theta)
    rows = []
    for (op, w), specs in sorted(library.items()):
        for s in specs:
            rows.append((op, w, s.params.arch_id, s.params.k,
                         s.params.label(), s.e_norm, s.p_norm, s.rare_count,
                         s.r_norm, s.scoap_summary, attack_score(s)))
    write_csv(out / "library.csv",
              ["op", "width", "arch", "k", "label", "e_norm", "p_norm",
               "rare_count", "r_norm", "scoap_summary", "attack_score"],
              rows)
    log.append(f"library: {sum(len(v) for v in library.values())} specs")

    variants = generate_variants(spec, library, config.n_variants,
                                 config.budget(), char_stream, log)
    (out / "variants").mkdir(exist_ok=True)
    slot_names = [s[0] for s in spec.slots]
    vrows = []
    for v in variants:
        write_netlist(v.netlist, out / "variants" / f"{v.netlist_id}.nl")
        vrows.append([v.netlist_id, v.front]
                     + [v.assign[n].label() for n in slot_names]
                     + [v.sum_e, v.sum_p, v.composed_e, v.composed_p,
                        v.e_margin, v.p_margin])
    write_csv(out / "variants.csv",
              ["netlist", "front"] + slot_names
              + ["sum_e", "sum_p", "composed_e", "composed_p", "e_margin",
                 "p_margin"],
              vrows)
    log.append(f"variants: {len(variants)}")

    infected, truth, stealth_rows = _infect(config, spec, variants, log)
    write_csv(out / "stealth.csv",
              ["netlist", "error_delta", "power_delta_fraction",
               "trigger_rate", "min_slack"],
              stealth_rows)
    gt_rows = []
    cands = []
    (out / "candidates").mkdir(exist_ok=True)
    for v in variants:
        if v.netlist_id in infected:
            bad, ht = infected[v.netlist_id]
            cands.append((v.netlist_id, bad))
            gt_rows.append((v.netlist_id, 1, ht.host_instances[0],
                            ht.payload_kind, ht.trigger_net, *ht_text(ht)))
        else:
            cands.append((v.netlist_id, v.netlist))
            gt_rows.append((v.netlist_id, 0, "", "", "", "", ""))
        write_netlist(cands[-1][1],
                      out / "candidates" / f"{v.netlist_id}.nl")
    write_csv(out / "ht_ground_truth.csv",
              ["netlist", "infected", "host", "payload", "trigger_net",
               "taps", "witness"],
              gt_rows)

    report = classify(cands, config.detect_config())
    write_detection(report, out / "detect_report.csv",
                    out / "detect_debug.csv")
    write_csv(out / "ranking.csv",
              ["netlist", "error_rank", "mred", "verdict"],
              [(r.netlist_id, r.error_rank, r.mred, r.verdict)
               for r in report.netlists])

    metrics = score(report, truth)
    write_csv(out / "metrics.csv", ["accuracy", "fpr", "fnr"],
              [(metrics.accuracy, metrics.fpr, metrics.fnr)])
    log.append(f"metrics: accuracy={metrics.accuracy:.4f} "
               f"fpr={metrics.fpr:.4f} "
               f"fnr={'n/a' if metrics.fnr is None else round(metrics.fnr, 4)}")

    with open(out / "experiment.log", "w", encoding="utf-8") as f:
        f.write("\n".join(log) + "\n")
    return ExperimentResult(str(out), metrics, len(variants),
                            len(infected), report.verdicts())
