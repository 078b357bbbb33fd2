"""Command line front end.

One executable, nine verbs covering the whole flow: generate arithmetic
modules and full designs, profile switching activity and error, run
testability and timing analysis, mount an insertion, screen a candidate
set, score verdicts against ground truth, or drive the complete
attack-then-detect experiment in one call.

Every verb accepts ``--config FILE`` with flat ``key=value`` lines; the
``config.txt`` written by ``experiment`` can be fed straight back in.
File values act as defaults, explicit flags always win.  Keys a verb
does not know are ignored so one file can serve several verbs.  All
reports are CSV with a header row.
"""

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .arith import ARCHS, ArchParams, gen_module
from .attack import AttackConfig, insert_trojan, verify_stealth
from .designs import bfly_spec, fir_spec
from .detect import (DetectConfig, DetectionReport, InstanceScore,
                     NetlistReport, classify, score)
from .errors import (BadParams, BadThreshold, BudgetInfeasible, EmptySet,
                     LabelMismatch, NetlistError, NoRareNets, NoWitness,
                     SignatureMismatch, UnitMismatch, UnknownInstance,
                     WouldViolateTiming)
from .experiment import (ExperimentConfig, run_experiment, write_detection,
                         _fmt, _write_csv)
from .scoap import scoap
from .sim import (EXACT_OPS, VectorStream, activity_profile, check_theta,
                  error_profile, power_proxy, rare_nets, simulate, sub_seed)
from .sta import (DelayModel, calibrated_model, critical_delay,
                  near_critical_paths, slacks)
from .textfmt import read_netlist, write_netlist

__all__ = ["main"]

_USER_ERRORS = (NetlistError, BadParams, BadThreshold, UnitMismatch,
                SignatureMismatch, EmptySet, LabelMismatch, UnknownInstance,
                NoRareNets, NoWitness, WouldViolateTiming, BudgetInfeasible,
                OSError)


# ---------------------------------------------------------------------------
# value parsing shared by flags and config files

def _tuple_of(elem):
    def conv(text):
        parts = text.replace("(", ",").replace(")", ",").split(",")
        vals = tuple(elem(p.strip()) for p in parts if p.strip())
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals
    conv.__name__ = elem.__name__ + "s"
    return conv


_ints = _tuple_of(int)
_floats = _tuple_of(float)


def _load_config(path):
    cfg = {}
    for lno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise BadParams(f"{path}:{lno}: expected key=value, got {s!r}")
        key, val = s.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _apply_config(sp, cfg):
    # file values become defaults, so flags given on the line still win
    for action in sp._actions:
        raw = cfg.get(action.dest)
        if raw is None:
            continue
        if action.nargs == 0 and isinstance(action.const, bool):
            val = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            val = action.type(raw)
        else:
            val = raw
        sp.set_defaults(**{action.dest: val})
        action.required = False


def _peek_config(argv):
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith("--config="):
            return a.split("=", 1)[1]
    return None


# ---------------------------------------------------------------------------
# shared helpers

def _design_spec(args):
    if args.design == "fir":
        return fir_spec(args.width, args.coeffs)
    return bfly_spec(args.width, args.twiddle)


def _reference_for(nl, choice):
    """Exact word-level reference, or None when not derivable.

    ``auto`` only succeeds for a lone add/mul operating on input words
    ``a`` and ``b`` with a single output word, i.e. generated modules."""
    if choice == "none":
        return None
    if choice == "auto":
        ops = [i.op_type for i in nl.instances.values()
               if i.op_type in ("add", "mul")]
        inames = {w for w, _ in nl.input_words()}
        if len(ops) != 1 or len(nl.output_words()) != 1 \
                or not {"a", "b"} <= inames:
            return None
        choice = ops[0]
    return EXACT_OPS[choice]


def _parse_assign(text, slots):
    by_name = {name: (op, w) for name, op, w in slots}
    assign = {}
    for item in filter(None, (s.strip() for s in text.split(";"))):
        if "=" not in item:
            raise BadParams(f"expected slot=arch[:k[:c]], got {item!r}")
        name, pick = (s.strip() for s in item.split("=", 1))
        if name not in by_name:
            raise BadParams(
                f"unknown slot {name!r}; available: {sorted(by_name)}")
        op, w = by_name[name]
        parts = pick.split(":")
        k = int(parts[1]) if len(parts) > 1 and parts[1] else 0
        carry = len(parts) > 2 and parts[2] == "c"
        assign[name] = ArchParams(op, parts[0], w, k, carry)
    return assign


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_gen_module(args):
    p = ArchParams(args.op, args.arch, args.width, args.k, args.loa_carry)
    nl = gen_module(p, args.tag)
    write_netlist(nl, args.out)
    print(f"{args.op} {p.label()} width {args.width}: {len(nl.gates)} gates, "
          f"{nl.n_nets} nets -> {args.out}")


def _cmd_gen_design(args):
    spec = _design_spec(args)
    if args.list_slots:
        for name, op, w in spec.slots:
            print(f"{name} {op} {w}")
        return 0
    if not args.out:
        raise BadParams("--out is required unless --list-slots is given")
    nl = spec.build(_parse_assign(args.assign, spec.slots))
    write_netlist(nl, args.out)
    print(f"{spec.name}: {len(nl.gates)} gates, {nl.n_nets} nets "
          f"-> {args.out}")


def _cmd_profile(args):
    nl = read_netlist(args.netlist)
    stream = VectorStream(args.vectors, args.seed, args.mode, args.rho)
    if args.theta is not None:
        check_theta(args.theta)
    # every table is computed, and so checked, before the first is written
    act = activity_profile(nl, stream)
    power = power_proxy(nl, act)
    tables = {
        "activity.csv": (["net", "name", "p1", "toggles"],
                         [(n, nl.net_names[n], float(act.p1[n]),
                           int(act.toggles[n])) for n in range(nl.n_nets)]),
        "power.csv": (["proxy", "n_vectors"], [(power.value, act.n_vectors)]),
    }
    if args.theta is not None:
        tables["rare.csv"] = (["net", "name", "stuck_value", "p1"],
                              [(n, nl.net_names[n], v, float(act.p1[n]))
                               for n, v in rare_nets(act, args.theta)])
    ref = _reference_for(nl, args.ref)
    if ref is not None:
        er = error_profile(nl, ref, stream)
        tables["error.csv"] = (["er", "med", "mred", "wce", "n_vectors"],
                               [(er.er, er.med, er.mred, er.wce,
                                 er.n_vectors)])
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    print(f"{args.vectors} {args.mode} vectors over {nl.n_nets} nets -> "
          f"{out}/{{{','.join(tables)}}}")


def _cmd_scoap(args):
    nl = read_netlist(args.netlist)
    rep = scoap(nl)
    _write_csv(args.out, ["net", "name", "cc0", "cc1", "co"],
               [(n, nl.net_names[n], int(rep.cc0[n]), int(rep.cc1[n]),
                 int(rep.co[n])) for n in range(nl.n_nets)])
    print(f"{nl.n_nets} nets -> {args.out}")


def _cmd_sta(args):
    nl = read_netlist(args.netlist)
    model = DelayModel(scale=args.scale)
    crit = critical_delay(nl, model)
    paths = near_critical_paths(nl, model, args.clock, args.paths,
                                args.window)
    rows = [(r, p.delay, p.slack,
             ">".join(nl.net_names[n] for n in p.nets), ";".join(p.tags))
            for r, p in enumerate(paths, 1)]
    _write_csv(args.out, ["rank", "delay", "slack", "nets", "instances"],
               rows)
    print(f"critical delay {_fmt(crit)}, {len(paths)} near-critical paths "
          f"-> {args.out}")


def _cmd_attack(args):
    nl = read_netlist(args.netlist)
    stream = VectorStream(args.vectors, args.seed, args.mode, args.rho)
    model = None
    if args.clock is not None:
        model = calibrated_model(nl, args.clock, args.margin)
    cfg = AttackConfig(
        q=args.q, theta=args.theta, scoap_ceiling=args.scoap_ceiling,
        payload=args.payload, secret_word=args.secret, clock=args.clock,
        model=model)
    # triggers are profiled and realized on one run
    run = simulate(nl, stream)
    infected, ht = insert_trojan(nl, activity_profile(nl, run), None,
                                 dataclasses.replace(cfg, stream=run))
    del run  # release the run before the stealth check
    # the report, and with it the stealth check, comes before any output
    report = _attack_report(args, nl, infected, ht, model)
    write_netlist(infected, args.out)
    if report is not None:
        _write_csv(args.report,
                   ["host", "payload", "q", "taps", "witness", "error_delta",
                    "power_delta", "trigger_rate", "min_slack"], [report])
    print(f"{ht.payload_kind} payload hosted at {ht.host_instances[0]}, "
          f"{len(ht.trigger_nets)} trigger taps -> {args.out}")
    return 0


def _attack_report(args, nl, infected, ht, model):
    """The one ``--report`` row, or None without ``--report``."""
    if not args.report:
        return None
    taps = ";".join(f"{n}:{v}" for n, v in ht.trigger_nets)
    wit = ";".join(f"{w}={x}" for w, x in ht.witness)
    head = (ht.host_instances[0], ht.payload_kind, ht.q, taps, wit)
    ref = _reference_for(nl, args.ref)
    sv = None
    if args.stealth_vectors > 0:
        sv = VectorStream(args.stealth_vectors, sub_seed(args.seed, 4),
                          "uniform")
    if ref is not None and sv is not None:
        st = verify_stealth(nl, infected, ht, ref, sv, args.clock, model)
        tail = (st.error_delta, st.power_delta_fraction, st.trigger_rate,
                st.min_slack)
    else:
        # no reference: deltas stay open, rate and slack are still checkable
        rate = mslack = None
        if sv is not None:
            rate = float(simulate(infected, sv).bits(ht.trigger_net).mean())
        if args.clock is not None:
            mslack = float(slacks(infected, model, args.clock).min())
        tail = (None, None, rate, mslack)
    return head + tail


def _cmd_detect(args):
    cands = {p.stem: read_netlist(p)
             for p in sorted(Path(args.candidates).glob("*.nl"))}
    cfg = DetectConfig(
        clock=args.clock, margin=args.margin, scales=args.scales,
        n_paths=args.paths, window=args.window, theta=args.theta,
        vectors=args.vectors, rho=args.rho, stress_budget=args.stress,
        dev_tol=args.dev_tol, threshold=args.threshold, seed=args.seed)
    report = classify(cands, cfg)
    write_detection(report, args.out, args.debug)
    for r in report.netlists:
        print(f"{r.netlist_id}: {r.verdict}")
    print(f"{len(report.netlists)} candidates -> {args.out}")


def _read_report(path, threshold):
    by_net = {}
    with open(path, newline="", encoding="utf-8") as f:
        rd = csv.DictReader(f)
        need = {"netlist", "instance", "suspicion"}
        if rd.fieldnames is None or not need <= set(rd.fieldnames):
            raise BadParams(f"{path}: expected columns {sorted(need)}")
        for row in rd:
            by_net.setdefault(row["netlist"], []).append(
                (row["instance"], float(row["suspicion"])))
    nets = []
    for nid in sorted(by_net):
        entries = tuple(
            InstanceScore(tag, "", 0, None, False, s, s, s >= threshold)
            for tag, s in by_net[nid])
        verdict = ("INFECTED" if any(e.flagged for e in entries)
                   else "CLEAN")
        nets.append(NetlistReport(nid, verdict, 0, 0.0, entries))
    return DetectionReport(tuple(nets))


def _read_truth(path):
    truth = {}
    with open(path, newline="", encoding="utf-8") as f:
        rd = csv.DictReader(f)
        need = {"netlist", "infected", "host"}
        if rd.fieldnames is None or not need <= set(rd.fieldnames):
            raise BadParams(f"{path}: expected columns {sorted(need)}")
        for row in rd:
            nid = row["netlist"]
            if nid in truth:
                raise BadParams(f"{path}: duplicate netlist {nid!r}")
            bad = ()
            if row["infected"].strip() in ("1", "true", "yes"):
                bad = tuple(t for t in row["host"].split(";") if t)
            truth[nid] = bad
    return truth


def _cmd_score(args):
    rep = _read_report(args.report, args.threshold)
    truth = _read_truth(args.truth)
    m = score(rep, truth)
    _write_csv(args.out, ["accuracy", "fpr", "fnr"],
               [(m.accuracy, m.fpr, m.fnr)])
    fnr = "n/a" if m.fnr is None else f"{m.fnr:.4f}"
    print(f"accuracy={m.accuracy:.4f} fpr={m.fpr:.4f} fnr={fnr} "
          f"(tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}) -> {args.out}")


def _cmd_experiment(args):
    kw = {f.name: getattr(args, f.name)
          for f in dataclasses.fields(ExperimentConfig)}
    res = run_experiment(ExperimentConfig(**kw), args.out)
    m = res.metrics
    fnr = "n/a" if m.fnr is None else f"{m.fnr:.4f}"
    print(f"{res.n_variants} variants, {res.n_infected} infected; "
          f"accuracy={m.accuracy:.4f} fpr={m.fpr:.4f} fnr={fnr} "
          f"-> {res.out_dir}")


# ---------------------------------------------------------------------------
# parser assembly

_EXP_HELP = {
    "seed": "root seed for every random draw",
    "design": "design family, fir or bfly",
    "width": "operand width in bits",
    "coeffs": "filter coefficients, comma separated",
    "twiddle": "butterfly twiddle constant",
    "n_variants": "approximate variants to generate (at most)",
    "infected_fraction": "fraction of variants that receive a payload",
    "characterize_vectors": "vectors per library characterization",
    "rho": "lag-1 correlation of the correlated stream",
    "theta": "attacker-side rare-net threshold",
    "q": "trigger taps per insertion",
    "scoap_ceiling": "testability ceiling for trigger taps",
    "payload": "payload kind, leak or corrupt",
    "trace_vectors": "vectors for trigger realization traces",
    "stealth_vectors": "vectors for the differential stealth check",
    "clock": "clock period for timing checks",
    "margin": "calibrated critical path as a fraction of the clock",
    "delta_e": "composed error budget slack",
    "delta_p": "composed power budget slack",
    "e_target": "error normalization target",
    "p_target": "power normalization target",
    "detect_theta": "defender-side rare-net threshold",
    "detect_vectors": "defender profiling vectors per stream",
    "detect_stress": "stress vectors per suspect instance",
    "detect_threshold": "suspicion level that flags an instance",
    "detect_scales": "delay scale sweep for path reporting",
    "detect_paths": "near-critical paths kept per scale",
    "dev_tol": "deviation tolerance as a fraction of the word range",
}


def _sub(subs, registry, name, help_text):
    sp = subs.add_parser(
        name, help=help_text, description=help_text,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("--config", metavar="FILE",
                    help="key=value file supplying flag defaults")
    registry[name] = sp
    return sp


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="axsec",
        description="approximate-circuit hardware Trojan workbench")
    subs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    reg = {}

    sp = _sub(subs, reg, "gen-module",
              "write one arithmetic module as a netlist")
    sp.add_argument("--op", required=True, choices=("add", "mul"))
    sp.add_argument("--arch", required=True, choices=ARCHS)
    sp.add_argument("--width", required=True, type=int)
    sp.add_argument("--k", type=int, default=0,
                    help="approximation degree, 0 means exact")
    sp.add_argument("--loa-carry", action="store_true",
                    help="keep the carry between approximate and exact part")
    sp.add_argument("--tag", default="u", help="instance tag of the module")
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_gen_module)

    sp = _sub(subs, reg, "gen-design",
              "assemble a full design from slot assignments")
    sp.add_argument("--design", required=True, choices=("fir", "bfly"))
    sp.add_argument("--width", type=int, default=8)
    sp.add_argument("--coeffs", type=_ints, default=(3, 5, 7, 9))
    sp.add_argument("--twiddle", type=int, default=3)
    sp.add_argument("--assign", default="",
                    help="semicolon list slot=arch[:k[:c]]; unlisted slots "
                         "stay exact")
    sp.add_argument("--list-slots", action="store_true",
                    help="print assignable slots and exit")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=_cmd_gen_design)

    sp = _sub(subs, reg, "profile",
              "switching activity, power proxy, rare nets and error")
    sp.add_argument("--netlist", required=True, metavar="FILE")
    sp.add_argument("--vectors", type=int, default=2000)
    sp.add_argument("--mode", choices=("uniform", "correlated"),
                    default="uniform")
    sp.add_argument("--rho", type=float, default=0.9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--theta", type=float, default=None,
                    help="also write rare.csv at this threshold")
    sp.add_argument("--ref", choices=("auto", "add", "mul", "none"),
                    default="auto",
                    help="reference for error.csv; auto detects lone "
                         "operator modules")
    sp.add_argument("--out-dir", required=True, metavar="DIR")
    sp.set_defaults(func=_cmd_profile)

    sp = _sub(subs, reg, "scoap", "controllability and observability per net")
    sp.add_argument("--netlist", required=True, metavar="FILE")
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_scoap)

    sp = _sub(subs, reg, "sta", "critical delay and near-critical paths")
    sp.add_argument("--netlist", required=True, metavar="FILE")
    sp.add_argument("--clock", required=True, type=float)
    sp.add_argument("--scale", type=float, default=1.0,
                    help="multiply every gate delay by this factor")
    sp.add_argument("--paths", type=int, default=100)
    sp.add_argument("--window", type=float, default=None,
                    help="slack window; default is a tenth of the clock")
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_sta)

    sp = _sub(subs, reg, "attack", "insert a rare-net-triggered payload")
    sp.add_argument("--netlist", required=True, metavar="FILE")
    sp.add_argument("--payload", choices=("leak", "corrupt"), default="leak")
    sp.add_argument("--secret", default=None,
                    help="input word a leak payload routes to the output")
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--theta", type=float, default=0.08)
    sp.add_argument("--scoap-ceiling", type=int, default=500)
    sp.add_argument("--vectors", type=int, default=20000)
    sp.add_argument("--mode", choices=("uniform", "correlated"),
                    default="correlated")
    sp.add_argument("--rho", type=float, default=0.9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--clock", type=float, default=None,
                    help="reject insertions that would break this period")
    sp.add_argument("--margin", type=float, default=0.9)
    sp.add_argument("--stealth-vectors", type=int, default=10000)
    sp.add_argument("--ref", choices=("auto", "add", "mul", "none"),
                    default="auto")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="infected netlist")
    sp.add_argument("--report", metavar="FILE",
                    help="also write a one-row insertion report")
    sp.set_defaults(func=_cmd_attack)

    sp = _sub(subs, reg, "detect",
              "screen a directory of candidate netlists")
    sp.add_argument("--candidates", required=True, metavar="DIR",
                    help="directory of .nl files, one per candidate")
    sp.add_argument("--clock", type=float, default=10.0)
    sp.add_argument("--margin", type=float, default=0.9)
    sp.add_argument("--scales", type=_floats, default=(1.0, 1.2))
    sp.add_argument("--paths", type=int, default=100)
    sp.add_argument("--window", type=float, default=None)
    sp.add_argument("--theta", type=float, default=0.1)
    sp.add_argument("--vectors", type=int, default=2000)
    sp.add_argument("--rho", type=float, default=0.9)
    sp.add_argument("--stress", type=int, default=300)
    sp.add_argument("--dev-tol", type=float, default=0.05)
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.add_argument("--debug", metavar="FILE",
                    help="also write per-instance evidence")
    sp.set_defaults(func=_cmd_detect)

    sp = _sub(subs, reg, "score", "compare a detection report against truth")
    sp.add_argument("--report", required=True, metavar="FILE")
    sp.add_argument("--truth", required=True, metavar="FILE")
    sp.add_argument("--threshold", type=float, default=0.5,
                    help="suspicion level that counts as flagged")
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_score)

    sp = _sub(subs, reg, "experiment",
              "attack-then-detect pipeline into one artifact directory")
    for f in dataclasses.fields(ExperimentConfig):
        d = f.default
        conv = _tuple_of(type(d[0])) if isinstance(d, tuple) else type(d)
        sp.add_argument("--" + f.name.replace("_", "-"), type=conv,
                        default=d, help=_EXP_HELP[f.name])
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.set_defaults(func=_cmd_experiment)

    return parser, reg


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    cfg_path = _peek_config(argv)
    verb = next((a for a in argv if a in registry), None)
    if cfg_path and verb:
        _apply_config(registry[verb], _load_config(cfg_path))
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
