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
reports are CSV with a header row.  A usage or workbench error
(:class:`~axsec.errors.AxsecError`), an unreadable file or a bad CSV ends
in one ``error:`` line and exit status 2.
"""

import argparse
import csv
import dataclasses
import io
import math
import re
import sys
from pathlib import Path

from .arith import ARCHS, ArchParams, gen_module
from .attack import PAYLOADS, AttackConfig, mount
from .designs import design_spec
from .detect import (DetectConfig, DetectionReport, InstanceScore,
                     NetlistReport, classify, score)
from .errors import AxsecError, BadParams, check_ranges
from .experiment import (ExperimentConfig, csv_text, csv_value,
                         detection_csvs, ht_text, run_experiment)
from .scoap import scoap
from .sim import (EXACT_OPS, STREAM_MODES, VectorStream, activity_and_error,
                  check_theta, power_proxy, rare_nets, sub_seed)
from .sta import (DelayModel, calibrated_model, critical_delay,
                  near_critical_paths)
from .textfmt import (check_free, read_netlist, read_text, serialize_netlist,
                      write_files, write_netlist, write_tree)

__all__ = ["main"]

_USER_ERRORS = (AxsecError, OSError, csv.Error)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one error: line too
        raise BadParams(message)


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


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _load_config(path):
    cfg = {}
    for lno, line in enumerate(read_text(path).splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise BadParams(f"{path}:{lno}: expected key=value, got {s!r}")
        key, val = s.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _apply_config(sp, cfg, path):
    # file values become defaults, so flags given on the line still win;
    # argparse checks neither their type nor their choices
    for action in sp._actions:
        raw = cfg.get(action.dest)
        if raw is None:
            continue
        if action.nargs == 0 and isinstance(action.const, bool):
            val = _BOOLS.get(raw.lower())
            if val is None:
                raise BadParams(f"{path}: {action.dest}: {raw!r} is not one "
                                f"of {list(_BOOLS)}")
        else:
            try:
                val = raw if action.type is None else action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise BadParams(f"{path}: {action.dest}: {exc}") from None
            if action.choices is not None and val not in action.choices:
                raise BadParams(f"{path}: {action.dest}: {val!r} is not one "
                                f"of {list(action.choices)}")
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

def _reference_for(nl, choice):
    """Exact word-level reference, or None when not derivable.

    ``auto`` only succeeds for a lone add/mul operating on input words
    ``a`` and ``b`` with a single output word, i.e. generated modules."""
    if choice == "none":
        return None
    if choice == "auto":
        ops = [i.op_type for i in nl.instances.values()
               if i.op_type in EXACT_OPS]
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
        name, _, pick = (s.strip() for s in item.partition("="))
        m = re.fullmatch(r"([^:]*)(?::(-?\d+)?(:c)?)?", pick)
        if not (m and "=" in item):
            raise BadParams(f"expected slot=arch[:k[:c]] with an integer k, "
                            f"got {item!r}")
        if name not in by_name:
            raise BadParams(
                f"unknown slot {name!r}; available: {sorted(by_name)}")
        op, w = by_name[name]
        arch, k, carry = m.groups()
        assign[name] = ArchParams(op, arch, w, int(k or 0), carry is not None)
    return assign


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_gen_module(args):
    p = ArchParams(args.op, args.arch, args.width, args.k, args.loa_carry)
    nl = gen_module(p, args.tag)
    write_netlist(nl, args.out)
    print(f"{args.op} {p.label()} width {args.width}: {nl.n_gates} gates, "
          f"{nl.n_nets} nets -> {args.out}")


def _cmd_gen_design(args):
    spec = design_spec(args.design, args.width, args.coeffs, args.twiddle)
    if args.list_slots:
        for name, op, w in spec.slots:
            print(f"{name} {op} {w}")
        return 0
    if not args.out:
        raise BadParams("--out is required unless --list-slots is given")
    nl = spec.build(_parse_assign(args.assign, spec.slots))
    write_netlist(nl, args.out)
    print(f"{spec.name}: {nl.n_gates} gates, {nl.n_nets} nets "
          f"-> {args.out}")


def _cmd_profile(args):
    check_free(args.out_dir)
    nl = read_netlist(args.netlist)
    stream = VectorStream(args.vectors, args.seed, args.mode, args.rho)
    if args.theta is not None:
        check_theta(args.theta)
    # every table is computed, and so checked, before the first is written;
    # one run feeds both profiles
    act, er = activity_and_error(nl, _reference_for(nl, args.ref), stream)
    tables = {
        "activity.csv": (["net", "name", "p1", "toggles"],
                         [(n, nl.net_names[n], float(act.p1[n]),
                           int(act.toggles[n])) for n in range(nl.n_nets)]),
        "power.csv": (["proxy", "n_vectors"],
                      [(power_proxy(nl, act), act.n_vectors)]),
    }
    if args.theta is not None:
        tables["rare.csv"] = (["net", "name", "stuck_value", "p1"],
                              [(n, nl.net_names[n], v, float(act.p1[n]))
                               for n, v in rare_nets(act, args.theta)])
    if er is not None:
        tables["error.csv"] = (["er", "med", "mred", "wce", "n_vectors"],
                               [(er.er, er.med, er.mred, er.wce,
                                 er.n_vectors)])
    out = Path(args.out_dir)
    write_tree(out, {name: csv_text(*t) for name, t in tables.items()})
    print(f"{args.vectors} {args.mode} vectors over {nl.n_nets} nets -> "
          f"{out}/{{{','.join(tables)}}}")


def _cmd_scoap(args):
    nl = read_netlist(args.netlist)
    rep = scoap(nl)
    write_files({args.out: csv_text(
        ["net", "name", "cc0", "cc1", "co"],
        [(n, nl.net_names[n], int(rep.cc0[n]), int(rep.cc1[n]),
          int(rep.co[n])) for n in range(nl.n_nets)])})
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
    write_files({args.out: csv_text(
        ["rank", "delay", "slack", "nets", "instances"], rows)})
    print(f"critical delay {csv_value(crit)}, {len(paths)} near-critical "
          f"paths -> {args.out}")


def _cmd_attack(args):
    check_ranges(args, (("stealth_vectors", args.stealth_vectors >= 0,
                         "non-negative"), ("margin", args.margin)))
    nl = read_netlist(args.netlist)
    stream = VectorStream(args.vectors, args.seed, args.mode, args.rho)
    model = None
    if args.clock is not None:
        model = calibrated_model(nl, args.clock, args.margin)
    cfg = AttackConfig(
        q=args.q, theta=args.theta, scoap_ceiling=args.scoap_ceiling,
        payload=args.payload, secret_word=args.secret, stream=stream,
        clock=args.clock, model=model)
    # only the report measures on a stream; the stealth check, and with
    # it the slack, comes before any output
    sv = (VectorStream(args.stealth_vectors, sub_seed(args.seed, 4), "uniform")
          if args.report and args.stealth_vectors > 0 else None)
    infected, ht, st = mount(nl, cfg, _reference_for(nl, args.ref), sv)
    texts = {args.out: serialize_netlist(infected)}
    if args.report:
        texts[args.report] = csv_text(
            ["host", "payload", "q", "taps", "witness", "error_delta",
             "power_delta", "trigger_rate", "min_slack"],
            [(ht.host_instances[0], ht.payload_kind, ht.q, *ht_text(ht),
              st.error_delta, st.power_delta_fraction, st.trigger_rate,
              st.min_slack)])
    write_files(texts)
    print(f"{ht.payload_kind} payload hosted at {ht.host_instances[0]}, "
          f"{len(ht.trigger_nets)} trigger taps -> {args.out}")
    return 0


def _cmd_detect(args):
    cdir = Path(args.candidates)
    if not cdir.is_dir():
        raise BadParams(f"{cdir}: not a directory")
    cands = {p.stem: read_netlist(p) for p in sorted(cdir.glob("*.nl"))}
    cfg = DetectConfig(
        clock=args.clock, margin=args.margin, scales=args.scales,
        n_paths=args.paths, window=args.window, theta=args.theta,
        vectors=args.vectors, rho=args.rho, stress_budget=args.stress,
        dev_tol=args.dev_tol, threshold=args.threshold, seed=args.seed)
    report = classify(cands, cfg)
    write_files({p: text for p, text in zip((args.out, args.debug),
                                            detection_csvs(report)) if p})
    for r in report.netlists:
        print(f"{r.netlist_id}: {r.verdict}")
    print(f"{len(report.netlists)} candidates -> {args.out}")


def _csv_rows(path, need):
    """(line number, row) of a CSV file whose rows fill every column of
    ``need``."""
    rd = csv.DictReader(io.StringIO(read_text(path)))
    if rd.fieldnames is None or not need <= set(rd.fieldnames):
        raise BadParams(f"{path}: expected columns {sorted(need)}")
    for row in rd:
        missing = sorted(c for c in need if row[c] is None)
        if missing:
            raise BadParams(f"{path}:{rd.line_num}: no {', '.join(missing)}")
        yield rd.line_num, row


def _read_report(path, threshold):
    by_net = {}
    for lno, row in _csv_rows(path, {"netlist", "instance", "suspicion"}):
        try:
            s = float(row["suspicion"])
        except ValueError:
            s = math.nan
        if not math.isfinite(s):
            raise BadParams(f"{path}:{lno}: suspicion must be a finite "
                            f"number, got {row['suspicion']!r}")
        by_net.setdefault(row["netlist"], []).append((row["instance"], s))
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
    for lno, row in _csv_rows(path, {"netlist", "infected", "host"}):
        nid = row["netlist"]
        if nid in truth:
            raise BadParams(f"{path}:{lno}: duplicate netlist {nid!r}")
        infected = _BOOLS.get(row["infected"].strip().lower())
        if infected is None:
            raise BadParams(f"{path}:{lno}: infected: {row['infected']!r} "
                            f"is not one of {list(_BOOLS)}")
        truth[nid] = (tuple(t for t in row["host"].split(";") if t)
                      if infected else ())
    return truth


def _cmd_score(args):
    DetectConfig(threshold=args.threshold)  # detect's range check
    rep = _read_report(args.report, args.threshold)
    truth = _read_truth(args.truth)
    m = score(rep, truth)
    write_files({args.out: csv_text(["accuracy", "fpr", "fnr"],
                                    [(m.accuracy, m.fpr, m.fnr)])})
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
    parser = _Parser(
        prog="axsec",
        description="approximate-circuit hardware Trojan workbench")
    subs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    reg = {}
    ops, ec, dc = tuple(EXACT_OPS), ExperimentConfig, DetectConfig

    sp = _sub(subs, reg, "gen-module",
              "write one arithmetic module as a netlist")
    sp.add_argument("--op", required=True, choices=ops)
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
    sp.add_argument("--width", type=int, default=ec.width)
    sp.add_argument("--coeffs", type=_ints, default=ec.coeffs)
    sp.add_argument("--twiddle", type=int, default=ec.twiddle)
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
    sp.add_argument("--mode", choices=STREAM_MODES, default="uniform")
    sp.add_argument("--rho", type=float, default=0.9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--theta", type=float, default=None,
                    help="also write rare.csv at this threshold")
    sp.add_argument("--ref", choices=("auto", *ops, "none"), default="auto",
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
    sp.add_argument("--payload", choices=PAYLOADS,
                    default=ec.payload)
    sp.add_argument("--secret", default=None,
                    help="input word a leak payload routes to the output")
    sp.add_argument("--q", type=int, default=ec.q)
    sp.add_argument("--theta", type=float, default=ec.theta)
    sp.add_argument("--scoap-ceiling", type=int, default=ec.scoap_ceiling)
    sp.add_argument("--vectors", type=int, default=ec.trace_vectors)
    sp.add_argument("--mode", choices=STREAM_MODES, default="correlated")
    sp.add_argument("--rho", type=float, default=ec.rho)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--clock", type=float, default=None,
                    help="reject insertions that would break this period")
    sp.add_argument("--margin", type=float, default=ec.margin)
    sp.add_argument("--stealth-vectors", type=int, default=ec.stealth_vectors,
                    help="vectors for the stealth check; 0 skips it")
    sp.add_argument("--ref", choices=("auto", *ops, "none"), default="auto")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="infected netlist")
    sp.add_argument("--report", metavar="FILE",
                    help="also write a one-row insertion report")
    sp.set_defaults(func=_cmd_attack)

    sp = _sub(subs, reg, "detect",
              "screen a directory of candidate netlists")
    sp.add_argument("--candidates", required=True, metavar="DIR",
                    help="directory of .nl files, one per candidate")
    sp.add_argument("--clock", type=float, default=dc.clock)
    sp.add_argument("--margin", type=float, default=dc.margin)
    sp.add_argument("--scales", type=_floats, default=dc.scales)
    sp.add_argument("--paths", type=int, default=dc.n_paths)
    sp.add_argument("--window", type=float, default=dc.window)
    sp.add_argument("--theta", type=float, default=dc.theta)
    sp.add_argument("--vectors", type=int, default=dc.vectors)
    sp.add_argument("--rho", type=float, default=dc.rho)
    sp.add_argument("--stress", type=int, default=dc.stress_budget)
    sp.add_argument("--dev-tol", type=float, default=dc.dev_tol)
    sp.add_argument("--threshold", type=float, default=dc.threshold)
    sp.add_argument("--seed", type=int, default=dc.seed)
    sp.add_argument("--out", required=True, metavar="FILE")
    sp.add_argument("--debug", metavar="FILE",
                    help="also write per-instance evidence")
    sp.set_defaults(func=_cmd_detect)

    sp = _sub(subs, reg, "score", "compare a detection report against truth")
    sp.add_argument("--report", required=True, metavar="FILE")
    sp.add_argument("--truth", required=True, metavar="FILE")
    sp.add_argument("--threshold", type=float, default=dc.threshold,
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
    try:
        if cfg_path and verb:
            _apply_config(registry[verb], _load_config(cfg_path), cfg_path)
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # verbs compute before they write
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
