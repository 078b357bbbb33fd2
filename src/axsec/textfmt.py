"""Plain-text netlist format.

One whitespace-separated statement per line, ``#`` starts a comment::

    input  <name>
    output <name>
    gate   <id> <KIND> <out_net> <in_net>...
    word   <name> <bit0> <bit1>...        # LSB first
    tag    <gate_id> <instance_tag>
    inst   <tag> <approximate|deterministic> <op_type> <arch_id>

Net ids are assigned in order of first appearance, so serializing with
:func:`serialize_netlist` (inputs, outputs, words, gates by id, tags, insts)
and re-parsing reproduces the netlist exactly; parsing an arbitrary
statement order yields a structurally equal netlist.  Gates without a
``tag`` line default to tag ``u``; missing ``inst`` entries are filled in
as deterministic glue so that minimal hand-written files stay valid.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from .errors import BadParams, NetlistError, ParseError
from .netlist import (KIND_LABELS, Gate, GateKind, Instance, Netlist,
                      NetlistBuilder)


def parse_netlist(text: str) -> Netlist:
    b = NetlistBuilder()
    gates = {}          # id -> (kind, out, ins), in order of appearance
    tags = {}           # gate id -> tag
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kw, args = toks[0], toks[1:]
        if kw == "input":
            if len(args) != 1:
                raise ParseError("input takes one name", lineno)
            b.pi(args[0])
        elif kw == "output":
            if len(args) != 1:
                raise ParseError("output takes one name", lineno)
            b.po(b.net(args[0]))
        elif kw == "gate":
            if len(args) < 3:
                raise ParseError("gate needs id, kind and output", lineno)
            gid = _int(args[0], lineno)
            try:
                kind = GateKind[args[1].upper()]
            except KeyError:
                raise ParseError(f"unknown gate kind {args[1]!r}", lineno) from None
            if gid in gates:
                raise ParseError(f"duplicate gate id {gid}", lineno)
            out = b.net(args[2])
            ins = tuple(b.net(a) for a in args[3:])
            gates[gid] = (kind, out, ins)
        elif kw == "word":
            if len(args) < 2:
                raise ParseError("word needs a name and at least one bit", lineno)
            b.word(args[0], [b.net(a) for a in args[1:]])
        elif kw == "tag":
            if len(args) != 2:
                raise ParseError("tag takes gate id and instance tag", lineno)
            gid = _int(args[0], lineno)
            if gid in tags:
                raise ParseError(f"duplicate tag for gate id {gid}", lineno)
            tags[gid] = args[1]
        elif kw == "inst":
            if len(args) != 4:
                raise ParseError("inst takes tag, kind, op_type, arch_id", lineno)
            if args[1] not in KIND_LABELS:
                raise ParseError(f"bad instance kind {args[1]!r}", lineno)
            if args[0] in b.instances:
                raise ParseError(f"duplicate inst for tag {args[0]!r}", lineno)
            b.instances[args[0]] = Instance(args[1], args[2], args[3])
        else:
            raise ParseError(f"unknown statement {kw!r}", lineno)
    for gid in tags:
        if gid not in gates:
            raise ParseError(f"tag for unknown gate id {gid}")
    for gid, (kind, out, ins) in gates.items():
        tag = tags.get(gid, "u")
        b.gates.append(Gate(gid, kind, ins, out, tag))
        if tag not in b.instances:
            b.instances[tag] = Instance("deterministic", "-", "-")
    return b.build()


def _int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", lineno) from None


def serialize_netlist(nl: Netlist) -> str:
    """Deterministic canonical text for a netlist (round-trip identity),
    built once per netlist (:meth:`Netlist.memo`)."""
    return nl.memo(_serialize)


def _serialize(nl: Netlist) -> str:
    name = nl.net_names.__getitem__
    lines = [f"input {name(n)}" for n in nl.inputs]
    lines += [f"output {name(n)}" for n in nl.outputs]
    for w, bits in nl.words.items():
        lines.append(f"word {w} " + " ".join(name(b) for b in bits))
    base, new = nl.base, nl.gates
    gates, tags = [], []
    if base is not None and base.gates:  # the base's own lines, copied
        text = "\n" + serialize_netlist(base)
        at = [text.find(f"\n{kw} ") for kw in ("gate", "tag", "inst")]
        gates, tags = [text[at[0] + 1:at[1]]], [text[at[1] + 1:at[2]]]
        new = new[len(base.gates):]
    gates += [" ".join([f"gate {g.id} {g.kind.name}",
                        *map(name, (g.output, *g.inputs))]) for g in new]
    lines += gates + tags + [f"tag {g.id} {g.tag}" for g in new]
    for tag in sorted(nl.instances):
        e = nl.instances[tag]
        lines.append(f"inst {tag} {e.kind_label} {e.op_type} {e.arch_id}")
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """A file's UTF-8 text; bytes that do not decode raise a
    :class:`ParseError` that names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: "
                         f"{exc.reason})") from None


def read_netlist(path) -> Netlist:
    """The netlist in a file; any :class:`NetlistError` names the file."""
    text = read_text(path)
    try:
        return parse_netlist(text)
    except NetlistError as exc:
        exc.args = (f"{path}: {exc}",)  # keeps the type and its attributes
        raise


def write_netlist(nl: Netlist, path):
    write_files({path: serialize_netlist(nl)})


def write_files(texts: dict):
    """Put each ``{path: text}`` in place as a whole file: all are written
    under temporary sibling names before the first is renamed onto its
    path, so a failed write keeps every old file, and a reader or a kill
    sees each file old or new, never a part."""
    _put({path: {"": text} for path, text in texts.items()})


def check_free(out):
    """Refuse an output directory that exists and is not empty."""
    if os.path.lexists(out) and (not os.path.isdir(out) or os.listdir(out)):
        raise BadParams(f"{out}: exists and is not an empty directory")


def write_tree(out, files: dict):
    """Put ``files`` ({relative path: text}) in place as the new or empty
    directory ``out`` whole, as :func:`write_files` puts a file."""
    check_free(out)
    _put({out: files})


def _put(outputs):
    """Write ``{path: {path under it, "" itself: text}}``, then rename."""
    tmps = [Path(p).parent / f".{Path(p).name}.{os.getpid()}.{i}.tmp"
            for i, p in enumerate(outputs)]
    try:
        for tmp, (path, files) in zip(tmps, outputs.items()):
            for rel, text in files.items():
                if rel:
                    (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
                with open(tmp / rel, "w", encoding="utf-8", newline="") as f:
                    f.write(text)
        for tmp, path in zip(tmps, outputs):
            # an existing directory is filled in place: a rename onto it
            # would leave a process working in it in a deleted directory
            if tmp.is_dir() and os.path.isdir(path):
                for entry in tmp.iterdir():
                    os.replace(entry, Path(path, entry.name))
                tmp.rmdir()
            else:
                os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)  # a tree
            tmp.unlink(missing_ok=True)             # or a file
        if isinstance(exc, OSError) and exc.errno:  # name the user's path
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise
