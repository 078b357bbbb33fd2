"""Serialization round trips, parse diagnostics and whole-output writes."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axsec import textfmt
from axsec.designs import bfly_spec
from axsec.errors import (BadParams, CycleError, NetlistError, ParseError,
                          SemanticError)
from axsec.netlist import GateKind, Netlist, NetlistBuilder
from axsec.sim import VectorStream, simulate
from axsec.textfmt import (parse_netlist, read_netlist, serialize_netlist,
                           write_files, write_netlist, write_tree)

from tests.oracles import structurally_equal

CANON = """\
input a0
input a1
input b0
input b1
output s
output s_1
word a a0 a1
word b b0 b1
word s s s_1
gate 0 XOR s a0 b0
gate 1 MUX2 s_1 a1 b1 s
tag 0 u
tag 1 u
inst u approximate add loa2
"""


def test_write_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.nl", tmp_path / "b.nl"
    p1.write_text(CANON, encoding="utf-8")
    write_netlist(read_netlist(p1), p2)
    assert p2.read_bytes() == p1.read_bytes()


def test_read_write_read_preserves_structure(tmp_path):
    p = tmp_path / "a.nl"
    p.write_text(CANON, encoding="utf-8")
    nl = read_netlist(p)
    assert dict(nl.input_words()) == {"a": (0, 1), "b": (2, 3)}
    assert [w for w, _ in nl.output_words()] == ["s"]
    assert nl.instances["u"].op_type == "add"
    assert nl.instances["u"].arch_id == "loa2"
    ids = {n: i for i, n in enumerate(nl.net_names)}
    g = nl.driver(ids["s_1"])
    assert g.kind is GateKind.MUX2
    # MUX2 input order (select, a, b) survives the trip
    assert g.inputs == (ids["a1"], ids["b1"], ids["s"])


def test_words_are_lsb_first(tmp_path):
    p = tmp_path / "a.nl"
    p.write_text(CANON, encoding="utf-8")
    nl = read_netlist(p)
    (_, bits), = [w for w in nl.input_words() if w[0] == "a"]
    assert nl.net_names[bits[0]] == "a0"


@pytest.mark.parametrize("line", [
    "gate 0 FROB y a0",       # unknown gate kind
    "gate 0 AND y a0 nope",   # net only ever read, never driven
    "word w",                 # word without nets
    "frobnicate",             # unknown directive
    "tag 7 u",                # tag for a gate id that never appears
])
def test_bad_lines_raise_with_line_number(tmp_path, line):
    p = tmp_path / "bad.nl"
    p.write_text("input a0\noutput y\n" + line +
                 "\ninst u deterministic misc exact\n", encoding="utf-8")
    with pytest.raises((ParseError, SemanticError)) as exc:
        read_netlist(p)
    if isinstance(exc.value, ParseError):
        # whole-file consistency checks surface without a line number
        assert exc.value.line in (3, None)


def test_a_bad_instance_kind_is_refused_on_its_line():
    with pytest.raises(ParseError,
                       match=r"^line 3: bad instance kind 'odd'$") as exc:
        parse_netlist("input a\noutput a\ninst u odd misc exact\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("lines,message", [
    (["tag 0 u", "tag 0 v"], "duplicate tag for gate id 0"),
    (["tag 0 u", "tag 0 u"], "duplicate tag for gate id 0"),
    (["inst v approximate add loa", "inst v deterministic misc exact"],
     "duplicate inst for tag 'v'"),
], ids=["tag", "same-tag", "inst"])
def test_a_second_tag_or_inst_line_is_refused_on_its_line(lines, message):
    text = "input a\noutput y\ngate 0 NOT y a\n" + "\n".join(lines)
    parse_netlist(text.rsplit("\n", 1)[0])  # the first line alone is fine
    with pytest.raises(ParseError, match=f"^line 5: {message}$") as exc:
        parse_netlist(text)
    assert exc.value.line == 5


def test_blank_and_comment_lines_parse_as_the_plain_text():
    noisy = "\n".join(f"\n  # note {i}\n{line}  # trailing\n\t"
                      for i, line in enumerate(CANON.splitlines()))
    assert serialize_netlist(parse_netlist(noisy)) == CANON


@pytest.mark.parametrize("body,kind,attr,value", [
    ("gate 0 FOO y a\n", ParseError, "line", 3),
    ("gate 0 AND y a z\ngate 1 BUF z y\n", CycleError, "cycle", (1, 2)),
], ids=["parse", "cycle"])
def test_read_netlist_names_the_file(tmp_path, body, kind, attr, value):
    p = tmp_path / "bad.nl"
    p.write_text("input a\noutput y\n" + body, encoding="utf-8")
    with pytest.raises(kind) as exc:
        read_netlist(p)
    assert str(exc.value).startswith(f"{p}: "), exc.value
    assert getattr(exc.value, attr) == value


def test_duplicate_driver_rejected(tmp_path):
    p = tmp_path / "dup.nl"
    p.write_text("input a\noutput y\ngate 0 NOT y a\ngate 1 BUF y a\n"
                 "tag 0 u\ntag 1 u\ninst u deterministic misc exact\n",
                 encoding="utf-8")
    with pytest.raises((ParseError, SemanticError)):
        read_netlist(p)


@st.composite
def _netlists(draw):
    b = NetlistBuilder()
    nets = [b.pi(f"x{i}") for i in range(draw(st.integers(2, 4)))]
    b.word("x", list(nets))
    b.instance("u", "deterministic", "misc", "exact")
    b.instance("v", "approximate", "mul", "trunc1")
    two_in = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR,
              GateKind.XOR, GateKind.XNOR]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(two_in + [GateKind.NOT, GateKind.BUF,
                                              GateKind.MUX2, GateKind.CONST0,
                                              GateKind.CONST1]))
        arity = {GateKind.NOT: 1, GateKind.BUF: 1, GateKind.MUX2: 3,
                 GateKind.CONST0: 0, GateKind.CONST1: 0}.get(kind, 2)
        ins = tuple(draw(st.sampled_from(nets)) for _ in range(arity))
        nets.append(b.gate(kind, ins, tag=draw(st.sampled_from("uv"))))
    b.po(nets[-1])
    return b.build()


@settings(max_examples=40, deadline=None)
@given(_netlists())
def test_roundtrip_is_a_fixpoint(tmp_path_factory, nl):
    d = tmp_path_factory.mktemp("rt")
    write_netlist(nl, d / "a.nl")
    again = read_netlist(d / "a.nl")
    assert structurally_equal(nl, again)
    write_netlist(again, d / "b.nl")
    assert (d / "a.nl").read_bytes() == (d / "b.nl").read_bytes()


# names the text cannot hold: empty, or with a space, a tab or a "#",
# which starts a comment there
_ODD = st.sampled_from(["", " ", "a b", "a\tb", "#", "#a", "a#", "a#b"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_netlist_the_builder_accepts_round_trips(data):
    draw = data.draw

    def name(plain):  # one time in six an odd one
        return plain if draw(st.sampled_from(range(6))) else draw(_ODD)

    b = NetlistBuilder()
    nets = [b.pi(name(f"x{i}")) for i in range(draw(st.integers(1, 3)))]
    tags = [name("u"), name("v")]
    for tag in tags:
        b.instance(tag, "deterministic", "misc", "exact")
    for _ in range(draw(st.integers(1, 4))):
        ins = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=3))
        nets.append(b.gate(GateKind.XOR, ins, tag=draw(st.sampled_from(tags)),
                           stem=name("n")))
    for w in "wz"[:draw(st.integers(0, 2))]:
        b.word(name(w), draw(st.lists(st.sampled_from(nets), min_size=1,
                                      max_size=3, unique=True)))
    b.po(nets[-1])
    try:
        nl = b.build()
    except NetlistError:
        return
    assert structurally_equal(nl, parse_netlist(serialize_netlist(nl)))


_BFLY = serialize_netlist(bfly_spec().build(None)).splitlines()
_TOKENS = sorted({t for line in _BFLY for t in line.split()}
                 | {"-1", "x", "#", "gate", "tag", "inst", "word", "AND"})


@st.composite
def _mutated_bfly(draw):
    """The default butterfly's text after 1-3 random line mutations: a
    line deleted, duplicated or swapped, or one of its tokens dropped,
    inserted or replaced."""
    lines = list(_BFLY)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "drop",
                                   "insert", "replace"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split()
            k = draw(st.integers(0, len(toks)))
            tok = draw(st.sampled_from(_TOKENS))
            if op == "insert" or not toks:
                toks.insert(k, tok)
            elif op == "drop":
                del toks[k % len(toks)]
            else:
                toks[k % len(toks)] = tok
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_mutated_bfly())
@example("\n".join(_BFLY).replace("word b b[0] ", "word b[0] ") + "\n")
def test_mutated_text_parses_or_raises_a_netlist_error(text):
    # the example: the declared word b[0] holds b[1..7] and the ungrouped
    # input b[0] became a second word b[0], which the run could not fill
    try:
        nl = parse_netlist(text)
    except NetlistError:
        return
    assert isinstance(nl, Netlist)
    for nets, words in ((nl.inputs, nl.input_words()),
                        (nl.outputs, nl.output_words())):
        names = [w for w, _ in words]
        assert len(set(names)) == len(names)
        assert {b for _, bits in words for b in bits} == set(nets)
    assert simulate(nl, VectorStream(64, 0)).n_vectors == 64


# -- every output is put in place whole ------------------------------------

TREE = {"a.csv": "x,y\n1,2\n", "sub/b.nl": CANON, "sub/deep/c.txt": "c\n"}


def _tree(d):
    """{relative path: bytes} of every file under ``d``."""
    return {p.relative_to(d).as_posix(): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


def _fail_on_write(monkeypatch, nth, exc):
    """Make the ``nth`` file textfmt opens for writing raise ``exc`` once
    half its text is on disk."""
    opened = []

    def opening(path, mode="r", **kw):
        f = open(path, mode, **kw)
        if "w" in mode:
            opened.append(path)
            if len(opened) == nth:
                write = f.write

                def half(text):
                    write(text[:len(text) // 2])
                    f.flush()
                    raise exc
                f.write = half
        return f

    monkeypatch.setattr(textfmt, "open", opening, raising=False)
    return opened


@pytest.mark.parametrize("where", ["new", "empty", "missing-parent"])
def test_a_tree_is_put_in_place_whole(tmp_path, where):
    out = tmp_path / ("a/b/out" if where == "missing-parent" else "out")
    if where == "empty":
        out.mkdir()
    write_tree(out, TREE)
    assert _tree(out) == {k: v.encode() for k, v in TREE.items()}
    assert [p.name for p in tmp_path.iterdir()] == \
        ["a" if where == "missing-parent" else "out"]


def test_a_tree_fills_the_working_directory(tmp_path, monkeypatch):
    # a rename onto the working directory would leave the process in a
    # deleted directory
    wd = tmp_path / "wd"
    wd.mkdir()
    monkeypatch.chdir(wd)
    write_tree(".", TREE)
    assert _tree(wd) == {k: v.encode() for k, v in TREE.items()}
    assert os.getcwd() == str(wd)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wd"]


@pytest.mark.parametrize("held", ["file", "directory", "out-is-a-file"])
def test_a_tree_refuses_an_out_that_holds_anything(tmp_path, held):
    out = tmp_path / "out"
    if held == "out-is-a-file":
        out.write_text("old\n")
    else:
        out.mkdir()
        if held == "directory":
            (out / "old").mkdir()
        else:
            (out / "old.csv").write_text("old\n")
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(BadParams,
                       match=f"{out}: exists and is not an empty directory"):
        write_tree(out, TREE)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"),
                                 KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
@pytest.mark.parametrize("empty", [False, True], ids=["new", "empty"])
def test_a_tree_write_that_fails_leaves_nothing(tmp_path, monkeypatch, exc,
                                                empty):
    out = tmp_path / "out"
    if empty:
        out.mkdir()
    opened = _fail_on_write(monkeypatch, 3, exc)
    with pytest.raises(type(exc)) as info:
        write_tree(out, TREE)
    assert len(opened) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"] * empty
    assert not empty or not any(out.iterdir())
    if isinstance(exc, OSError):  # named by the user's path, not ours
        assert str(info.value) == f"[Errno 28] No space left on device: " \
                                  f"{str(out)!r}"


@pytest.mark.parametrize("old", [None, "old text\n"], ids=["new", "old"])
def test_a_file_write_that_fails_leaves_the_old_file_or_none(
        tmp_path, monkeypatch, old):
    path = tmp_path / "f.nl"
    if old is not None:
        path.write_text(old)
    _fail_on_write(monkeypatch, 1, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        write_files({path: CANON})
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["f.nl"] * (old is not None)
    assert old is None or path.read_text() == old


@pytest.mark.parametrize("old", [False, True], ids=["new", "old"])
def test_files_written_together_are_renamed_only_once_all_are_written(
        tmp_path, monkeypatch, old):
    paths = [tmp_path / "a.nl", tmp_path / "b.csv"]
    if old:
        for p in paths:
            p.write_text("old\n")
    _fail_on_write(monkeypatch, 2, OSError(28, "No space left on device"))
    with pytest.raises(OSError, match=f"{str(paths[1])!r}$"):
        write_files({p: CANON for p in paths})
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["a.nl", "b.csv"] * old
    assert all(p.read_text() == "old\n" for p in tmp_path.iterdir())
    monkeypatch.undo()
    # one file under two spellings: the last text wins, no temporary stays
    monkeypatch.chdir(tmp_path)
    write_files({paths[0]: "x\n", "b.csv": "y\n", "./b.csv": "z\n"})
    assert _tree(tmp_path) == {"a.nl": b"x\n", "b.csv": b"z\n"}


def test_a_file_write_replaces_the_old_file(tmp_path):
    path = tmp_path / "f.nl"
    path.write_text("a longer old text than the new one\n")
    write_files({path: "new\n"})
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.nl"]


@pytest.mark.parametrize("target,message", [
    ("nodir/x.csv", "[Errno 2] No such file or directory: 'nodir/x.csv'"),
    ("adir", "[Errno 21] Is a directory: 'adir'")])
def test_a_failed_file_write_names_the_users_path(tmp_path, monkeypatch,
                                                  target, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    with pytest.raises(OSError) as info:
        write_files({target: "x\n"})
    assert str(info.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


def test_outputs_get_the_modes_of_a_plain_open_and_mkdir(tmp_path):
    # no mkstemp or mkdtemp, whose 0600 and 0700 would stick to the output
    umask = os.umask(0)
    os.umask(umask)
    write_files({tmp_path / "f.csv": "x\n"})
    write_tree(tmp_path / "out", TREE)
    for p in (tmp_path / "f.csv", tmp_path / "out/a.csv",
              tmp_path / "out/sub/b.nl"):
        assert p.stat().st_mode & 0o777 == 0o666 & ~umask, p
    for p in (tmp_path / "out", tmp_path / "out/sub"):
        assert p.stat().st_mode & 0o777 == 0o777 & ~umask, p
