import argparse
import hashlib
import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroups import betti, cli
from semigroups.cli import build_parser, main

PANEL = Path(__file__).resolve().parents[1] / "bench" / "analyze_panel.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text_golden(capsys):
    code, out, _ = run(capsys, "analyze", "--gens", "24,26,36,39")
    assert code == 0
    assert "betti = {72, 78, 156}" in out
    assert "156: no isolated factorizations" in out


def test_analyze_affine_catoms(capsys):
    code, out, _ = run(capsys, "analyze", "--gens", "(1,0);(0,2);(0,3)")
    assert code == 0
    assert "C(M) = {2, 3}" in out


def test_analyze_json_betti(capsys):
    code, out, _ = run(capsys, "analyze", "--gens", "2,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["betti"]["betti"] == [6]


def test_factorize(capsys):
    code, out, _ = run(capsys, "factorize", "--gens", "16,20,30,45",
                       "--element", "80")
    assert code == 0
    assert "(0, 1, 2, 0)" in out and "(0, 4, 0, 0)" in out \
        and "(5, 0, 0, 0)" in out
    assert "denumerant = 3" in out


def test_search(capsys):
    code, out, _ = run(capsys, "search", "min-frobenius-betti-divisible",
                       "--edim", "2", "--max-frobenius", "10")
    assert code == 0
    assert out.strip() == "1 : <2,3>"


def test_construct_round_trip(capsys):
    code, out, _ = run(capsys, "construct", "--a", "7,5,2,3",
                       "--f", "1,1,1,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["gens"]) == [30, 42, 105, 140]
    code, out, _ = run(capsys, "construct", "--recover", "--gens",
                       "30,42,105,140", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [7, 5, 2, 3] and data["f"] == [1, 1, 1, 2]


def test_glue(capsys):
    code, out, _ = run(capsys, "glue", "--gens1", "3,5", "--gens2", "1",
                       "--a1", "7", "--a2", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["gens"]) == [8, 21, 35]
    assert data["predicted_betti"] == data["actual_betti"]


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "6")
    assert code == 0
    assert "0 violations" in out


def test_verify_corpus_file(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("3,4,5\n16,20,30,45\n")
    code, out, _ = run(capsys, "verify", "--corpus", str(p))
    assert code == 0


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--gens", "abc")
    assert code == 2
    assert "error" in err


def test_exit_code_parse_error_on_missing_gens_and_negative_bounds(capsys):
    for argv in (["construct", "--recover"],
                 ["construct", "--a", "2,3", "--f", "1,1", "--recover"],
                 ["factorize", "--gens", "3,5", "--element", "2",
                  "--fiber-cap", "-1"],
                 ["betti", "--gens", "3,5", "--degree-bound", "-1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error: " in err, argv


def test_exit_code_infeasible(capsys):
    # e >= 2 is required for the parametrized family
    code, _, err = run(capsys, "construct", "--a", "4,6", "--f", "1,1")
    assert code == 3
    assert "infeasible" in err


# A flag that a subcommand would ignore is an argparse error (exit 2).
_CONSTRUCT = ["construct", "--a", "7,5,2,3", "--f", "1,1,1,2"]
_REJECTED_FLAGS = [
    (_CONSTRUCT, "--degree-bound"),
    (_CONSTRUCT, "--threads"),
    (_CONSTRUCT, "--fiber-cap"),
    (["analyze", "--gens", "3,5"], "--threads"),
    (["factorize", "--gens", "3,5", "--element", "8"], "--threads"),
    (["betti", "--gens", "3,5"], "--threads"),
    (["classify", "--gens", "3,5"], "--threads"),
    (["search", "min-frobenius-betti-divisible", "--edim", "2",
      "--max-frobenius", "10"], "--threads"),
    (["factorize", "--gens", "3,5", "--element", "8"], "--degree-bound"),
    (["classify", "--gens", "3,5"], "--degree-bound"),
    (["classify", "--gens", "3,5"], "--fiber-cap"),
]


def test_subcommands_reject_unused_flags(capsys):
    for argv, flag in _REJECTED_FLAGS:
        assert run(capsys, *argv)[0] == 0, argv
        code, _, err = run(capsys, *argv, flag, "4")
        assert code == 2 and "unrecognized arguments" in err, (argv, flag)


class _ReadRecorder:
    """Wraps a parsed namespace and records every option a handler reads."""

    def __init__(self, args):
        self._args = args
        self.reads = set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self._args, name)


# Valid argvs per subcommand; together they reach every branch that reads
# an option
_HANDLER_ARGVS = {
    "analyze": [["--gens", "3,5"]],
    "factorize": [["--gens", "3,5", "--element", "8"]],
    "betti": [["--gens", "3,5"]],
    "classify": [["--gens", "3,5"]],
    "construct": [_CONSTRUCT[1:], ["--recover", "--gens", "2,3"]],
    "glue": [["--gens1", "2,3", "--gens2", "2,5", "--a1", "7", "--a2",
              "5"]],
    "search": [["min-frobenius-betti-divisible", "--edim", "2",
                "--max-frobenius", "10"]],
    "verify": [["--genus", "3"]],
}
# Options accepted although no handler reads them, with the reason
_UNREAD_OPTIONS = {
    ("verify", "threads"):
        "acceptance criterion 10 runs `verify --threads 8`",
}


def test_every_declared_option_is_read(capsys):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_HANDLER_ARGVS)
    for name, sub in subparsers.choices.items():
        assert callable(getattr(cli, "cmd_" + name, None)), name
        reads = set()
        for argv in _HANDLER_ARGVS[name]:
            recorder = _ReadRecorder(parser.parse_args([name, *argv]))
            assert getattr(cli, "cmd_" + name)(recorder) == 0, (name, argv)
            reads |= recorder.reads
        capsys.readouterr()
        declared = {a.dest for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)}
        unread = {d for d in declared - reads
                  if (name, d) not in _UNREAD_OPTIONS}
        assert not unread, (name, unread)


def _fresh_process(argv):
    return subprocess.run([sys.executable, "-m", "semigroups.cli", *argv],
                          capture_output=True, timeout=60)


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    assert build_parser() is build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "classify", "--gens", "3,5")[0] == 0
    assert run(capsys, "betti", "--gens", "3,5", "--json")[0] == 0
    assert built == []
    build_parser.__wrapped__()  # an uncached build: the top parser and 8
    assert len(built) == 9


def test_a_parse_error_leaves_the_shared_parser_as_fresh(capsys):
    # errors inside a subcommand's arguments, then a report that must
    # match the one from a process whose parser never saw them
    for argv in (["analyze", "--gens", "3,5", "--fiber-cap", "-1"],
                 ["analyze", "--degree-bound", "4"]):
        assert run(capsys, *argv)[0] == 2
    argv = ["analyze", "--gens", "24,26,36,39", "--json"]
    code, out, _ = run(capsys, *argv)
    fresh = _fresh_process(argv)
    assert code == fresh.returncode == 0
    assert out.encode() == fresh.stdout


def test_help_from_the_shared_parser_matches_a_fresh_process(monkeypatch,
                                                             capsys):
    # the help width follows COLUMNS in both processes
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "classify", "--gens", "3,5")[0] == 0
    assert run(capsys, "verify", "--genus", "x")[0] == 2
    for argv in ([], *([name] for name in _HANDLER_ARGVS)):
        code, out, _ = run(capsys, *argv, "--help")
        fresh = _fresh_process([*argv, "--help"])
        assert code == fresh.returncode == 0, argv
        assert out.encode() == fresh.stdout, argv


def test_json_big_integers_as_strings():
    big = (1 << 53) + 1
    assert json.loads(cli._json({"x": big, "y": 7})) == {"x": str(big),
                                                          "y": 7}
    assert json.loads(cli._json([(1 << 53), -big])) == [1 << 53, str(-big)]


def _jsonable(obj):
    """The reference: what the CLI handed to json.dumps before it wrote
    its JSON itself."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > (1 << 53) else obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in seq]
    return str(obj)


_INTS = st.one_of(st.integers(), st.builds(
    lambda sign, d: sign * ((1 << 53) + d), st.sampled_from([1, -1]),
    st.integers(-2, 2)))
# ASCII, control characters and non-ASCII letters such as é
_TEXT = st.text(st.characters(max_codepoint=0x2FFF))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=9),  # printed as its str()
    st.sets(_INTS), st.frozensets(st.tuples(_INTS, _INTS)),
    st.sets(_TEXT))
_KEYS = st.one_of(_TEXT, _INTS, st.tuples(_INTS, _INTS), st.booleans(),
                  st.none())


def _containers(children):
    return st.one_of(st.lists(children), st.lists(children).map(tuple),
                     st.dictionaries(_KEYS, children))


# rows for the int-row path and its guard: 1-element and empty rows,
# empty outer lists, bools, the edges of +-2**53 and strings among rows
_EDGE = st.sampled_from([1 << 53, -(1 << 53), (1 << 53) + 1,
                         -(1 << 53) - 1, True, False, 0, -1])
_ROW_INTS = st.one_of(st.integers(-10 ** 6, 10 ** 6), _EDGE)
_ROW = st.one_of(st.lists(_ROW_INTS, max_size=5),
                 st.lists(_ROW_INTS, max_size=5).map(tuple))
_ROWS = st.one_of(st.lists(_ROW, max_size=6),
                  st.lists(_ROW, max_size=6).map(tuple),
                  st.lists(st.one_of(_ROW, _TEXT), max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.recursive(_LEAVES, _containers, max_leaves=30), _ROWS,
                 st.dictionaries(_KEYS, _ROWS, max_size=3),
                 st.lists(_ROWS, max_size=3)))
def test_json_matches_json_dumps(obj):
    want = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    assert cli._json(obj) == want


def test_json_matches_json_dumps_by_hand():
    big = (1 << 53) + 1
    obj = {big: [-big, big - 1], (1, 2): frozenset({(3, 4), (1, 5)}),
           "k": ("é\n\"", None, True, False, 0.5), 1: {}, "1": [],
           "e": set(), "t": (), "f": Fraction(1, 3)}
    want = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    assert cli._json(obj) == want
    # both sides of the int-row guard, at the top and nested
    for rows in ([[1]], [(1,)], ((1,),), ([-2, 3], (4,)), [[1, 2], []],
                 [[]], [[True, 1]], [(0, False)], [[1 << 53, -(1 << 53)]],
                 [[big]], [(-big, 0)], [[1, 2], "x"], ["x", (1,)],
                 [[1], [2.0]], [[1], {3}], [[1], [[2]]],
                 # widths 10-12, as genus-10 members have e up to 11
                 [list(range(-5, 5))], [tuple(range(11))] * 2,
                 [list(range(12)), list(range(12, 0, -1))],
                 # three widths mixed in one list
                 [[1, 2], (3,), list(range(11)), [4, 5], (-6,)]):
        for obj in (rows, {"k": rows}):
            want = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
            assert cli._json(obj) == want, obj


def test_analyze_json_matches_the_panel_digests(capsys):
    with open(PANEL, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    assert digests
    for gens, want in digests.items():
        code, out, _ = run(capsys, "analyze", "--gens", gens, "--json")
        assert code == 0, gens
        assert hashlib.sha256(out.encode()).hexdigest() == want, gens


def test_verify_json_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "8", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "85acd510d4fa37101ed7a40da68242dfdbca9e78daf1d777d475501dbdc9abc9"


# Affine semigroups with no free arrangement, their explicit degree bound
# and the SHA-256 of their `analyze --json` output
_BOUNDED = [
    ("(1,0,1);(0,1,0);(1,1,0);(0,0,1)", "8",
     "290bbb01b19a72a75eee5b5574b45661621d55e653a2605c7181852e8a912879"),
    ("(3,0);(0,3);(1,2);(2,1)", "30",
     "6cde144efa9a776696c0703376b68e5761b2611e92ca00fa8e15cb33e270d604"),
]


@pytest.mark.parametrize("gens, bound, digest", _BOUNDED,
                         ids=[gens for gens, _, _ in _BOUNDED])
def test_analyze_sweeps_an_explicit_degree_bound_once(monkeypatch, capsys,
                                                      gens, bound, digest):
    sweeps = []
    real = betti._sweep

    def counted(*args):
        sweeps.append(args)
        return real(*args)

    monkeypatch.setattr(betti, "_sweep", counted)
    code, out, _ = run(capsys, "analyze", "--gens", gens, "--degree-bound",
                       bound, "--json")
    assert code == 0
    assert len(sweeps) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_byte_stable(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--genus", "5", "--json",
                           "--threads", "8")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# Malformed, wrong-shape and huge input, with the exit code each must give:
# 0 success, 2 parse error, 3 infeasible.  Exit code 4 (internal error) is
# never acceptable.  Each case runs in its own process under a time and an
# address-space limit, so a hang or a memory blow-up fails the case instead
# of the suite.
_AFFINE = "(2,0);(0,2);(1,1)"
# the e = 8 Betti-divisible member, the last line of its corpus file
_E8 = (Path(__file__).parent / "corpora" / "betti_divisible_e8.txt") \
    .read_text().split()[-1]
_FUZZ = [
    (["factorize", "--gens", _AFFINE, "--element", "(1,1,5)"], 2),
    (["factorize", "--gens", _AFFINE, "--element", "(1)"], 2),
    (["factorize", "--gens", _AFFINE, "--element", "5"], 2),
    (["factorize", "--gens", _AFFINE, "--element", "(1,x)"], 2),
    (["factorize", "--gens", _AFFINE, "--element", "(1,1)"], 0),
    (["factorize", "--gens", _AFFINE, "--element", "(-1,3)"], 0),
    (["factorize", "--gens", "3,5", "--element", "(5)"], 2),
    (["factorize", "--gens", "3,5", "--element", "(3,5)"], 2),
    (["factorize", "--gens", "3,5", "--element", "x"], 2),
    (["factorize", "--gens", "3,5", "--element", ""], 2),
    (["factorize", "--gens", "3,5", "--element", "7"], 0),
    (["factorize", "--gens", "3,5", "--element", "-3"], 0),
    (["factorize", "--gens", "3,5", "--element", "1" + "0" * 12,
      "--fiber-cap", "10"], 3),
    (["factorize", "--gens", "3,5", "--element", "2", "--fiber-cap", "-1"],
     2),
    (["factorize", "--gens", "3,5", "--element", "2", "--fiber-cap", "0"],
     0),
    (["factorize", "--gens", "3,5", "--element", "8", "--fiber-cap", "0"],
     3),
    (["betti", "--gens", "3,5", "--degree-bound", "-1"], 2),
    (["analyze", "--gens", "3,5", "--fiber-cap", "-1"], 2),
    (["construct", "--recover"], 2),
    (["construct", "--a", "2,3", "--f", "1,1", "--recover"], 2),
    (["analyze", "--gens", "(1,0);(0,1,1)"], 2),
    (["analyze", "--gens", "3,(1,2)"], 2),
    (["analyze", "--gens", "(0,0);(1,2)"], 2),
    (["search", "min-frobenius-betti-divisible", "--edim", "2",
      "--distinct-betti", "40", "--max-frobenius", "1000000"], 3),
    (["search", "min-frobenius-betti-divisible", "--edim", "10",
      "--max-frobenius", "1000000000000"], 3),
    (["search", "min-frobenius-betti-divisible", "--edim", "3",
      "--max-frobenius", "50", "--distinct-betti", "0"], 2),
    (["search", "min-frobenius-betti-divisible", "--edim", "3",
      "--max-frobenius", "50", "--distinct-betti", "-1"], 2),
    (["verify", "--genus", "3", "--threads", "-4"], 2),
    (["verify", "--genus", "3", "--threads", "0"], 2),
    (["verify", "--genus", "26"], 3),
    (["verify", "--genus", "-1"], 2),
    (["verify", "--genus", "x"], 2),
    (["verify"], 2),
    (["verify", "--corpus", "no-such-corpus.txt"], 2),
    (["verify", "--corpus", "."], 2),
    # work, not shape: a C(M) box of 3 * 2^25 members, counted, not built
    (["verify", "--corpus", "corpora/ordinary_genus_25.txt"], 0),
    # work, not shape: a scan bound of 63,479,837 is refused before the
    # scan, and no Apery table for the largest generator is built
    (["verify", "--corpus", "corpora/betti_divisible_e8.txt"], 3),
    # work, not shape: the Betti planes reach F + n + max(gens) = 59,140,502
    # in windows, and only the one Betti element, 9,699,690, gets a fiber
    (["betti", "--gens", _E8], 0),
    # work, not shape: the affine Betti planes of (2 * 3001)^3 bits each
    # are refused before any is built
    (["betti", "--gens", "(1,0,1);(0,1,0);(1,1,0);(0,0,1)",
      "--degree-bound", "3000"], 3),
    # work, not shape: the affine I_s and element planes of (2 * 3001)^3
    # bits each are refused before any is built
    (["analyze", "--gens", "(2,0,0);(0,2,0);(0,0,2);(1,1,1)",
      "--degree-bound", "3000"], 3),
    # work, not shape: a box with some mu_i = 0 is never an Apery set, so
    # the is_rectangular search on <26, ..., 51> tries no factor of 1
    (["classify", "--gens", ",".join(map(str, range(26, 52)))], 0),
    (["analyze", "--gens", ",".join(map(str, range(26, 52)))], 0),
]


def _subclasses(cls):
    return [cls] + [d for c in cls.__subclasses__() for d in _subclasses(c)]


def test_exit_code_follows_the_error_hierarchy(monkeypatch, capsys):
    # parse errors exit 2, every other package error 3, anything else 4
    from semigroups.errors import (FiberCapExceededError,
                                   InvalidGeneratorsError, SemigroupError)
    cases = [(RuntimeError("boom"), 4)]
    for cls in _subclasses(SemigroupError):
        exc = cls(7, 3) if issubclass(cls, FiberCapExceededError) \
            else cls("boom")
        code = 2 if issubclass(cls, InvalidGeneratorsError) else 3
        cases.append((exc, code))
    assert len(cases) >= 13  # the base class and its 11 subclasses
    for exc, code in cases:
        def handler(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_classify", handler)
        assert main(["classify", "--gens", "3,5"]) == code, type(exc)
        capsys.readouterr()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("argv, code", _FUZZ,
                         ids=[" ".join(argv) for argv, _ in _FUZZ])
def test_cli_fuzz_exit_codes(argv, code):
    # corpus files shipped with the tests are named relative to tests/
    argv = [str(Path(__file__).parent / a) if a.startswith("corpora/") else a
            for a in argv]
    r = subprocess.run([sys.executable, "-m", "semigroups.cli", *argv],
                       capture_output=True, timeout=5,
                       preexec_fn=_limit_address_space)
    assert r.returncode == code, r.stderr
