"""Command-line front end.

Exit codes: 0 success (for `verify`: zero violations), 1 verification
violations, 2 parse errors (InvalidGeneratorsError, ValueError), 3 any
other SemigroupError (infeasible), 4 any other exception (internal).
JSON output is canonical (sorted keys, fixed indentation) and therefore
byte-stable; integers beyond 2**53 are serialized as strings so consumers
with double-precision JSON readers do not lose digits.  The module writes
it in one pass, byte-identical to json.dumps(sort_keys=True, indent=2).
Rows of plain ints, such as the factorization sets, are written from
one "%d" row template per row width, joined in row order and filled by
one % with the flattened ints; anything else goes through the recursive
encoder.
"""

import argparse
import functools
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import betti as betti_mod
from . import classify, constants, construct, explore, factor, isolated
from .errors import (IncompleteBettiError, InvalidGeneratorsError,
                     InvalidParametersError, SemigroupError)
from .semigroup import format_element, format_gens, make_semigroup, parse_gens

_JSON_INT_LIMIT = 1 << 53


def _json(obj, indent="\n"):
    """obj as canonical JSON text.  Dict keys become str(k), sorted; sets
    are sorted, tuples are lists, and any other object is its str()."""
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return _quote(str(obj)) if abs(obj) > _JSON_INT_LIMIT else str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts, ends = [f"{_quote(k)}: {_json(v, inner)}"
                       for k, v in items], "{}"
    elif isinstance(obj, (list, tuple, set, frozenset)):
        flat = _int_rows(obj)
        if flat is not None:
            return _rows_json(obj, flat, indent, inner)
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        parts, ends = [_json(v, inner) for v in seq], "[]"
    else:
        return _quote(str(obj))
    if not parts:
        return ends
    return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]


def _int_rows(obj):
    """The ints of obj, row after row, if obj is a non-empty list or tuple
    of non-empty lists or tuples of plain ints within +-2**53
    (factorizations, say); None otherwise.  Once every entry is known to be
    a plain int, the range is read off the distinct values."""
    if (type(obj) not in (list, tuple) or not obj or not all(obj)
            or not set(map(type, obj)) <= {list, tuple}):
        return None
    flat = tuple(chain.from_iterable(obj))
    if set(map(type, flat)) != {int}:
        return None
    values = set(flat)
    return flat if (-_JSON_INT_LIMIT <= min(values)
                    and max(values) <= _JSON_INT_LIMIT) else None


def _rows_json(rows, flat, indent, inner):
    """_json of int rows: one "%d" template per row width, joined in row
    order and filled by one % with flat, the ints of the rows in order."""
    deeper = inner + "  "
    row = {w: "[" + deeper + ("," + deeper).join(["%d"] * w) + inner + "]"
           for w in set(map(len, rows))}
    text = ("," + inner).join(map(row.__getitem__, map(len, rows)))
    return ("[" + inner + text + indent + "]") % flat


def _emit_json(report):
    sys.stdout.write(_json(report) + "\n")


def _parse_element(text):
    text = text.strip()
    if text.startswith("("):
        return tuple(int(x) for x in text[1:-1].split(","))
    return int(text)


def _semigroup(args):
    return make_semigroup(parse_gens(args.gens))


def _fiber_report(S, m, fiber_cap):
    fib = factor.fiber(S, m, cap=fiber_cap)
    return {
        "element": m,
        "factorizations": fib.factorizations,
        "denumerant": fib.denumerant,
        "nc": fib.nc,
        "isolated": fib.isolated,
    }


def _betti_report(S, degree_bound, fiber_cap):
    prof = betti_mod.betti_elements(S, degree_bound=degree_bound,
                                    fiber_cap=fiber_cap)
    return {
        "betti": list(prof.betti),
        "ibetti": list(prof.ibetti),
        "complete": prof.complete,
        "fibers": {format_element(b): _fiber_report(S, b, fiber_cap)
                   for b in prof.betti},
        "nc_sum": prof.nc_sum(),
        "presentation_cardinality":
            prof.presentation_cardinality() if prof.complete else None,
        "complete_intersection":
            prof.presentation_cardinality() == S.codim
            if prof.complete else None,
    }


def _isolated_report(S, degree_bound):
    prof = isolated.isolated_profile(S, degree_bound)
    rep = {
        "i_b_set": prof.ib,
        "i_b": prof.i_b,
        "exhaustive": prof.exhaustive,
    }
    if S.numerical:
        rep["i_s_set"] = prof.is_
        rep["i_s"] = prof.i_s
        rep["i_total"] = prof.i_total
    return rep


def _constants_report(S):
    # not simplicial: no ray arrangement exists, so every generator is in
    # the base and only the c constants make sense
    arrangement = range(len(S.gens))
    base = len(S.gens)
    if S.is_simplicial():
        arrangement = constants.default_arrangement(S)
        base = len(S.simplicial_rays)
    per_gen = []
    for pos, idx in enumerate(arrangement):
        in_base = pos < base
        entry = {
            "generator": S.gens[idx],
            "index": idx + 1,
            "c_star": None if in_base else constants.c_star(S, arrangement,
                                                            pos),
            "c_bar": None if in_base else constants.c_bar(S, arrangement,
                                                          pos),
            "c": constants.c_value(S, idx),
        }
        per_gen.append(entry)
    return {
        "arrangement": [S.gens[i] for i in arrangement],
        "per_generator": per_gen,
        "c_atoms": [idx + 1 for idx, _c in constants.c_atoms(S)],
    }


def cmd_analyze(args):
    start = time.perf_counter()
    S = _semigroup(args)
    report = {
        "gens": list(S.gens),
        "kind": "numerical" if S.numerical else "affine",
        "embedding_dim": S.embedding_dim,
        "simplicial": S.is_simplicial(),
    }
    if S.is_simplicial():
        report["codim"] = S.codim
        report["cohen_macaulay"] = S.is_cohen_macaulay()
    if S.numerical:
        report["multiplicity"] = S.multiplicity
        report["frobenius"] = S.frobenius()
        report["genus"] = S.genus()
    report["betti"] = _betti_report(S, args.degree_bound, args.fiber_cap)
    report["isolated"] = _isolated_report(S, args.degree_bound)
    report["constants"] = _constants_report(S)
    try:
        cls = classify.classification_report(S)
        report["classification"] = {"flags": cls.flags,
                                    "witnesses": cls.witnesses}
    except IncompleteBettiError as exc:
        report["classification"] = {"unavailable": str(exc)}
    if args.json:
        # timing is excluded so identical inputs give byte-identical output
        _emit_json(report)
    else:
        report["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
        _print_analyze_text(report)
    return 0


def _print_analyze_text(rep):
    print(f"semigroup <{format_gens(rep['gens'])}> ({rep['kind']}, "
          f"e = {rep['embedding_dim']})")
    if "frobenius" in rep:
        print(f"  frobenius = {rep['frobenius']}, genus = {rep['genus']}, "
              f"multiplicity = {rep['multiplicity']}")
    if rep["simplicial"]:
        print(f"  simplicial, codim = {rep['codim']}, "
              f"cohen_macaulay = {rep['cohen_macaulay']}")
    b = rep["betti"]
    betti_str = ", ".join(format_element(x) for x in b["betti"])
    print(f"  betti = {{{betti_str}}}"
          + ("" if b["complete"] else "  (bounded sweep, may be incomplete)"))
    for key, fib in b["fibers"].items():
        iso = fib["isolated"]
        iso_str = (", ".join(map(str, iso)) if iso
                   else "no isolated factorizations")
        print(f"    {key}: Z = {list(fib['factorizations'])}, "
              f"nc = {fib['nc']}; {key}: {iso_str}")
    print(f"  presentation cardinality = {b['presentation_cardinality']}, "
          f"complete intersection = {b['complete_intersection']}")
    iso = rep["isolated"]
    print(f"  i_b = {iso['i_b']}" +
          (f", i_s = {iso['i_s']}, i = {iso['i_total']}"
           if "i_s" in iso else ""))
    cat = rep["constants"]["c_atoms"]
    print("  C(M) = {" + ", ".join(str(i) for i in cat) + "}")
    for g in rep["constants"]["per_generator"]:
        print(f"    gen {format_element(g['generator'])}: "
              f"c* = {g['c_star']}, c_bar = {g['c_bar']}, c = {g['c']}")
    cls = rep["classification"]
    if "flags" in cls:
        on = sorted(k for k, v in cls["flags"].items() if v is True)
        print("  classification: " + (", ".join(on) if on else "(none)"))
    else:
        print(f"  classification: unavailable ({cls['unavailable']})")


def cmd_factorize(args):
    S = _semigroup(args)
    m = _parse_element(args.element)
    rep = _fiber_report(S, m, args.fiber_cap)
    rep["gens"] = list(S.gens)
    if args.json:
        _emit_json(rep)
    else:
        print(f"Z({format_element(m)}) in <{format_gens(S.gens)}>: "
              f"{list(rep['factorizations'])}")
        print(f"  denumerant = {rep['denumerant']}, nc = {rep['nc']}, "
              f"isolated = {list(rep['isolated'])}")
    return 0


def cmd_betti(args):
    S = _semigroup(args)
    rep = _betti_report(S, args.degree_bound, args.fiber_cap)
    rep["gens"] = list(S.gens)
    if args.json:
        _emit_json(rep)
    else:
        print("betti = {" +
              ", ".join(format_element(b) for b in rep["betti"]) + "}")
        print("ibetti = {" +
              ", ".join(format_element(b) for b in rep["ibetti"]) + "}")
        print(f"presentation cardinality = {rep['presentation_cardinality']}"
              f", complete intersection = {rep['complete_intersection']}")
    return 0


def cmd_classify(args):
    S = _semigroup(args)
    cls = classify.classification_report(S)
    rep = {"gens": list(S.gens), "flags": cls.flags,
           "witnesses": cls.witnesses}
    if args.json:
        _emit_json(rep)
    else:
        for k in sorted(cls.flags):
            print(f"{k}: {cls.flags[k]}")
    return 0


def cmd_construct(args):
    if args.recover:
        if args.gens is None:
            raise ValueError("--recover needs --gens")
        S = _semigroup(args)
        params = construct.recover_params(S)
        if params is None:
            raise InvalidParametersError(
                f"<{format_gens(S.gens)}> is not Betti divisible")
        rep = {"gens": list(S.gens), "a": list(params[0]),
               "f": list(params[1])}
        if args.json:
            _emit_json(rep)
        else:
            print(f"a = {tuple(params[0])}, f = {tuple(params[1])}")
        return 0
    if not args.a or not args.f:
        raise InvalidParametersError("--a and --f are required (or --recover)")
    a = tuple(int(x) for x in args.a.split(","))
    f = tuple(int(x) for x in args.f.split(","))
    S, predicted = construct.betti_divisible_from_params(a, f)
    rep = {"a": list(a), "f": list(f), "gens": list(S.gens),
           "predicted_betti": list(predicted),
           "frobenius": S.frobenius()}
    if args.json:
        _emit_json(rep)
    else:
        print(f"<{format_gens(S.gens)}>  betti = {set(predicted)}  "
              f"frobenius = {S.frobenius()}")
    return 0


def cmd_glue(args):
    S1 = make_semigroup(parse_gens(args.gens1))
    S2 = make_semigroup(parse_gens(args.gens2))
    S, predicted = construct.glue_numerical(S1, S2, args.a1, args.a2)
    rep = {"gens": list(S.gens), "predicted_betti": list(predicted),
           "actual_betti": list(betti_mod.betti_elements(S).betti)}
    if args.json:
        _emit_json(rep)
    else:
        print(f"<{format_gens(S.gens)}>  betti = {set(rep['actual_betti'])}")
    return 0


def cmd_search(args):
    frob, S = explore.min_frobenius_betti_divisible(
        args.edim, args.max_frobenius,
        distinct_betti_min=args.distinct_betti)
    rep = {"problem": args.problem, "edim_min": args.edim,
           "max_frobenius": args.max_frobenius,
           "distinct_betti_min": args.distinct_betti,
           "frobenius": frob, "gens": list(S.gens)}
    if args.json:
        _emit_json(rep)
    else:
        print(f"{frob} : <{format_gens(sorted(S.gens))}>")
    return 0


def cmd_verify(args):
    if (args.genus is None) == (args.corpus is None):
        raise ValueError("exactly one of --genus or --corpus is required")
    if args.genus is not None:
        corpus = explore.enumerate_numerical_by_genus(args.genus)
    else:
        try:
            corpus = explore.load_corpus(args.corpus)
        except OSError as exc:
            raise ValueError(f"cannot read corpus {args.corpus!r}: "
                             f"{exc.strerror}") from None
    report = explore.run_theorem_harness(corpus)
    report["provenance"] = corpus.provenance
    if args.json:
        _emit_json(report)
    else:
        print(f"checked {report['checked']} semigroups: "
              f"{len(report['violations'])} violations")
        for v in report["violations"]:
            print(f"  <{format_gens(v['gens'])}> {v['check']}: {v['detail']}")
        for name, gens in report["strictness_witnesses"].items():
            print(f"  strict {name}: <{format_gens(gens)}>")
    return 0 if not report["violations"] else 1


def _int_at_least(low):
    """An argparse type: a decimal int >= low."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"{n} is less than {low}")
        return n
    return parse


_nonnegative, _positive = _int_at_least(0), _int_at_least(1)


def _add_common(p, degree_bound=False, fiber_cap=False):
    p.add_argument("--gens", required=True,
                   help="'24,26,36,39' or '(1,0);(0,2);(0,3)'")
    p.add_argument("--json", action="store_true",
                   help="emit canonical JSON instead of text")
    if degree_bound:
        p.add_argument("--degree-bound", type=_nonnegative, default=None,
                       metavar="N",
                       help="total-degree bound for affine sweeps")
    if fiber_cap:
        p.add_argument("--fiber-cap", type=_nonnegative,
                       default=factor.DEFAULT_FIBER_CAP, metavar="N",
                       help="maximum factorizations per fiber")


@functools.cache
def build_parser():
    """Every subcommand's parser, built once per process; main looks each
    handler up by name when called, so a rebound cmd_* is the one run."""
    top = argparse.ArgumentParser(
        prog="semigroups",
        description="Factorization invariants of numerical and simplicial "
                    "affine semigroups.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report")
    _add_common(p, degree_bound=True, fiber_cap=True)

    p = sub.add_parser("factorize", help="fiber of one element")
    _add_common(p, fiber_cap=True)
    p.add_argument("--element", required=True)

    p = sub.add_parser("betti", help="Betti elements and presentation")
    _add_common(p, degree_bound=True, fiber_cap=True)

    p = sub.add_parser("classify", help="structural classification flags")
    _add_common(p)

    p = sub.add_parser("construct",
                       help="Betti-divisible semigroup from (a, f) params")
    p.add_argument("--a", help="comma-separated a parameters")
    p.add_argument("--f", help="comma-separated f parameters")
    p.add_argument("--recover", action="store_true",
                   help="recover (a, f) from --gens instead")
    p.add_argument("--gens", help="generators (with --recover)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("glue", help="gluing of two numerical semigroups")
    p.add_argument("--gens1", required=True)
    p.add_argument("--gens2", required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="parametrized family searches")
    p.add_argument("problem", choices=["min-frobenius-betti-divisible"])
    p.add_argument("--edim", type=int, required=True)
    p.add_argument("--max-frobenius", type=int, required=True)
    p.add_argument("--distinct-betti", type=_positive, default=1,
                   help="require at least this many distinct Betti elements")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the theorem harness")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=_positive, default=1, metavar="N",
                   help="accepted; the harness runs in one process")

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command](args)
    except (InvalidGeneratorsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemigroupError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
