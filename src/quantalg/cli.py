"""Command line front end.

Verbs: dist, normalize, bisim, unfold, check-model.  All numeric output is
exact rational text (p/q or inf); the distance verbs' --decimal opts into
rounded rendering.  A verb has only the options its handler reads.
Exit codes: 0 success, 1 domain errors or too deep nesting, 2 parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bisim import format_coalgebra, parse_coalgebras, solve_bisim, unfold_term
from .errors import ParseError, QuantAlgError
from .extvalue import ExtValue
from .lexing import MAX_DIGITS
from .modelcheck import check_theory, format_report, parse_algebras
from .semantics import BOUNDED, EXTENDED, denote, format_value, term_dist
from .spaces import parse_spaces
from .terms import parse_term
from .theories import ParamPool, parse_monoids, parse_theory


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Input numerals are capped at MAX_DIGITS, but an exact result may exceed
    # the digits Python turns into text by default: lift that limit meanwhile.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except QuantAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the parsers and the pair graph recurse on nesting
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every call of main shares it."""
    p = argparse.ArgumentParser(
        prog="quantalg",
        description="exact distances for quantitative algebraic effects")
    sub = p.add_subparsers(required=True)

    def common(sp, theory=True):
        if theory:
            sp.add_argument("--theory", required=True,
                            help="theory expression, e.g. 'sum(sum(bary, exc{1}), contr{next, 1/2})'")
        sp.add_argument("--space", help="space file; ground metric for variables")
        sp.add_argument("--monoid", help="monoid file for writer theories")

    def output(sp, mode=None):  # a verb that prints distances has a mode
        sp.add_argument("--format", choices=["text", "record"], default="text")
        if mode:
            sp.add_argument("--mode", choices=[EXTENDED, BOUNDED], default=mode)
            sp.add_argument("--decimal", type=_digits, metavar="DIGITS",
                            help="also render rationals rounded to DIGITS places")

    sp = sub.add_parser("dist", help="distance between two terms")
    common(sp)
    output(sp, EXTENDED)
    sp.add_argument("terms", nargs=2, help="term files (or literal terms with --inline)")
    sp.add_argument("--inline", action="store_true", help="treat the term arguments as literal text")
    sp.set_defaults(handler=_cmd_dist)

    sp = sub.add_parser("normalize", help="canonical normal form of a term")
    common(sp)
    output(sp)
    sp.add_argument("term")
    sp.add_argument("--inline", action="store_true")
    sp.set_defaults(handler=_cmd_normalize)

    sp = sub.add_parser("bisim", help="bisimilarity metric of a coalgebra file")
    common(sp, theory=False)
    output(sp, BOUNDED)
    sp.add_argument("file")
    sp.add_argument("--tol", type=_positive_rational, default=Fraction(1, 1000),
                    help="accepted and not used: every answer is exact")
    sp.set_defaults(handler=_cmd_bisim)

    sp = sub.add_parser("unfold", help="convert a term to a coalgebra file")
    common(sp)
    sp.add_argument("term")
    sp.add_argument("--inline", action="store_true")
    sp.set_defaults(handler=_cmd_unfold)

    sp = sub.add_parser("check-model", help="check an algebra file against a theory")
    common(sp)
    output(sp)
    sp.add_argument("file")
    sp.add_argument("--weights", default="", help="comma list of convex weights")
    sp.add_argument("--epsilons", default="", help="comma list of premise thresholds")
    sp.add_argument("--elems", default="", help="comma list of writer monoid elements")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(handler=_cmd_check_model)
    return p


def _digits(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a digit count: {text!r}")
    if int(text) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_DIGITS} places: {text}")
    return int(text)


def _positive_rational(text: str) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or q <= 0:
        raise argparse.ArgumentTypeError(f"not a positive rational: {text!r}")
    return q


def _read_file(path: str) -> str:
    """A named file's text: an unreadable file is an error (exit 1), and one
    that is not UTF-8 a parse error (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from None
    except OSError as exc:
        raise QuantAlgError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_context(args):
    spaces = {}
    space = None
    if args.space:
        spaces = parse_spaces(_read_file(args.space), args.space)
        if len(spaces) == 1:
            space = next(iter(spaces.values()))
    monoids = {}
    if args.monoid:
        monoids = parse_monoids(_read_file(args.monoid), args.monoid)
    theory = None
    if getattr(args, "theory", None):
        theory = parse_theory(args.theory, spaces, monoids, "--theory")
    return theory, space, spaces, monoids


def _read_term(arg: str, inline: bool, theory, source_hint: str):
    if inline:
        return parse_term(arg, theory, source_hint)
    return parse_term(_read_file(arg), theory, arg)


def _render(value: ExtValue, args) -> str:
    """The value, and with --decimal N also its rational rounded half to
    even to N places (with no decimal point when N is 0)."""
    text = str(value)
    if args.decimal is not None and not value.is_inf:
        whole, frac = divmod(round(value.rational * 10 ** args.decimal), 10 ** args.decimal)
        text += f" ({whole}.{frac:0{args.decimal}d})" if args.decimal else f" ({whole})"
    return text


def _cmd_dist(args) -> int:
    theory, space, _, _ = _load_context(args)
    t = _read_term(args.terms[0], args.inline, theory, "term-1")
    s = _read_term(args.terms[1], args.inline, theory, "term-2")
    d = term_dist(t, s, theory, space, args.mode)
    if args.format == "record":
        print(json.dumps({"verb": "dist", "mode": args.mode, "distance": str(d)},
                         sort_keys=True))
    else:
        print(_render(d, args))
    return 0


def _cmd_normalize(args) -> int:
    theory, _, _, _ = _load_context(args)
    t = _read_term(args.term, args.inline, theory, "term")
    v = denote(t, theory)
    if args.format == "record":
        print(json.dumps({"verb": "normalize", "value": format_value(v)}, sort_keys=True))
    else:
        print(format_value(v))
    return 0


def _cmd_bisim(args) -> int:
    _, space, _, monoids = _load_context(args)
    systems = parse_coalgebras(_read_file(args.file), monoids, space, args.file)
    out_records = []
    for name in sorted(systems):
        C = systems[name]
        metric, cert = solve_bisim(C, args.mode)
        if args.format == "record":
            out_records.append({
                "system": name,
                "metric": {f"d({u},{v})": str(val) for (u, v), val in metric.pairs()},
                "certificate": cert.as_record(),
            })
        else:
            print(f"system {name}:")
            for (u, v), val in metric.pairs():
                print(f"  d({u},{v}) = {_render(val, args)}")
            print(f"  certificate: iterations={cert.iterations} "
                  f"a_priori_bound={cert.a_priori_bound} residual={cert.residual} "
                  f"exact={'yes' if cert.exact else 'no'}")
    if args.format == "record":
        print(json.dumps(out_records, sort_keys=True))
    return 0


def _cmd_unfold(args) -> int:
    theory, space, _, monoids = _load_context(args)
    t = _read_term(args.term, args.inline, theory, "term")
    C, root = unfold_term(t, theory, space)
    monoid_name = next((name for name, m in monoids.items() if m == C.monoid), None)
    text = format_coalgebra(C, monoid_name)
    sys.stdout.write(f"# root = {root}\n{text}")
    return 0


def _cmd_check_model(args) -> int:
    theory, space, spaces, _ = _load_context(args)
    algebras = parse_algebras(_read_file(args.file), spaces, args.file)
    pool = ParamPool.make(
        weights=[w for w in args.weights.split(",") if w],
        epsilons=[e for e in args.epsilons.split(",") if e],
        monoid_elems=[a for a in args.elems.split(",") if a],
    )
    ok = True
    for name in sorted(algebras):
        report = check_theory(algebras[name], theory, pool)
        if args.format == "record":
            print(json.dumps({
                "algebra": name,
                "passed": report.passed,
                "failures": [e.label for e in report.failures()],
            }, sort_keys=True))
        else:
            print(f"algebra {name}:")
            sys.stdout.write(format_report(report, args.verbose))
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
