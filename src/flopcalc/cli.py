"""Command-line front end.

Subcommands: bott, cohomology, functor, flop, koszul, ext, verify.  Each
returns a Report of its data, and ``render`` writes it once, as JSON
(--json), text, or for verify Markdown (--markdown), to stdout or to
verify's --out file.  JSON output is schema-stable: no timestamps, exact
decimal integers, keys sorted as strings (degree "10" before "2").
``ext ideal-self --trace`` writes its chase lines first, also before the
JSON line.  Exit codes: 0 success / all checks pass, 1 any FAIL, 2
malformed input (with a one-line diagnostic naming the offending token), 3
any UNDERDETERMINED without a FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, namedtuple
from functools import lru_cache

from . import flop, homalg, verify
from .bwb import bott_cohomology, parse_weight, read_int, shorten
from .pbundle import ModelVariety, Side, XLineBundle, cohomology_X


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _check_value(self, action, value):
        # argparse would echo an over-long invalid choice in full
        if action.choices is not None and value not in action.choices and shorten(value) != value:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {shorten(value, repr)} (choose from {choices})"
            raise argparse.ArgumentError(action, message)
        super()._check_value(action, value)


def _int_arg(text):
    """argparse type for integer flags; an over-long literal is not echoed in full."""
    try:
        return read_int(text, f"invalid int value: {shorten(text, repr)}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process; parse_args keeps no state.

    ``parser.subcommands`` maps each subcommand's name to the parser
    ``add_subparsers`` registered for it.  ``_parse_args`` hands a call whose
    first token is a subcommand straight to that parser, and every other
    call to the top-level one, which picks the same parser after it."""
    parser = _Parser(prog="flopcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("bott", help="cohomology table of a weight on P^n")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--weight", required=True, help='literal "l1,...,ln|t"')
    common(p)

    p = sub.add_parser("cohomology", help="cohomology of O(j) (x) pi*O(k)")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--side", choices=["x", "xplus"], default="x")
    p.add_argument("--j", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("functor", help="apply phi, phiprime or psi to a class")
    p.add_argument("name", choices=["phi", "phiprime", "psi"])
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--j", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("flop", help="lattice data of the flop")
    p.add_argument("what", choices=["picard"])
    p.add_argument("--n", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("koszul", help="Koszul resolution of the ideal sheaf")
    p.add_argument("--n", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("ext", help="Ext computations")
    p.add_argument("what", choices=["oy-oy", "ideal-self"])
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--trace", action="store_true", help="emit chase traces")
    common(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("check", help="a check id or 'all'")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--max-n", dest="max_n", type=_int_arg, default=None)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--out", help="write the report to this path")
    common(p)

    return parser


class Report(namedtuple("Report", "payload text markdown code trace blame",
                        defaults=(None, 0, (), "--n"))):
    """A subcommand's result.  ``payload`` is what --json writes; ``text``
    and ``markdown`` (verify only, else None) return its lines when called,
    so JSON output never formats them.  ``code`` is the exit code,
    ``trace`` the lines written before the report in any format, and
    ``blame`` the flags a number past the digit limit came from."""

    __slots__ = ()


def _table(n, table, blame, header, row="h^{} = {}", **extra):
    """Report of a cohomology table; ``header`` returns its first line."""

    def text():
        rows = [row.format(i, d) for i, d in table.dims().items()]
        return [header(), *(rows or ["zero in every degree"])]

    return Report({"n": n, "dims": table.dims(), **extra}, text, blame=blame)


def _cmd_bott(args):
    weight = parse_weight(args.weight)
    if weight.n != args.n:
        raise UsageError(f"--weight {shorten(args.weight, repr)} has length {weight.n}, "
                         f"expected n={shorten(str(args.n))}")
    return _table(args.n, bott_cohomology(weight), "--weight",
                  lambda: f"cohomology of {weight.literal()} on P^{args.n}:")


def _cmd_cohomology(args):
    side = Side.X if args.side == "x" else Side.X_PLUS
    table = cohomology_X(XLineBundle(ModelVariety(args.n, side), args.j, args.k))
    return _table(args.n, table, "--j/--k",
                  lambda: f"cohomology of O({args.j}) (x) pi*O({args.k}) on side {args.side}:",
                  j=args.j, k=args.k)


_FUNCTORS = {"phi": flop.apply_phi, "phiprime": flop.apply_phi_prime, "psi": flop.apply_psi}


def _cmd_functor(args):
    side = Side.X_PLUS if args.name == "phiprime" else Side.X
    image = _FUNCTORS[args.name](XLineBundle(ModelVariety(args.n, side), args.j, args.k))
    kind, line = (image.kind, image.bundle) if args.name == "phi" else (flop.ImageKind.LINE, image)
    suffix = " (x) I_Y+" if kind is flop.ImageKind.IDEAL_TWIST else ""
    return Report(
        {"tag": kind.value, "j": line.j, "k": line.k},
        lambda: [f"{args.name}({args.j},{args.k}) = O({line.j}) (x) pi*O({line.k})"
                 f"{suffix} on {line.variety.side.value}"],
        blame="--j/--k",
    )


def _cmd_flop(args):
    pic = flop.phi_pullback(args.n)
    involution = pic.is_involution()
    return Report(
        {"n": args.n, "matrix": pic.rows, "involution": involution},
        lambda: [f"picard transport for n={args.n} in the (j, k) basis:",
                 *(f"  {list(row)}" for row in pic.rows),
                 f"involution: {involution}"],
    )


def _cmd_koszul(args):
    res = homalg.koszul_resolution(args.n)
    total = res.alternating_rank_sum()
    terms = [{"p": t.p, "j": t.line_class.j, "theta_wedge": t.theta_wedge.literal(),
              "rank": t.rank} for t in res.terms]
    return Report(
        {"n": args.n, "terms": terms, "alternating_rank_sum": total},
        lambda: [f"resolution of the ideal sheaf for n={args.n}:",
                 *(f"  p={t['p']}: O({t['j']}) (x) pi*Wedge^{t['p']}(Theta) "
                   f"[weight {t['theta_wedge']}, rank {t['rank']}]" for t in terms),
                 f"alternating rank sum = {total}"],
    )


def _cmd_ext(args):
    if args.what == "oy-oy":
        if args.trace:
            raise UsageError("--trace only applies to 'ext ideal-self'")
        return _table(args.n, homalg.ext_table_OY(args.n), "--n",
                      lambda: f"Ext^i(O_Y, O_Y) on the 2n-fold, n={args.n}:", row="Ext^{} = {}")
    if args.n != 2:
        raise UsageError("ext ideal-self is only computed at --n 2")
    value, traces = homalg.ext2_ideal_self_with_trace(2)
    trace = ()
    if args.trace:
        trace = tuple(f"[{name}] {label}: {rule} -> {solved}"
                      for name, steps in traces for label, rule, solved in steps)
    return Report({"n": 2, "ext2_ideal_self": value}, lambda: [f"Ext^2(I, I) = {value}"],
                  trace=trace)


def _cmd_verify(args):
    if args.json and args.markdown:
        raise UsageError("--json and --markdown cannot be combined; pick one")
    if args.check == "all":
        if args.n is not None:
            raise UsageError("--n does not apply to 'verify all'; use --max-n")
        results = verify.run_all() if args.max_n is None else verify.run_all(args.max_n)
    elif args.check in verify.ALL_CHECK_IDS:
        if args.max_n is not None:
            raise UsageError(f"--max-n only applies to 'verify all', not to {args.check}")
        n = args.n if args.n is not None else 2
        if args.check in verify.PINNED_CHECKS and n != 2:
            raise UsageError(f"{args.check} is pinned to n = 2, got --n {shorten(str(n))}")
        results = [verify.run_check(args.check, n)]
    else:
        raise UsageError(f"unknown check {shorten(args.check, repr)}; "
                         f"known: all, {', '.join(verify.ALL_CHECK_IDS)}")

    def text():
        count = Counter(r.status.value for r in results)
        return [*(f"{r.check_id} n={r.n}: {r.status.value}" for r in results),
                f"total: {len(results)} checks, {count['PASS']} pass, {count['FAIL']} fail, "
                f"{count['UNDERDETERMINED']} underdetermined"]

    def markdown():
        lines = ["# Verification report"]
        for r in results:
            lines += ["", f"## {r.check_id} (n={r.n}): {r.status.value}", "",
                      "| key | value |", "| --- | --- |"]
            lines += [f"| {key} | {r.evidence[key]!r} |" for key in sorted(r.evidence)]
        return lines

    payload = [{"check_id": r.check_id, "n": r.n, "status": r.status.value,
                "evidence": r.evidence} for r in results]
    return Report(payload, text, markdown, verify.exit_code(results))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render(report, output_format, out_path):
    """Write ``report`` once, all of it or (on a usage error) none of it: its
    trace lines, then the report as JSON, Markdown or text, to ``out_path``
    or stdout.  A number with more digits than Python converts to text
    (``sys.get_int_max_str_digits``) is blamed on the report's flags."""
    try:
        if output_format == "json":
            body = [json.dumps(_jsonable(report.payload), sort_keys=True, separators=(",", ":"))]
        elif output_format == "markdown":
            body = report.markdown()
        else:
            body = report.text()
        text = "".join(f"{line}\n" for line in (*report.trace, *body))
    except ValueError:
        message = "a number in the result has too many digits to print"
        raise UsageError(f"{report.blame} too large: {message}") from None
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {shorten(out_path, repr)}: {exc.strerror}") from None


_COMMANDS = {"bott": _cmd_bott, "cohomology": _cmd_cohomology, "functor": _cmd_functor,
             "flop": _cmd_flop, "koszul": _cmd_koszul, "ext": _cmd_ext, "verify": _cmd_verify}


# the top-level parser's only option, and the prefixes of --help argparse also takes
_HELP = {"-h", "--h", "--he", "--hel", "--help"}


def _unknown_option(parser, tokens):
    """The first of ``tokens`` that argparse reads as an option and ``parser``
    neither has nor abbreviates, or None.  As in argparse, a negative number,
    a token with a space and anything after ``--`` are values."""
    for token in tokens:
        if token == "--":
            return None
        name = token.partition("=")[0]
        if (token.startswith("-") and " " not in token
                and not parser._negative_number_matcher.match(token)
                and not any(option.startswith(name) for option in parser._option_string_actions)):
            return token
    return None


def _parse_args(argv):
    """The parsed arguments.  When the first token names a subcommand, the
    rest is parsed by that subcommand's own parser, once; the top-level
    parser would pass the same tokens to the same parser after a parse of
    its own.  Any other argv goes through the top-level parser.  An unknown
    option is named here in two cases: before the subcommand, argparse would
    pass over it and read the token after it as the subcommand, and so blame
    that token instead; after it, argparse would report a missing required
    flag first and not name the option at all."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if argv and argv[0] in parser.subcommands:
        sub = parser.subcommands[argv[0]]
        try:
            args = sub.parse_args(argv[1:])
        except UsageError as exc:
            unknown = _unknown_option(sub, argv[1:])
            if unknown is None or not str(exc).startswith("the following arguments are required"):
                raise
            raise UsageError(f"unrecognized arguments: {shorten(unknown)}") from None
        args.command = argv[0]
        return args
    for token in argv:
        if token in parser.subcommands:
            break
        if token.startswith("-") and token not in _HELP:
            raise UsageError(f"unrecognized arguments: {shorten(token)}")
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
        report = _COMMANDS[args.command](args)
        markdown = getattr(args, "markdown", False)
        render(report, "json" if args.json else "markdown" if markdown else "text",
               getattr(args, "out", None))
    except (UsageError, ValueError) as exc:  # FunctorRangeError is a ValueError
        print(f"flopcalc: error: {exc}", file=sys.stderr)
        return 2
    except homalg.ChaseUnderdeterminedError as exc:
        print(f"flopcalc: underdetermined: {exc}", file=sys.stderr)
        return 3
    except homalg.ChaseInconsistencyError as exc:
        print(f"flopcalc: inconsistent: {exc}", file=sys.stderr)
        return 1
    return report.code


if __name__ == "__main__":
    sys.exit(main())
