"""The argparse command line that ``flopcalc.cli`` replaced, kept as a test oracle.

This is the argument spec and the routing ``cli`` had when it was built on
argparse: one ``argparse`` parser per subcommand, an argv whose first token
is a subcommand parsed by that subcommand's parser, an unknown option named
ahead of a missing required flag, and an unknown option before the
subcommand named before argparse can read the token after it as the
subcommand.  ``parse_args`` returns what ``cli._parse_args`` returns: the
parsed arguments, or None once help is written to stdout.  Errors raise
``cli.UsageError`` with the same message, so ``cli.main`` runs on either
parser.  argparse's own rules changed after Python 3.11 (``--`` above all),
so this oracle is the 3.11 behaviour only on 3.11.
"""

import argparse
import contextlib
import io
from functools import lru_cache
from unittest import mock

from flopcalc import cli
from flopcalc.bwb import read_int, shorten
from flopcalc.cli import UsageError


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
    try:
        return read_int(text, f"invalid int value: {shorten(text, repr)}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=1)
def build_parser():
    """The top-level parser; ``parser.subcommands`` maps each subcommand to its parser."""
    parser = _Parser(prog="flopcalc", description="Command-line front end.")
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


# the top-level parser's only option, and the prefixes of --help argparse also takes
_HELP = {"-h", "--h", "--he", "--hel", "--help"}


def _unknown_option(parser, tokens):
    """The first of ``tokens`` that argparse reads as an option and ``parser``
    neither has nor abbreviates, or None."""
    for token in tokens:
        if token == "--":
            return None
        name = token.partition("=")[0]
        if (token.startswith("-") and " " not in token
                and not parser._negative_number_matcher.match(token)
                and not any(option.startswith(name) for option in parser._option_string_actions)):
            return token
    return None


def _parse(argv):
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


def _none_after_help(parse, argv):
    try:
        return parse(list(argv))
    except SystemExit as exc:
        if exc.code != 0:
            raise
        return None


def parse_args(argv):
    """The parsed arguments, or None after argparse wrote help to stdout."""
    return _none_after_help(_parse, argv)


def top_level(argv):
    """What argparse's top-level parser alone makes of ``argv``, without the
    routing and the unknown-option checks of ``parse_args``."""
    return _none_after_help(build_parser().parse_args, argv)


def run(argv, parse=None):
    """Exit code, stdout and stderr of ``cli.main(argv)``, parsed by ``parse``
    in place of the package's own parser when given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if parse is not None:
            stack.enter_context(mock.patch.object(cli, "_parse_args", parse))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_same_outcome(argv, parse):
    """``cli.main(argv)`` gives the same exit code and bytes with either
    parser; for help, whose bytes are not pinned, both exit 0 with help on
    stdout and nothing on stderr."""
    new, old = run(argv), run(argv, parse)
    if new[1].startswith("usage:") and old[1].startswith("usage:"):
        assert (new[0], new[2], old[0], old[2]) == (0, "", 0, ""), argv
    else:
        assert new == old, argv
