"""The command-line grammar of ``flopcalc.cli``, written out as a test
reference, and Hypothesis strategies that draw argvs from its flag table.

The grammar: before a subcommand only ``-h`` or ``--help`` is read.  After
it, a flag is one of the subcommand's exact names, with or without
``=value``.  A value flag without ``=`` takes the next token as written,
unless there is none or it is a flag of the subcommand's own ("expected one
argument").  A flag given twice is refused.  A token that does not start
with ``-`` fills the positional; every other token is unrecognized, and the
unrecognized tokens are named together, each shortened, ahead of a missing
required flag.  Errors inside the flags come in argv order.

``parse_args`` applies these rules in two passes (pair each flag with its
value, then read the pairs), where ``cli`` reads the argv in one loop; it
shares with ``cli`` only the flag table, the help text, the choice check
and ``read_int``, which ``test_read_int.py`` checks against a reference of
its own.  ``run`` and ``assert_same_outcome`` run ``cli.main`` on
either parser.  ``commands`` draws a subcommand's arguments, ``spellings``
writes them in any order and form the grammar accepts, and ``mutated``
edits such an argv into mostly malformed ones.
"""

import contextlib
import io
import sys
from types import SimpleNamespace
from unittest import mock

from hypothesis import strategies as st

from flopcalc import cli
from flopcalc.bwb import read_int, shorten
from flopcalc.cli import UsageError

# values of each flag and positional that the grammar reads as values after
# "=" and as the next token alike: negative numbers, values with a space, an
# "=" or a leading "-"
INTS = ["2", "3", "0", "-1", "-3", "+2", " 2"]
VALUES = {
    "weight": ["0,0|0", "1,0|-1", "-1,0|0", "-1, 0|0", "0,0,0|1"],
    "side": ["x", "xplus"],
    "out": ["report.md", "a=b.md", "-report.md"],
    "check": ["all", "lemma-1-3", "lemma-2-1", "cor-2-2", "prop-3-5"],
}


def parse_args(argv):
    """What the grammar makes of ``argv``: the parsed arguments, or None once
    help is written to stdout.  A malformed argv raises ``cli.UsageError``."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    name, tokens = argv[0], list(argv[1:])
    if name in ("-h", "--help"):
        sys.stdout.write(cli._help())
        return None
    if name not in cli._COMMANDS:
        if name.startswith("-"):
            raise UsageError(f"unrecognized arguments: {shorten(name)}")
        cli._choice("command", cli._COMMANDS, name)
    flags, positional = cli._COMMANDS[name].flags, cli._COMMANDS[name].positional

    def flag_of(token):
        return flags.get(token.partition("=")[0]) if token.startswith("-") else None

    # pass 1: (token, flag or None, value); a value flag's value is its "="
    # part or the next token, and None when that token is missing
    words = []
    while tokens:
        token = tokens.pop(0)
        flag, value = flag_of(token), None
        if "=" in token:
            value = token.partition("=")[2]
        elif flag is not None and flag.kind in (int, str) and tokens and flag_of(tokens[0]) is None:
            value = tokens.pop(0)
        words.append((token, flag, value))

    # pass 2: the words in order
    values = {flag.dest: flag.default for flag in flags.values() if flag.kind}
    given, unknown = set(), []
    for token, flag, value in words:
        option = token.partition("=")[0]
        if flag is None:
            if token.startswith("-") or positional is None:
                unknown.append(shorten(token))
            else:
                values[positional[0]] = cli._choice(*positional, token)
                positional = None
            continue
        if flag.dest in given:
            raise UsageError(f"argument {option}: given more than once")
        given.add(flag.dest)
        if flag.kind in (bool, None) and "=" in token:
            names = [other for other in flags if flags[other] is flag]
            raise UsageError(f"argument {'/'.join(names)}: ignored explicit argument {value!r}")
        if flag.kind is None:
            sys.stdout.write(cli._help(name))
            return None
        if flag.kind is bool:
            values[flag.dest] = True
        elif value is None:
            raise UsageError(f"argument {option}: expected one argument")
        elif flag.kind is int:
            invalid = f"argument {option}: invalid int value: {shorten(value, repr)}"
            values[flag.dest] = read_int(value, invalid, f"argument {option}: an integer")
        else:
            values[flag.dest] = cli._choice(option, flag.choices, value)
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    missing = [*(positional or ())[:1], *(option for option, flag in flags.items()
                                          if flag.required and values[flag.dest] is None)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, **values)


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


def assert_same_outcome(argv, parse=parse_args):
    """``cli.main(argv)`` gives the same exit code and bytes with the
    package's parser as with ``parse``."""
    assert run(argv) == run(argv, parse), argv


@st.composite
def commands(draw):
    """``(name, items)``: a subcommand and, in table order, its positional
    and some of its flags (every required one), each item as ``[flag,
    value]`` or ``[flag]``, with values the subcommand reads."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    items = []
    if command.positional is not None:
        dest, choices = command.positional
        items.append([draw(st.sampled_from(VALUES.get(dest) or choices))])
    for option, flag in command.flags.items():
        if flag.kind is None or not (flag.required or draw(st.booleans())):
            continue
        if flag.kind is bool:
            items.append([option])
        else:
            items.append([option, draw(st.sampled_from(VALUES.get(flag.dest, INTS)))])
    return name, items


def canonical(name, items):
    """The argv of ``items`` as ``commands`` drew them: in table order, each
    value as the token after its flag."""
    return [name, *(token for item in items for token in item)]


@st.composite
def spellings(draw, items):
    """The tokens of ``items`` in any order, each value written after "=" or
    as the next token."""
    items = draw(st.permutations(items))
    return [token for item in items
            for token in (["=".join(item)] if len(item) == 2 and draw(st.booleans()) else item)]


# tokens dropped in anywhere: unknown flags, help, spellings the grammar
# refuses (prefixes, "--", "-hh"), negatives, values with spaces or "=",
# extra positionals
TOKENS = ["--foo", "--foo=1", "-x", "--", "-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h",
          "-h=", "--help=1", "--json=1", "--json=", "--m", "--=x", "--n=3", "-", "", "extra",
          "phi", "psi", "picard", "oy-oy", "all", "bott", "verify", "-3", "-1.5", "-.5", "1_0",
          "x", "-1, 0|0", "a b", "a=b", "--n 2", "-x" + "y" * 50, "x" * 50]


@st.composite
def mutated(draw):
    """An argv of ``commands`` and ``spellings`` with up to four edits:
    tokens inserted, joined with "=", dropped, repeated, replaced by a value
    or cut to a prefix."""
    name, items = draw(commands())
    tokens = [name, *draw(spellings(items))]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "join", "drop", "repeat", "value", "prefix"]))
        if edit == "insert":
            tokens.insert(at, draw(st.sampled_from(TOKENS)))
        elif at == len(tokens):
            continue
        elif edit == "join" and at + 1 < len(tokens):
            tokens[at:at + 2] = [f"{tokens[at]}={tokens[at + 1]}"]
        elif edit == "drop":
            del tokens[at]
        elif edit == "repeat":
            tokens.insert(draw(st.integers(0, len(tokens))), tokens[at])
        elif edit == "value":
            tokens[at] = draw(st.sampled_from(TOKENS + INTS + VALUES["weight"]))
        elif edit == "prefix" and len(tokens[at]) > 1:
            tokens[at] = tokens[at][:draw(st.integers(1, len(tokens[at]) - 1))]
    return tokens
