"""The command-line parser against the argparse one it replaced.

Hypothesis writes argvs from the package's flag table, then mutates them:
unknown flags, prefixes of flags (ambiguous ones too), ``--flag=value``
(also on flags that take no value), negative numbers, values with spaces,
``--`` anywhere, dropped tokens (missing values, a missing subcommand),
extra positionals, repeated tokens and help flags.  ``cli.main`` must give
the same exit code, stdout and stderr with the package's parser as with
``tests/argparse_oracle.py``; for help, whose bytes are not pinned, both must
exit 0 with help on stdout.  Every pinned argv of ``test_cli``, every corpus
argv and a few edge cases are explicit examples.  The oracle is Python
3.11's argparse, so the comparison runs on 3.11 only.

Tier-1 runs Hypothesis' default number of examples;
``--hypothesis-profile=ci`` (see ``conftest.py``) runs a few thousand.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argparse_oracle
from flopcalc import cli
from test_cli import DIAGNOSTICS, ROUTE_ARGVS, argparse_311

INTS = ["2", "3", "-1", "0", "1", "x", "", " 2", "1_0", "-3", "+2"]
VALUES = {
    "weight": ["0,0|0", "1,0|-1", "-1,0|0", "-1, 0|0", "0,0,0|1", "x"],
    "side": ["x", "xplus", "y"],
    # the runs write their --out files to a scratch working directory
    "out": ["report.md", "", os.devnull],
    "check": ["all", "lemma-1-3", "lemma-2-1", "cor-2-2", "prop-3-5", "nope", "-"],
}
# tokens dropped in anywhere: unknown flags, help, "--", negatives, values
# with spaces, extra positionals and prefixes no flag has
TOKENS = ["--foo", "--foo=1", "-x", "--", "--", "-h", "--help", "--he", "--h", "-hh", "-hx",
          "-h=h", "-h=", "--help=1", "--json=1", "--json=", "--m", "--=x", "--n=3", "-", "",
          "extra", "phi", "psi", "picard", "oy-oy", "all", "bott", "verify", "-3", "-1.5",
          "-.5", "-1, 0|0", "a b", "--n 2", "-x" + "y" * 50, "x" * 50]


def _prefixes(option):
    return [option[:k] for k in range(3, len(option) + 1)]


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    items = []
    if command.positional is not None:
        dest, choices = command.positional
        items.append([draw(st.sampled_from(VALUES.get(dest) or [*choices, "xyz"]))])
    for option, flag in command.flags.items():
        if flag is cli._HELP or not draw(st.integers(0, 3)):
            continue
        written = draw(st.sampled_from(_prefixes(option)))
        if flag.kind is bool:
            items.append([written])
        else:
            items.append([written, draw(st.sampled_from(VALUES.get(flag.dest, INTS)))])
    tokens = [name] + [token for item in draw(st.permutations(items)) for token in item]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(tokens)))
        mutation = draw(st.sampled_from(["insert", "join", "drop", "repeat", "value", "prefix"]))
        if mutation == "insert":
            tokens.insert(at, draw(st.sampled_from(TOKENS)))
        elif at == len(tokens):
            continue
        elif mutation == "join" and at + 1 < len(tokens) and tokens[at + 1] != "--":
            # argparse 3.11 reads --flag=-- as an empty list, which the
            # package's parser deliberately reads as the value "--"
            tokens[at:at + 2] = [f"{tokens[at]}={tokens[at + 1]}"]
        elif mutation == "drop":
            del tokens[at]
        elif mutation == "repeat":
            tokens.insert(draw(st.integers(0, len(tokens))), tokens[at])
        elif mutation == "value":
            tokens[at] = draw(st.sampled_from(INTS + VALUES["weight"]))
        elif mutation == "prefix" and tokens[at].startswith("--") and len(tokens[at]) > 3:
            tokens[at] = tokens[at][:draw(st.integers(2, len(tokens[at]) - 1))]
    return tokens


@pytest.fixture(scope="module", autouse=True)
def _scratch_directory(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("out"))
        yield


def _with_examples(test):
    # a prefix of two options, and -=x, which argparse's route did not name
    # ahead of a missing flag
    extra = [["verify", "all", "--ma=3"], ["bott", "-=x"], ["bott", "-=x", "--foo"],
             ["koszul", "-hh"]]
    for argv in ROUTE_ARGVS + [argv for argv, _ in DIAGNOSTICS] + extra:
        test = example(argv)(test)
    return test


@argparse_311
@settings(deadline=None)
@given(_argv())
@_with_examples
def test_parser_matches_argparse_oracle(argv):
    argparse_oracle.assert_same_outcome(argv, argparse_oracle.parse_args)
