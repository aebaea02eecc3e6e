"""The command-line grammar, on argvs drawn from the package's flag table.

``tests/cli_grammar.py`` draws a subcommand's arguments and writes them in
any order and spelling the grammar accepts; each spelling must parse to the
arguments of the canonical argv.  One spelling the grammar refuses (a
prefix of a flag, ``--``, ``-hh`` or a repeated flag) must exit 2 with one
line on stderr that names it.  Edited argvs, mostly malformed, must give
the same exit code, stdout and stderr with the package's parser as with the
grammar written out in ``cli_grammar.parse_args``; every pinned argv of
``test_cli`` is an explicit example.  The tests run on every Python.

Tier-1 runs Hypothesis' default number of examples;
``--hypothesis-profile=ci`` (see ``conftest.py``) runs a few thousand.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_grammar
from flopcalc import cli
from test_cli import DIAGNOSTICS, ROUTE_ARGVS


@pytest.fixture(scope="module", autouse=True)
def _scratch_directory(tmp_path_factory):
    # the runs write their --out files to a scratch working directory
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("out"))
        yield


@st.composite
def _spelled(draw):
    name, items = draw(cli_grammar.commands())
    return cli_grammar.canonical(name, items), [name, *draw(cli_grammar.spellings(items))]


@given(_spelled())
def test_every_spelling_parses_as_the_canonical_argv(argvs):
    canonical, spelled = argvs
    assert vars(cli._parse_args(spelled)) == vars(cli._parse_args(canonical)), spelled


@st.composite
def _refused(draw):
    """An argv with one spelling the grammar refuses, and the token its
    diagnostic must name."""
    name, items = draw(cli_grammar.commands())
    options = cli._COMMANDS[name].flags
    flags = [item for item in items if item[0].startswith("--")]
    prefixes = [(item, item[0][:k]) for item in flags for k in range(3, len(item[0]))
                if item[0][:k] not in options]
    how = draw(st.sampled_from(["--", "-hh"] + ["repeat"] * bool(flags)
                               + ["prefix"] * bool(prefixes)))
    if how == "prefix":
        item, token = draw(st.sampled_from(prefixes))
        item[0] = token
    elif how == "repeat":
        item = draw(st.sampled_from(flags))
        items.insert(draw(st.integers(0, len(items))), item)
        token = item[0]
    else:
        items.insert(draw(st.integers(0, len(items))), [how])
        token = how
    return [name, *draw(cli_grammar.spellings(items))], token


@settings(deadline=None)
@given(_refused())
@example((["bott", "--wei", "0,0|0", "--n", "2"], "--wei"))
@example((["verify", "all", "--m", "3"], "--m"))
@example((["verify", "--", "all"], "--"))
@example((["bott", "-hh"], "-hh"))
@example((["koszul", "--n", "2", "--n", "3"], "--n"))
def test_refused_spelling_is_named(case):
    argv, token = case
    code, out, err = cli_grammar.run(argv)
    assert (code, out) == (2, "") and err.count("\n") == 1, argv
    message = err.removeprefix("flopcalc: error: ")
    if message.startswith("unrecognized arguments: "):
        assert token in [word.partition("=")[0] for word in message.split()[2:]], argv
    else:
        assert message == f"argument {token}: given more than once\n", argv


def _with_examples(test):
    for argv in ROUTE_ARGVS + [argv for argv, _ in DIAGNOSTICS]:
        test = example(argv)(test)
    return test


@settings(deadline=None)
@given(cli_grammar.mutated())
@_with_examples
def test_parser_matches_grammar_reference(argv):
    cli_grammar.assert_same_outcome(argv)
