"""``cli.to_json`` against the ``json.dumps`` call it replaced.

The oracle is ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
after every dict key is made ``str(key)``, as ``cli.render`` wrote --json
reports before it had a writer of its own.  Hypothesis draws nested dicts,
lists, tuples, namedtuples and ``OrderedDict``s of None, bools, ints,
``(str, Enum)`` and ``IntEnum`` members, and text from all of Unicode, lone
surrogates included; both sides must write the same text or raise the same
exception type.  The oracle is the standard library of the Python running
the test, so the comparison holds on every version.

Tier-1 runs Hypothesis' default number of examples;
``--hypothesis-profile=ci`` (see ``conftest.py``) runs a few thousand.
"""

import enum
import json
import sys
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flopcalc.cli import to_json


class Colour(str, enum.Enum):
    RED = "red"
    ODD = "a\u2028\"\\\n"


class Level(enum.IntEnum):
    LOW = 1


Pair = namedtuple("Pair", "left right")

TEXT = st.text(st.characters(exclude_categories=()))  # lone surrogates too
ATOMS = st.none() | st.booleans() | st.integers() | TEXT | st.sampled_from([*Colour, *Level])
VALUES = st.recursive(ATOMS, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.builds(Pair, inner, inner)
    | st.dictionaries(ATOMS, inner) | st.dictionaries(ATOMS, inner).map(OrderedDict)))
PAST_DIGIT_LIMIT = 10 ** getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def keys_as_str(value):
    if isinstance(value, dict):
        return {str(key): keys_as_str(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [keys_as_str(item) for item in value]
    return value


def outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def oracle(value):
    return json.dumps(keys_as_str(value), sort_keys=True, separators=(",", ":"))


@given(VALUES)
@example(Colour.ODD)
@example({Colour.RED: [Colour.RED, Level.LOW], Level.LOW: Colour.ODD})
@example("\ud800 \udfff \u2028 \U0001f600 \x7f \x00")
@example({1: "a", "1": "b"})
@example([True, 1, False, 0, None])
@example(((1, (2, ())), ()))
@example([PAST_DIGIT_LIMIT])
def test_writer_matches_json_dumps(value):
    assert outcome(to_json, value) == outcome(oracle, value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_int_past_the_digit_limit_raises_value_error():
    with pytest.raises(ValueError):
        to_json({"dims": {0: PAST_DIGIT_LIMIT}})


@pytest.mark.parametrize("value", [1.5, [float("nan")], {"x": object()}, {1, 2}])
def test_other_types_raise_type_error(value):
    # the engine's numbers are exact ints; JSON has no form for the rest
    with pytest.raises(TypeError):
        to_json(value)
