"""``bwb.read_int`` against the regular expression it replaced.

``read_int`` reads a token with ``str`` methods: strip whitespace, drop one
leading sign, then require ASCII digits.  The reference is the pattern the
engine matched before, ``[+-]`` and ASCII digits amid ``\\s`` whitespace,
written out here; ``\\s`` of a ``str`` pattern is Unicode whitespace.  Both
must refuse the same tokens, and an accepted token must read as ``int``
reads it or, past the int-to-str digit limit, give the same "too long"
message.  Hypothesis draws text from all of Unicode, lone surrogates
included, mixed with signs, whitespace and digits.

Tier-1 runs Hypothesis' default number of examples;
``--hypothesis-profile=ci`` (see ``conftest.py``) runs a few thousand.
"""

import re
import sys

from hypothesis import example, given
from hypothesis import strategies as st

from flopcalc.bwb import read_int

PATTERN = re.compile(r"\s*[+-]?[0-9]+\s*")
PAST_DIGIT_LIMIT = "1" + "0" * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
# a quarter each: signs and "_", digits of three scripts, whitespace, all of Unicode
ALPHABET = (st.sampled_from("+-_") | st.sampled_from("0123456789\u0663\uff13\xb2")
            | st.sampled_from(" \t\n\x1c\xa0\u2003\u3000") | st.characters(exclude_categories=()))


def reference(token):
    if not PATTERN.fullmatch(token):
        return "invalid"
    try:
        return int(token)
    except ValueError:
        return f"an integer of {len(token)} characters, too long to read"


def outcome(token):
    try:
        return read_int(token, "invalid")
    except ValueError as exc:
        return str(exc)


@given(st.text(ALPHABET))
@example("\u0663")  # ARABIC-INDIC DIGIT THREE, which int reads as 3
@example("\uff13")  # FULLWIDTH DIGIT THREE
@example("1_0")
@example("+ 7")
@example(" -7 ")
@example("\u2003-5\u2003")
@example("")
@example("+")
@example("+-5")
@example(PAST_DIGIT_LIMIT)
def test_read_int_matches_the_pattern(token):
    assert outcome(token) == reference(token)
