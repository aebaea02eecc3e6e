"""Hypothesis profiles.  Tier-1 runs the default one; ``--hypothesis-profile=ci``
gives the property tests of the command-line grammar (``test_cli_parser.py``),
of the JSON writer (``test_json_writer.py``), of the integer reader
(``test_read_int.py``) and of the chase-system builder
(``test_homalg.py::TestLongExactSystemMatchesReference``) a few thousand
examples."""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
