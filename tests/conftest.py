"""Hypothesis profiles.  Tier-1 runs the default one; ``--hypothesis-profile=ci``
gives the property tests of the command-line grammar (``test_cli_parser.py``)
and of the JSON writer (``test_json_writer.py``) a few thousand examples."""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
