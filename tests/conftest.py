"""Hypothesis profiles.  Tier-1 runs the default one; ``--hypothesis-profile=ci``
gives the command-line parser's differential test (``test_cli_parser.py``) a few
thousand examples."""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
