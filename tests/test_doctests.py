import doctest

from flopcalc import bwb, homalg, pbundle


def test_bwb_docstrings():
    result = doctest.testmod(bwb)
    assert result.attempted > 0 and result.failed == 0


def test_homalg_docstrings():
    result = doctest.testmod(homalg)
    assert result.attempted > 0 and result.failed == 0


def test_pbundle_docstrings():
    result = doctest.testmod(pbundle)
    assert result.attempted > 0 and result.failed == 0
