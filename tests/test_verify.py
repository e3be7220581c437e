"""The tally behind every many-case verify-all row.

The real checks run once per session, in tests/test_acceptance.py; these
tests drive the helper on small literal cases.
"""

from iterant_lab import dirac, verify
from iterant_lab.matrix import SquareMatrix


def test_tally_counts_the_cases_and_keeps_the_first_disagreement():
    tally = verify._tally(iter(range(6)), lambda n: (n % 3, 0))
    assert tally == (6, 2, (1, 1, 1, 0))


def test_a_passing_row_gives_counts_and_renders_no_witness():
    def render(case):
        raise AssertionError("a passing row rendered a witness")

    row = verify._entry("X01.row", "test", "n = n", verify._tally([1, 2], lambda n: (n, n)),
                        seed=5, show=render)
    assert (row.passed, row.lhs, row.rhs, row.witness) == (True, "2/2 agree", "2/2 agree", None)


def test_a_failing_row_carries_the_first_disagreeing_case():
    row = verify._entry("X01.row", "test", "n^2 = 2n", verify._tally([2, 3, 4], lambda n: (n * n, 2 * n)),
                        seed=5, show=lambda n: {"n": n})
    assert (row.passed, row.lhs, row.rhs) == (False, "1/3 agree", "3/3 agree")
    assert row.witness == {"seed": 5, "index": 1, "inputs": {"n": 3}, "lhs": "9", "rhs": "6"}


def test_a_row_that_checked_no_case_fails():
    row = verify._entry("X01.row", "test", "nothing", verify._tally([], lambda n: (n, n)), seed=5)
    assert (row.passed, row.lhs, row.witness) == (False, "0/0 agree", None)


def test_a_failing_relation_shows_its_two_sides_not_false():
    off_shell = dirac.relations(dirac.dirac_frame("1d"), dirac.OnShellParams.of(2, 1, 0))
    row = verify._entry("X01.row", "test", "off shell", verify._tally(off_shell, verify._sides),
                        seed=5, show=verify._name)
    assert not row.passed
    # U^2 = (p^2 + m^2 - E^2) 1 = -3 against 0: the first relation fails
    assert row.witness == {"seed": 5, "index": 0, "inputs": "u-squared-zero",
                           "lhs": str(SquareMatrix.identity(2).scale(-3)),
                           "rhs": str(SquareMatrix.zero(2))}
    assert "False" not in row.witness["lhs"] + row.witness["rhs"]
