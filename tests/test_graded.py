import random

import pytest

from cobcheck.abgroup import FgAbGroup, Z, ZERO, cyclic, from_orders
from cobcheck.graded import GradedGroup, GradingError, LaurentGrading, coefficient_change

from oracles import order


def test_laurent_grading_validation():
    assert LaurentGrading(-8).step == 8
    with pytest.raises(GradingError):
        LaurentGrading(-3)
    with pytest.raises(GradingError):
        LaurentGrading(0)
    with pytest.raises(GradingError):
        LaurentGrading(2)


def test_entries_drop_zeros_and_sort():
    g = GradedGroup.from_dict({3: Z, 0: ZERO, 1: cyclic(2)})
    assert g.support() == (1, 3)
    assert g.entry(0) == ZERO
    assert g.entry(3) == Z


def test_coefficient_change_identity():
    both = (cyclic(2), cyclic(2))
    assert coefficient_change(both, LaurentGrading(-4), LaurentGrading(-4)) == both


def test_coefficient_change_fold_to_finer():
    out = coefficient_change((ZERO, cyclic(2)), LaurentGrading(-8), LaurentGrading(-2))
    assert out == (ZERO, from_orders(2, 2, 2, 2))

    out = coefficient_change((cyclic(2), cyclic(2)), LaurentGrading(-4), LaurentGrading(-2))
    assert out == (from_orders(2, 2), from_orders(2, 2))


def test_coefficient_change_rejects_non_divisor():
    with pytest.raises(GradingError, match="target step 6 does not divide source step 8"):
        coefficient_change((ZERO, cyclic(2)), LaurentGrading(-8), LaurentGrading(-6))


def _random_group(rng, choices=(2, 3, 4)):
    return from_orders(*[rng.choice(choices) for _ in range(rng.randrange(0, 3))])


def _random_pair(rng):
    return _random_group(rng), _random_group(rng)


def test_coefficient_change_composes_along_divisor_chains():
    rng = random.Random(5)
    for _ in range(100):
        g = _random_pair(rng)
        direct = coefficient_change(g, LaurentGrading(-8), LaurentGrading(-2))
        via4 = coefficient_change(
            coefficient_change(g, LaurentGrading(-8), LaurentGrading(-4)),
            LaurentGrading(-4), LaurentGrading(-2))
        assert direct == via4


def test_coefficient_change_conserves_order():
    # degrees * + 2k, k = 0..3, all of the parity of *, become one
    rng = random.Random(6)
    for _ in range(100):
        g = _random_pair(rng)
        out = coefficient_change(g, LaurentGrading(-8), LaurentGrading(-2))
        for parity in (0, 1):
            assert order(out[parity]) == order(g[parity]) ** 4
