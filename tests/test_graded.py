import random

import pytest

from cobcheck.abgroup import FgAbGroup, Z, ZERO, cyclic, from_orders
from cobcheck.graded import (GradedGroup, GradingError, LaurentGrading,
                             PeriodConflict, coefficient_change,
                             impose_periodicity)

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


def test_periodic_lookup():
    g = GradedGroup.from_dict({1: cyclic(2)}, period=2)
    assert g.entry(-7) == cyclic(2)
    assert g.entry(4) == ZERO


def test_impose_periodicity_fold():
    g = GradedGroup.from_dict({1: cyclic(2), 3: cyclic(2)})
    folded = impose_periodicity(g, 2)
    assert isinstance(folded, GradedGroup)
    assert folded.period == 2
    assert folded.entry(1) == cyclic(2)
    assert folded.entry(0) == ZERO


def test_impose_periodicity_zero_group():
    out = impose_periodicity(GradedGroup(), 4)
    assert isinstance(out, GradedGroup)
    assert out.is_zero()


def test_impose_periodicity_conflict():
    out = impose_periodicity(GradedGroup.from_dict({0: Z, 2: cyclic(2)}), 2)
    assert isinstance(out, PeriodConflict)
    assert (out.degree_a, out.degree_b) == (0, 2)


def test_impose_periodicity_idempotent():
    g = GradedGroup.from_dict({0: Z, 1: cyclic(2), 4: Z, 5: cyclic(2)})
    once = impose_periodicity(g, 4)
    assert isinstance(once, GradedGroup)
    assert impose_periodicity(once, 4) == once


def test_impose_periodicity_on_already_periodic():
    fine = GradedGroup.from_dict({1: cyclic(2)}, period=2)
    # a coarser multiple is already satisfied; the finer statement is kept
    assert impose_periodicity(fine, 4) == fine
    # an incompatible period must compare entries over a common window
    lumpy = GradedGroup.from_dict({0: Z, 2: cyclic(2)}, period=4)
    out = impose_periodicity(lumpy, 6)
    assert isinstance(out, PeriodConflict)


def test_coefficient_change_identity():
    both = GradedGroup.from_dict({0: cyclic(2), 1: cyclic(2)}, period=2)
    assert coefficient_change(both, LaurentGrading(-4), LaurentGrading(-4)) == both


def test_coefficient_change_fold_to_finer():
    odd = GradedGroup.from_dict({1: cyclic(2)}, period=2)
    out = coefficient_change(odd, LaurentGrading(-8), LaurentGrading(-2))
    assert out.entry(1) == from_orders(2, 2, 2, 2)
    assert out.entry(0) == ZERO

    both = GradedGroup.from_dict({0: cyclic(2), 1: cyclic(2)}, period=2)
    out = coefficient_change(both, LaurentGrading(-4), LaurentGrading(-2))
    assert out.entry(0) == from_orders(2, 2)
    assert out.entry(1) == from_orders(2, 2)


def test_coefficient_change_rejects_non_divisor():
    odd = GradedGroup.from_dict({1: cyclic(2)}, period=2)
    with pytest.raises(GradingError):
        coefficient_change(odd, LaurentGrading(-8), LaurentGrading(-6))


def _random_periodic(rng, period):
    table = {}
    for deg in range(period):
        if rng.random() < 0.6:
            table[deg] = from_orders(*[rng.choice([2, 3, 4]) for _ in range(rng.randrange(0, 3))])
    return GradedGroup.from_dict({d: g for d, g in table.items() if not g.is_trivial()},
                                 period=period)


def test_coefficient_change_composes_along_divisor_chains():
    rng = random.Random(5)
    for _ in range(100):
        g = _random_periodic(rng, 8)
        direct = coefficient_change(g, LaurentGrading(-8), LaurentGrading(-2))
        via4 = coefficient_change(
            coefficient_change(g, LaurentGrading(-8), LaurentGrading(-4)),
            LaurentGrading(-4), LaurentGrading(-2))
        assert direct == via4


def test_coefficient_change_conserves_order():
    rng = random.Random(6)
    for _ in range(100):
        g = _random_periodic(rng, 8)
        out = coefficient_change(g, LaurentGrading(-8), LaurentGrading(-2))
        for deg in (0, 1):
            expect = 1
            for k in range(4):
                expect *= order(g.entry(deg + 2 * k))
            assert order(out.entry(deg)) == expect
