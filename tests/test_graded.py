import random

import pytest

from cobcheck.abgroup import FgAbGroup, Z, ZERO, cyclic, from_orders
from cobcheck.graded import (GradedGroup, GradingError, LaurentGrading,
                             coefficient_change, finest_period)

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


def test_finest_period_fold():
    g = GradedGroup.from_dict({1: cyclic(2), 3: cyclic(2)}, period=4)
    folded = finest_period(g)
    assert folded.period == 2
    assert folded.entry(1) == cyclic(2)
    assert folded.entry(0) == ZERO


def test_finest_period_keeps_a_period_with_no_divisor():
    lumpy = GradedGroup.from_dict({0: Z, 2: cyclic(2)}, period=4)
    assert finest_period(lumpy) == lumpy


def test_finest_period_zero_group():
    out = finest_period(GradedGroup((), period=8))
    assert out == GradedGroup((), period=2)


def test_finest_period_property():
    # period-8 groups tiled from a random table of period 2, 4 or 8, so
    # that every fold is exercised
    rng = random.Random(7)
    for _ in range(300):
        base = _random_periodic(rng, rng.choice([2, 4, 8]), density=rng.choice([0.3, 0.6, 1.0]),
                                choices=rng.choice([(2,), (2, 3, 4)]))
        g = GradedGroup.from_dict({n: base.entry(n) for n in range(8)}, period=8)
        out = finest_period(g)
        assert base.period % out.period == 0
        assert all(out.entry(n) == g.entry(n) for n in range(-8, 16))
        # no smaller even divisor of the result's period is a period of it
        for p in range(2, out.period, 2):
            if out.period % p == 0:
                assert any(out.entry(n) != out.entry(n % p) for n in range(out.period))


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


def _random_periodic(rng, period, density=0.6, choices=(2, 3, 4)):
    table = {}
    for deg in range(period):
        if rng.random() < density:
            table[deg] = from_orders(*[rng.choice(choices) for _ in range(rng.randrange(0, 3))])
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
