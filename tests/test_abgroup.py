import doctest
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import cobcheck.abgroup as abgroup
from cobcheck.abgroup import (FgAbGroup, GroupHom, HomValidationError, IntMatrix,
                              SolverLimitError, Z, ZERO, _residue_runs,
                              _run_length, bound_may_truncate,
                              cokernel, composite_is_zero,
                              cyclic, direct_sum, from_orders,
                              hom_images, hom_matrix_space, homology_at,
                              smith_normal_form, tensor, tor)

from oracles import (determinant, hom_matrix_space_by_product, is_zero, order, zero_hom,
                     zero_matrix)


def test_doctests():
    failures, _ = doctest.testmod(abgroup)
    assert failures == 0


# ---------------------------------------------------------------------------
# normal form


def test_invariant_chain_validation():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))  # 4 does not divide 2
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1)


def test_from_orders_recombines():
    assert from_orders(2, 3) == cyclic(6)
    assert from_orders(2, 4) == FgAbGroup(0, (2, 4))
    assert from_orders(0, 30, 4) == FgAbGroup(1, (2, 60))
    assert from_orders() == ZERO
    assert str(from_orders(2, 2)) == "(Z/2)^2"


def test_order():
    assert order(ZERO) == 1
    assert order(cyclic(6)) == 6
    assert order(Z) is None
    assert order(from_orders(2, 4)) == 8


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_identity():
    m = IntMatrix.identity(2)
    u, d, v = smith_normal_form(m)
    assert d == m and u == m and v == m


def test_snf_single_entry():
    u, d, v = smith_normal_form(IntMatrix.from_rows([[2]]))
    assert d.entries == ((2,),)


def test_snf_expected_diagonal():
    # gcd of entries is 2 and |det| = 8, so the diagonal is (2, 4)
    _, d, _ = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert d.diagonal() == (2, 4)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = zero_matrix(rows, cols)
        u, d, v = smith_normal_form(m)
        assert (d.rows, d.cols) == (rows, cols)
        assert u.mul(m).mul(v) == d


def _random_matrix(rng, max_dim=4, max_entry=9):
    rows = rng.randrange(0, max_dim + 1)
    cols = rng.randrange(0, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randrange(-max_entry, max_entry + 1) for _ in range(cols)] for _ in range(rows)])


def test_snf_large_entries_do_not_swell():
    # re-selecting the smallest pivot before each reduction keeps the
    # unimodular transforms small; without it they explode past
    # thousands of digits on inputs like this
    rng = random.Random(2718)
    m = IntMatrix.from_rows(
        [[rng.randrange(-10**6, 10**6) for _ in range(5)] for _ in range(5)])
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    worst = max(abs(x) for mat in (u, v) for row in mat.entries for x in row)
    assert worst < 10 ** 300


def test_snf_reconstruction_and_unimodularity_randomized():
    rng = random.Random(20240901)
    for _ in range(150):
        m = _random_matrix(rng)
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = d.diagonal()
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entries[i][j] == 0


# ---------------------------------------------------------------------------
# cokernel


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == cyclic(2)
    assert cokernel(IntMatrix(1, 0, ((),))) == Z
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])) == from_orders(2, 4)


def test_cokernel_brute_force_coset_count():
    # Z^2 / <(2,0),(0,4)> has 8 cosets
    grp = cokernel(IntMatrix.from_rows([[2, 0], [0, 4]]))
    assert order(grp) == 8


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-2, 3)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m)


def test_cokernel_invariant_under_unimodular_randomized():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_matrix(rng, max_dim=3, max_entry=5)
        if m.rows == 0 or m.cols == 0:
            continue
        u = _random_unimodular(rng, m.rows)
        v = _random_unimodular(rng, m.cols)
        assert cokernel(u.mul(m).mul(v)) == cokernel(m)


# ---------------------------------------------------------------------------
# direct sum, tensor, tor


def test_direct_sum_examples():
    assert direct_sum(Z, ZERO) == Z
    assert direct_sum(cyclic(2), cyclic(2)) == FgAbGroup(0, (2, 2))
    assert direct_sum(cyclic(2), cyclic(3)) == cyclic(6)


def _random_group(rng, max_rank=2, max_factors=3):
    orders = [0] * rng.randrange(0, max_rank + 1)
    orders += [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randrange(0, max_factors + 1))]
    return from_orders(*orders)


def test_direct_sum_algebra_randomized():
    rng = random.Random(99)
    for _ in range(120):
        a, b, c = (_random_group(rng) for _ in range(3))
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert direct_sum(a, ZERO) == a
        out = direct_sum(a, b, c)
        for x, y in zip(out.torsion, out.torsion[1:]):
            assert y % x == 0


def test_tensor_tor_examples():
    assert tensor(Z, cyclic(2)) == cyclic(2)
    assert tor(Z, from_orders(0, 2, 4)) == ZERO
    assert tor(cyclic(2), cyclic(4)) == cyclic(2)


def test_tor_matches_resolution_oracle():
    # Tor(Z/m, Z/n) is the kernel of multiplication by m on Z/n
    for m in range(2, 7):
        for n in range(2, 7):
            h = GroupHom(cyclic(n), cyclic(n), IntMatrix.from_rows([[m]]))
            _, kernel, _ = hom_images(h)
            assert tor(cyclic(m), cyclic(n)) == kernel


def test_tensor_tor_symmetric_additive_randomized():
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (_random_group(rng) for _ in range(3))
        assert tensor(a, b) == tensor(b, a)
        assert tor(a, b) == tor(b, a)
        assert tensor(direct_sum(a, b), c) == direct_sum(tensor(a, c), tensor(b, c))
        assert tor(direct_sum(a, b), c) == direct_sum(tor(a, c), tor(b, c))


# ---------------------------------------------------------------------------
# homs


def test_hom_images_examples():
    h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    assert hom_images(h) == (Z, ZERO, cyclic(2))

    a, b = from_orders(2, 4), from_orders(0, 2)
    assert hom_images(zero_hom(a, b)) == (ZERO, a, b)

    h = GroupHom(from_orders(0, 0), Z, IntMatrix.from_rows([[1, 2]]))
    assert hom_images(h) == (Z, Z, ZERO)


def test_hom_validation():
    with pytest.raises(HomValidationError):
        # generator of order 2 must land on 2-torsion
        GroupHom(cyclic(2), Z, IntMatrix.from_rows([[1]]))
    with pytest.raises(HomValidationError):
        GroupHom(cyclic(2), cyclic(4), IntMatrix.from_rows([[1]]))
    # the doubled generator is fine
    GroupHom(cyclic(2), cyclic(4), IntMatrix.from_rows([[2]]))


def _random_small_group(rng):
    # at most two generators so the full matrix space stays small
    orders = [rng.choice([0, 2, 3, 4]) for _ in range(rng.randrange(1, 3))]
    return from_orders(*orders)


def test_hom_images_order_product_randomized():
    rng = random.Random(11)
    checked = 0
    while checked < 120:
        src = _random_small_group(rng)
        tgt = _random_small_group(rng)
        space = hom_matrix_space(src, tgt, 2)
        if not space:
            continue
        h = rng.choice(space)
        image, kernel, coker = hom_images(h)
        if order(src) is not None:
            assert order(image) * order(kernel) == order(src)
        if order(tgt) is not None:
            assert order(image) * order(coker) == order(tgt)
        checked += 1


def test_homology_at_requires_zero_composite():
    f = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    g = GroupHom(Z, Z, IntMatrix.from_rows([[3]]))
    assert not composite_is_zero(f, g)
    with pytest.raises(HomValidationError):
        homology_at(f, g)


def test_homology_at_subquotient():
    # Z --(2,0)--> Z^2 --[0,1]--> Z is exact up to a Z/2 in the middle
    f = GroupHom(Z, from_orders(0, 0), IntMatrix.from_rows([[2], [0]]))
    g = GroupHom(from_orders(0, 0), Z, IntMatrix.from_rows([[0, 1]]))
    assert composite_is_zero(f, g)
    assert homology_at(f, g) == cyclic(2)
    assert homology_at(None, g) == Z
    assert homology_at(f, None) == direct_sum(Z, cyclic(2))
    assert homology_at(None, None, cyclic(4)) == cyclic(4)


# ---------------------------------------------------------------------------
# enumeration


def test_bound_truncation_flag():
    assert bound_may_truncate(Z, Z, 4)
    assert not bound_may_truncate(cyclic(2), cyclic(2), 4)
    assert bound_may_truncate(cyclic(8), cyclic(8), 4)


SPACE_GROUPS = [from_orders(*orders) for orders in
                [(), (0,), (2,), (4,), (0, 0), (0, 2), (2, 4), (0, 6), (3, 3)]]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_hom_matrix_space_matches_the_product_enumeration(bound):
    # the compact space has the order, length and indexing of the full
    # product filtered by GroupHom, and its matrices are the homs' rows
    for source in SPACE_GROUPS:
        for target in SPACE_GROUPS:
            space = hom_matrix_space(source, target, bound)
            want = hom_matrix_space_by_product(source, target, bound)
            assert len(space) == len(want) > 0
            assert list(space) == want
            assert [space[h] for h in range(len(want))] == want
            assert space[-1] == want[-1]
            assert [space.matrix(h) for h in range(len(want))] == [h.matrix.entries for h in want]
            with pytest.raises(IndexError):
                space[len(want)]


ORDER_LISTS = st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 9]), max_size=2)


@settings(deadline=None, database=None, max_examples=80)
@given(ORDER_LISTS, ORDER_LISTS, st.integers(1, 4))
def test_hom_zero_of_every_space_is_its_zero_map_and_no_other_is(s_orders, t_orders, bound):
    # the enumerator keeps a class representative's nonzero homs by their
    # indexes and drops index 0: each entry runs over distinct residues
    # (or integers) starting at 0, so the all-0 matrix comes first and
    # is the only one that vanishes
    space = hom_matrix_space(from_orders(*s_orders), from_orders(*t_orders), bound)
    assert [h for h, hom in enumerate(space) if is_zero(hom)] == [0]
    assert space[0] == zero_hom(space.source, space.target)


def test_torsion_slots_take_residues_without_a_range_over_the_bound():
    # a bound far past every order gives the residues a bound of the
    # largest order gives; no range over the bound is built, so a bound
    # beyond a C ssize_t is fine
    huge = 10 ** 29
    assert tuple(itertools.chain(*_residue_runs(12, 0, huge))) == tuple(range(12))
    assert tuple(itertools.chain(*_residue_runs(12, 0, 2))) == (0, 1, 2, 10, 11)
    # nor a range over a huge order: the work follows the values kept
    t = 10 ** 12 + 39
    assert tuple(itertools.chain(*_residue_runs(t, 0, 2))) == (0, 1, 2, t - 2, t - 1)
    assert hom_matrix_space(cyclic(2), cyclic(2 ** 40), huge).entries == (((0, 2 ** 39),),)
    assert hom_matrix_space(cyclic(2), cyclic(2 ** 40), 2).entries == (((0,),),)
    for source, target in [(cyclic(2), from_orders(4, 12)), (from_orders(2, 4), from_orders(3, 6)),
                           (cyclic(4), Z)]:
        assert hom_matrix_space(source, target, huge).entries == \
            hom_matrix_space(source, target, 12).entries


def test_residue_runs_match_the_residues_of_the_bounded_range():
    # the runs are the residues mod t of range(-bound, bound + 1) that d
    # kills, ascending, as the slot values were first defined
    for t in range(2, 14):
        for d in (0, 1, 2, 3, 4, 6, 12):
            for bound in range(0, 2 * t):
                want = tuple(x for x in sorted({x % t for x in range(-bound, bound + 1)})
                             if not d * x % t)
                runs = _residue_runs(t, d, bound)
                assert tuple(itertools.chain(*runs)) == want
                assert sum(map(_run_length, runs)) == len(want)


def test_a_hom_space_past_sys_maxsize_is_a_named_solver_limit():
    # Z^3 -> Z^3 at bound 100 has 201^9 > 2^63 homs: the limit is raised
    # before any entry range is built, and it names entry_bound
    for bound in (100, 10 ** 29):
        with pytest.raises(SolverLimitError, match=f"entry_bound {bound} "):
            hom_matrix_space(FgAbGroup(3), FgAbGroup(3), bound)
    # Z^2 -> Z/2^40 + Z/2^40 holds 2^160 homs once the bound covers the
    # order: a huge order with a huge bound is caught before its residues
    with pytest.raises(SolverLimitError, match="entry_bound 100000"):
        hom_matrix_space(FgAbGroup(2), from_orders(2 ** 40, 2 ** 40), 10 ** 29)
    assert len(hom_matrix_space(FgAbGroup(3), FgAbGroup(3), 1)) == 3 ** 9


def test_a_hom_space_past_the_hom_limit_is_a_named_solver_limit():
    # a space of more than MAX_HOMS homs is refused before any row is
    # built, though its length fits a C ssize_t: Z/10^12 -> Z/10^12 + Z
    # has 10^12 homs once the bound covers the order, and Z -> Z^2 at
    # bound 10^6 has (2 * 10^6 + 1)^2
    with pytest.raises(SolverLimitError, match=f"entry_bound {10 ** 29} "):
        hom_matrix_space(cyclic(10 ** 12), from_orders(0, 10 ** 12), 10 ** 29)
    with pytest.raises(SolverLimitError, match=f"more than {abgroup.MAX_HOMS}, "):
        hom_matrix_space(FgAbGroup(1), FgAbGroup(2), 10 ** 6)
    # a space just under the limit is built
    assert len(hom_matrix_space(FgAbGroup(1), FgAbGroup(2), 511)) == 1023 ** 2 <= abgroup.MAX_HOMS


def test_a_hom_space_takes_cokernels_once_per_row_class_and_only_when_asked(monkeypatch):
    # Z^3 -> Z^3 at bound 1, the largest space of the T^3 table at step
    # 2: building its 19,683 homs takes no Smith diagonal and keys none
    # of them, a hom's facts record (cokernel and image) takes one for
    # its row class the first time a hom of the class is read, and all of
    # them take one per row key
    calls = []
    monkeypatch.setattr(abgroup, "cokernel", lambda m: calls.append(m) or cokernel(m))
    space = hom_matrix_space(FgAbGroup(3), FgAbGroup(3), 1)
    assert not calls and "_row_bits" not in vars(space)
    last = len(space) - 1
    space.facts[last]
    assert len(calls) == 1
    # the all -1 matrix shares (1 1 1)'s rows up to sign
    rep = next(h for h in range(len(space)) if space.row_key(h) == space.row_key(last))
    assert rep != last
    assert space.facts[rep] is space.facts[last] and len(calls) == 1
    assert len([space.facts[h] for h in range(len(space))]) == len(space)
    assert len(calls) == len({space.row_key(h) for h in range(len(space))})
