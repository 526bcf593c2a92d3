import itertools

import pytest

from cobcheck.abgroup import FgAbGroup, Z, ZERO, cyclic, from_orders
from cobcheck.graded import GradedGroup
from cobcheck.topology import (Explicit, LagrangianDescriptor, Product,
                               RealProjective, Sphere, TopologyError, homology, kunneth,
                               mayer_vietoris_spin_check, monotonicity_constant, pair_maslov,
                               z2_cohomology_dims)

from oracles import cellular_homology, dimension, rp_homology_cellular


def test_sphere_homology():
    assert dict(homology(Sphere(3)).entries) == {0: Z, 3: Z}
    assert dict(homology(Sphere(1)).entries) == {0: Z, 1: Z}
    assert homology(Sphere(0)).entry(0) == FgAbGroup(2)


def test_rp7_homology():
    table = dict(homology(RealProjective(7)).entries)
    assert table == {0: Z, 1: cyclic(2), 3: cyclic(2), 5: cyclic(2), 7: Z}


def test_rp_table_matches_cellular_oracle_up_to_ten():
    for n in range(11):
        assert dict(homology(RealProjective(n)).entries) == rp_homology_cellular(n)


def test_product_rp3_s3():
    h = homology(Product(RealProjective(3), Sphere(3)))
    assert h.entry(0) == Z
    assert h.entry(1) == cyclic(2)
    assert h.entry(2) == ZERO
    assert h.entry(3) == FgAbGroup(2)
    assert h.entry(4) == cyclic(2)
    assert h.entry(5) == ZERO
    assert h.entry(6) == Z


def test_kunneth_tor_term():
    # RP^2 x RP^2 picks up Tor(Z/2, Z/2) in degree 3
    h = homology(Product(RealProjective(2), RealProjective(2)))
    assert h.entry(1) == from_orders(2, 2)
    assert h.entry(2) == cyclic(2)
    assert h.entry(3) == cyclic(2)


def test_kunneth_symmetric():
    spaces = [Sphere(2), RealProjective(3), Sphere(1), RealProjective(2)]
    for x, y in itertools.combinations(spaces, 2):
        assert homology(Product(x, y)) == homology(Product(y, x))


def test_poincare_duality_free_ranks():
    closed_orientable = [
        Sphere(4),
        Product(Sphere(2), Sphere(3)),
        RealProjective(7),
        Product(RealProjective(3), Sphere(3)),
        Product(Product(RealProjective(3), Sphere(3)), Sphere(1)),
    ]
    for space in closed_orientable:
        h = homology(space)
        n = dimension(space)
        for k in range(n + 1):
            assert h.entry(k).free_rank == h.entry(n - k).free_rank


def euler_characteristic(h: GradedGroup) -> int:
    return sum((-1) ** deg * grp.free_rank for deg, grp in h.entries)


def test_euler_characteristic_multiplicative():
    pairs = [(Sphere(2), Sphere(4)), (RealProjective(2), Sphere(2)),
             (Product(Sphere(2), Sphere(2)), RealProjective(3))]
    for x, y in pairs:
        assert euler_characteristic(homology(Product(x, y))) == \
            euler_characteristic(homology(x)) * euler_characteristic(homology(y))


def test_explicit_space():
    h = GradedGroup.from_dict({0: Z, 2: cyclic(2)})
    e = Explicit(h, 2)
    assert homology(e) == h
    assert dimension(e) == 2


def test_cellular_homology_circle_complex():
    # one 0-cell, one 1-cell, zero boundary: H_0 = H_1 = Z
    from cobcheck.abgroup import IntMatrix
    bounds = [IntMatrix(0, 1, ()), IntMatrix.from_rows([[0]])]
    assert cellular_homology(bounds) == {0: Z, 1: Z}


# ---------------------------------------------------------------------------
# Lagrangians


def test_pair_maslov():
    a = LagrangianDescriptor("A", RealProjective(7), 7, 8)
    b = LagrangianDescriptor("B", None, 7, 4)
    assert pair_maslov(a, b) == 4
    assert pair_maslov(a, a) == 8
    zero = LagrangianDescriptor("Zm", None, 7, 0)
    assert pair_maslov(a, zero) == 8


def test_pair_maslov_needs_monotone():
    a = LagrangianDescriptor("A", None, 7, 8)
    b = LagrangianDescriptor("B", None, 7, 4, monotone=False)
    with pytest.raises(TopologyError):
        pair_maslov(a, b)


def test_descriptor_invariants():
    with pytest.raises(TopologyError):
        LagrangianDescriptor("X", None, 7, 3)  # odd Maslov on orientable
    with pytest.raises(TopologyError):
        LagrangianDescriptor("X", None, 7, 4, orientable=False, spin=True)
    LagrangianDescriptor("X", None, 7, 3, orientable=False, spin=False)


def test_monotonicity_constant():
    # tau = 2(n+1)/pi, held as the integer multiple of 1/pi
    assert monotonicity_constant(7) == 16
    assert monotonicity_constant(1) == 4
    # two Lagrangians in the same ambient space share tau
    assert monotonicity_constant(7) == monotonicity_constant(7)


# ---------------------------------------------------------------------------
# Z_2 machinery


def test_z2_cohomology_dims_rp7():
    dims = z2_cohomology_dims(homology(RealProjective(7)), range(8))
    assert [dims[k] for k in range(8)] == [1] * 8


def test_mayer_vietoris_spin_check_paper_data():
    s_hom = homology(Product(RealProjective(3), Sphere(3)))
    l1_hom = homology(Product(Product(RealProjective(3), Sphere(3)), Sphere(1)))
    s = z2_cohomology_dims(s_hom, [1, 2])
    l1 = z2_cohomology_dims(l1_hom, [1, 2])
    assert mayer_vietoris_spin_check(l1, s, {1: 1, 2: 1})
    # a point intersection: zero target forces surjectivity
    assert mayer_vietoris_spin_check(l1, {}, {1: 0, 2: 0})
    # failed hypothesis is inconclusive, not an error
    assert not mayer_vietoris_spin_check(l1, s, {1: 0, 2: 0})


def test_mayer_vietoris_spin_check_validation():
    s = {1: 1, 2: 1}
    l1 = {1: 2, 2: 2}
    with pytest.raises(TopologyError):
        mayer_vietoris_spin_check(l1, s, {1: 1})  # missing degree 2
    with pytest.raises(TopologyError):
        mayer_vietoris_spin_check(l1, s, {1: 5, 2: 1})  # impossible rank
