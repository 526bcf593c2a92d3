"""Randomized properties of the transform-free Smith diagonal, of the
vanishing masks and the kill table behind them, of the cokernels and
images read off row classes, the per-hom homology rule and the sibling rule
behind ``spectra._component_classes``, of the chain walk behind
``spectra._components``, of the worst-case run behind the pruner and the
window check, of the pruner's rank-flow lookahead and of the d_p lemmas
and packed bounds behind its torsion bounds, of the per-window
deduplication in ``exactness.certify_nonexistence``, and of whole
scenarios against the unpruned references."""
import contextlib
import copy
import functools
import io
import itertools
import json
import operator
import random
import tempfile
from importlib import resources
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cobcheck.abgroup as abgroup
from cobcheck import cli, spectra
from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, Z, ZERO, direct_sum,
                              cokernel, composite_is_zero, cyclic, from_orders,
                              hom_matrix_space, preimage_lattice, relation_matrix,
                              smith_normal_form, subquotient)
from cobcheck.cli import main
from cobcheck.exactness import CobordismClaim, certify_nonexistence
from cobcheck.graded import GradedGroup, LaurentGrading
from cobcheck.spectra import (BigradedPage, EnumerationTable, WindowError, _arrows_at,
                              _component_classes, _components, _first_active_page, _orthogonal,
                              _slots_and_unresolved, _worst_case_run, build_e1, solve_floer)
from cobcheck.topology import LagrangianDescriptor

import oracles
from oracles import (WholeFlow, certify_nonexistence_per_branch, component_classes_by_product,
                     components_by_union_find, entry_values, flow_values_by_product,
                     orthogonal_by_loop, signed_permutation_orbits, solve_floer_without_pruning,
                     transpose_masks, vanishing_masks_by_loop)
from test_spectra import (assert_pruning_keeps_the_leaves, assert_turns_read_the_dropped_sets,
                          classes_match_search_without_skipping, instances_built)


ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))


@st.composite
def matrices(draw, max_dim=5):
    """Integer matrices of any shape up to max_dim, empty ones included,
    some rows and columns forced to zero."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, max_dim - 1)))
    zero_cols = draw(st.sets(st.integers(0, max_dim - 1)))
    data = tuple(tuple(0 if i in zero_rows or j in zero_cols else draw(ENTRIES)
                       for j in range(cols)) for i in range(rows))
    return IntMatrix(rows, cols, data)


@st.composite
def groups(draw, max_rank=3, max_torsion=2):
    return from_orders(*[0] * draw(st.integers(0, max_rank)),
                       *draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=max_torsion)))


@st.composite
def homs(draw, source, target, bound=3):
    """A valid hom: a source generator of order d > 0 moves a target
    generator of order o by a multiple of o / gcd(d, o), so d kills its
    image (and it cannot reach a free target generator at all)."""
    def step(d, o):
        return 1 if d == 0 else (o // gcd(d, o) if o else 0)

    data = tuple(tuple(step(d, o) * draw(st.integers(-bound, bound))
                       for d in source.generator_orders())
                 for o in target.generator_orders())
    return GroupHom(source, target,
                    IntMatrix(len(data), source.generator_count(), data))


@settings(deadline=None, database=None)
@given(matrices())
def test_transform_free_diagonal_matches_smith_normal_form(m):
    _, d, _ = smith_normal_form(m)
    diag = abgroup._eliminate([list(r) for r in m.entries])
    assert diag == tuple(x for x in d.diagonal() if x)


@settings(deadline=None, database=None)
@given(st.data())
def test_homology_from_cokernel_when_outgoing_image_is_free(data):
    # H = ker(out) / im(in) at M; when im(out) = M / ker(out) is free of
    # rank r, M / im(in) is H plus Z^r
    middle = data.draw(groups())
    out = data.draw(homs(middle, data.draw(groups(max_rank=2))))
    kernel = preimage_lattice(out)
    # H depends only on im(in), and every subgroup of ker(out) is the
    # image of a free group: columns are combinations of the kernel lattice
    rank_in = data.draw(st.integers(0, 3))
    coeffs = tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(rank_in))
                   for _ in range(kernel.cols))
    inc = GroupHom(FgAbGroup(rank_in), middle,
                   kernel.mul(IntMatrix(kernel.cols, rank_in, coeffs)))
    assert composite_is_zero(inc, out)
    image = cokernel(kernel)
    if not out.target.torsion:
        # into a free group the image is free, of the matrix rank
        assert image == FgAbGroup(out.target.free_rank - cokernel(out.matrix).free_rank)
    if not image.torsion:
        coker = cokernel(inc.matrix.hstack(relation_matrix(middle)))
        assert (FgAbGroup(coker.free_rank - image.free_rank, coker.torsion)
                == subquotient(kernel, inc, middle))


def d_p(grp: FgAbGroup, p: int) -> int:
    """dim(grp ⊗ F_p): Z and each cyclic factor of order divisible by p
    give one copy of F_p, any other cyclic factor none."""
    return grp.free_rank + sum(not d % p for d in grp.torsion)


def drawn_homology(data, middle: FgAbGroup, target: FgAbGroup) -> FgAbGroup:
    """ker(out) / im(in) at ``middle``, for a drawn hom out of it into
    ``target`` and a drawn map into that kernel."""
    out = data.draw(homs(middle, target))
    kernel = preimage_lattice(out)
    rank_in = data.draw(st.integers(0, 3))
    coeffs = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(rank_in))
                   for _ in range(kernel.cols))
    inc = GroupHom(FgAbGroup(rank_in), middle,
                   kernel.mul(IntMatrix(kernel.cols, rank_in, coeffs)))
    return subquotient(kernel, inc, middle)


@settings(deadline=None, database=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_d_p_never_grows_on_a_subquotient(data, p):
    # the lemma behind the pruner's d_p bound: ker(out) / im(in) at M
    # has d_p at most d_p(M), d_p adds on direct sums, and it is at least
    # the free rank
    middle = data.draw(groups())
    homology = drawn_homology(data, middle, data.draw(groups(max_rank=2)))
    assert homology.free_rank <= d_p(homology, p) <= d_p(middle, p)
    other = data.draw(groups())
    assert d_p(direct_sum(middle, other), p) == d_p(middle, p) + d_p(other, p)


def u(grp: FgAbGroup, p: int, k: int) -> int:
    """u_{p,k} = dim(p^(k-1) grp / p^k grp): Z gives one copy of F_p, and
    a cyclic factor of order d gives p^(k-1) Z/d over p^k Z/d, of order
    gcd(d, p^k) / gcd(d, p^(k-1)), which is p when p^k divides d and 1
    otherwise."""
    return grp.free_rank + sum(gcd(d, p ** k) // gcd(d, p ** (k - 1)) == p for d in grp.torsion)


@st.composite
def deep_groups(draw, max_rank=2):
    """Groups with cyclic factors up to order 8 and 9, so u_{p,k} differs
    from d_p for k = 2 and 3."""
    return from_orders(*[0] * draw(st.integers(0, max_rank)),
                       *draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=3)))


@settings(deadline=None, database=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_u_p_k_never_grows_on_a_subquotient(data, p):
    # the lemma behind the pruner's d_p fields, on groups with factors of
    # order p^2 and p^3: u_{p,1} = dim(grp / p grp) is d_p, the free rank
    # plus the invariant factors divisible by p; it never grows on a
    # subquotient, and it adds on direct sums
    middle = data.draw(deep_groups())
    homology = drawn_homology(data, middle, data.draw(deep_groups()))
    assert homology.free_rank <= u(homology, p, 1) <= u(middle, p, 1)
    assert u(middle, p, 1) == d_p(middle, p)
    other = data.draw(deep_groups())
    assert u(direct_sum(middle, other), p, 1) == u(middle, p, 1) + u(other, p, 1)


X2 = GroupHom(cyclic(2), cyclic(4), IntMatrix.from_rows([[2]]))


@settings(deadline=None, database=None)
@given(st.tuples(deep_groups(), deep_groups()).flatmap(lambda pair: homs(*pair)),
       st.sampled_from([2, 3]))
@example(h=X2, p=2)
def test_d_p_is_subadditive_over_extensions(h, p):
    # M is an extension of coker h by im h, split or not, and d_p(M) is at
    # most d_p(im h) + d_p(coker h), so the upper end of a d_p field holds
    # for any abutment.  u_4 is not subadditive: x2: Z/2 -> Z/4 puts Z/2
    # under Z/2 with Z/4 over them, where d_2 is 1 <= 1 + 1 but u_4 is
    # 1 > 0 + 0
    image, _, coker = abgroup.hom_images(h)
    assert d_p(h.target, p) <= d_p(image, p) + d_p(coker, p)
    if h.target == cyclic(4) and image == coker == cyclic(2):
        assert u(h.target, 2, 2) == 1 > u(image, 2, 2) + u(coker, 2, 2) == 0


@settings(deadline=None, database=None)
@given(st.lists(deep_groups(), min_size=2, max_size=3))
@example(grps=[cyclic(2), cyclic(4)])
def test_the_last_turn_packing_is_additive_and_injective(grps):
    # fields of 5 bits hold the 15 generators of three groups
    lens = spectra._Lens(None, 5)
    assert sum(map(lens.packed, grps)) == lens.packed(direct_sum(*grps))
    assert (lens.packed(grps[0]) == lens.packed(grps[1])) == (grps[0] == grps[1])


@settings(deadline=None, database=None)
@given(st.lists(deep_groups(), min_size=1, max_size=3),
       st.sets(st.sampled_from([2, 3, 5]), min_size=1))
def test_a_lens_packs_the_free_rank_and_each_d_p(grps, primes):
    # fields of 4 bits hold the 15 generators of three groups; field j
    # holds d_p for the j-th prime p
    lens = spectra._Lens(tuple(sorted(primes)), 4)
    packed = sum(map(lens.packed, grps))
    assert [packed >> 5 * j & 31 for j in range(len(primes) + 1)] == [
        sum(grp.free_rank for grp in grps),
        *(sum(d_p(grp, p) for grp in grps) for p in sorted(primes))]


FIELD = st.integers(0, 7)


@settings(deadline=None, database=None, max_examples=200)
@given(st.lists(st.tuples(FIELD, FIELD, FIELD, FIELD), min_size=1, max_size=4),
       st.booleans(), st.booleans())
# two exact bounds that share only the free rank do not meet
@example(fields=[(1, 1, 1, 1), (2, 2, 3, 3)], seen_exact=True, bound_exact=True)
def test_the_packed_meet_is_the_meet_of_each_field(fields, seen_exact, bound_exact):
    # fields of 3 bits under one guard bit each, the free rank's and one
    # per prime power: (seen lo, seen hi, bound lo, bound hi) per field;
    # an exact bound has hi = lo in every field
    def pack(values):
        return sum(value << 4 * j for j, value in enumerate(values))

    fields = [(s_lo, s_lo if seen_exact else s_hi, b_lo, b_lo if bound_exact else b_hi)
              for s_lo, s_hi, b_lo, b_hi in fields]
    lens = spectra._Lens((2, 4, 3)[:len(fields) - 1], 3)
    seen = (pack(f[0] for f in fields), pack(f[1] for f in fields))
    bound = (pack(f[2] for f in fields), pack(f[3] for f in fields))
    each = [oracles.meet_of_each_field((s_lo, s_hi), (b_lo, b_hi))
            for s_lo, s_hi, b_lo, b_hi in fields]
    assert lens.meet(seen, bound) == (None if None in each else (
        pack(m[0] for m in each), pack(m[1] for m in each)))


# groups whose generators map into free, Z/2, Z/4 and Z/3 targets
MASK_GROUPS = [from_orders(*orders) for orders in
               [(), (0,), (0, 0), (2,), (4,), (3,), (0, 2), (0, 3), (2, 4), (0, 0, 4)]]


def space_size(source: FgAbGroup, target: FgAbGroup, bound: int) -> int:
    """The number of matrices ``hom_matrix_space`` runs through."""
    n = 1
    for o in target.generator_orders():
        n *= len(entry_values(o, bound)) ** source.generator_count()
    return n


# sources and targets of the orbit oracle: free, torsion of orders 2, 3,
# 4 and 6, and mixed
ORBIT_GROUPS = [from_orders(*orders) for orders in
                [(), (0,), (0, 0), (0, 0, 0), (2,), (3,), (4,), (6,), (2, 2), (3, 3), (2, 4),
                 (2, 6), (0, 2), (0, 3), (0, 4), (0, 0, 2), (0, 2, 2)]]


def assert_canonical_is_the_orbit_minima(space):
    """``space.canonical`` against ``signed_permutation_orbits``: the homs
    least in their orbits, or None only where the group moves no hom
    beyond its negation (every orbit is {h, -h})."""
    orbits, negations = signed_permutation_orbits(space)
    if space.canonical is None:
        assert all(orbit <= {h, minus} for h, (minus, orbit) in enumerate(zip(negations, orbits)))
    else:
        assert space.canonical == sum(1 << h for h, orbit in enumerate(orbits) if h == min(orbit))


@settings(deadline=None, database=None, max_examples=80)
@given(st.data())
def test_canonical_homs_are_the_least_of_their_signed_permutation_orbits(data):
    bound = data.draw(st.integers(1, 4))
    source, target = data.draw(st.tuples(*[st.sampled_from(ORBIT_GROUPS)] * 2).filter(
        lambda g: space_size(g[0], g[1], bound) <= 2000))
    assert_canonical_is_the_orbit_minima(hom_matrix_space(source, target, bound))


@pytest.mark.parametrize("source, target, bound, canonical", [
    (FgAbGroup(3), FgAbGroup(3), 1, 560),  # T^3's Z^3 -> Z^3, of 19,683 homs
    (FgAbGroup(2), Z, 6, 28),  # the flagship's Z^2 -> Z at its largest bound, of 169
    (from_orders(0, 0, 2), from_orders(0, 4), 1, 15),
    (from_orders(2, 2), from_orders(2, 4), 2, 10),
    (from_orders(3, 3), from_orders(0, 3), 2, 3),
    (from_orders(0, 3), from_orders(0, 3), 2, 16),
    (from_orders(0, 4), cyclic(4), 2, 9),
    (from_orders(0, 2, 2), from_orders(2, 4), 1, 12),
    # a group that moves no hom beyond its negation, a lone Z/2 included
    (from_orders(0, 2), from_orders(0, 2), 3, None),
    (from_orders(2, 6), from_orders(2, 6), 2, None),
    (cyclic(2), FgAbGroup(2), 4, None),
], ids=["Z3-Z3-b1", "Z2-Z-b6", "Z2+Z2-Z+Z4-b1", "Z2^2-Z2+Z4-b2", "Z3^2-Z+Z3-b2",
        "Z+Z3-Z+Z3-b2", "Z+Z4-Z4-b2", "Z+Z2^2-Z2+Z4-b1", "Z+Z2-Z+Z2-b3", "Z2+Z6-Z2+Z6-b2",
        "Z2-Z2-b4"])
def test_canonical_homs_of_pinned_spaces(source, target, bound, canonical):
    space = hom_matrix_space(source, target, bound)
    if len(space) <= 2000:
        assert_canonical_is_the_orbit_minima(space)
    assert (None if space.canonical is None else bin(space.canonical).count("1")) == canonical


def columns(homs):
    """The columns of the matrices of ``homs``, in order."""
    return [col for h in homs for col in zip(*h.matrix.entries)]


def row_values(homs, t):
    """Row t of the matrices of ``homs``, in order."""
    return [h.matrix.entries[t] for h in homs]


@settings(deadline=None, database=None, max_examples=120)
@given(st.data())
def test_packed_masks_match_the_loop_over_hom_spaces(data):
    # both hom spaces of a pair A -> M -> T at bound 1-6, masks indexed
    # by the second as the chain DFS reads them, and the kill table
    # behind them on random lists of row values and columns drawn from
    # them (duplicates included)
    bound = data.draw(st.integers(1, 6))
    shape = data.draw(st.tuples(*[st.sampled_from(MASK_GROUPS)] * 3).filter(
        lambda g: max(space_size(g[0], g[1], bound), space_size(g[1], g[2], bound)) <= 2000))
    source, middle, target = shape
    table = EnumerationTable()
    first, second = table.space(source, middle, bound), table.space(middle, target, bound)
    want = transpose_masks(vanishing_masks_by_loop(first, second, target), len(second))
    masks = table.masks(first, second)
    assert [masks[g] for g in range(len(second))] == want
    some_first = data.draw(st.lists(st.sampled_from(first), max_size=30))
    some_second = data.draw(st.lists(st.sampled_from(second), max_size=30))
    for t, o in enumerate(target.generator_orders()):
        rows = row_values(some_second, t)
        assert (_orthogonal(rows, columns(some_first), o)
                == orthogonal_by_loop(rows, columns(some_first), o))
        assert (_orthogonal(columns(some_first), rows, o)
                == orthogonal_by_loop(columns(some_first), rows, o))


@settings(deadline=None, database=None, max_examples=60)
@given(st.data())
def test_packed_masks_match_the_loop_on_large_entries(data):
    # entries far beyond any entry bound: the lanes widen with them
    source, middle, target = (data.draw(groups(max_rank=2)) for _ in range(3))
    size = data.draw(st.sampled_from([1, 10**3, 10**9]))
    first = data.draw(st.lists(homs(source, middle, bound=size), max_size=8))
    second = data.draw(st.lists(homs(middle, target, bound=size), max_size=8))
    for t, o in enumerate(target.generator_orders()):
        rows = row_values(second, t)
        assert _orthogonal(rows, columns(first), o) == orthogonal_by_loop(rows, columns(first), o)
        assert _orthogonal(columns(first), rows, o) == orthogonal_by_loop(columns(first), rows, o)
    # Z -> Z^2 -> Z: (a, b) is killed by every multiple of (b, -a) and
    # by no row one entry away from one; the lanes of those rows sit
    # between lanes of large dot products, positive and negative
    a = data.draw(st.integers(1, 10**12))
    b = data.draw(st.integers(-10**12, 10**12))
    rows = [(b + 1, -a), (b - 1, -a)] * 3  # dot products a and -a
    rows[1:1] = [(c * b, -c * a) for c in (-1, 0, 1)]
    rows[6:6] = [(2 * b, -2 * a)]
    masks = _orthogonal([(a, b)], rows, 0)
    assert masks == orthogonal_by_loop([(a, b)], rows, 0)
    assert [masks[0] >> i & 1 for i in range(len(rows))] == [
        int(x * a + y * b == 0) for x, y in rows]


@pytest.mark.parametrize("shape", [(Z, FgAbGroup(3), FgAbGroup(3)),
                                   (FgAbGroup(3), FgAbGroup(3), Z)], ids=["Z-Z3-Z3", "Z3-Z3-Z"])
def test_masks_of_the_t3_pairs_match_composites(shape):
    # the two pairs of the T^3 table at step 2, bound 1, where one space
    # has 19,683 homs: every mask against the loop, and random (f, g)
    # bits against the composite
    source, middle, target = shape
    table = EnumerationTable()
    first, second = table.space(source, middle, 1), table.space(middle, target, 1)
    masks = table.masks(first, second)
    want = transpose_masks(vanishing_masks_by_loop(first, second, target), len(second))
    assert [masks[g] for g in range(len(second))] == want
    rng = random.Random(0)
    for _ in range(300):
        f, g = rng.randrange(len(first)), rng.randrange(len(second))
        assert masks[g] >> f & 1 == composite_is_zero(first[f], second[g])


@settings(deadline=None, database=None, max_examples=60)
@given(st.data())
def test_cokernels_and_images_match_each_hom(data):
    # every hom of a space into a free, torsion or mixed target: the
    # cokernel read off its row class and the image read off the
    # cokernel or the kernel lattice, against each hom's own
    bound = data.draw(st.integers(1, 3))
    source, target = data.draw(st.tuples(*[st.sampled_from(MASK_GROUPS)] * 2).filter(
        lambda g: space_size(g[0], g[1], bound) <= 2000))
    space = EnumerationTable().space(source, target, bound)
    for h, hom in enumerate(space):
        assert space.coker(h) == cokernel(hom.matrix.hstack(relation_matrix(target)))
        image = cokernel(preimage_lattice(hom))  # source / kernel
        assert space.image(h) == (image.free_rank, not image.torsion)


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(groups(max_rank=1, max_torsion=1), min_size=3, max_size=3),
       st.integers(1, 2))
def test_component_classes_of_random_chains_match_product_enumeration(shape, bound):
    # A -> M -> B: every class the enumerator reports at A, M and B
    # (image ranks into free and torsion targets, the cokernel rule and
    # its lattice fallback) against homology_at on every labeling of
    # the product, with the arrows in source order as the solver passes them
    positions = ((4, 0), (0, 3), (-4, 6))
    groups_at = tuple(zip(positions, shape))
    arrows = tuple(zip(positions, positions[1:]))[::-1]
    got = _component_classes(EnumerationTable(), arrows, groups_at, bound, positions)
    assert got == component_classes_by_product(arrows, groups_at, bound, positions)


# explicit tables with torsion: rows 0..2 at step 2 (chains of up to two
# arrows on page 2) or rows 0..3 at step 4 (single arrows on page 4), one
# page turn each, small enough to search whole
TABLE_GROUPS = st.sampled_from([ZERO, Z, cyclic(2), cyclic(3), cyclic(4),
                                FgAbGroup(1, (2,)), FgAbGroup(0, (2, 2))])


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(TABLE_GROUPS, min_size=3, max_size=3), st.sampled_from([2, 4]),
       st.integers(1, 2))
def test_sibling_rule_keeps_the_classes_of_random_tables(upper, step, bound):
    rows = upper[:2] if step == 2 else upper
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(rows, start=1)
                                        if not grp.is_trivial()}})
    with pytest.MonkeyPatch.context() as monkeypatch:
        classes_match_search_without_skipping(monkeypatch, h, step, bound)


# rows small enough for a search that prunes nothing (Z + Z/2 in three
# rows takes minutes)
PRUNED_TABLE_GROUPS = st.sampled_from([ZERO, Z, cyclic(2), cyclic(3), cyclic(4),
                                       FgAbGroup(0, (2, 2))])


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(PRUNED_TABLE_GROUPS, min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-2, 3), PRUNED_TABLE_GROUPS), max_size=2))
def test_pruning_keeps_the_leaves_of_random_tables(upper, pins):
    # rows 0..4 at step 2: page 2 turns while page 4 can still join rows 0
    # and 3 or 1 and 4, so only some rows are final on that turn (and a
    # nonzero row 4 often needs a wider window: both must raise then)
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    assert_pruning_keeps_the_leaves(h, 2, constraints=tuple(pins), entry_bound=1)


# rows 1..4 and an entry bound whose solve at step 2, window 3 is bounded:
# bound 1 on rows without (Z/2)^2 (at most about 2.3 s each, 0.12 s on
# average), bound 2 on rows whose row 1 is 0 (at most about 0.4 s).  With
# (Z/2)^2 at bound 1, or Z, Z/2 or Z/3 in row 1 at bound 2, some solves
# run for more than 10 s (CHANGES.md names them)
BOUNDED_TABLES = st.one_of(
    st.tuples(st.lists(st.sampled_from([ZERO, Z, cyclic(2), cyclic(3), cyclic(4)]),
                       min_size=4, max_size=4), st.just(1)),
    st.tuples(st.lists(PRUNED_TABLE_GROUPS, min_size=3, max_size=3).map(
        lambda rows: [ZERO, *rows]), st.just(2)))


@settings(deadline=None, database=None, max_examples=40)
@given(BOUNDED_TABLES, st.lists(st.tuples(st.integers(-2, 3), PRUNED_TABLE_GROUPS), max_size=2))
def test_a_turn_reads_of_the_turn_before_what_the_dropped_set_gives(table, pins):
    # the theorem behind ``_Layout.after``: on the degrees the worst-case
    # run certifies no position is ever unresolved, so of the positions a
    # plan drops its turn reads only those its components touch, and what
    # it reads of the turn before is the same for every pair of plans with
    # the same two layouts (window 3: at window 2 most of these tables
    # raise ``WindowError``)
    upper, bound = table
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    with pytest.MonkeyPatch.context() as monkeypatch:
        turns = instances_built(monkeypatch, spectra._TurnAfter)
        try:
            solve_floer(h, 2, constraints=tuple(pins), entry_bound=bound, col_span=3)
        except WindowError:
            pass
    assert_turns_read_the_dropped_sets(turns)


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(PRUNED_TABLE_GROUPS, min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-2, 3), PRUNED_TABLE_GROUPS), max_size=2))
def test_branch_arrows_are_worst_case_arrows_of_random_tables(upper, pins):
    # the theorem behind every use of the worst-case run (certified
    # degrees, final entries, the last turn): along every branch of the
    # search that prunes nothing, each page-r arrow is an arrow of the
    # run from the first page at page r
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    run = _worst_case_run(build_e1(h, 2))
    turns = []

    def recorded(page):
        found = _first_active_page(page)
        if found is not None:
            turns.append(found)
        return found

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(oracles, "_first_active_page", recorded)
        try:
            solve_floer_without_pruning(h, 2, constraints=tuple(pins), entry_bound=1)
        except WindowError:
            pass
    for r, arrows in turns:
        assert set(arrows) <= set(run.arrows.get(r, ()))


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(PRUNED_TABLE_GROUPS, min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-2, 3), PRUNED_TABLE_GROUPS), max_size=2))
def test_component_positions_lie_on_distinct_degrees_of_random_tables(upper, pins):
    # every arrow of a page lowers p + q by one, so on every page turn of
    # the search that prunes nothing each component, a chain, has its
    # positions on pairwise distinct degrees: a class has at most one
    # result per degree, so the last turn reads a class's parts whole on
    # the degrees it carries
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    comps = []

    def recorded(page):
        found = _first_active_page(page)
        if found is not None:
            comps.extend(_components(_slots_and_unresolved(found[1], page.known)[0]))
        return found

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(oracles, "_first_active_page", recorded)
        try:
            solve_floer_without_pruning(h, 2, constraints=tuple(pins), entry_bound=1)
        except WindowError:
            pass
    for comp in comps:
        positions = {pos for arrow in comp for pos in arrow}
        assert len({p + q for p, q in positions}) == len(positions)


@st.composite
def pages(draw):
    """Pages of any geometry: each window position an entry, unresolved
    or empty, and any first-page row support outside the window."""
    step, span, row_max = (draw(st.sampled_from([2, 4])), draw(st.integers(2, 4)),
                           draw(st.integers(1, 9)))
    cells = [(k * step, q) for k in range(-span, span + 1) for q in range(row_max + 1)]
    kinds = draw(st.lists(st.sampled_from("eeu."), min_size=len(cells), max_size=len(cells)))
    return BigradedPage(
        page_index=draw(st.integers(1, row_max + 1)), column_step=step, col_span=span,
        row_max=row_max, entries=tuple((pos, Z) for pos, kind in zip(cells, kinds) if kind == "e"),
        unresolved=frozenset(pos for pos, kind in zip(cells, kinds) if kind == "u"),
        base_row_support=frozenset(draw(st.sets(st.integers(0, row_max)))))


@settings(deadline=None, database=None, max_examples=150)
@given(pages())
def test_chain_walk_finds_the_union_find_components(page):
    # every page turn's slots, as the solver's plans take them
    for r in range(page.column_step, page.row_max + 2, page.column_step):
        slots, _ = _slots_and_unresolved(_arrows_at(page, r), page.known)
        assert _components(slots) == components_by_union_find(slots)


def assert_run_plans_match_a_full_scan(h, step, constraints=(), col_span=2):
    """The solver carries each plan down instead of scanning the page: on
    every page turn of the search that prunes nothing, the next page's
    plan is found from its turn's page index, its unresolved set and the
    live bits of the page less those of the positions the turn's chosen
    classes zero.  That carried plan is the one built from the next
    page's own arrows (a full scan of page indices), slot by slot, and
    the carried live bits are the next page's; so is the first page's
    plan, found with every bit live: the run's first turn with all its
    arrows."""
    run = _worst_case_run(build_e1(h, step, col_span))
    turned, turn = [], spectra.BigradedPage.turned
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(spectra.BigradedPage, "turned",
                            lambda page, *args: turned.append((page, turn(page, *args)))
                            or turned[-1][1])
        try:
            solve_floer_without_pruning(h, step, constraints=constraints, entry_bound=1,
                                        col_span=col_span)
        except WindowError:
            pass

    def scanned(page):
        found = _first_active_page(page)
        return None if found is None else spectra._Plan(run, *found, page.unresolved)

    def live_on(page):
        """The live bits of ``page``: its entries and unresolved positions."""
        return sum(bit for pos, bit in run.bits.items()
                   if pos in page._by_position or pos in page.unresolved)

    def assert_same(carried, expected):
        if expected is None:
            assert carried is None
            return
        for name in spectra._Plan.__slots__:
            assert getattr(carried, name) == getattr(expected, name), name

    root = build_e1(h, step, col_span)
    assert live_on(root) == (1 << len(run.bits)) - 1
    assert_same(run.plan(root.page_index, live_on(root), root.unresolved), scanned(root))
    for page, child in turned:
        plan = scanned(page)
        zeroed = sum(run.bits.get(pos, 0) for _, _, signature in plan.layout.comps
                     for pos in signature if pos not in child._by_position)
        live = live_on(page) & ~zeroed
        assert live == live_on(child)
        assert_same(run.plan(plan.layout.r + 1, live, plan.unresolved), scanned(child))


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(PRUNED_TABLE_GROUPS, min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-2, 3), PRUNED_TABLE_GROUPS), max_size=2))
def test_run_plans_match_plans_of_a_full_scan_on_random_tables(upper, pins):
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    assert_run_plans_match_a_full_scan(h, 2, constraints=tuple(pins))


def test_run_plans_match_plans_of_a_full_scan_when_only_the_unresolved_set_differs():
    # rows 0, 1, 4 and 5 at step 2 in window 3: pages that reach turn 6
    # with the same surviving arrows but different unresolved sets need
    # different plans
    h = GradedGroup.from_dict({0: Z, 1: cyclic(2), 4: cyclic(3), 5: Z})
    assert_run_plans_match_a_full_scan(h, 2, col_span=3)


@settings(deadline=None, database=None, max_examples=30)
@given(st.lists(st.sampled_from([ZERO, Z, cyclic(2), from_orders(0, 2)]), min_size=5, max_size=5),
       st.data())
def test_plans_found_by_live_bits_match_a_scan_of_the_run(upper, data):
    # the run finds a plan by the live bits of the turns from a page index
    # on, one lookup after another; each is the plan of the run's first
    # turn from that index with an arrow whose window ends are all live,
    # and the arrows it keeps, for live sets that lack any one window end
    # of a run arrow.  Only lookups after the first turn lack one: the
    # lookup at or before it is the first page's, where every position is
    # live
    h = GradedGroup.from_dict({0: Z, **{q: grp for q, grp in enumerate(upper, start=1)
                                        if not grp.is_trivial()}})
    first = build_e1(h, 2, 3)
    run = _worst_case_run(first)
    positions = sorted({pos for arrows in run.arrows.values() for arrow in arrows
                        for pos in arrow if first.in_window(pos[0])})
    after = data.draw(st.integers(1, max(run.arrows, default=0) + 1))
    later = run.arrows and after > min(run.arrows)
    for gone in [None, *positions] if later else [None]:
        live = [pos for pos in positions if pos != gone]
        expected = None
        for r, arrows in run.arrows.items():
            kept = tuple(arrow for arrow in arrows
                         if all(pos in live for pos in arrow if first.in_window(pos[0])))
            if r >= after and kept:
                expected = spectra._Plan(run, r, kept, frozenset())
                break
        plan = run.plan(after, sum(run.bits.get(pos, 0) for pos in live), frozenset())
        assert (plan is None) == (expected is None)
        for name in () if plan is None else spectra._Plan.__slots__:
            assert getattr(plan, name) == getattr(expected, name), name


@st.composite
def arrow_systems(draw):
    """Arrows from degree d to d - 1 among positions of a small grid, the
    certified degrees, both parities among them, and 2 to 4 pages: the
    free ranks of the same known positions (the others cap nothing), each
    page after the first a few ranks changed from the one before."""
    grid = [(p, q) for p in range(-2, 3) for q in range(3)]
    ranks = draw(st.dictionaries(st.sampled_from(grid), st.integers(0, 2)))
    sources = draw(st.lists(st.sampled_from(grid), max_size=6))
    arrows = []
    for s in sources:
        p = draw(st.integers(-2, 2))
        if (arrow := (s, (p, sum(s) - 1 - p))) not in arrows:
            arrows.append(arrow)
    degrees = {draw(st.integers(-1, 2)) * 2, draw(st.integers(-1, 2)) * 2 + 1}
    degrees |= draw(st.sets(st.integers(-2, 4)))
    # a page changes ranks only at arrow ends or only elsewhere, so pages
    # often agree on every capped position and differ on a degree's sum
    ends = {pos for arrow in arrows for pos in arrow}
    pools = [sorted(pool) for pool in (ranks.keys() & ends, ranks.keys() - ends) if pool]
    pages = [ranks]
    for _ in range(draw(st.integers(1, 3))):
        page = dict(pages[-1])
        if pools:
            for pos in draw(st.sets(st.sampled_from(draw(st.sampled_from(pools))), min_size=1,
                                    max_size=2)):
                page[pos] = (page[pos] + draw(st.integers(1, 2))) % 3
        pages.append(page)
    return arrows, pages, sorted(degrees)


@settings(deadline=None, database=None, max_examples=200)
@given(arrow_systems())
# two pages that agree on the block's capped positions and differ only in
# the sum of degree 1's other entries
@example(([((0, 1), (0, 0))], [{(0, 1): 1, (0, 0): 1, (1, 0): 0},
                               {(0, 1): 1, (0, 0): 1, (1, 0): 1}], [0, 1]))
def test_flow_values_match_a_product_over_every_k(system):
    # the lookahead joins the values of its blocks, each chosen degree by
    # degree and memoized by the block's own fields; trying every k of
    # every arrow, or solving the whole flow as one state, must reach the
    # same (even, odd) pairs on every page of one flow, so a block memo
    # that a later page reuses is checked too
    arrows, pages, degrees = system
    width = max(sum(ranks.values()).bit_length() for ranks in pages) or 1
    flow = spectra._Flow(arrows, pages[0].__contains__, degrees, width)
    whole = WholeFlow(arrows, pages[0].__contains__, degrees, width)
    for ranks in pages:
        packed = flow.pack((pos, FgAbGroup(rank)) for pos, rank in ranks.items())
        want = flow_values_by_product(arrows, ranks, degrees)
        assert flow.values(packed) == want == whole.values_of(flow, packed)


class _Enumerated(Exception):
    """A solve got past its window check."""


@settings(deadline=None, database=None, max_examples=60)
@given(st.sets(st.integers(1, 8)), st.sampled_from([2, 4, 6, 8]), st.integers(2, 6))
def test_window_errors_name_the_smallest_window(rows, step, span):
    # tables in rows 0..8: a window that fails names a window whose
    # first-page run certifies degrees 0 and 1, and the window below it
    # fails too
    h = GradedGroup.from_dict({0: Z, **{q: Z for q in rows}})

    def named_window(col_span):
        """The window the solve's error names; None past the check."""
        try:
            solve_floer(h, step, col_span=col_span)
        except _Enumerated:
            pass
        except WindowError as exc:
            return int(str(exc).rsplit(" ", 1)[1])
        return None

    def enumerated(*args):
        raise _Enumerated

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(spectra, "_component_classes", enumerated)
        named = named_window(span)
        if named is None:
            return
        assert {0, 1} <= _worst_case_run(build_e1(h, step, named)).degrees
        assert named_window(named) is None
        if named - 1 >= 2:
            assert named_window(named - 1) == named


def elementary_two(dim: int) -> FgAbGroup:
    return FgAbGroup(0, (2,) * dim)


@st.composite
def claim_systems(draw):
    """2-5 ends with 1-3 elementary-2 branches each, and claims among
    them: granted or not, sharing ends, one with both ends equal."""
    names = [f"E{i}" for i in range(draw(st.integers(2, 5)))]
    ends = {name: LagrangianDescriptor(name, None, 7, draw(st.sampled_from([2, 4, None])))
            for name in names}
    hf = st.tuples(st.integers(0, 3), st.integers(0, 3))
    branch_sets = {name: [(f"branch {b}", tuple(map(elementary_two, draw(hf))))
                          for b in range(1, draw(st.integers(1, 3)) + 1)]
                   for name in names}
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                    st.booleans()), min_size=1, max_size=5))
    same = draw(st.sampled_from(names))
    pairs.insert(draw(st.integers(0, len(pairs))), (same, same, draw(st.booleans())))
    source = LagrangianDescriptor("S", None, 7, None)
    claims = [CobordismClaim(source, (ends[a], ends[b]), granted) for a, b, granted in pairs]
    return claims, branch_sets


@settings(deadline=None, database=None, max_examples=60)
@given(claim_systems())
def test_certify_nonexistence_matches_per_branch_rebuild(system):
    claims, branch_sets = system
    probe = LagrangianDescriptor("K", None, 7, 8)
    got = certify_nonexistence(claims, branch_sets, probe, LaurentGrading(-2))
    want = certify_nonexistence_per_branch(claims, branch_sets, probe, LaurentGrading(-2))
    assert got == want

    def sharing(verdicts):
        """Branch positions numbered by the verdict object they hold."""
        first: dict[int, int] = {}
        return [first.setdefault(id(b.verdict), len(first))
                for cv in verdicts for b in cv.branches]

    assert sharing(got) == sharing(want)


# single-field mutations of the bundled document: each ends in a report,
# a named validation error or a named solver limit, never a traceback
BUNDLED = json.loads((resources.files("cobcheck") / "data" / "paper_cp7.json").read_text())
DELETE = object()


def field_paths(node, path=()):
    """The path of every key and array element below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


FIELD_PATHS = list(field_paths(BUNDLED))
# JSON values of every type; none is an integer above 1, so no mutation
# raises entry_bound or window (no labeling budget bounds the work yet)
JSON_VALUES = (None, True, "x", 0.5, [], {})


@st.composite
def mutations(draw):
    path = draw(st.sampled_from(FIELD_PATHS))
    doc = copy.deepcopy(BUNDLED)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    old = parent[path[-1]]
    new = draw(st.one_of(
        st.just(DELETE),
        st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]),
        st.integers(-2, 3)))
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@settings(deadline=None, database=None, max_examples=80)
@given(mutations())
def test_single_field_mutations_end_in_a_named_outcome(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    err = err.getvalue()
    assert code in {0, 1, 2, 10}
    assert code != 2 or err.startswith("solver limit:"), err
    assert "Traceback" not in err


# whole scenarios through the unpruned references: the catalog factors of
# the drawn spaces, and the products of two of them; the products for which
# the unpruned solve takes more than a second at entry bound 2 are left out
# (S^1 x S^2, S^2 x RP^3, S^3 x RP^3 and RP^3 x RP^3 take 1.5-66 s)
FACTORS = ["circle", {"sphere": 2}, {"sphere": 3}, {"rp": 2}, {"rp": 3}]
SLOW_PRODUCTS = [("circle", {"sphere": 2}), ({"sphere": 2}, {"rp": 3}),
                 ({"sphere": 3}, {"rp": 3}), ({"rp": 3}, {"rp": 3})]
SPACES = FACTORS + [{"rp": 7}] + [{"product": list(pair)} for pair in
                                  itertools.combinations_with_replacement(FACTORS, 2)
                                  if pair not in SLOW_PRODUCTS]
# the spaces whose Floer homology at step 4 (RP^7: at step 8 too) is
# 2-torsion on every branch, so that claims reach a verdict
TORSION_SPACES = [{"sphere": 3}, {"rp": 3}, {"rp": 7}, {"product": ["circle", {"sphere": 3}]},
                  {"product": ["circle", {"rp": 3}]}, {"product": [{"sphere": 3}, {"sphere": 3}]},
                  {"product": [{"sphere": 3}, {"rp": 2}]}, {"product": [{"rp": 2}, {"rp": 3}]}]
# one in two documents carries one defect that an admissible document lacks
DEFECTS = [None] * 5 + ["probe", "grading", "unclean", "spin", "undeclared"]


@st.composite
def scenario_documents(draw):
    """Valid documents in CP^7: a probe K, ends A and B and a claim source
    N, one or two clean connected intersections of K with K, A or B, two
    to four claims among the intersected ends, entry bound 1-2, window 2.
    The first Lagrangian of an intersection takes the intersection's
    space unless it already has one, so the spin check can pass.  A
    defect can make the document inadmissible: a probe of Maslov number 2,
    grading step 4, an unclean intersection, a restriction not surjective
    in degrees 1 and 2, or a claim end with no declared intersection."""
    defect = draw(st.sampled_from(DEFECTS))
    maslov = {"K": 2 if defect == "probe" else draw(st.sampled_from([4, 4, 8])),
              "A": draw(st.sampled_from([4, 8, 2])), "B": draw(st.sampled_from([4, 8, 2]))}
    space_of = {}
    intersections = []
    # the probe's self-intersection is what most obstructions need
    ends = draw(st.sampled_from([["K", "A"], ["A", "K"], ["K"], ["A"], ["A", "B"]]))
    for end in ends:
        pair = draw(st.sampled_from([["K", end], [end, "K"]]))
        space = space_of.setdefault(pair[0], draw(st.one_of(st.sampled_from(TORSION_SPACES),
                                                            st.sampled_from(SPACES))))
        intersections.append({"pair": pair, "clean": True, "connected": True, "space": space,
                              "restriction_surjective_degrees": [1, 2]})
    if defect == "unclean":
        intersections[0]["clean"] = False
    if defect == "spin":
        intersections[0]["restriction_surjective_degrees"] = [1]
    pool = ends + ([next(n for n in "KAB" if n not in ends)] if defect == "undeclared" else [])
    claims = [{"source": "N", "ends": list(draw(st.tuples(st.sampled_from(pool),
                                                          st.sampled_from(pool))))}
              for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):  # a claim granted by an intersection
        claims[0]["ends"] = draw(st.sampled_from(intersections))["pair"]
    if draw(st.booleans()):  # both orders of one pair, as obstructions need
        claims[1]["ends"] = claims[0]["ends"][::-1]
    lagrangians = [{"name": name, "space": space_of.get(name) or draw(st.sampled_from(SPACES)),
                    "ambient": 7, "maslov": maslov[name]} for name in "KAB"]
    lagrangians.append({"name": "N", "space": None, "ambient": 7, "maslov": None})
    return {"schema": 1, "name": "drawn", "lagrangians": lagrangians,
            "intersections": intersections, "claims": claims, "probe": "K",
            "grading": -4 if defect == "grading" else -2,
            "entry_bound": draw(st.integers(1, 2)), "window": 2}


# a document the strategy draws but rarely: the claims (A, K) and (K, A)
# against the probe's self-intersection, at entry bound 2, exit 10
OBSTRUCTED = {
    "schema": 1, "name": "obstructed",
    "lagrangians": [{"name": "K", "space": {"sphere": 3}, "ambient": 7, "maslov": 4},
                    {"name": "A", "space": {"rp": 3}, "ambient": 7, "maslov": 4},
                    {"name": "N", "space": None, "ambient": 7, "maslov": None}],
    "intersections": [{"pair": ["K", "K"], "clean": True, "connected": True,
                       "space": {"sphere": 3}, "restriction_surjective_degrees": [1, 2]},
                      {"pair": ["A", "K"], "clean": True, "connected": True,
                       "space": {"rp": 3}, "restriction_surjective_degrees": [1, 2]}],
    "claims": [{"source": "N", "ends": ["A", "K"]}, {"source": "N", "ends": ["K", "A"]}],
    "probe": "K", "grading": -2, "entry_bound": 2, "window": 2}


def check_main(path: Path) -> tuple[int, str]:
    """Exit code and stdout of ``cobcheck check path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(path)])
    return code, out.getvalue()


def solve_floer_without_table(*args, table, **kwargs):
    return solve_floer_without_pruning(*args, **kwargs)


@settings(deadline=None, database=None, derandomize=True, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_documents())
@example(OBSTRUCTED)
def test_whole_scenarios_match_the_unpruned_references(doc):
    # the same exit code and report bytes when the floer stage runs the
    # search that prunes nothing and the claims stage rebuilds every window
    # in every branch combination
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.json"
        path.write_text(json.dumps(doc))
        want = check_main(path)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(cli, "solve_floer", solve_floer_without_table)
            monkeypatch.setattr(cli, "certify_nonexistence", certify_nonexistence_per_branch)
            got = check_main(path)
    assert got == want
    assert doc is not OBSTRUCTED or want[0] == 10
