import pytest

from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, Z, ZERO, cyclic,
                              hom_images)
from cobcheck.graded import GradedGroup
from cobcheck.spectra import (BigradedPage, DifferentialAssignment, SpectraError,
                              _component_classes,
                              abutment, build_e1, certified_degrees, solve_floer,
                              trivial_pages, turn_page)
from cobcheck.topology import Product, RealProjective, Sphere, homology

from oracles import component_classes_by_product


H_RP7 = homology(RealProjective(7))
H_R = homology(Product(RealProjective(3), Sphere(3)))
H_POINT = GradedGroup.from_dict({0: Z})


# ---------------------------------------------------------------------------
# first page


def test_build_e1_rp7_columns():
    page = build_e1(H_RP7, 8)
    assert page.window_columns() == (-16, -8, 0, 8, 16)
    for p in page.window_columns():
        for q, grp in H_RP7.entries:
            assert page.entry(p, q) == grp
    assert page.entry(4, 0) == ZERO  # off the column support


def test_build_e1_r_columns():
    page = build_e1(H_R, 4)
    assert page.window_columns() == (-8, -4, 0, 4, 8)
    assert page.entry(-4, 3) == FgAbGroup(2)


def test_build_e1_single_row():
    page = build_e1(H_POINT, 2)
    assert page.row_max == 0
    assert {q for (_, q), _ in page.entries} == {0}


def test_build_e1_validation():
    with pytest.raises(SpectraError):
        build_e1(GradedGroup.from_dict({1: Z}), 4)  # disconnected: no degree 0
    with pytest.raises(SpectraError):
        build_e1(H_RP7, 8, col_span=1)  # window below the -2N..2N floor
    with pytest.raises(SpectraError):
        build_e1(H_RP7, 7)  # odd column step


def test_build_e1_window_too_small_for_degrees_0_1():
    # rows up to 9 with tiny columns cannot certify degrees 0 and 1
    tall = GradedGroup.from_dict({0: Z, 9: Z})
    with pytest.raises(SpectraError):
        build_e1(tall, 2, col_span=2)


# ---------------------------------------------------------------------------
# page indices


def test_trivial_pages_examples():
    assert trivial_pages(build_e1(H_R, 4)) == 4
    assert trivial_pages(build_e1(H_RP7, 8)) == 8
    assert trivial_pages(build_e1(H_POINT, 2)) is None


# ---------------------------------------------------------------------------
# turning pages


def test_turn_page_zero_assignment_is_identity():
    page = build_e1(H_POINT, 2)
    nxt = turn_page(page, DifferentialAssignment(page_index=2, homs=()))
    assert dict(nxt.entries) == dict(page.entries)
    assert not nxt.unresolved


def test_turn_page_multiplication_by_two():
    page = build_e1(H_RP7, 8)
    h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    d = DifferentialAssignment(page_index=8, homs=(((8, 0), h),))
    nxt = turn_page(page, d)
    assert nxt.entry(0, 7) == cyclic(2)
    assert nxt.entry(8, 0) == ZERO
    # both signs produce the same page
    h_neg = GroupHom(Z, Z, IntMatrix.from_rows([[-2]]))
    nxt_neg = turn_page(page, DifferentialAssignment(page_index=8, homs=(((8, 0), h_neg),)))
    assert dict(nxt.entries) == dict(nxt_neg.entries)


def test_turn_page_z2_arrow_kills_both():
    page = build_e1(H_R, 4)
    h = GroupHom(cyclic(2), cyclic(2), IntMatrix.from_rows([[1]]))
    d = DifferentialAssignment(page_index=4, homs=(((0, 1), h),))
    nxt = turn_page(page, d)
    assert nxt.entry(0, 1) == ZERO
    assert nxt.entry(-4, 4) == ZERO


def test_turn_page_rejects_bad_composite():
    page = build_e1(H_RP7, 8)
    # stack two nonzero maps along a fake chain by lowering the step to 4
    tall = GradedGroup.from_dict({0: Z, 3: FgAbGroup(2), 6: Z})
    pg = build_e1(tall, 4)
    f = GroupHom(Z, FgAbGroup(2), IntMatrix.from_rows([[1], [0]]))
    g = GroupHom(FgAbGroup(2), Z, IntMatrix.from_rows([[1, 0]]))
    bad = DifferentialAssignment(page_index=4, homs=(((0, 0), f), ((-4, 3), g)))
    with pytest.raises(SpectraError):
        turn_page(pg, bad)


def test_turn_page_rejects_wrong_groups():
    page = build_e1(H_RP7, 8)
    wrong = GroupHom(cyclic(2), cyclic(2), IntMatrix.from_rows([[1]]))
    with pytest.raises(SpectraError):
        turn_page(page, DifferentialAssignment(page_index=8, homs=(((8, 0), wrong),)))


def test_order_conservation_through_turns():
    # |kernel| * |image| = |entry| at every assigned position of each turn
    for hom_table, step in [(H_RP7, 8), (H_R, 4)]:
        tree = solve_floer(hom_table, step)
        for leaf in tree.leaves:
            for _, src, h in leaf.assignments:
                image, kernel, _ = hom_images(h)
                total = h.source.order()
                if total is not None:
                    assert image.order() * kernel.order() == total


# ---------------------------------------------------------------------------
# abutment


def test_abutment_requires_stability():
    page = build_e1(H_RP7, 8)
    with pytest.raises(SpectraError):
        abutment(page)


def test_abutment_single_column():
    page = build_e1(H_POINT, 2)
    table = abutment(page)
    assert table.entry(0) == Z
    assert table.entry(1) == ZERO


def test_abutment_single_column_page():
    # a stable page supported on column 0 alone abuts to its column
    # homology (empty base support: no columns outside the window)
    entries = tuple((((0, q), grp)) for q, grp in H_RP7.entries)
    page = BigradedPage(page_index=9, column_step=8, col_span=2, row_max=7,
                        entries=entries, unresolved=frozenset(),
                        base_row_support=frozenset())
    table = abutment(page)
    for q in range(8):
        assert table.entry(q) == H_RP7.entry(q)


def test_abutment_zero_page():
    page = BigradedPage(page_index=9, column_step=8, col_span=2, row_max=7,
                        entries=(), unresolved=frozenset(),
                        base_row_support=frozenset())
    assert abutment(page).is_zero()


def test_abutment_after_forced_turn():
    page = build_e1(H_RP7, 8)
    homs = []
    for k in (-1, 0, 1, 2):
        homs.append(((8 * k, 0), GroupHom(Z, Z, IntMatrix.from_rows([[2]]))))
    nxt = turn_page(page, DifferentialAssignment(page_index=8, homs=tuple(homs)))
    table = abutment(nxt)
    assert table.entry(1) == cyclic(2)
    assert table.entry(0) == ZERO
    degs = certified_degrees(nxt)
    assert 0 in degs and 1 in degs


# ---------------------------------------------------------------------------
# the branch solver


def test_solve_rp7_single_leaf():
    tree = solve_floer(H_RP7, 8)
    assert tree.status == "ok"
    assert len(tree.leaves) == 1
    leaf = tree.leaves[0]
    assert leaf.hf_even == ZERO
    assert leaf.hf_odd == cyclic(2)
    assert any("image index 2 in Z" in line for line in leaf.trace)


def test_solve_r_two_leaves():
    tree = solve_floer(H_R, 4)
    outcomes = [(leaf.hf_even, leaf.hf_odd) for leaf in tree.leaves]
    assert outcomes == [(ZERO, ZERO), (cyclic(2), cyclic(2))]


def test_solve_point_single_leaf():
    tree = solve_floer(H_POINT, 2)
    assert [(l.hf_even, l.hf_odd) for l in tree.leaves] == [(Z, ZERO)]


def test_solve_window_independence():
    for hom_table, step in [(H_RP7, 8), (H_R, 4)]:
        base = {(l.hf_even, l.hf_odd) for l in solve_floer(hom_table, step).leaves}
        for span in (3, 4):
            wider = {(l.hf_even, l.hf_odd)
                     for l in solve_floer(hom_table, step, col_span=span).leaves}
            assert wider == base


def test_solve_bound_monotone():
    for hom_table, step in [(H_RP7, 8), (H_R, 4)]:
        leaves = {}
        for bound in (2, 3, 4):
            leaves[bound] = {(l.hf_even, l.hf_odd)
                             for l in solve_floer(hom_table, step, entry_bound=bound).leaves}
        assert leaves[2] <= leaves[3] <= leaves[4]


def test_solve_pin_constraint():
    pinned = solve_floer(H_R, 4, constraints=((0, ZERO),))
    assert [(l.hf_even, l.hf_odd) for l in pinned.leaves] == [(ZERO, ZERO)]
    pinned2 = solve_floer(H_R, 4, constraints=((1, cyclic(2)),))
    assert [(l.hf_even, l.hf_odd) for l in pinned2.leaves] == [(cyclic(2), cyclic(2))]


def test_solve_contradictory_pin_is_empty():
    tree = solve_floer(H_R, 4, constraints=((0, FgAbGroup(3)),))
    assert tree.status == "empty"
    assert tree.leaves == ()


def test_truncation_note_set_for_free_entries():
    assert solve_floer(H_RP7, 8).bound_may_truncate


def test_leaf_assignments_replay_through_page_turns():
    # every leaf's recorded assignments, replayed page by page through
    # turn_page, must land on a stable page whose abutment reproduces
    # the leaf's certified table (independent of the search internals)
    scenarios = [
        (H_RP7, 8, {}),
        (H_R, 4, {}),
        (GradedGroup.from_dict({0: Z, 1: cyclic(2), 3: Z}), 2, {"col_span": 3}),
    ]
    from cobcheck.spectra import _first_active_page

    for table, step, kw in scenarios:
        tree = solve_floer(table, step, **kw)
        for leaf in tree.leaves:
            page = build_e1(table, step, **kw)
            by_page = {}
            for r, src, h in leaf.assignments:
                by_page.setdefault(r, []).append((src, h))
            while True:
                r = _first_active_page(page)
                if r is None:
                    break
                homs = tuple(by_page.pop(r, ()))
                page = turn_page(page, DifferentialAssignment(r, homs))
            assert not by_page, "leaf recorded maps for a page never reached"
            replayed = abutment(page)
            assert dict(replayed.entries) == {
                d: g for d, g in leaf.certified if not g.is_trivial()}


def test_two_stage_turning_hand_derived():
    # rows 0: Z, 1: Z/2, 3: Z over step 2: page 2 maps Z -> Z/2 per
    # column, page 4 then maps the surviving row-0 kernel into row 3.
    # Even degrees collect ker(d4); odd degrees collect the row-1
    # survivor plus coker(d4).  Enumerating both stages by hand over
    # entry bound 4 gives exactly these nine outcomes.
    h = GradedGroup.from_dict({0: Z, 1: cyclic(2), 3: Z})
    tree = solve_floer(h, 2, col_span=3)
    got = {(str(l.hf_even), str(l.hf_odd)) for l in tree.leaves}
    expected = {
        ("Z", "Z + Z/2"),    # both stages zero
        ("0", "Z/2"),        # d4 a unit (or onto-d2 then d4 = 2)
        ("0", "(Z/2)^2"),    # d2 zero, d4 = 2
        ("0", "Z/6"),        # d2 zero, d4 = 3
        ("0", "Z/2 + Z/4"),  # d2 zero, d4 = 4
        ("Z", "Z"),          # d2 onto, d4 zero
        ("0", "0"),          # d2 onto, d4 a unit
        ("0", "Z/3"),        # d2 onto, d4 = 3
        ("0", "Z/4"),        # d2 onto, d4 = 4
    }
    assert got == expected
    # every leaf that needed both stages records both page indices
    multi = [l for l in tree.leaves if (str(l.hf_even), str(l.hf_odd)) == ("0", "0")]
    assert {r for r, _, _ in multi[0].assignments} == {2, 4}


# ---------------------------------------------------------------------------
# component enumeration against the full-product oracle

CHAIN = ((8, 0), (4, 3), (0, 6), (-4, 9))


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("shape", [
    (Z, FgAbGroup(2)),
    (cyclic(2), cyclic(2)),
    (FgAbGroup(2), Z, FgAbGroup(2)),
    (Z, FgAbGroup(2), Z),
    (cyclic(4), cyclic(2), cyclic(4)),
    (Z, FgAbGroup(2), Z, cyclic(2)),
    (cyclic(2), cyclic(4), cyclic(2), cyclic(4)),
], ids=lambda shape: "->".join(map(str, shape)))
def test_component_classes_match_product_enumeration(shape, bound):
    positions = CHAIN[:len(shape)]
    groups = tuple(zip(positions, shape))
    forward = tuple(zip(positions, positions[1:]))
    orders = {forward, forward[::-1], forward[1:] + forward[:1]}
    signatures = [positions, positions[1:], positions[:1] + positions[2:]]
    for arrows in orders:
        for signature in signatures:
            got = _component_classes(arrows, groups, bound, signature)
            assert got == component_classes_by_product(arrows, groups, bound, signature)
