import sys
from pathlib import Path

import pytest

from cobcheck import abgroup, spectra
from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, Z, ZERO, cokernel, cyclic,
                              hom_images, subquotient)
from cobcheck.graded import GradedGroup
from cobcheck.cli import branch_lines, main
from cobcheck.spectra import (BigradedPage, EnumerationTable,
                              SpectraError, WindowError, _component_classes, _first_active_page,
                              build_e1, certified_degrees, solve_floer, turn_page)
from cobcheck.topology import Product, RealProjective, Sphere, homology

from oracles import (WholeFlow, abutment, arrows_by_scan, component_classes_by_product,
                     component_classes_without_skipping, order, solve_floer_without_pruning,
                     turn_after_by_dropped_set, turn_combinations_by_check)


H_RP7 = homology(RealProjective(7))
H_R = homology(Product(RealProjective(3), Sphere(3)))
H_POINT = GradedGroup.from_dict({0: Z})
H_T2 = homology(Product(Sphere(1), Sphere(1)))
# the T^3 table at step 2 (catalog-tables/t3-s2-b1) and a torsion-heavy product
H_T3 = GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z})
H_RP3_RP6 = homology(Product(RealProjective(3), RealProjective(6)))
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


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


# ---------------------------------------------------------------------------
# page indices


def test_trivial_pages_examples():
    # the first page that can carry a nonzero differential, by column
    # and row support alone, with its arrows
    for h, step in [(H_R, 4), (H_RP7, 8)]:
        page = build_e1(h, step)
        assert _first_active_page(page) == (step, spectra._arrows_at(page, step))
    assert _first_active_page(build_e1(H_POINT, 2)) is None


@pytest.mark.parametrize("h, step, span", [
    (H_RP7, 8, 2), (H_RP7, 2, 3), (H_R, 4, 2), (H_R, 2, 4),
    (homology(Product(RealProjective(3), RealProjective(3))), 2, 3),
], ids=["rp7-8-2", "rp7-2-3", "r-4-2", "r-2-4", "rp3xrp3-2-3"])
def test_arrows_from_live_positions_match_a_full_scan(h, step, span):
    # every page a run of zero differentials reaches, unresolved
    # positions included, at every page index up to past the row height
    page = build_e1(h, step, span)
    while True:
        for r in range(1, page.row_max + 3):
            assert spectra._arrows_at(page, r) == arrows_by_scan(page, r)
        found = spectra._first_active_page(page)
        if found is None:
            break
        page = turn_page(page, found[0])
    assert page.unresolved


# ---------------------------------------------------------------------------
# turning pages


def test_turn_page_zero_assignment_is_identity():
    page = build_e1(H_POINT, 2)
    nxt = turn_page(page, 2)
    assert dict(nxt.entries) == dict(page.entries)
    assert not nxt.unresolved


def test_turn_page_multiplication_by_two():
    page = build_e1(H_RP7, 8)
    h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    nxt = turn_page(page, 8, (((8, 0), h),))
    assert nxt.entry(0, 7) == cyclic(2)
    assert nxt.entry(8, 0) == ZERO
    # both signs produce the same page
    h_neg = GroupHom(Z, Z, IntMatrix.from_rows([[-2]]))
    nxt_neg = turn_page(page, 8, (((8, 0), h_neg),))
    assert dict(nxt.entries) == dict(nxt_neg.entries)


def test_turn_page_z2_arrow_kills_both():
    page = build_e1(H_R, 4)
    h = GroupHom(cyclic(2), cyclic(2), IntMatrix.from_rows([[1]]))
    nxt = turn_page(page, 4, (((0, 1), h),))
    assert nxt.entry(0, 1) == ZERO
    assert nxt.entry(-4, 4) == ZERO


def test_turn_page_rejects_bad_composite():
    page = build_e1(H_RP7, 8)
    # stack two nonzero maps along a fake chain by lowering the step to 4
    tall = GradedGroup.from_dict({0: Z, 3: FgAbGroup(2), 6: Z})
    pg = build_e1(tall, 4)
    f = GroupHom(Z, FgAbGroup(2), IntMatrix.from_rows([[1], [0]]))
    g = GroupHom(FgAbGroup(2), Z, IntMatrix.from_rows([[1, 0]]))
    with pytest.raises(SpectraError):
        turn_page(pg, 4, (((0, 0), f), ((-4, 3), g)))


def test_turn_page_rejects_wrong_groups():
    page = build_e1(H_RP7, 8)
    wrong = GroupHom(cyclic(2), cyclic(2), IntMatrix.from_rows([[1]]))
    with pytest.raises(SpectraError):
        turn_page(page, 8, (((8, 0), wrong),))


def test_order_conservation_through_turns():
    # |kernel| * |image| = |entry| at every assigned position of each turn
    for hom_table, step in [(H_RP7, 8), (H_R, 4)]:
        tree = solve_floer(hom_table, step)
        for leaf in tree.leaves:
            for _, homs in leaf.turns:
                for src, h in homs:
                    image, kernel, _ = hom_images(h)
                    total = order(h.source)
                    if total is not None:
                        assert order(image) * order(kernel) == total


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
    assert not abutment(page).entries


def test_abutment_after_forced_turn():
    page = build_e1(H_RP7, 8)
    homs = []
    for k in (-1, 0, 1, 2):
        homs.append(((8 * k, 0), GroupHom(Z, Z, IntMatrix.from_rows([[2]]))))
    nxt = turn_page(page, 8, homs)
    table = abutment(nxt)
    assert table.entry(1) == cyclic(2)
    assert table.entry(0) == ZERO
    degs = certified_degrees(nxt)
    assert 0 in degs and 1 in degs


# ---------------------------------------------------------------------------
# the branch solver


def test_solve_rp7_single_leaf():
    tree = solve_floer(H_RP7, 8)
    assert len(tree.leaves) == 1
    leaf = tree.leaves[0]
    assert leaf.hf_even == ZERO
    assert leaf.hf_odd == cyclic(2)
    assert any("image index 2 in Z" in line for line in branch_lines(tree, leaf))


def test_solve_r_two_leaves():
    tree = solve_floer(H_R, 4)
    outcomes = [(leaf.hf_even, leaf.hf_odd) for leaf in tree.leaves]
    assert outcomes == [(ZERO, ZERO), (cyclic(2), cyclic(2))]


def test_solve_point_single_leaf():
    tree = solve_floer(H_POINT, 2)
    assert [(l.hf_even, l.hf_odd) for l in tree.leaves] == [(Z, ZERO)]


def test_solve_floer_window_too_small_for_degrees_0_1():
    # rows up to 9 with tiny columns cannot certify degrees 0 and 1
    tall = GradedGroup.from_dict({0: Z, 9: Z})
    with pytest.raises(SpectraError):
        solve_floer(tall, 2, col_span=2)


def test_solve_floer_names_the_smallest_window():
    # rows 0..7 at step 2: page 8 maps (0, 0) to (-8, 7), a column that
    # window 3 does not hold, so degree 0 is unresolved there; window 4 is
    # the first whose worst-case run certifies degrees 0 and 1
    h = GradedGroup.from_dict({0: Z, 7: Z})
    for span in (2, 3):
        with pytest.raises(WindowError, match=r"\(rows 0\.\.7, column step 2\); "
                                              r"the smallest window that can is 4$"):
            solve_floer(h, 2, col_span=span)
    assert solve_floer(h, 2, col_span=4).leaves


def test_window_error_comes_before_any_enumeration(monkeypatch):
    def enumerated(*args):
        raise AssertionError("a class was enumerated before the window check")

    monkeypatch.setattr(spectra, "_component_classes", enumerated)
    with pytest.raises(WindowError, match="the smallest window that can is 3$"):
        solve_floer(GradedGroup.from_dict({0: Z, 3: Z, 5: Z}), 2)


def test_solve_window_independence():
    # RP^7 at step 4, window 200, also keeps the plans' and the flow's
    # set-up linear in the window: it took 0.67 s while three scans there
    # grew quadratically, and takes about 0.2 s
    for hom_table, step, spans in [(H_RP7, 8, (3, 4)), (H_R, 4, (3, 4)), (H_RP7, 4, (200,))]:
        base = {(l.hf_even, l.hf_odd) for l in solve_floer(hom_table, step).leaves}
        for span in spans:
            wider = {(l.hf_even, l.hf_odd)
                     for l in solve_floer(hom_table, step, col_span=span).leaves}
            assert wider == base


def test_solve_bound_monotone():
    # a relation, not an oracle: every hom space at bound B lies inside
    # the one at B + 1, so every branch at B is a branch at B + 1, and
    # the leaf pairs at B lie inside those at B + 1
    for hom_table, step, bounds in [
            (H_RP7, 8, (2, 3, 4)),
            (H_R, 4, (2, 3, 4)),
            (H_RP7, 4, (1, 2, 3, 4)),
            (homology(Product(RealProjective(3), RealProjective(3))), 4, (1, 2, 3, 4))]:
        leaves = [{(leaf.hf_even, leaf.hf_odd)
                   for leaf in solve_floer(hom_table, step, entry_bound=bound).leaves}
                  for bound in bounds]
        assert all(smaller <= larger for smaller, larger in zip(leaves, leaves[1:]))


def test_solve_pin_constraint():
    pinned = solve_floer(H_R, 4, constraints=((0, ZERO),))
    assert [(l.hf_even, l.hf_odd) for l in pinned.leaves] == [(ZERO, ZERO)]
    pinned2 = solve_floer(H_R, 4, constraints=((1, cyclic(2)),))
    assert [(l.hf_even, l.hf_odd) for l in pinned2.leaves] == [(cyclic(2), cyclic(2))]


@pytest.mark.parametrize("h, step, kw", [
    (H_T2, 2, {"entry_bound": 2}),
    (H_T2, 2, {"entry_bound": 4}),
    (homology(Product(RealProjective(3), RealProjective(3))), 4, {"entry_bound": 4}),
    (H_RP7, 4, {"entry_bound": 4, "col_span": 4}),
], ids=["t2-s2-b2", "t2-s2-b4", "rp3rp3-s4", "rp7-s4-w4"])
def test_pinning_a_leaf_gives_exactly_that_leaf(h, step, kw):
    # a relation, not an oracle: a pinned solve visits the unpinned one's
    # branches in the same order and keeps those whose folded values agree
    # with the pins, so pinning a leaf's (HF_even, HF_odd) keeps exactly
    # the first branch that reaches them: that leaf, with the same turns
    tree = solve_floer(h, step, **kw)
    assert tree.leaves
    for leaf in tree.leaves:
        pinned = solve_floer(h, step, constraints=((0, leaf.hf_even), (1, leaf.hf_odd)), **kw)
        assert pinned.leaves == (leaf,)
        assert pinned.leaves[0].turns == leaf.turns


def test_solve_contradictory_pin_is_empty():
    tree = solve_floer(H_R, 4, constraints=((0, FgAbGroup(3)),))
    assert tree.leaves == ()


def test_truncation_note_set_for_free_entries():
    assert solve_floer(H_RP7, 8).bound_may_truncate


def test_leaf_assignments_replay_through_page_turns():
    # every leaf's recorded turns, replayed page by page through
    # turn_page, must land on its stable page, whose abutment reproduces
    # the leaf's certified table (independent of the search internals)
    scenarios = [
        (H_RP7, 8, {}),
        (H_R, 4, {}),
        (GradedGroup.from_dict({0: Z, 1: cyclic(2), 3: Z}), 2, {"col_span": 3}),
        (H_RP7, 4, {"col_span": 4}),
    ]
    for table, step, kw in scenarios:
        tree = solve_floer(table, step, **kw)
        for leaf in tree.leaves:
            page = build_e1(table, step, **kw)
            by_page = dict(leaf.turns)
            assert len(by_page) == len(leaf.turns)
            while True:
                found = _first_active_page(page)
                if found is None:
                    break
                r = found[0]
                homs = tuple(by_page.pop(r))
                page = turn_page(page, r, homs)
            assert not by_page, "leaf recorded maps for a page never reached"
            assert page.page_index == leaf.stable_page
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
    assert {r for r, homs in multi[0].turns if homs} == {2, 4}


# ---------------------------------------------------------------------------
# component enumeration against the full-product oracle

CHAIN = ((8, 0), (4, 3), (0, 6), (-4, 9))

# shapes whose torsion middle Z + Z/2 checks the choice of homology path:
# its outgoing image is free in Z (cokernel rule only) and can be Z/2 in
# Z/4 (the lattice fallback must run)
FALLBACK_AT_MIDDLE = {
    (Z, FgAbGroup(1, (2,)), Z): False,
    (Z, FgAbGroup(1, (2,)), cyclic(4)): True,
}


CHAIN_SHAPES = pytest.mark.parametrize("shape", [
    (Z, FgAbGroup(2)),
    (cyclic(2), cyclic(2)),
    (FgAbGroup(2), Z, FgAbGroup(2)),
    (Z, FgAbGroup(2), Z),
    (cyclic(4), cyclic(2), cyclic(4)),
    (Z, FgAbGroup(2), Z, cyclic(2)),
    (cyclic(2), cyclic(4), cyclic(2), cyclic(4)),
    *FALLBACK_AT_MIDDLE,
], ids=lambda shape: "->".join(map(str, shape)))


def chain_problems(shape):
    """The chain of ``shape`` on CHAIN: its groups, and its arrows in
    source order, as the solver passes them, by three signatures (all
    positions, all but the first, all but the middle one)."""
    positions = CHAIN[:len(shape)]
    groups = tuple(zip(positions, shape))
    arrows = tuple(zip(positions, positions[1:]))[::-1]
    signatures = [positions, positions[1:], positions[:1] + positions[2:]]
    return groups, [(arrows, signature) for signature in signatures]


@pytest.mark.parametrize("bound", [1, 2, 3])
@CHAIN_SHAPES
def test_component_classes_match_product_enumeration(shape, bound, monkeypatch):
    fallback_middles = []
    monkeypatch.setattr(spectra, "subquotient", lambda kernel, incoming, middle: (
        fallback_middles.append(middle) or subquotient(kernel, incoming, middle)))
    groups, problems = chain_problems(shape)
    for arrows, signature in problems:
        # a fresh table, so that every homology computation is observed
        got = _component_classes(EnumerationTable(), arrows, groups, bound, signature)
        assert got == component_classes_by_product(arrows, groups, bound, signature)
    if shape in FALLBACK_AT_MIDDLE:
        assert (shape[1] in fallback_middles) == FALLBACK_AT_MIDDLE[shape]


@pytest.mark.parametrize("h, step, kw, longest", [
    (H_R, 4, {}, 2),
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z}), 2,
     {"entry_bound": 1}, 3),
    (H_RP7, 4, {"col_span": 4}, 1),
], ids=["flagship-s4", "t3-s2-b1", "rp7-s4-w4"])
def test_solves_pass_each_component_as_one_chain_in_source_order(monkeypatch, h, step, kw,
                                                                 longest):
    # the enumerator constrains arrow k by arrow k - 1 alone: every
    # component a solve passes is one chain, sorted by source, in which
    # arrow k - 1 leaves arrow k's target
    calls = []

    def recorded(table, arrows, groups, bound, signature):
        calls.append(arrows)
        return _component_classes(table, arrows, groups, bound, signature)

    monkeypatch.setattr(spectra, "_component_classes", recorded)
    solve_floer(h, step, **kw)
    assert max(map(len, calls)) == longest
    for arrows in calls:
        assert list(arrows) == sorted(arrows)
        assert all(arrows[k][1] == arrows[k - 1][0] for k in range(1, len(arrows)))


# ---------------------------------------------------------------------------
# the sibling rule against a search that skips nothing

def classes_match_search_without_skipping(monkeypatch, h, step, bound, **kw):
    """Solve with every ``_component_classes`` call checked against
    ``component_classes_without_skipping``; returns the number of calls."""
    calls = []

    def checked(table, arrows, groups, bound, signature):
        got = _component_classes(table, arrows, groups, bound, signature)
        want = component_classes_without_skipping(arrows, groups, bound, signature)
        assert got == want
        assert [cls.homs for cls in got] == [cls.homs for cls in want]
        calls.append(arrows)
        return got

    monkeypatch.setattr(spectra, "_component_classes", checked)
    solve_floer(h, step, entry_bound=bound, **kw)
    return len(calls)


@pytest.mark.parametrize("bound", [1, 2, 3])
@CHAIN_SHAPES
def test_sibling_rule_keeps_the_classes_of_chains(shape, bound):
    groups, problems = chain_problems(shape)
    for arrows, signature in problems:
        got = _component_classes(EnumerationTable(), arrows, groups, bound, signature)
        want = component_classes_without_skipping(arrows, groups, bound, signature)
        assert got == want
        assert [cls.homs for cls in got] == [cls.homs for cls in want]


@pytest.mark.parametrize("h, step, bound", [
    *((homology(Product(Sphere(1), Sphere(1))), 2, bound) for bound in (1, 2, 3, 4)),
    (homology(Product(RealProjective(3), RealProjective(3))), 4, 4),
], ids=["t2-b1", "t2-b2", "t2-b3", "t2-b4", "rp3xrp3-b4"])
def test_sibling_rule_keeps_the_classes_of_solved_components(monkeypatch, h, step, bound):
    assert classes_match_search_without_skipping(monkeypatch, h, step, bound) > 0


# ---------------------------------------------------------------------------
# the orbit rule: only column-canonical homs are tried

def t3_chain_problems():
    """The ``_component_classes`` calls of T^3's solve at step 2, bound 1
    that have more than one arrow: its three chain shapes."""
    calls = []

    def recorded(table, *problem):
        calls.append(problem)
        return _component_classes(table, *problem)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(spectra, "_component_classes", recorded)
        solve_floer(H_T3, 2, entry_bound=1)
    return [problem for problem in calls if len(problem[0]) > 1]


def enumerator_leaves(run) -> int:
    """Run ``run()`` and count the labelings the chain enumerator reaches
    on its last arrow: the calls of ``_component_classes``'s ``leaf``."""
    leaf = next(code for code in _component_classes.__code__.co_consts
                if getattr(code, "co_name", None) == "leaf")
    leaves = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is leaf:
            leaves[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return leaves[0]


@pytest.mark.parametrize("bound", [2, 3, 4, 5, 6])
def test_orbit_rule_keeps_the_classes_of_the_flagship_chain(bound):
    # Z -> Z^2 -> Z, the flagship's chain, against the search that skips
    # nothing: the same classes, representatives and order
    positions = CHAIN[:3]
    groups = tuple(zip(positions, (Z, FgAbGroup(2), Z)))
    arrows = tuple(zip(positions, positions[1:]))[::-1]
    got = _component_classes(EnumerationTable(), arrows, groups, bound, positions)
    want = component_classes_without_skipping(arrows, groups, bound, positions)
    assert got == want
    assert [cls.homs for cls in got] == [cls.homs for cls in want]


def test_orbit_rule_keeps_the_classes_of_the_t3_chains(monkeypatch):
    # T^3's three chain shapes at bound 1, where a space has 19,683 homs
    # and 560 canonical ones, against the same search trying every hom:
    # the same classes, representatives and order, from fewer leaves (the
    # search that skips nothing takes seconds per shape; CI runs it)
    problems = t3_chain_problems()
    assert sorted(len(arrows) for arrows, *_ in problems) == [2, 2, 3]
    got = [_component_classes(EnumerationTable(), *problem) for problem in problems]
    leaves = enumerator_leaves(lambda: [_component_classes(EnumerationTable(), *problem)
                                        for problem in problems])
    monkeypatch.setattr(abgroup.HomMatrixSpace, "canonical", None)
    want = [_component_classes(EnumerationTable(), *problem) for problem in problems]
    assert got == want
    assert [[cls.homs for cls in classes] for classes in got] == [
        [cls.homs for cls in classes] for classes in want]
    assert leaves < enumerator_leaves(lambda: [_component_classes(EnumerationTable(), *problem)
                                               for problem in problems])


def test_t3_enumerator_reaches_142_leaves():
    # the T^3 table at step 2, bound 1: the enumerator reaches 142
    # labelings on the last arrows of its chains, 1,070 while every hom
    # was tried and not only the column-canonical ones
    assert enumerator_leaves(lambda: solve_floer(H_T3, 2, entry_bound=1)) == 142


# ---------------------------------------------------------------------------
# the interval pruner against a search that prunes nothing

def assert_pruning_keeps_the_leaves(h, step, **kw):
    """``solve_floer`` against ``solve_floer_without_pruning``: the same
    leaves in the same order, each with the same turns, and the same
    truncation note, or both a window error; returns the tree."""
    try:
        want = solve_floer_without_pruning(h, step, **kw)
    except WindowError:
        with pytest.raises(WindowError):
            solve_floer(h, step, **kw)
        return None
    got = solve_floer(h, step, **kw)
    assert got == want
    assert [leaf.turns for leaf in got.leaves] == [leaf.turns for leaf in want.leaves]
    return got


@pytest.mark.parametrize("h, step, kw", [
    *((H_T2, 2, {"entry_bound": bound}) for bound in (1, 2, 3, 4)),
    (homology(Product(RealProjective(3), RealProjective(3))), 4, {"entry_bound": 1}),
    # page 4 turns before page 8 can act: rows 0 and 7 are not final
    (H_RP7, 4, {"entry_bound": 4, "col_span": 2}),
    (H_RP7, 4, {"entry_bound": 1, "col_span": 4}),
    # page 3 certifies degrees -1 and 4, which page 5 loses: page 4 maps
    # (-2, 1) out of the window and the unresolved (4, 1) into (0, 4);
    # the worst-case run of the first page keeps them out of every turn's
    # checks (the run of a page-3 geometry would still certify -1)
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(2), 2: Z, 4: cyclic(2)}), 2, {"entry_bound": 1}),
    # pages 2, 4 and 6 turn, so the lookahead after page 2 spans two later
    # turns; it cuts about three quarters of the pages the interval bounds
    # alone keep (the second table, with a torsion row, loses none)
    (GradedGroup.from_dict({0: Z, 3: Z, 4: Z, 5: Z}), 2, {"entry_bound": 1, "col_span": 3}),
    (GradedGroup.from_dict({0: Z, 3: cyclic(2), 4: Z, 5: Z}), 2,
     {"entry_bound": 1, "col_span": 3}),
    # the d_p bound on page 4 of RP^7 at step 4, where rows 1, 3 and 5 hold
    # Z/2: 19 pages become 5 at window 2 and bound 1, and 68 become 6 at
    # window 3 and bound 2
    (H_RP7, 4, {"entry_bound": 1, "col_span": 2}),
    (H_RP7, 4, {"entry_bound": 2, "col_span": 3}),
], ids=["t2-b1", "t2-b2", "t2-b3", "t2-b4", "rp3xrp3-b1", "rp7-s4-w2", "rp7-s4-w4-b1",
        "rows-0-1-2-4", "rows-0-3-4-5", "rows-0-3t-4-5", "rp7-s4-w2-b1", "rp7-s4-w3-b2"])
def test_pruning_keeps_the_leaves_of_a_search_without_pruning(h, step, kw):
    assert_pruning_keeps_the_leaves(h, step, **kw)


@pytest.mark.parametrize("h, step, bound, pins, kept", [
    (H_T2, 2, 2, ((0, Z),), 2),
    (H_T2, 2, 2, ((1, cyclic(2)), (2, ZERO)), 1),
    (H_T2, 2, 2, ((0, cyclic(3)),), 0),
    (H_RP7, 4, 4, ((0, ZERO), (3, FgAbGroup(0, (2, 2)))), 1),
    (H_RP7, 4, 4, ((-1, cyclic(2)),), 0),
    # the pin's d_2 = 2 meets the odd degrees' d_2 bounds on page 4
    (H_RP7, 4, 2, ((1, FgAbGroup(0, (2, 2))),), 1),
    # two pins of one parity that differ: no branch agrees with both
    (H_T2, 2, 2, ((0, Z), (2, ZERO)), 0),
], ids=["t2-even", "t2-both", "t2-none", "rp7-s4-both", "rp7-s4-none", "rp7-s4-odd-d2",
        "t2-clash"])
def test_pruning_keeps_the_leaves_of_pinned_degrees(h, step, bound, pins, kept):
    tree = assert_pruning_keeps_the_leaves(h, step, constraints=pins, entry_bound=bound)
    assert len(tree.leaves) == kept


def test_the_truncation_flag_reads_only_the_turns_the_solve_starts():
    # rows 0, 3 and 4 at step 2, bound 2, window 3, degree 0 pinned to 0:
    # degree 0 keeps free rank 1, so neither solver finds a leaf.  The
    # pruner cuts every branch before page 4's Z -> Z/2 arrows, whose hom
    # spaces the bound may cut, so the solver notes no truncation; the
    # search that prunes nothing reaches them and notes it
    h = GradedGroup.from_dict({0: Z, 3: cyclic(2), 4: cyclic(2)})
    kw = {"constraints": ((0, ZERO),), "entry_bound": 2, "col_span": 3}
    got, want = solve_floer(h, 2, **kw), solve_floer_without_pruning(h, 2, **kw)
    assert got.leaves == want.leaves == ()
    assert (got.bound_may_truncate, want.bound_may_truncate) == (False, True)


def instances_built(monkeypatch, cls) -> list:
    """Every instance of ``cls`` built from here to the test's end."""
    built, init = [], cls.__init__
    monkeypatch.setattr(cls, "__init__",
                        lambda obj, *args, **kw: init(obj, *args, **kw) or built.append(obj))
    return built


class _Anything:
    """A free rank that lies inside every bound."""

    def __le__(self, other):
        return True

    __ge__ = __le__


@pytest.mark.parametrize("h, kw, leaves, turns", [
    # the T^3 table at step 2, bound 1: the interval bounds and the
    # lookahead keep 1,132 root-turn branches, each of which starts the
    # last turn (page 4), and only 11 of them have a combination that
    # survives it; without the lookahead 7,252 branches start it (7,004
    # while the root turn's lens also packed u_4: with the flow off, that
    # field cut 248 branches the d_p fields keep)
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z}), {}, 16, (1133, 7253)),
    # pages 2, 4 and 6 turn, so the lookahead after page 2 spans two
    # later turns, and page 6 is the last
    (GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), {"col_span": 3}, 3, (2688, 6670)),
], ids=["t3", "rows-0-1-4-5"])
def test_lookahead_cuts_dead_branches_before_their_turns(monkeypatch, h, kw, leaves, turns):
    # the rank-flow lookahead cuts a branch before its next turn starts;
    # with every later free rank admitted it cuts nothing, and the solve
    # keeps the same leaves, with the same turns, in the same order
    started = instances_built(monkeypatch, spectra._CarriedParts)
    tree = solve_floer(h, 2, entry_bound=1, **kw)
    counts = [len(started)]
    monkeypatch.setattr(spectra._Flow, "values", lambda flow, packed: ((_Anything(),) * 2,))
    started.clear()
    assert solve_floer(h, 2, entry_bound=1, **kw).leaves == tree.leaves
    counts.append(len(started))
    assert len(tree.leaves) == leaves
    assert tuple(counts) == turns


def test_pages_are_built_only_for_the_first_page_the_run_and_the_leaves(monkeypatch):
    # pages 2, 4 and 6 turn, and no turn builds its branch's page: the
    # pages are the first, the worst-case run's stable page, which has no
    # entries, and one per leaf (7 while the run built a page per turn)
    built = instances_built(monkeypatch, BigradedPage)
    tree = solve_floer(GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), 2, entry_bound=1,
                       col_span=3)
    assert len(tree.leaves) == 3
    assert len(built) == 5


@pytest.mark.parametrize("h, step", [(H_RP7, 8), (H_R, 4)], ids=["rp7-s8", "flagship-l1-l2-s4"])
def test_a_single_turn_run_numbers_no_position(h, step):
    # only the plan lookup of a turn after the run's first reads live bits,
    # so a run of one turn, as both flagship pairs have at their native
    # steps, gives no position a bit at any window (8,002 and 20,005 bits
    # at span 2000 while every window end of a run arrow had one)
    run = spectra._worst_case_run(build_e1(h, step, 2000))
    assert len(run.arrows) == 1
    assert run.bits == {}


@pytest.mark.parametrize("h, step, kw, leaves, pages, most_plans", [
    # RP^7 at step 4, window 4 (catalog-tables/rp7-s4-w4): every page turn
    # is one of two plans; page 8, the last turn, is decided without a
    # page, so the pages are the first, the worst-case run's stable page
    # and the leaf (4 while the run built a page for each of its 2 turns)
    (H_RP7, 4, {"entry_bound": 4, "col_span": 4}, 1, 3, 2),
    # T^3 at step 2, bound 1 (catalog-tables/t3-s2-b1): the same, with a
    # page per leaf (19 while the run built a page per turn)
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z}), 2,
     {"entry_bound": 1}, 16, 18, 33),
], ids=["rp7-s4-w4", "t3-s2-b1"])
def test_turn_plans_are_keyed_by_what_they_read(monkeypatch, h, step, kw, leaves, pages,
                                                most_plans):
    # a plan is built once per turn, surviving run arrows and unresolved
    # set, however many page geometries share them
    built = instances_built(monkeypatch, BigradedPage)
    plans = instances_built(monkeypatch, spectra._Plan)
    tree = solve_floer(h, step, **kw)
    assert len(tree.leaves) == leaves
    assert len(built) == pages
    assert 0 < len(plans) <= most_plans


def assert_turns_read_the_dropped_sets(turns) -> None:
    """Each ``_TurnAfter`` of ``turns`` reads of the turn before it what
    the reference that reads the plan's dropped set gives for its pair of
    plans: its carries, sources and finals."""
    for turn in turns:
        want = turn_after_by_dropped_set(turn.earlier, turn.plan)
        assert (turn.carries, turn.sources, turn.finals) == want


@pytest.mark.parametrize("h, kw, plan_pairs, computed", [
    # rows 0, 1, 4 and 5 at step 2, window 3, bound 1: 1,824 turn objects
    # on 1,728 pairs of plans, which fall on 68 pairs of layouts
    (GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), {"entry_bound": 1, "col_span": 3},
     1728, 68),
    # T^3 at step 2, bound 1 (catalog-tables/t3-s2-b1)
    (H_T3, {"entry_bound": 1}, 33, 9),
], ids=["rows-0-1-4-5", "t3-s2-b1"])
def test_a_turn_reads_the_turn_before_once_per_pair_of_layouts(monkeypatch, h, kw, plan_pairs,
                                                                computed):
    # what a turn reads of the turn before it is fixed by the two layouts
    # (``_Layout.after``), so it is worked out once per pair of layouts,
    # not once per pair of plans, and it is what the plans' dropped sets
    # give
    runs, worst_case_run = [], spectra._worst_case_run
    monkeypatch.setattr(spectra, "_worst_case_run",
                        lambda first: runs.append(worst_case_run(first)) or runs[-1])
    turns = instances_built(monkeypatch, spectra._TurnAfter)
    solve_floer(h, 2, **kw)
    assert len({(turn.earlier, turn.plan) for turn in turns}) == plan_pairs
    layouts = {(turn.earlier and turn.earlier.layout, turn.plan.layout) for turn in turns}
    assert len(layouts) == computed
    assert sum(len(layout._after) for layout in runs[-1].layouts.values()) == computed
    assert_turns_read_the_dropped_sets(turns)


def checks_made(monkeypatch) -> list:
    """The component index of every interval check made from here to the
    test's end: -1 for each start check, and i for each class that a node
    pass on component i checks."""
    calls, interval_check = [], spectra._interval_check

    def counted(*args):
        start, node = interval_check(*args)
        return (lambda pinned: calls.append(-1) or start(pinned),
                lambda i, classes, *rest: calls.extend([i] * len(classes))
                or node(i, classes, *rest))

    monkeypatch.setattr(spectra, "_interval_check", counted)
    return calls


def test_t3_checks_each_distinct_node_input_once(monkeypatch):
    # T^3 at step 2, bound 1 (catalog-tables/t3-s2-b1): a DFS node's
    # children are checked once per distinct input, against 40,655 checks
    # class by class.  The root turn's states bound d_2 and d_3 as well as
    # free ranks, and a parity whose last degree is bounded keeps its free
    # rank alone; there is no u_4 field (the 3 x 3 minors of +-1 matrices
    # give cokernels Z/4, which pack as Z/2 does).  The last turn's memo
    # is shared by every root-turn branch whose plan has the same component
    # layout, not only the same plan, and its key reads the untouched
    # parts, so the 1,132 branches make 91 last-turn checks (298 with a
    # memo per plan, 476 before the lookup below), not 2,348; in all
    # 7,817 checks then (see below), 8,024 with a memo per plan.  With
    # exact (free rank, prime powers) keys beside the packed bounds the
    # states were finer: 9,604 checks, and 8,665 while the root turn's lens also
    # packed u_4, which cut no branch here but split node states.  Once
    # both parities of a last-turn node are exact, only the classes whose
    # parts match what they leave are checked (8,202 checks when every
    # class was): no leaf moves, since each class skipped would fail its
    # equality check.  The last component's key reads the flow's packed
    # int, which holds no field of a block that certifies no degree, so
    # children that differ only there share a key: 6,991 checks, 7,817
    # while the flow packed every capped position
    calls = checks_made(monkeypatch)
    tree = solve_floer(H_T3, 2, entry_bound=1)
    assert len(tree.leaves) == 16
    assert len(calls) == 6991


def test_turns_share_a_node_memo_exactly_when_they_share_its_key(monkeypatch):
    # rows 0, 1, 4 and 5 at step 2, window 3, bound 1: a node memo belongs
    # to a component layout (page index and components), by flow and lens,
    # so two turns get one memo exactly when all four agree: 528 memos for
    # the 2,688 turns (1,088 with a memo per plan).  8 of the 9 middle-turn
    # layouts are shared by plans with different flows, so a memo keyed by
    # the lens alone would hand one flow's children to another
    seen, search = [], spectra._turn_combinations

    def started(plan, lens, lists, kept_parts, kept_pack, pinned, memo, cut):
        seen.append(((plan.layout.r, plan.layout.comps, plan.flow, lens), memo))
        return search(plan, lens, lists, kept_parts, kept_pack, pinned, memo, cut)

    monkeypatch.setattr(spectra, "_turn_combinations", started)
    tree = solve_floer(GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), 2, entry_bound=1,
                       col_span=3)
    assert len(tree.leaves) == 3 and len(seen) == 2688
    flows: dict = {}
    for (r, comps, flow, _), _ in seen:
        if flow is not None:
            flows.setdefault((r, comps), set()).add(flow)
    assert (len(flows), sum(len(shared) > 1 for shared in flows.values())) == (9, 8)
    keys = {key for key, _ in seen}
    assert len(keys) == len({id(memo) for _, memo in seen}) == 528
    assert len({(key, id(memo)) for key, memo in seen}) == len(keys)


@pytest.mark.parametrize("h, kw, calls, solves", [
    # T^3 at step 2, bound 1 (catalog-tables/t3-s2-b1): three blocks of two
    # positions and two certified degrees each, all of one shape, so they
    # share one memo and are solved 41 times in all (99 times with a memo
    # per block); rows 0, 1, 4 and 5: 1,101 times (1,500)
    (H_T3, {"entry_bound": 1}, 826, 41),
    (GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), {"entry_bound": 1, "col_span": 3}, 2607,
     1101),
], ids=["t3-s2-b1", "rows-0-1-4-5"])
def test_the_flow_gives_what_the_whole_flow_gives_on_every_call(monkeypatch, h, kw, calls,
                                                                  solves):
    # the rank flow joins the values of its blocks, each solved once per
    # distinct value of its own fields: on every call of a solve it gives
    # what the flow solved whole, as one state over every capped position,
    # gives.  It is asked 826 and 2,607 times (1,652 and 6,191 while the
    # packed int held the positions of blocks that certify no degree, and
    # so told more node keys apart, each call then one whole solve)
    wholes, made, init, values, solve = {}, [], spectra._Flow.__init__, spectra._Flow.values, \
        spectra._Flow._solve

    def built(flow, *args):
        init(flow, *args)
        wholes[flow] = WholeFlow(*args)

    def checked(flow, packed):
        got = values(flow, packed)
        assert got == wholes[flow].values_of(flow, packed)
        made.append(packed)
        return got

    monkeypatch.setattr(spectra._Flow, "__init__", built)
    monkeypatch.setattr(spectra._Flow, "values", checked)
    monkeypatch.setattr(spectra._Flow, "_solve",
                        lambda flow, *args: made.append(None) or solve(flow, *args))
    solve_floer(h, 2, **kw)
    assert (len(made) - made.count(None), made.count(None)) == (calls, solves)


def test_rp3_x_rp6_at_step_4_is_cut_by_the_d_p_bound(monkeypatch):
    # a torsion-heavy product at step 4, bound 1, smallest window: no
    # branch comes out 2-periodic, and the d_p bound cuts most of them on
    # the root turn.  The last turn builds no page, so the cut shows in
    # the interval checks: 1,847 (every torsion order is 2, so d_2 is the
    # only field past the free rank), 1,849 while the flow's packed int
    # held the positions of blocks that certify no degree, 6,634 with a
    # node memo per plan, not per component layout, 7,674 while the last
    # turn checked
    # every class at every node instead of those its lookup finds, 7,952
    # when exact (free rank, prime powers) keys rode beside the packed
    # bounds and split their states, and 20,034 with free ranks and those
    # keys alone (and 146,406 pages built so before the last turn went
    # page-less)
    calls = checks_made(monkeypatch)
    built = instances_built(monkeypatch, BigradedPage)
    tree = solve_floer(H_RP3_RP6, 4, entry_bound=1,
                       col_span=spectra._smallest_window(H_RP3_RP6, 4))
    assert tree.leaves == ()
    assert len(calls) == 1847
    assert len(built) <= 30894


@pytest.mark.parametrize("h, step, kw, pages", [
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z}), 2,
     {"entry_bound": 1}, (18, 530)),
    (H_RP7, 4, {"entry_bound": 4, "col_span": 4}, (3, 4)),
    (homology(Product(RealProjective(3), RealProjective(3))), 4, {"entry_bound": 1}, (3, 3)),
], ids=["t3-s2-b1", "rp7-s4-w4", "rp3xrp3-s4"])
def test_the_found_cut_changes_no_leaf(monkeypatch, h, step, kw, pages):
    # the last turn cuts a branch once its abutment is a leaf already
    # found; handed an empty cut instead, the solve builds a page for
    # every branch that survives its last turn (the second count), and
    # keeps the same first leaf per abutment, with the same turns, in the
    # same order ((19, 531) on t3-s2-b1 and (4, 5) on rp7-s4-w4 while the
    # worst-case run built a page per turn)
    built = instances_built(monkeypatch, BigradedPage)
    tree = solve_floer(h, step, **kw)
    plain = len(built)
    search = spectra._turn_combinations
    monkeypatch.setattr(spectra, "_turn_combinations", lambda *args: search(*args[:-1], ()))
    assert solve_floer(h, step, **kw).leaves == tree.leaves
    assert tree.leaves and (plain, len(built) - plain) == pages


def free_rank_lens(table, plan, *args):
    """A ``_turn_lens`` that packs the free rank alone, no d_p field."""
    return table.lens((), plan.flow.width)


@pytest.mark.parametrize("h, step, kw, checks", [
    # the interval checks with every field, and with only the free rank's
    # field; with the free rank's field alone T^3's root turn keeps 1,764
    # branches, not 1,132.  The last turn checks only the classes its
    # lookup finds (while it checked every class: 8,202 and 5,539 checks
    # on T^3, and 53, 68 and 7,674 with every field on the others), and
    # the node memo is shared per component layout (with a memo per plan:
    # (8,024, 5,329) on T^3 and 6,634 on RP^3 x RP^6), and the flow packs
    # no field of a block that certifies no degree ((7,817, 5,104) on T^3
    # and 1,849 on RP^3 x RP^6 while it did)
    (H_T3, 2, {"entry_bound": 1}, (6991, 4278)),
    (H_RP7, 4, {"entry_bound": 4, "col_span": 4}, (25, 25)),
    (homology(Product(RealProjective(3), RealProjective(3))), 4, {"entry_bound": 1}, (16, 16)),
    # with the free rank's field alone the solve runs for more than nine
    # minutes, so that ablation is left out here
    (H_RP3_RP6, 4, {"entry_bound": 1, "col_span": 2}, (1847,)),
], ids=["t3-s2-b1", "rp7-s4-w4", "rp3xrp3-s4", "rp3xrp6-s4"])
def test_the_d_p_fields_change_no_leaf(monkeypatch, h, step, kw, checks):
    # a cut ablation: the d_p fields of a turn's lens only cut branches
    # that have no leaf, so turning them off keeps the same leaves, with
    # the same turns, in the same order
    calls = checks_made(monkeypatch)
    tree = solve_floer(h, step, **kw)
    counts = [len(calls)]
    if len(checks) > 1:
        monkeypatch.setattr(spectra, "_turn_lens", free_rank_lens)
        calls.clear()
        assert solve_floer(h, step, **kw).leaves == tree.leaves
        counts.append(len(calls))
    assert tuple(counts) == checks


def children_match_class_by_class_checks(monkeypatch) -> list:
    """Wrap ``_turn_combinations`` so that every combination it yields is
    checked, class by class, against the next one of the reference that
    checks the start and each class under each prefix unmemoized, in
    lockstep, so both read the growing ``found`` cut at the same moments;
    returns the number of classes of every combination compared."""
    search, compared = spectra._turn_combinations, []

    def wrapped(*args):
        want = turn_combinations_by_check(*args)
        for chosen in search(*args):
            assert list(map(id, chosen)) == list(map(id, next(want)))
            compared.append(len(chosen))
            yield chosen
        assert next(want, None) is None

    monkeypatch.setattr(spectra, "_turn_combinations", wrapped)
    return compared


@pytest.mark.parametrize("h, step, kw, leaves", [
    (GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z}), 2,
     {"entry_bound": 1}, 16),
    (H_RP7, 4, {"entry_bound": 4, "col_span": 4}, 1),
    # pages 2, 4 and 6 turn, and the middle turn, which is not the last,
    # starts on 1,311, 64 and 102 branches that share its memo
    (GradedGroup.from_dict({0: Z, 1: Z, 4: Z, 5: Z}), 2, {"entry_bound": 1, "col_span": 3}, 3),
    (GradedGroup.from_dict({0: Z, 1: cyclic(2), 4: cyclic(3), 5: Z}), 2,
     {"entry_bound": 1, "col_span": 3}, 4),
    (GradedGroup.from_dict({0: Z, 3: Z, 4: Z, 5: Z}), 2, {"entry_bound": 1, "col_span": 3}, 3),
    # pins make the last turn's start state exact, so its lookup runs from
    # the first component on (both degrees pinned) or from a later one
    (H_R, 4, {"constraints": ((0, ZERO), (1, ZERO))}, 1),
    (H_R, 4, {"constraints": ((1, cyclic(2)),)}, 1),
], ids=["t3-s2-b1", "rp7-s4-w4", "rows-0-1-4-5", "rows-0-1-4-5-torsion", "rows-0-3-4-5",
        "r-s4-pinned-0-1", "r-s4-pinned-1"])
def test_children_are_the_classes_checked_one_at_a_time(monkeypatch, h, step, kw, leaves):
    calls = children_match_class_by_class_checks(monkeypatch)
    assert len(solve_floer(h, step, **kw).leaves) == leaves
    assert calls


@pytest.mark.parametrize("path, code", [
    (CORPUS / "flagship-sweep" / "cp7-b6-w8.json", 10),
    (CORPUS / "claims-fanout" / "fan7-mixed.json", 10),
], ids=["cp7-b6-w8", "fan7-mixed"])
def test_children_are_the_classes_checked_one_at_a_time_in_a_run(monkeypatch, capsys, path,
                                                                  code):
    calls = children_match_class_by_class_checks(monkeypatch)
    assert main(["check", str(path)]) == code
    capsys.readouterr()
    assert calls


def test_the_last_turn_checks_only_the_classes_its_lookup_finds(monkeypatch, capsys):
    # the flagship at entry bound 6, window 8 (flagship-sweep/cp7-b6-w8):
    # every solve is decided on its last turn, whose bounds are exact, so
    # once both parities of a node are exact a class survives exactly when
    # its parts equal what the parity values leave.  The lookup finds those
    # classes, and every class it hands the check passes: 86 checks, 84
    # of them of classes and 2 of start states, against 1,762 when every
    # class was checked at every node
    passed, interval_check = [], spectra._interval_check

    def counted(*args):
        start, node = interval_check(*args)

        def started(pinned):
            out = start(pinned)
            passed.append(out is not None)
            return out

        def checked(i, classes, *rest):
            kept = node(i, classes, *rest)
            passed.extend([True] * len(kept) + [False] * (len(classes) - len(kept)))
            return kept

        return started, checked

    monkeypatch.setattr(spectra, "_interval_check", counted)
    assert main(["check", str(CORPUS / "flagship-sweep" / "cp7-b6-w8.json")]) == 10
    capsys.readouterr()
    assert len(passed) == 86 and all(passed)


def test_hom_spaces_build_homs_only_when_indexed(monkeypatch):
    # the T^3 table at step 2, bound 1: Z^3 -> Z^3 has 19,683 homs, and the
    # solve builds a GroupHom only for the differentials its leaves keep
    built = instances_built(monkeypatch, GroupHom)
    h = GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z})
    tree = solve_floer(h, 2, entry_bound=1)
    assert len(tree.leaves) == 16
    assert 0 < len(built) <= 300


def test_t3_cokernels_are_taken_once_per_row_class(monkeypatch):
    # the T^3 table at step 2, bound 1: a cokernel is fixed by the set of
    # a hom's rows up to sign, and taken the first time a reached hom of
    # its row class asks, so the 19,683 homs of Z^3 -> Z^3 and the three
    # smaller spaces need 148 Smith diagonals (488 while every row class
    # was taken)
    calls = []
    monkeypatch.setattr(abgroup, "cokernel", lambda m: calls.append(m) or cokernel(m))
    built = instances_built(monkeypatch, BigradedPage)
    h = GradedGroup.from_dict({0: Z, 1: FgAbGroup(3), 2: FgAbGroup(3), 3: Z})
    tree = solve_floer(h, 2, entry_bound=1)
    assert len(tree.leaves) == 16
    assert len(built) <= 1700
    assert len(calls) == 148
