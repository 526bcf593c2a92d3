"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Everything here is exact arithmetic; there are no tolerances to
tune, equality is equality."""

import itertools
import json
import random
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from cobcheck.abgroup import (FgAbGroup, IntMatrix, Z, ZERO, cyclic, direct_sum,
                              from_orders, hom_images, smith_normal_form, tensor, tor)
from cobcheck.cli import branch_lines, main, parse_scenario, run
from cobcheck.graded import LaurentGrading, coefficient_change
from cobcheck.spectra import solve_floer
from cobcheck.topology import Product, RealProjective, Sphere, homology
from cobcheck.exactness import check_feasibility

from oracles import determinant, order, rp_homology_cellular
from test_exactness import _random_problem, oracle_feasible

FIXTURES = Path(__file__).parent / "fixtures"


def bundled(name: str) -> Path:
    return Path(str(resources.files("cobcheck") / "data" / name))


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_criterion_1_projective_space_self_pair():
    with criterion(1, "self-pair of RP^7 at step 8: unique branch (0, Z/2) "
                      "with an index-2 differential"):
        tree = solve_floer(homology(RealProjective(7)), 8)
        assert len(tree.leaves) == 1
        leaf = tree.leaves[0]
        assert leaf.hf_even == ZERO
        assert leaf.hf_odd == cyclic(2)
        assert any("image index 2 in Z" in line for line in branch_lines(tree, leaf))


def test_criterion_2_mixed_pair_two_branches():
    with criterion(2, "RP^3 x S^3 pair at step 4: exactly the branches "
                      "(0, 0) and (Z/2, Z/2)"):
        tree = solve_floer(homology(Product(RealProjective(3), Sphere(3))), 4)
        outcomes = [(leaf.hf_even, leaf.hf_odd) for leaf in tree.leaves]
        assert outcomes == [(ZERO, ZERO), (cyclic(2), cyclic(2))]


def test_criterion_3_coefficient_change():
    with criterion(3, "folding to step 2 gives (Z/2)^4 odd / 0 even and "
                      "(Z/2)^2 in degrees 0 and 1"):
        self_pair = solve_floer(homology(RealProjective(7)), 8).leaves[0]
        folded = coefficient_change((self_pair.hf_even, self_pair.hf_odd),
                                    LaurentGrading(-8), LaurentGrading(-2))
        assert folded == (ZERO, from_orders(2, 2, 2, 2))

        mixed = solve_floer(homology(Product(RealProjective(3), Sphere(3))), 4)
        second = mixed.leaves[1]
        assert (second.hf_even, second.hf_odd) == (cyclic(2), cyclic(2))
        folded = coefficient_change((second.hf_even, second.hf_odd),
                                    LaurentGrading(-4), LaurentGrading(-2))
        assert folded == (from_orders(2, 2), from_orders(2, 2))


def test_criterion_4_bundled_scenario_golden(capsys):
    with criterion(4, "bundled scenario: (L2, L1) INFEASIBLE twice, (L1, L2) "
                      "NOT OBSTRUCTED, exit 10, byte-identical report"):
        code = main(["check", str(bundled("paper_cp7.json"))])
        out = capsys.readouterr().out
        assert code == 10
        assert out == bundled("golden/paper_cp7_report.txt").read_text()

        report = run(parse_scenario(bundled("paper_cp7.json").read_text()))
        by_ends = {tuple(cv.ends): cv for cv in report.claim_verdicts}
        assert by_ends[("L1", "L2")].verdict == "NOT OBSTRUCTED"
        bad = by_ends[("L2", "L1")]
        assert bad.verdict == "INFEASIBLE"
        assert len(bad.branches) == 2
        assert all(b.verdict.certificate is not None for b in bad.branches)


def test_criterion_5_kunneth_oracle():
    with criterion(5, "H_*(RP^3 x S^3) matches the independent "
                      "cellular/Kunneth computation in every degree"):
        h = homology(Product(RealProjective(3), Sphere(3)))
        expected = {0: Z, 1: cyclic(2), 3: FgAbGroup(2), 4: cyclic(2), 6: Z}
        assert dict(h.entries) == expected
        assert h.entry(2) == ZERO and h.entry(5) == ZERO

        # independent route: cellular RP^3 convolved with the sphere table
        rp3 = rp_homology_cellular(3)
        s3 = {0: Z, 3: Z}
        oracle = {}
        for n in range(7):
            parts = []
            for i, j in itertools.product(rp3, s3):
                if i + j == n:
                    parts.append(tensor(rp3[i], s3[j]))
                if i + j == n - 1:
                    parts.append(tor(rp3[i], s3[j]))
            total = direct_sum(*parts) if parts else ZERO
            if not total.is_trivial():
                oracle[n] = total
        assert dict(h.entries) == oracle


def test_criterion_6_property_suites():
    with criterion(6, "randomized property suites (>= 100 cases each)"):
        rng = random.Random(60406)

        # Smith normal form: reconstruction, unimodularity, chain
        for _ in range(120):
            rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
            m = IntMatrix.from_rows(
                [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
            u, d, v = smith_normal_form(m)
            assert u.mul(m).mul(v) == d
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            nz = [x for x in d.diagonal() if x]
            assert all(b % a == 0 for a, b in zip(nz, nz[1:]))

        # direct-sum canonical-form algebra
        def rand_group():
            orders = [rng.choice([0, 2, 3, 4, 6, 8]) for _ in range(rng.randrange(0, 4))]
            return from_orders(*orders)

        for _ in range(120):
            a, b, c = rand_group(), rand_group(), rand_group()
            assert direct_sum(a, b) == direct_sum(b, a)
            assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
            assert direct_sum(a, ZERO) == a

        # exactness solver vs brute-force GF(2) map enumeration, dims <= 3
        osc = random.Random(77)
        for checked in range(120):
            max_dim = 3 if checked % 10 == 0 else 2
            problem = _random_problem(osc, max_dim=max_dim,
                                      max_len=4 if max_dim == 3 else 5,
                                      n_seq=osc.randrange(1, 3))
            assert check_feasibility(problem).feasible == oracle_feasible(problem)

        # order conservation through page turns on both scenarios
        conserved = 0
        for table, step in [(homology(RealProjective(7)), 8),
                            (homology(Product(RealProjective(3), Sphere(3))), 4)]:
            for leaf in solve_floer(table, step).leaves:
                for _, homs in leaf.turns:
                    for _, h in homs:
                        image, kernel, _ = hom_images(h)
                        if order(h.source) is not None:
                            assert order(image) * order(kernel) == order(h.source)
                        conserved += 1
        assert conserved > 0

        # window- and bound-stability of the branch solver
        for table, step in [(homology(RealProjective(7)), 8),
                            (homology(Product(RealProjective(3), Sphere(3))), 4)]:
            base = {(l.hf_even, l.hf_odd) for l in solve_floer(table, step).leaves}
            wide = {(l.hf_even, l.hf_odd)
                    for l in solve_floer(table, step, col_span=3).leaves}
            assert base == wide
            small = {(l.hf_even, l.hf_odd)
                     for l in solve_floer(table, step, entry_bound=2).leaves}
            assert small <= base


def test_criterion_7_admissibility_gates(capsys):
    with criterion(7, "negative fixtures rejected with the named hypothesis"):
        code = main(["check", str(FIXTURES / "probe_maslov_too_small.json")])
        err = capsys.readouterr().err
        assert code == 1 and "N_K > 3" in err

        code = main(["check", str(FIXTURES / "odd_grading.json")])
        err = capsys.readouterr().err
        assert code == 1 and "even" in err

        code = main(["check", str(FIXTURES / "non_divisor_grading.json")])
        err = capsys.readouterr().err
        assert code == 1 and "common-divisor" in err
