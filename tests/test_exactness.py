import itertools
import random
from functools import lru_cache

import pytest

from cobcheck import exactness
from cobcheck.abgroup import FgAbGroup, ZERO, cyclic
from cobcheck.graded import LaurentGrading
from cobcheck.topology import LagrangianDescriptor, RealProjective
from cobcheck.exactness import (AdmissibilityError, CertStep, Certificate, CobordismClaim,
                                ExactSequenceProblem, Known, Unknown,
                                UnsupportedProblemError, build_cobordism_sequences,
                                certify_nonexistence, check_feasibility,
                                verify_certificate, verify_witness)

from oracles import propagate_by_full_sweeps


def Z2(k: int) -> FgAbGroup:
    return FgAbGroup(0, (2,) * k) if k else ZERO


# ---------------------------------------------------------------------------
# brute-force GF(2) oracle: enumerate actual linear maps
#
# A sequence with fixed dimensions is exact-realizable iff a chain of
# matrices exists whose kernels equal the previous images; we walk the
# sequence keeping the set of achievable image subspaces.  Subspaces are
# canonicalized as frozensets of all their bitmask vectors.


@lru_cache(maxsize=None)
def _transitions(d_in: int, d_out: int):
    """kernel subspace -> set of achievable image subspaces, over all
    2^(d_in*d_out) matrices."""
    table: dict[frozenset, set] = {}
    columns = list(range(2 ** d_out))
    for cols in itertools.product(columns, repeat=d_in):
        values = []
        for x in range(2 ** d_in):
            v = 0
            for i in range(d_in):
                if (x >> i) & 1:
                    v ^= cols[i]
            values.append(v)
        kernel = frozenset(x for x, v in enumerate(values) if v == 0)
        image = frozenset(values)
        table.setdefault(kernel, set()).add(image)
    return table


def _all_subspace_kernels(d_in: int, d_out: int):
    return set(_transitions(d_in, d_out).keys())


def _sequence_realizable(dims: list[int]) -> bool:
    states = set()
    for image_set in _transitions(dims[0], dims[1]).values():
        states |= image_set
    for j in range(1, len(dims) - 1):
        trans = _transitions(dims[j], dims[j + 1])
        nxt = set()
        for state in states:
            nxt |= trans.get(state, set())
        states = nxt
        if not states:
            return False
    return True


def oracle_feasible(problem: ExactSequenceProblem, max_dim: int = 3) -> bool:
    names = sorted({t.name for seq in problem.sequences for t in seq
                    if isinstance(t, Unknown)})
    for combo in itertools.product(range(max_dim + 1), repeat=len(names)):
        val = dict(zip(names, combo))
        dims_ok = True
        for seq in problem.sequences:
            dims = [len(t.group.torsion) if isinstance(t, Known) else val[t.name]
                    for t in seq]
            if not _sequence_realizable(dims):
                dims_ok = False
                break
        if dims_ok:
            return True
    return False


# ---------------------------------------------------------------------------
# contract examples


def test_unknown_forced_zero_then_contradiction():
    solo = ExactSequenceProblem(sequences=((Known(ZERO), Unknown("X"), Known(ZERO)),))
    verdict = check_feasibility(solo)
    assert verdict.feasible
    assert verdict.witness["dims"]["dim(X)"] == 0

    combined = ExactSequenceProblem(sequences=(
        (Known(ZERO), Unknown("X"), Known(ZERO)),
        (Known(ZERO), Known(Z2(4)), Unknown("X"), Known(ZERO)),
    ))
    verdict = check_feasibility(combined)
    assert not verdict.feasible
    assert verify_certificate(combined, verdict.certificate)


def test_two_window_system_infeasible():
    granted = (Known(Z2(4)), Known(Z2(2)), Unknown("X"), Known(ZERO), Known(Z2(2)))
    claimed = (Known(Z2(2)), Known(Z2(4)), Unknown("X"), Known(Z2(2)), Known(ZERO))
    problem = ExactSequenceProblem(sequences=(granted, claimed))
    verdict = check_feasibility(problem)
    assert not verdict.feasible
    assert verify_certificate(problem, verdict.certificate)
    # each window alone is satisfiable
    for seq in (granted, claimed):
        assert check_feasibility(ExactSequenceProblem(sequences=(seq,))).feasible


def test_isomorphism_window():
    problem = ExactSequenceProblem(sequences=(
        (Known(ZERO), Known(Z2(1)), Known(Z2(1)), Known(ZERO)),))
    verdict = check_feasibility(problem)
    assert verdict.feasible
    assert verify_witness(problem, verdict.witness)


def test_sequence_length_validation():
    with pytest.raises(ValueError):
        ExactSequenceProblem(sequences=((Known(ZERO), Known(Z2(1))),))


def test_non_elementary_terms_rejected():
    problem = ExactSequenceProblem(sequences=(
        (Known(ZERO), Known(cyclic(4)), Known(ZERO)),))
    with pytest.raises(UnsupportedProblemError):
        check_feasibility(problem)


def test_order_invariance():
    granted = (Known(Z2(4)), Known(Z2(2)), Unknown("X"), Known(ZERO), Known(Z2(2)))
    claimed = (Known(Z2(2)), Known(Z2(4)), Unknown("X"), Known(Z2(2)), Known(ZERO))
    a = check_feasibility(ExactSequenceProblem(sequences=(granted, claimed)))
    b = check_feasibility(ExactSequenceProblem(sequences=(claimed, granted)))
    assert a.feasible == b.feasible == False  # noqa: E712


# ---------------------------------------------------------------------------
# oracle agreement


def _random_problem(rng, max_dim, max_len, n_seq):
    pool = ["X", "Y"]
    sequences = []
    for _ in range(n_seq):
        length = rng.randrange(3, max_len + 1)
        seq = []
        for _ in range(length):
            if rng.random() < 0.3:
                seq.append(Unknown(rng.choice(pool)))
            else:
                seq.append(Known(Z2(rng.randrange(0, max_dim + 1))))
        sequences.append(tuple(seq))
    return ExactSequenceProblem(sequences=tuple(sequences))


def test_solver_agrees_with_map_enumeration_small_dims():
    rng = random.Random(424242)
    checked = 0
    feasible_seen = infeasible_seen = 0
    while checked < 110:
        problem = _random_problem(rng, max_dim=2, max_len=5, n_seq=rng.randrange(1, 3))
        try:
            verdict = check_feasibility(problem, max_unknown_dim=2)
        except UnsupportedProblemError:
            continue  # unknown chain the solver refuses to bound; out of scope
        expect = oracle_feasible(problem, max_dim=2)
        assert verdict.feasible == expect, problem
        if verdict.feasible:
            assert verify_witness(problem, verdict.witness)
            feasible_seen += 1
        else:
            assert verify_certificate(problem, verdict.certificate, max_unknown_dim=2)
            infeasible_seen += 1
        checked += 1
    assert feasible_seen > 10 and infeasible_seen > 10


def test_solver_agrees_with_map_enumeration_dim_three():
    rng = random.Random(7)
    checked = 0
    while checked < 12:
        problem = _random_problem(rng, max_dim=3, max_len=4, n_seq=rng.randrange(1, 3))
        try:
            verdict = check_feasibility(problem, max_unknown_dim=3)
        except UnsupportedProblemError:
            continue
        assert verdict.feasible == oracle_feasible(problem, max_dim=3)
        checked += 1


def test_certificates_replay_on_random_infeasible_problems():
    rng = random.Random(1234)
    seen = 0
    while seen < 30:
        problem = _random_problem(rng, max_dim=2, max_len=5, n_seq=2)
        try:
            verdict = check_feasibility(problem)
        except UnsupportedProblemError:
            continue
        if verdict.feasible:
            assert verify_witness(problem, verdict.witness)
            continue
        assert verify_certificate(problem, verdict.certificate)
        seen += 1


def test_skipping_stale_attempts_keeps_every_step(monkeypatch):
    # the same intervals and logged steps as sweeping every constraint in
    # every round, and so the same verdicts and certificates
    rng = random.Random(2718)
    split = ExactSequenceProblem(sequences=(  # needs a case split, as below
        (Known(ZERO), Unknown("X"), Unknown("Y"), Known(ZERO)),
        (Known(ZERO), Unknown("X"), Known(Z2(3)), Unknown("Y"), Known(ZERO))))
    problems = [split]
    while len(problems) < 200:
        problem = _random_problem(rng, max_dim=4, max_len=7, n_seq=rng.randrange(1, 5))
        dims = exactness._dims_table(problem)
        try:
            ub = exactness._unknown_bounds(dims)
        except UnsupportedProblemError:
            continue
        swept, skipped = exactness._State(dims, ub), exactness._State(dims, ub)
        propagate_by_full_sweeps(swept)
        exactness._propagate(skipped)
        assert (skipped.iv, skipped.steps) == (swept.iv, swept.steps)
        problems.append(problem)
    verdicts = [check_feasibility(problem) for problem in problems]
    monkeypatch.setattr(exactness, "_propagate", propagate_by_full_sweeps)
    assert [check_feasibility(problem) for problem in problems] == verdicts
    assert verdicts[0].certificate.splits


def test_case_split_certificate():
    # S1 forces dim X = dim Y, S2 forces dim X + dim Y = 3; intervals
    # alone stay consistent, so the solver must split on a dimension and
    # refute every value.
    s1 = (Known(ZERO), Unknown("X"), Unknown("Y"), Known(ZERO))
    s2 = (Known(ZERO), Unknown("X"), Known(Z2(3)), Unknown("Y"), Known(ZERO))
    problem = ExactSequenceProblem(sequences=(s1, s2))
    verdict = check_feasibility(problem)
    assert not verdict.feasible
    assert verdict.certificate.splits, "expected a case split"
    values = sorted(split.value for split in verdict.certificate.splits)
    var = verdict.certificate.splits[0].var
    assert verify_certificate(problem, verdict.certificate)
    # sanity: making the middle term even-dimensional restores feasibility
    s2_even = (Known(ZERO), Unknown("X"), Known(Z2(4)), Unknown("Y"), Known(ZERO))
    fixed = check_feasibility(ExactSequenceProblem(sequences=(s1, s2_even)))
    assert fixed.feasible and fixed.witness["dims"]["dim(X)"] == fixed.witness["dims"]["dim(Y)"]


def test_tampered_certificate_fails_replay():
    combined = ExactSequenceProblem(sequences=(
        (Known(ZERO), Unknown("X"), Known(ZERO)),
        (Known(ZERO), Known(Z2(4)), Unknown("X"), Known(ZERO)),
    ))
    verdict = check_feasibility(combined)
    steps = list(verdict.certificate.steps)
    last = steps[-1]
    bad = CertStep(last.kind, last.seq, last.pos, last.var, 0, 0, last.term)
    tampered = Certificate(tuple(steps[:-1]) + (bad,))
    assert not verify_certificate(combined, tampered)
    truncated = Certificate(verdict.certificate.steps[:-1])
    assert not verify_certificate(combined, truncated)


# ---------------------------------------------------------------------------
# cobordism windows


L2 = LagrangianDescriptor("L2", RealProjective(7), 7, 8)
L1 = LagrangianDescriptor("L1", None, 7, 4)
L = LagrangianDescriptor("L", None, 7, None)
GRADING = LaurentGrading(-2)
HF = {"L1": (ZERO, ZERO), "L2": (ZERO, Z2(4))}


def test_window_order_follows_the_ends():
    problem = build_cobordism_sequences(L2, (L1, L2), L, HF, "X", GRADING)
    seq = problem.sequences[0]
    # HF_1(K, second end) leads, HF_0(K, first end) closes
    assert seq[0] == Known(Z2(4))
    assert seq[1] == Known(ZERO)
    assert seq[2] == Unknown("X")
    assert seq[3] == Known(ZERO)
    assert seq[4] == Known(ZERO)

    swapped = build_cobordism_sequences(L2, (L2, L1), L, HF, "X", GRADING)
    assert swapped.sequences[0][0] == Known(ZERO)
    assert swapped.sequences[0][1] == Known(Z2(4))


def test_probe_maslov_gate():
    small = LagrangianDescriptor("K", None, 7, 2)
    with pytest.raises(AdmissibilityError, match="N_K > 3"):
        build_cobordism_sequences(small, (L1, L2), L, HF, "X", GRADING)


def test_common_divisor_gate():
    with pytest.raises(AdmissibilityError, match="common-divisor"):
        build_cobordism_sequences(L2, (L1, L2), L, HF, "X", LaurentGrading(-6))


def test_unknown_maslov_certifies_step_two_only():
    known_l = LagrangianDescriptor("L", None, 7, 8)
    with pytest.raises(AdmissibilityError, match="N_V"):
        build_cobordism_sequences(L2, (L2, L2), known_l,
                                  {"L2": (ZERO, Z2(4))}, "X", LaurentGrading(-4))


def test_certify_nonexistence_on_the_main_scenario():
    claims = [CobordismClaim(L, (L1, L2), granted=True),
              CobordismClaim(L, (L2, L1), granted=False)]
    branch_sets = {
        "L1": [("b1", (ZERO, ZERO)), ("b2", (Z2(2), Z2(2)))],
        "L2": [("b1", (ZERO, Z2(4)))],
    }
    verdicts = certify_nonexistence(claims, branch_sets, L2, GRADING)
    assert verdicts[0].verdict == "NOT OBSTRUCTED"
    assert verdicts[1].verdict == "INFEASIBLE"
    assert len(verdicts[1].branches) == 2
    for branch in verdicts[1].branches:
        assert not branch.verdict.feasible


def test_certify_symmetric_ends_give_identical_verdicts():
    # both orders of a self-pair produce the same sequences
    claims = [CobordismClaim(L, (L2, L2), granted=True),
              CobordismClaim(L, (L2, L2), granted=False)]
    branch_sets = {"L2": [("b1", (Z2(1), Z2(1)))]}
    verdicts = certify_nonexistence(claims, branch_sets, L2, GRADING)
    assert verdicts[0].verdict == verdicts[1].verdict == "NOT OBSTRUCTED"
    assert all(b.verdict.feasible for v in verdicts for b in v.branches)


def test_certify_all_feasible_lists_witnesses():
    claims = [CobordismClaim(L, (L1, L2), granted=True)]
    branch_sets = {
        "L1": [("b1", (ZERO, ZERO)), ("b2", (Z2(2), Z2(2)))],
        "L2": [("b1", (ZERO, Z2(4)))],
    }
    verdicts = certify_nonexistence(claims, branch_sets, L2, GRADING)
    assert verdicts[0].verdict == "NOT OBSTRUCTED"
    assert all(b.verdict.feasible and b.verdict.witness is not None
               for b in verdicts[0].branches)
