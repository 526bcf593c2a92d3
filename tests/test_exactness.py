import itertools
import random
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest

from cobcheck import exactness
from cobcheck.cli import main
from cobcheck.abgroup import FgAbGroup, ZERO, cyclic
from cobcheck.graded import LaurentGrading
from cobcheck.topology import LagrangianDescriptor, RealProjective
from cobcheck.exactness import (AdmissibilityError, CertStep, Certificate, CobordismClaim,
                                ExactSequenceProblem, Known, Unknown,
                                UnsupportedProblemError, build_cobordism_sequences,
                                certify_nonexistence, check_feasibility,
                                verify_certificate, verify_witness)

from oracles import propagate_by_full_sweeps

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
FLAGSHIP = resources.files("cobcheck") / "data" / "paper_cp7.json"


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
    low = [(x & -x).bit_length() - 1 for x in range(2 ** d_in)]
    for cols in itertools.product(range(2 ** d_out), repeat=d_in):
        values = [0] * 2 ** d_in
        for x in range(1, 2 ** d_in):  # x's value from x less its lowest bit
            values[x] = values[x & (x - 1)] ^ cols[low[x]]
        kernel = frozenset(x for x, v in enumerate(values) if v == 0)
        table.setdefault(kernel, set()).add(frozenset(values))
    return table


@lru_cache(maxsize=None)
def _sequence_realizable(dims: tuple[int, ...]) -> bool:
    # rank-nullity: an interior term is at most its two neighbours
    # together, and an end term larger than its neighbour admits the
    # same images or kernels as one of the neighbour's dimension
    if any(dims[j] > dims[j - 1] + dims[j + 1] for j in range(1, len(dims) - 1)):
        return False
    dims = (min(dims[0], dims[1]), *dims[1:-1], min(dims[-1], dims[-2]))
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


def oracle_feasible(problem: ExactSequenceProblem) -> bool:
    """Whether some dimension of the unknown makes every sequence
    realizable by actual maps.  The dimensions run up to the total known
    dimension: that covers every interior unknown, which rank-nullity
    bounds by its two neighbours, and an unknown only at ends caps one
    rank each, so the dimensions that work for it are up-closed."""
    known = [len(t.group.torsion) for seq in problem.sequences for t in seq
             if isinstance(t, Known)]
    return any(
        all(_sequence_realizable(tuple(len(t.group.torsion) if isinstance(t, Known) else x
                                       for t in seq))
            for seq in problem.sequences)
        for x in range(sum(known) + 1))


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


@pytest.mark.parametrize("sequences, rule", [
    (((Known(ZERO), Unknown("X"), Known(ZERO)), (Known(ZERO), Unknown("Y"), Known(ZERO))),
     "one unknown name per problem"),
    (((Known(ZERO), Unknown("X"), Known(Z2(2)), Unknown("X"), Known(ZERO)),),
     "an unknown at most once per sequence"),
], ids=["two-names", "twice-in-a-sequence"])
def test_problems_outside_the_domain_are_refused(sequences, rule):
    problem = ExactSequenceProblem(sequences)
    witness = {"dims": {"dim(X)": 0, "dim(Y)": 0}, "ranks": {"s0": (0, 0), "s1": (0, 0)}}
    for check in (check_feasibility, lambda p: verify_witness(p, witness),
                  lambda p: verify_certificate(p, Certificate(()))):
        with pytest.raises(UnsupportedProblemError, match=rule):
            check(problem)


@pytest.mark.parametrize("scenario", [FLAGSHIP, CORPUS / "claims-fanout" / "fan7-mixed.json"],
                         ids=["flagship", "fan7-mixed"])
def test_certify_nonexistence_builds_problems_in_the_domain(scenario, capsys, monkeypatch):
    solved = []

    def recording(problem):
        solved.append(problem)
        return check_feasibility(problem)

    monkeypatch.setattr(exactness, "check_feasibility", recording)
    assert main(["check", str(scenario)]) in (0, 10)
    capsys.readouterr()
    assert solved
    for problem in solved:
        names = [[t.name for t in seq if isinstance(t, Unknown)] for seq in problem.sequences]
        assert all(len(seq) <= 1 for seq in names)
        assert len({name for seq in names for name in seq}) <= 1


def test_no_contradiction_and_no_witness_is_an_internal_error(capsys, monkeypatch):
    # propagation decides the domain, so a search that finds nothing
    # there is a fault, reported without any verdict
    monkeypatch.setattr(exactness, "_search_witness", lambda dims, state: None)
    assert main(["check", str(FLAGSHIP)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal error: propagation found no contradiction and the "
                              "search no witness\n")


# ---------------------------------------------------------------------------
# oracle agreement


def _random_problem(rng, max_dim, max_len, n_seq):
    """Sequences of known terms (Z/2)^d, d <= max_dim, each holding the
    one unknown X at most once: the solver's domain."""
    sequences = []
    for _ in range(n_seq):
        seq = [Known(Z2(rng.randrange(0, max_dim + 1)))
               for _ in range(rng.randrange(3, max_len + 1))]
        if rng.random() < 0.7:
            seq[rng.randrange(len(seq))] = Unknown("X")
        sequences.append(tuple(seq))
    return ExactSequenceProblem(sequences=tuple(sequences))


def test_solver_agrees_with_map_enumeration_small_dims():
    rng = random.Random(424242)
    feasible_seen = infeasible_seen = 0
    for _ in range(110):
        problem = _random_problem(rng, max_dim=2, max_len=5, n_seq=rng.randrange(1, 3))
        verdict = check_feasibility(problem)
        assert verdict.feasible == oracle_feasible(problem), problem
        if verdict.feasible:
            assert verify_witness(problem, verdict.witness)
            feasible_seen += 1
        else:
            assert verify_certificate(problem, verdict.certificate)
            infeasible_seen += 1
    assert feasible_seen > 10 and infeasible_seen > 10


def test_solver_agrees_with_map_enumeration_dim_three():
    rng = random.Random(7)
    for _ in range(12):
        problem = _random_problem(rng, max_dim=3, max_len=4, n_seq=rng.randrange(1, 3))
        assert check_feasibility(problem).feasible == oracle_feasible(problem)


def test_certificates_replay_on_random_infeasible_problems():
    rng = random.Random(1234)
    seen = 0
    while seen < 30:
        problem = _random_problem(rng, max_dim=2, max_len=5, n_seq=2)
        verdict = check_feasibility(problem)
        if verdict.feasible:
            assert verify_witness(problem, verdict.witness)
            continue
        assert verify_certificate(problem, verdict.certificate)
        seen += 1


def test_skipping_stale_attempts_keeps_every_step(monkeypatch):
    # the same intervals and logged steps as sweeping every constraint in
    # every round, and so the same verdicts and certificates.  _propagate
    # reads any table, so the tables are built directly and may hold two
    # unknowns, each more than once in a sequence
    rng = random.Random(2718)
    for _ in range(200):
        dims = [[rng.choice(["dim(X)", "dim(Y)"]) if rng.random() < 0.3 else rng.randrange(0, 5)
                 for _ in range(rng.randrange(3, 8))] for _ in range(rng.randrange(1, 5))]
        ub = {"dim(X)": rng.randrange(0, 9), "dim(Y)": rng.randrange(0, 9)}
        swept, skipped = exactness._State(dims, ub), exactness._State(dims, ub)
        propagate_by_full_sweeps(swept)
        exactness._propagate(skipped)
        assert (skipped.iv, skipped.steps) == (swept.iv, swept.steps)
    problems = [_random_problem(rng, max_dim=4, max_len=7, n_seq=rng.randrange(1, 5))
                for _ in range(200)]
    verdicts = [check_feasibility(problem) for problem in problems]
    monkeypatch.setattr(exactness, "_propagate", propagate_by_full_sweeps)
    assert [check_feasibility(problem) for problem in problems] == verdicts
    assert {verdict.feasible for verdict in verdicts} == {True, False}


def test_a_step_citing_a_constraint_on_another_variable_fails_replay():
    # the problem is feasible (X = 4); the chain would refute it if a
    # rank bound could cap the unknown itself
    problem = ExactSequenceProblem(sequences=(
        (Known(ZERO), Known(Z2(4)), Unknown("X"), Known(ZERO)),))
    assert check_feasibility(problem).feasible
    chain = (CertStep("le", 0, 0, "rk(s0.f0)", 0, 0, 0),
             CertStep("eq", 0, 1, "rk(s0.f1)", 4, 4, 4),
             CertStep("le", 0, 2, "rk(s0.f1)", 4, 0, "dim(X)"))
    forged = CertStep("le", 0, 0, "dim(X)", 0, 0, 0)
    assert not verify_certificate(problem, Certificate((forged,) + chain))


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


def test_steps_citing_what_the_problem_lacks_fail_replay(capsys, monkeypatch):
    # a sequence, a term or a variable the problem does not have is a
    # False replay, not an IndexError or a KeyError
    problem = ExactSequenceProblem(sequences=((Known(ZERO), Known(Z2(4)), Unknown("X")),))
    for step in (CertStep("le", 5, 1, "rk(s0.f0)", 0, 0, 4),  # no sequence 5
                 CertStep("eq", 0, 0, "rk(s0.f0)", 0, 0, 0),  # eq at an end term
                 CertStep("eq", 0, -1, "dim(X)", 0, 0, "dim(X)"),  # no term -1
                 CertStep("le", 0, 0, "rk(s0.f-1)", 0, 0, 0)):  # no rank f-1
        assert not verify_certificate(problem, Certificate((step,)))
    # every certificate the flagship prints still replays
    solved = []
    monkeypatch.setattr(exactness, "check_feasibility",
                        lambda p: solved.append((p, check_feasibility(p))) or solved[-1][1])
    assert main(["check", str(FLAGSHIP)]) == 10
    capsys.readouterr()
    certified = [(p, v.certificate) for p, v in solved if not v.feasible]
    assert certified and all(verify_certificate(p, c) for p, c in certified)


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
