"""Feasibility of exact-sequence windows that share one unknown term.

All terms are elementary abelian 2-groups, i.e. Z_2-vector spaces, where
exactness is pure rank arithmetic: writing f_i for the map leaving term
i, exactness at an interior term j says rank(f_{j-1}) + rank(f_j) =
dim(term j), and any rank assignment satisfying these equations together
with rank(f) <= min(dim source, dim target) is realized by actual linear
maps.  Feasibility is therefore an integer problem over the unknown
dimension and the map ranks.

The solver takes the problems the cobordism windows below build: at
most one unknown name X per problem, at most once per sequence
(``UnsupportedProblemError`` names the rule otherwise).  There interval
propagation decides feasibility on its own.  Each sequence is a path of
rank variables.  X enters it either as the sum r_{j-1} + r_j = X at one
interior term, which gives an interval of feasible X, or as a cap
r <= X at an end, which gives an up-closed set.  Bounds propagation is
exact along a path, and the sequences meet only in X, so the problem is
infeasible exactly when propagation reaches an empty interval; each
tightening is logged as a re-checkable deduction step citing the
constraint used, and the chain ending in the empty interval is the
infeasibility certificate.  Otherwise an ascending search over X's
propagated interval finds the witness.  Endpoint caps do not raise X's
lower bound, so the least X that works need not be the interval's low
end.

The cobordism application: a cobordism with ordered ends (A, B) and a
probe K contributes the five-term window

    HF_1(K,B) -> HF_1(K,A) -> HF_1(K,source) -> HF_0(K,B) -> HF_0(K,A)

of its long exact sequence, with the source's Floer homology the shared
unknown; a claimed cobordism is infeasible when its window together with
the windows of all granted cobordisms admits no exact solution.  Windows
are built once per pair of end branches and interned; each problem, keyed
by window ids, is solved once and its verdict replayed by the verifier.
"""

from __future__ import annotations

import itertools

from .abgroup import FgAbGroup, _Record
from .graded import LaurentGrading
from .topology import LagrangianDescriptor, pair_maslov


class UnsupportedProblemError(ValueError):
    """A problem outside the solver's domain: a term that is not an
    elementary abelian 2-group, more than one unknown name, or an
    unknown occurring twice in one sequence."""


class AdmissibilityError(ValueError):
    """A hypothesis required for the cobordism exact sequence fails; the
    message names the violated hypothesis."""


class Known(_Record):
    __slots__ = ("group",)

    def __init__(self, group: FgAbGroup):
        self.group = group


class Unknown(_Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


Term = Known | Unknown


class ExactSequenceProblem(_Record):
    """Sequences of terms with exactness required at every interior
    position; the solver takes one unknown name, at most once per
    sequence."""

    __slots__ = ("sequences",)

    def __init__(self, sequences: tuple[tuple[Term, ...], ...]):
        for seq in sequences:
            if len(seq) < 3:
                raise ValueError("every sequence needs at least 3 terms")
        self.sequences = sequences


class CertStep(_Record):
    """One replayable deduction: the cited constraint forces ``var``
    into [lo, hi] (hi < lo records the contradiction).  ``term`` is the
    cited term (position ``pos`` of sequence ``seq``) as a dimension or
    an unknown's name; it words the step's line, and the replay reads
    the problem itself."""

    __slots__ = ("kind", "seq", "pos", "var", "lo", "hi", "term")

    def __init__(self, kind: str, seq: int, pos: int, var: str, lo: int, hi: int,
                 term: int | str):
        self.kind = kind  # 'le' | 'eq'
        self.seq, self.pos, self.var, self.lo, self.hi, self.term = seq, pos, var, lo, hi, term

    def text(self) -> str:
        """The step's certificate line: the interval and the cited constraint."""
        s, j, var, lo = self.seq, self.pos, self.var, self.lo
        rel = f"{var} in [{lo}, {self.hi}]" if lo <= self.hi else f"{var} has no possible value"
        term = self.term if isinstance(self.term, str) else f"(Z/2)^{self.term}"
        if self.kind == "le":
            why = f"rank bound by term {j} of sequence {s}: {term}"
        else:
            why = (f"exactness at term {j} of sequence {s}: {_rank_var(s, j - 1)} + "
                   f"{_rank_var(s, j)} = {term}")
        return f"{rel}  [{why}]"


class Certificate(_Record):
    """Deduction chain ending in an empty interval.  ``preamble``
    restates the initial bounds the replay starts from (context only,
    not steps)."""

    __slots__ = ("steps", "preamble")

    def __init__(self, steps: tuple[CertStep, ...], preamble: tuple[str, ...] = ()):
        self.steps, self.preamble = steps, preamble

    def lines(self) -> list[str]:
        """The certificate as text; each step is worded only here."""
        return [*self.preamble, *(s.text() for s in self.steps)]


class FeasibilityVerdict(_Record):
    __slots__ = ("feasible", "witness", "certificate")

    def __init__(self, feasible: bool, witness: dict | None = None,
                 certificate: Certificate | None = None):
        self.feasible, self.witness, self.certificate = feasible, witness, certificate


# ---------------------------------------------------------------------------
# Internal problem form


def _term_dim(term: Term) -> int | str:
    """Known terms become dimensions; unknowns keep their name."""
    if isinstance(term, Unknown):
        return f"dim({term.name})"
    if not term.group.is_elementary_two():
        raise UnsupportedProblemError(
            f"term {term.group} is not an elementary abelian 2-group")
    return len(term.group.torsion)


def _dims_table(problem: ExactSequenceProblem) -> list[list[int | str]]:
    """The problem as dimensions, unknowns kept by name; raises
    UnsupportedProblemError outside the solver's domain."""
    dims = [[_term_dim(t) for t in seq] for seq in problem.sequences]
    names = sorted({d for seq in dims for d in seq if isinstance(d, str)})
    if len(names) > 1:
        raise UnsupportedProblemError(
            f"unknowns {', '.join(names)}: the solver takes one unknown name per problem")
    for s, seq in enumerate(dims):
        if sum(isinstance(d, str) for d in seq) > 1:
            raise UnsupportedProblemError(
                f"unknown {names[0]} occurs more than once in sequence {s}: the solver "
                f"takes an unknown at most once per sequence")
    return dims


def _rank_var(s: int, i: int) -> str:
    return f"rk(s{s}.f{i})"


def _unknown_bounds(dims: list[list[int | str]]) -> dict[str, int]:
    """Sound upper bound for the unknown's dimension.  At an interior
    position it equals a sum of two adjacent ranks, so it is at most its
    two known neighbours together.  An endpoint-only unknown never
    constrains exactness from above and gets the total known dimension,
    which no such sum exceeds."""
    total_known = sum(d for seq in dims for d in seq if isinstance(d, int))
    ub: dict[str, int] = {}
    for seq in dims:
        for j, d in enumerate(seq):
            if isinstance(d, str):
                hi = seq[j - 1] + seq[j + 1] if 0 < j < len(seq) - 1 else total_known
                ub[d] = min(ub.get(d, hi), hi)
    return ub


class _State:
    """Interval store with deduction logging."""

    def __init__(self, dims: list[list[int | str]], ub: dict[str, int]):
        self.dims = dims
        big = sum(ub.values()) + sum(d for seq in dims for d in seq if isinstance(d, int)) + 1
        self.iv: dict[str, tuple[int, int]] = {}
        for name, hi in ub.items():
            self.iv[name] = (0, hi)
        for s, seq in enumerate(dims):
            for i in range(len(seq) - 1):
                self.iv[_rank_var(s, i)] = (0, big)
        self.steps: list[CertStep] = []
        self.contradiction = False

    def interval(self, x: int | str) -> tuple[int, int]:
        return (x, x) if isinstance(x, int) else self.iv[x]

    def tighten(self, var: str, lo: int, hi: int, kind: str, seq: int, pos: int) -> bool:
        cur_lo, cur_hi = self.iv[var]
        lo, hi = max(lo, cur_lo), min(hi, cur_hi)
        if (lo, hi) == (cur_lo, cur_hi):
            return False
        self.iv[var] = (lo, hi)
        self.steps.append(CertStep(kind, seq, pos, var, lo, hi, self.dims[seq][pos]))
        if lo > hi:
            self.contradiction = True
        return True


def _attempts(dims) -> tuple[list[tuple[str, str, int, int, int | str, str | None]],
                              dict[str, list[int]]]:
    """Every tightening of one propagation sweep, in sweep order, as
    (variable, rule, sequence, position, x, y): "le" bounds a rank by
    term x, "diff" sets one rank of an exactness equation to term x
    minus rank y, and "sum" sets an unknown term to ranks x plus y.
    Also, per variable, the attempts that read it."""
    out = []
    readers: dict[str, list[int]] = {}
    for s, seq in enumerate(dims):
        ranks = [_rank_var(s, i) for i in range(len(seq) - 1)]
        for i, rv in enumerate(ranks):
            for j in (i, i + 1):
                out.append((rv, "le", s, j, seq[j], None))
        for j in range(1, len(seq) - 1):
            a, b, d = ranks[j - 1], ranks[j], seq[j]
            out.append((a, "diff", s, j, d, b))
            out.append((b, "diff", s, j, d, a))
            if isinstance(d, str):
                out.append((d, "sum", s, j, a, b))
    for k, (_, _, _, _, x, y) in enumerate(out):
        if isinstance(x, str):
            readers.setdefault(x, []).append(k)
        if y is not None:
            readers.setdefault(y, []).append(k)
    return out, readers


def _propagate(state: _State) -> None:
    """Run all constraints to a fixpoint, logging each tightening.

    Sweeps run the attempts in order until one changes nothing.  An
    attempt only shrinks its variable into a range its other variables
    fix, so until one of those changes, running it again would change
    nothing, and the sweeps skip it."""
    attempts, readers = _attempts(state.dims)
    stale = [True] * len(attempts)
    changed = True
    while changed:
        changed = False
        for k, (var, rule, s, j, x, y) in enumerate(attempts):
            if not stale[k]:
                continue
            stale[k] = False
            if rule == "le":
                lo, hi = 0, state.interval(x)[1]
            elif rule == "diff":
                (lo_x, hi_x), (lo_y, hi_y) = state.interval(x), state.iv[y]
                lo, hi = lo_x - hi_y, hi_x - lo_y
            else:
                (lo_x, hi_x), (lo_y, hi_y) = state.iv[x], state.iv[y]
                lo, hi = lo_x + lo_y, hi_x + hi_y
            if state.tighten(var, lo, hi, "le" if rule == "le" else "eq", s, j):
                if state.contradiction:
                    return
                changed = True
                for r in readers.get(var, ()):
                    stale[r] = True


def _prune_steps(dims, steps: list[CertStep]) -> tuple[CertStep, ...]:
    """Keep only steps the final contradiction transitively relies on
    (best-effort minimality).  A step relies on every earlier step that
    set a variable its cited constraint reads, and on earlier settings
    of its own variable (replay folds each step into the current
    interval)."""

    def reads(step: CertStep) -> set[str]:
        s, j = step.seq, step.pos
        d = dims[s][j]
        out = {d} if isinstance(d, str) else set()
        if step.kind == "eq":
            out |= {_rank_var(s, j - 1), _rank_var(s, j)}
            out.discard(step.var)
        return out

    keep = [False] * len(steps)
    keep[-1] = True
    needed = {steps[-1].var} | reads(steps[-1])
    for idx in range(len(steps) - 2, -1, -1):
        step = steps[idx]
        if step.var in needed:
            keep[idx] = True
            needed |= reads(step)
    return tuple(s for s, k in zip(steps, keep) if k)


def _first_chain(d: list[int]) -> list[int] | None:
    """The ranks of an exact sequence of dimensions ``d`` with the least
    first rank (exactness makes every other rank a consequence of the
    first), or None when there are none."""
    for r0 in range(min(d[0], d[1]) + 1):
        chain = [r0]
        for j in range(1, len(d) - 1):
            nxt = d[j] - chain[-1]
            if nxt < 0 or nxt > min(d[j], d[j + 1]):
                break
            chain.append(nxt)
        else:
            return chain
    return None


def _search_witness(dims, state: _State) -> dict | None:
    """Exhaustive search inside the propagated intervals: the unknown's
    dimension in ascending order, then one rank chain per sequence."""
    names = sorted({d for seq in dims for d in seq if isinstance(d, str)})
    boxes = [range(state.iv[n][0], state.iv[n][1] + 1) for n in names]
    for combo in itertools.product(*boxes):
        val = dict(zip(names, combo))
        ranks = []
        for seq in dims:
            chain = _first_chain([x if isinstance(x, int) else val[x] for x in seq])
            if chain is None:
                break
            ranks.append(chain)
        else:
            return {"dims": val, "ranks": {f"s{s}": tuple(r) for s, r in enumerate(ranks)}}
    return None


def check_feasibility(problem: ExactSequenceProblem) -> FeasibilityVerdict:
    """Exact decision: a witness (dimensions and ranks) or an
    infeasibility certificate of replayable deduction steps."""
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    preamble = tuple(f"initial bound: {name} in [0, {hi}] (from the exactness rank equations)"
                     for name, hi in sorted(ub.items()))
    state = _State(dims, ub)
    _propagate(state)
    if state.contradiction:
        return FeasibilityVerdict(False, certificate=Certificate(
            _prune_steps(dims, state.steps), preamble))
    witness = _search_witness(dims, state)
    if witness is None:
        raise AssertionError("propagation found no contradiction and the search no witness")
    return FeasibilityVerdict(True, witness=witness)


# ---------------------------------------------------------------------------
# Verification of verdicts


def verify_witness(problem: ExactSequenceProblem, witness: dict) -> bool:
    dims = _dims_table(problem)
    val = witness["dims"]

    def dim_of(x):
        return x if isinstance(x, int) else val[x]

    for s, seq in enumerate(dims):
        ranks = witness["ranks"][f"s{s}"]
        if len(ranks) != len(seq) - 1:
            return False
        d = [dim_of(x) for x in seq]
        for i, r in enumerate(ranks):
            if r < 0 or r > min(d[i], d[i + 1]):
                return False
        for j in range(1, len(seq) - 1):
            if ranks[j - 1] + ranks[j] != d[j]:
                return False
    return True


def verify_certificate(problem: ExactSequenceProblem, cert: Certificate) -> bool:
    """Re-derive every step from its cited constraint, starting from the
    initial bounds; True when the chain ends in an empty interval.  A
    step citing a sequence, term or variable the problem lacks (an
    ``eq`` step needs an interior term) makes it False."""
    dims = _dims_table(problem)
    iv = _State(dims, _unknown_bounds(dims)).iv

    def interval(x):
        return (x, x) if isinstance(x, int) else iv[x]

    for step in cert.steps:
        s, j = step.seq, step.pos
        if not 0 <= s < len(dims) or step.var not in iv:
            return False
        inner = 1 if step.kind == "eq" else 0  # an eq step cites an interior term
        if not inner <= j < len(dims[s]) - inner:
            return False
        a, b = _rank_var(s, j - 1), _rank_var(s, j)
        lo_d, hi_d = interval(dims[s][j])
        if step.kind == "le" and step.var in (a, b):
            allowed = (0, hi_d)
        elif step.kind == "eq" and step.var in (a, b):
            lo_o, hi_o = iv[b if step.var == a else a]
            allowed = (lo_d - hi_o, hi_d - lo_o)
        elif step.kind == "eq" and step.var == dims[s][j]:
            (lo_a, hi_a), (lo_b, hi_b) = iv[a], iv[b]
            allowed = (lo_a + lo_b, hi_a + hi_b)
        else:
            return False
        cur_lo, cur_hi = iv[step.var]
        lo, hi = max(cur_lo, allowed[0]), min(cur_hi, allowed[1])
        if (lo, hi) != (step.lo, step.hi):
            return False
        iv[step.var] = (lo, hi)
        if lo > hi:
            return True  # contradiction reached; remaining steps would be vacuous
    return False


# ---------------------------------------------------------------------------
# Cobordism exact sequences


def common_grading_check(probe: LagrangianDescriptor, other: LagrangianDescriptor,
                         grading: LaurentGrading) -> None:
    """deg T must divide the pair's minimal Maslov number; a Lagrangian
    with unknown (but even) Maslov number certifies only step 2."""
    step = grading.step
    if other.maslov is None:
        if step != 2:
            raise AdmissibilityError(
                f"common-divisor hypothesis: N({probe.name},{other.name}) is unknown "
                f"(even), so only grading step 2 is certified, not {step}")
        return
    n = pair_maslov(probe, other)
    if n % step != 0:
        raise AdmissibilityError(
            f"common-divisor hypothesis: grading step {step} does not divide "
            f"N({probe.name},{other.name}) = {n}")


def check_probe_hypothesis(probe: LagrangianDescriptor) -> None:
    """The probe K must have minimal Maslov number N_K > 3."""
    if probe.maslov is None or probe.maslov <= 3:
        raise AdmissibilityError(
            f"probe hypothesis: N_K > 3 required, but N({probe.name}) = {probe.maslov}")


def check_cobordism_grading(grading: LaurentGrading) -> None:
    """A cobordism's own minimal Maslov number is never declared;
    orientability certifies divisibility by 2 only, so the common
    grading must have step 2."""
    if grading.step != 2:
        raise AdmissibilityError(
            f"common-divisor hypothesis: the cobordism Maslov number N_V is unknown "
            f"(even), so only grading step 2 is certified, not {grading.step}")


def build_cobordism_sequences(probe: LagrangianDescriptor,
                              ends: tuple[LagrangianDescriptor, LagrangianDescriptor],
                              source: LagrangianDescriptor,
                              hf: dict[str, tuple[FgAbGroup, FgAbGroup]],
                              unknown: str,
                              grading: LaurentGrading) -> ExactSequenceProblem:
    """Five-term window (degrees 1 down to 0) of the long exact sequence
    of a cobordism source ~> ends, probed by K:

        HF_1(K, ends[1]) -> HF_1(K, ends[0]) -> X -> HF_0(K, ends[1]) -> HF_0(K, ends[0])

    hf maps each end name to its (HF_0, HF_1) at the common grading; X
    is the named unknown HF_1(K, source)."""
    check_probe_hypothesis(probe)
    for lag in (*ends, source):
        common_grading_check(probe, lag, grading)
    check_cobordism_grading(grading)
    first, second = ends
    h1_second = Known(hf[second.name][1])
    h1_first = Known(hf[first.name][1])
    h0_second = Known(hf[second.name][0])
    h0_first = Known(hf[first.name][0])
    seq = (h1_second, h1_first, Unknown(unknown), h0_second, h0_first)
    return ExactSequenceProblem(sequences=(seq,))


class CobordismClaim:
    """A claimed cobordism source ~> ends; granted means the scenario's
    surgery data constructs it, so its exact sequence constrains every
    other claim."""

    __slots__ = ("source", "ends", "granted")

    def __init__(self, source: LagrangianDescriptor,
                 ends: tuple[LagrangianDescriptor, LagrangianDescriptor], granted: bool):
        self.source, self.ends, self.granted = source, ends, granted


class BranchOutcome(_Record):
    __slots__ = ("label", "verdict")

    def __init__(self, label: str, verdict: FeasibilityVerdict):
        self.label, self.verdict = label, verdict


class ClaimVerdict(_Record):
    __slots__ = ("ends", "granted", "verdict", "branches")

    def __init__(self, ends: tuple[str, str], granted: bool, verdict: str,
                 branches: tuple[BranchOutcome, ...]):
        self.ends, self.granted = ends, granted
        self.verdict = verdict  # 'INFEASIBLE' | 'NOT OBSTRUCTED'
        self.branches = branches


class UnverifiedVerdictError(RuntimeError):
    """A verdict failed its re-check by the verifier: an internal fault."""


def certify_nonexistence(claims: list[CobordismClaim],
                         branch_sets: dict[str, tuple[tuple[str, tuple[FgAbGroup, FgAbGroup]],
                                                      ...]],
                         probe: LagrangianDescriptor,
                         grading: LaurentGrading) -> list[ClaimVerdict]:
    """Per claim: INFEASIBLE when the claim's exact sequence together
    with all granted sequences is infeasible in every Floer-homology
    branch; otherwise NOT OBSTRUCTED with the surviving witnesses.

    branch_sets lists, per end name, the possible (HF_0, HF_1) of the
    probe pair at the common grading - one entry per spectral-sequence
    outcome, covering all relative spin structures.  Windows are built
    per (claim, end branch, end branch) and interned to int ids; problems
    are keyed by those ids, and every new verdict is verified."""
    sources = {c.source.name for c in claims}
    if len(sources) != 1:
        raise ValueError(f"claims must share one source, got {sorted(sources)}")
    unknown = f"HF1({probe.name},{claims[0].source.name})"
    end_names = sorted({lag.name for c in claims for lag in c.ends})
    for name in end_names:
        if name not in branch_sets or not branch_sets[name]:
            raise ValueError(f"no Floer homology branches for end {name}")
    ends_at = [[end_names.index(lag.name) for lag in c.ends] for c in claims]
    windows: dict[tuple[int, int, int], int] = {}
    ids: dict[tuple[Term, ...], int] = {}
    combos = []
    for combo in itertools.product(*(range(len(branch_sets[name])) for name in end_names)):
        label = ", ".join("HF({},{}) = ({}, {})".format(probe.name, name, *branch_sets[name][b][1])
                          for name, b in zip(end_names, combo))
        row = []
        for k, c in enumerate(claims):
            key = (k, combo[ends_at[k][0]], combo[ends_at[k][1]])
            if key not in windows:
                hf = {lag.name: branch_sets[lag.name][b][1] for lag, b in zip(c.ends, key[1:])}
                (seq,) = build_cobordism_sequences(probe, c.ends, c.source, hf, unknown,
                                                   grading).sequences
                windows[key] = ids.setdefault(seq, len(ids))
            row.append(windows[key])
        combos.append((label, row))
    sequences = list(ids)
    granted = [k for k, c in enumerate(claims) if c.granted]
    verdicts: dict[tuple[int, ...], FeasibilityVerdict] = {}
    out = []
    for k, claim in enumerate(claims):
        used = granted + ([k] if not claim.granted else [])
        outcomes = []
        for label, row in combos:
            key = tuple(dict.fromkeys(row[j] for j in used))
            if key not in verdicts:
                problem = ExactSequenceProblem(tuple(sequences[i] for i in key))
                verdict = check_feasibility(problem)
                if not (verify_witness(problem, verdict.witness) if verdict.feasible
                        else verify_certificate(problem, verdict.certificate)):
                    raise UnverifiedVerdictError(
                        f"claim ({claim.ends[0].name}, {claim.ends[1].name}), {label}: the "
                        f"{'witness' if verdict.feasible else 'certificate'} does not verify")
                verdicts[key] = verdict
            outcomes.append(BranchOutcome(label, verdicts[key]))
        infeasible = all(not oc.verdict.feasible for oc in outcomes)
        out.append(ClaimVerdict(
            ends=(claim.ends[0].name, claim.ends[1].name),
            granted=claim.granted,
            verdict="INFEASIBLE" if infeasible else "NOT OBSTRUCTED",
            branches=tuple(outcomes),
        ))
    return out
