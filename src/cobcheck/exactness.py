"""Feasibility of systems of exact sequences with shared unknown terms.

All terms are elementary abelian 2-groups, i.e. Z_2-vector spaces, where
exactness is pure rank arithmetic: writing f_i for the map leaving term
i, exactness at an interior term j says rank(f_{j-1}) + rank(f_j) =
dim(term j), and any rank assignment satisfying these equations together
with rank(f) <= min(dim source, dim target) is realized by actual linear
maps.  Feasibility is therefore an integer problem over the unknown
dimensions and the map ranks.

The solver runs interval propagation first (each tightening is logged as
a re-checkable deduction step citing the constraint used); a propagation
contradiction yields an infeasibility certificate.  Otherwise a bounded
exhaustive search looks for a witness, falling back to case splits on
unknown dimensions - per fixed dimensions each sequence is an
independent chain, where propagation is decisive.

The cobordism application: a cobordism with ordered ends (A, B) and a
probe K contributes the five-term window

    HF_1(K,B) -> HF_1(K,A) -> HF_1(K,source) -> HF_0(K,B) -> HF_0(K,A)

of its long exact sequence, with the source's Floer homology a shared
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
    """Term outside the elementary abelian 2-group regime, or an
    unknown whose dimension the constraints cannot bound."""


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
    position; unknown names may repeat across sequences."""

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
    an unknown's name, None for a case hypothesis; it words the step's
    line, and the replay reads the problem itself."""

    __slots__ = ("kind", "seq", "pos", "var", "lo", "hi", "term")

    def __init__(self, kind: str, seq: int | None, pos: int | None, var: str,
                 lo: int, hi: int, term: int | str | None):
        self.kind = kind  # 'le' | 'eq' | 'case'
        self.seq, self.pos, self.var, self.lo, self.hi, self.term = seq, pos, var, lo, hi, term

    def text(self) -> str:
        """The step's certificate line: the interval and the cited constraint."""
        s, j, var, lo = self.seq, self.pos, self.var, self.lo
        rel = f"{var} in [{lo}, {self.hi}]" if lo <= self.hi else f"{var} has no possible value"
        term = self.term if isinstance(self.term, str) else f"(Z/2)^{self.term}"
        if self.kind == "le":
            why = f"rank bound by term {j} of sequence {s}: {term}"
        elif self.kind == "eq":
            why = (f"exactness at term {j} of sequence {s}: {_rank_var(s, j - 1)} + "
                   f"{_rank_var(s, j)} = {term}")
        else:
            why = f"case hypothesis {var} = {lo}"
        return f"{rel}  [{why}]"


class CaseSplit(_Record):
    __slots__ = ("var", "value", "certificate")

    def __init__(self, var: str, value: int, certificate: Certificate):
        self.var, self.value, self.certificate = var, value, certificate


class Certificate(_Record):
    """Deduction chain; when ``steps`` does not already end in an empty
    interval, ``splits`` exhausts the remaining values of one variable
    and every branch is infeasible.  ``preamble`` restates the initial
    bounds the replay starts from (context only, not steps)."""

    __slots__ = ("steps", "splits", "preamble")

    def __init__(self, steps: tuple[CertStep, ...], splits: tuple[CaseSplit, ...] = (),
                 preamble: tuple[str, ...] = ()):
        self.steps, self.splits, self.preamble = steps, splits, preamble

    def lines(self, indent: int = 0) -> list[str]:
        """The certificate as text; each step is worded only here."""
        pad = "  " * indent
        out = [pad + p for p in self.preamble]
        out += [pad + s.text() for s in self.steps]
        for split in self.splits:
            out.append(f"{pad}case {split.var} = {split.value}:")
            out.extend(split.certificate.lines(indent + 1))
        return out


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
    return [[_term_dim(t) for t in seq] for seq in problem.sequences]


def _rank_var(s: int, i: int) -> str:
    return f"rk(s{s}.f{i})"


def _unknown_bounds(dims: list[list[int | str]]) -> dict[str, int]:
    """Sound upper bounds for unknown dimensions.

    An unknown at an interior position equals a sum of two adjacent
    ranks, so it is bounded by the sum of its neighbours' bounds; the
    bounds are iterated to a fixpoint.  Endpoint-only unknowns never
    constrain exactness from above and get the total known dimension.
    """
    names = {d for seq in dims for d in seq if isinstance(d, str)}
    total_known = sum(d for seq in dims for d in seq if isinstance(d, int))
    ub: dict[str, int | None] = {name: None for name in names}

    def hi_of(x):
        return x if isinstance(x, int) else ub[x]

    for _ in range(len(names) + 1):
        changed = False
        for s, seq in enumerate(dims):
            for j in range(1, len(seq) - 1):
                d = seq[j]
                if not isinstance(d, str):
                    continue
                left, right = hi_of(seq[j - 1]), hi_of(seq[j + 1])
                if left is None or right is None:
                    continue
                cand = left + right
                if ub[d] is None or cand < ub[d]:
                    ub[d] = cand
                    changed = True
        if not changed:
            break
    for name in names:
        if ub[name] is not None:
            continue
        interior = any(seq[j] == name for seq in dims for j in range(1, len(seq) - 1))
        if interior:
            raise UnsupportedProblemError(
                f"cannot bound unknown {name}: interior between unbounded unknowns")
        ub[name] = total_known  # relaxes rank caps only; any larger value is equivalent
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

    def tighten(self, var: str, lo: int, hi: int, kind: str, seq, pos) -> bool:
        cur_lo, cur_hi = self.iv[var]
        lo, hi = max(lo, cur_lo), min(hi, cur_hi)
        if (lo, hi) == (cur_lo, cur_hi):
            return False
        self.iv[var] = (lo, hi)
        self.steps.append(CertStep(kind, seq, pos, var, lo, hi,
                                   None if seq is None else self.dims[seq][pos]))
        if lo > hi:
            self.contradiction = True
        return True

    def snapshot(self):
        return dict(self.iv), list(self.steps)

    def restore(self, snap):
        self.iv, self.steps = dict(snap[0]), list(snap[1])
        self.contradiction = False


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
    if not steps:
        return ()

    def reads(step: CertStep) -> set[str]:
        if step.kind == "le":
            d = dims[step.seq][step.pos]
            return {d} if isinstance(d, str) else set()
        if step.kind == "eq":
            s, j = step.seq, step.pos
            out = {_rank_var(s, j - 1), _rank_var(s, j)}
            d = dims[s][j]
            if isinstance(d, str):
                out.add(d)
            out.discard(step.var)
            return out
        return set()

    keep = [False] * len(steps)
    keep[-1] = True
    needed = {steps[-1].var} | reads(steps[-1])
    for idx in range(len(steps) - 2, -1, -1):
        step = steps[idx]
        if step.var in needed:
            keep[idx] = True
            needed |= reads(step)
    return tuple(s for s, k in zip(steps, keep) if k)


def _search_witness(dims, state: _State) -> dict | None:
    """Exhaustive search inside the propagated intervals: unknown
    dimensions first, then one free rank per sequence (exactness makes
    every other rank of a chain a consequence of the first)."""
    names = sorted({d for seq in dims for d in seq if isinstance(d, str)})
    boxes = [range(state.iv[n][0], state.iv[n][1] + 1) for n in names]
    for combo in itertools.product(*boxes):
        val = dict(zip(names, combo))

        def dim_of(x):
            return x if isinstance(x, int) else val[x]

        ranks: list[list[int]] = []
        ok = True
        for seq in dims:
            d = [dim_of(x) for x in seq]
            found = None
            for r0 in range(0, min(d[0], d[1]) + 1):
                chain = [r0]
                good = True
                for j in range(1, len(seq) - 1):
                    nxt = d[j] - chain[-1]
                    if nxt < 0 or nxt > min(d[j], d[j + 1]):
                        good = False
                        break
                    chain.append(nxt)
                if good:
                    found = chain
                    break
            if found is None:
                ok = False
                break
            ranks.append(found)
        if ok:
            witness = {"dims": val}
            witness["ranks"] = {f"s{s}": tuple(r) for s, r in enumerate(ranks)}
            return witness
    return None


def _split_certificate(dims, state: _State) -> Certificate:
    """Case-split on the narrowest unfixed unknown; per fixed dimensions
    the chains are decided by propagation alone."""
    names = sorted((n for seq in dims for n in seq
                    if isinstance(n, str) and state.iv[n][0] != state.iv[n][1]),
                   key=lambda n: (state.iv[n][1] - state.iv[n][0], n))
    if not names:
        raise AssertionError("split requested with no unknowns left")
    var = names[0]
    lo, hi = state.iv[var]
    splits = []
    base = state.snapshot()
    for value in range(lo, hi + 1):
        state.restore(base)
        mark = len(state.steps)
        state.tighten(var, value, value, "case", None, None)
        case_step = state.steps[mark]
        _propagate(state)
        if state.contradiction:
            tail = _prune_steps(dims, state.steps[mark + 1:])
            sub = Certificate(steps=(case_step,) + tail)
        else:
            if _search_witness(dims, state) is not None:
                raise AssertionError("witness exists inside an infeasible split")
            deeper = _split_certificate(dims, state)
            # deeper branches replay on top of this case's propagation,
            # so those steps must stay in the chain
            tail = tuple(state.steps[mark + 1:])
            sub = Certificate(steps=(case_step,) + tail + deeper.steps,
                              splits=deeper.splits)
        splits.append(CaseSplit(var, value, sub))
    state.restore(base)
    return Certificate(steps=(), splits=tuple(splits))


def check_feasibility(problem: ExactSequenceProblem,
                      max_unknown_dim: int | None = None) -> FeasibilityVerdict:
    """Exact decision: a witness (dimensions and ranks) or an
    infeasibility certificate of replayable deduction steps.

    max_unknown_dim caps every unknown dimension; None uses the sound
    bound derived from the constraints.
    """
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    if max_unknown_dim is not None:
        ub = {k: min(v, max_unknown_dim) for k, v in ub.items()}
    preamble = tuple(f"initial bound: {name} in [0, {hi}] (from the exactness rank equations)"
                     for name, hi in sorted(ub.items()))
    state = _State(dims, ub)
    _propagate(state)
    if state.contradiction:
        return FeasibilityVerdict(False, certificate=Certificate(
            _prune_steps(dims, state.steps), preamble=preamble))
    witness = _search_witness(dims, state)
    if witness is not None:
        return FeasibilityVerdict(True, witness=witness)
    split = _split_certificate(dims, state)
    # the split branches were derived from the propagated state, so the
    # propagation chain stays in the certificate ahead of them
    return FeasibilityVerdict(False, certificate=Certificate(
        tuple(state.steps) + split.steps, splits=split.splits, preamble=preamble))


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


def _replay(dims, iv: dict[str, tuple[int, int]], cert: Certificate) -> bool:
    """Re-derive every step from its cited constraint; True when every
    branch of the certificate ends in an empty interval."""

    def interval(x):
        return (x, x) if isinstance(x, int) else iv[x]

    for step in cert.steps:
        cur_lo, cur_hi = iv[step.var]
        if step.kind == "le":
            lo_d, hi_d = interval(dims[step.seq][step.pos])
            allowed = (0, hi_d)
        elif step.kind == "eq":
            s, j = step.seq, step.pos
            a, b = _rank_var(s, j - 1), _rank_var(s, j)
            lo_d, hi_d = interval(dims[s][j])
            if step.var == a:
                lo_o, hi_o = iv[b]
                allowed = (lo_d - hi_o, hi_d - lo_o)
            elif step.var == b:
                lo_o, hi_o = iv[a]
                allowed = (lo_d - hi_o, hi_d - lo_o)
            else:
                (lo_a, hi_a), (lo_b, hi_b) = iv[a], iv[b]
                allowed = (lo_a + lo_b, hi_a + hi_b)
        elif step.kind == "case":
            allowed = (step.lo, step.hi)
            if step.lo != step.hi or not cur_lo <= step.lo <= cur_hi:
                return False
        else:
            return False
        lo, hi = max(cur_lo, allowed[0]), min(cur_hi, allowed[1])
        if (lo, hi) != (step.lo, step.hi):
            return False
        iv[step.var] = (lo, hi)
        if lo > hi:
            return True  # contradiction reached; remaining steps would be vacuous
    if not cert.splits:
        return False  # chain ended without contradiction and without splits
    var = cert.splits[0].var
    lo, hi = iv[var]
    if sorted(split.value for split in cert.splits) != list(range(lo, hi + 1)):
        return False  # splits must exhaust the variable's interval
    for split in cert.splits:
        if split.var != var:
            return False
        if not _replay(dims, dict(iv), split.certificate):
            return False
    return True


def verify_certificate(problem: ExactSequenceProblem, cert: Certificate,
                       max_unknown_dim: int | None = None) -> bool:
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    if max_unknown_dim is not None:
        ub = {k: min(v, max_unknown_dim) for k, v in ub.items()}
    state = _State(dims, ub)
    return _replay(dims, dict(state.iv), cert)


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
                         branch_sets: dict[str, list[tuple[str, tuple[FgAbGroup, FgAbGroup]]]],
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
