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
(``UnsupportedProblemError`` names the rule otherwise).  Each sequence
is a path of rank variables, and X enters it as the sum r_{j-1} + r_j =
X at an interior term or as a cap r <= X at an end; no feasible X
exceeds ub (``_unknown_bounds``).  The witness is the least X in [0, ub]
at which every sequence has a chain of ranks (the AND of per-sequence
bitmasks over X), with each sequence's chain of least first rank.  It is
the witness an ascending search over X's propagated interval finds:
each propagation step applies a constraint every solution satisfies, so
no interval loses a solution's value, a problem with a witness reaches
no contradiction, and X's interval, inside [0, ub], holds the least
feasible X.  Only a problem without one is propagated, on int slots.
Bounds propagation is exact along a path, and the sequences meet only
in X, so it reaches an empty interval; the tightenings that
contradiction relies on, each a re-checkable step citing its
constraint, are the infeasibility certificate.

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
    """A known term; ``dim``, which equality ignores, is its dimension
    over Z/2, or None for a group that is not elementary abelian."""

    __slots__ = ("group", "dim")
    _compared = ("group",)

    def __init__(self, group: FgAbGroup):
        self.group = group
        self.dim = len(group.torsion) if group.is_elementary_two() else None


class Unknown(_Record):
    __slots__ = ("name", "dim")
    _compared = ("name",)

    def __init__(self, name: str):
        self.name, self.dim = name, f"dim({name})"


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


def _dims_table(problem: ExactSequenceProblem) -> list[list[int | str]]:
    """The problem as dimensions, unknowns kept by name; raises
    UnsupportedProblemError outside the solver's domain."""
    dims = [[t.dim for t in seq] for seq in problem.sequences]
    for seq, terms in zip(dims, problem.sequences):
        if None in seq:
            raise UnsupportedProblemError(
                f"term {terms[seq.index(None)].group} is not an elementary abelian 2-group")
    names = sorted({d for seq in dims for d in seq if type(d) is str})
    if len(names) > 1:
        raise UnsupportedProblemError(
            f"unknowns {', '.join(names)}: the solver takes one unknown name per problem")
    for s, seq in enumerate(dims if names else ()):
        if seq.count(names[0]) > 1:
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
    total_known = sum(d for seq in dims for d in seq if type(d) is int)
    ub: dict[str, int] = {}
    for seq in dims:
        for j, d in enumerate(seq):
            if type(d) is str:
                hi = seq[j - 1] + seq[j + 1] if 0 < j < len(seq) - 1 else total_known
                ub[d] = min(ub.get(d, hi), hi)
    return ub


def _rank_cap(dims: list[list[int | str]], ub: dict[str, int]) -> int:
    """Every rank's initial upper end, above any value it can take."""
    return sum(ub.values()) + sum(d for seq in dims for d in seq if type(d) is int) + 1


def _first_chain(d: list[int]) -> list[int] | None:
    """The ranks of an exact sequence of dimensions ``d`` with the least
    first rank r, or None when there are none.  Exactness makes rank j
    c_j + (-1)^j r, with c_0 = 0 and c_j = d_j - c_{j-1}, so each bound
    0 <= rank j <= min(d_j, d_{j+1}) bounds r."""
    lo, hi, c = 0, min(d[0], d[1]), 0
    for j in range(1, len(d) - 1):
        c = d[j] - c
        cap = d[j] if d[j] < d[j + 1] else d[j + 1]
        if j % 2:
            lo, hi = c - cap if c - cap > lo else lo, c if c < hi else hi
        else:
            lo, hi = -c if -c > lo else lo, cap - c if cap - c < hi else hi
    if lo > hi:
        return None
    chain = [lo]
    for j in range(1, len(d) - 1):
        chain.append(d[j] - chain[-1])
    return chain


def _witness(dims: list[list[int | str]], ub: dict[str, int]) -> dict | None:
    """The least X in [0, ub] at which every sequence has a chain, with
    those chains, or None: bit x of a sequence's mask is set when it has
    a ``_first_chain`` at X = x, and the problem's mask is their AND."""
    (name, top), = ub.items() or [(None, 0)]
    common, chains = (2 << top) - 1, []
    for seq in dims:
        j = seq.index(name) if name in seq else None
        row = [_first_chain(seq if j is None else [*seq[:j], x, *seq[j + 1:]])
               for x in range(top + 1)]
        common &= sum(1 << x for x, chain in enumerate(row) if chain is not None)
        if not common:
            return None
        chains.append(row)
    x = (common & -common).bit_length() - 1
    return {"dims": {} if name is None else {name: x},
            "ranks": {f"s{s}": tuple(row[x]) for s, row in enumerate(chains)}}


class _Sweep:
    """Bounds propagation on int slots: the unknowns, the ranks (s, i)
    and fixed ones for the known dimensions, named by ``labels``, slot k
    in [lo[k], hi[k]].  ``attempts`` holds one sweep's tightenings in
    order as (slot, rule, x, y): rule 0 bounds a rank by term x (= y),
    rule 1 sets a rank of an exactness equation to term x minus rank y,
    rule 2 an unknown term to ranks x plus y.  ``cites`` gives each
    one's (kind, sequence, position), and ``log`` every tightening as
    (attempt, lo, hi)."""

    __slots__ = ("dims", "labels", "lo", "hi", "attempts", "cites", "log")

    def __init__(self, dims: list[list[int | str]], ub: dict[str, int]):
        self.dims, self.log, cap = dims, [], _rank_cap(dims, ub)
        ranks = [(s, i) for s, seq in enumerate(dims) for i in range(len(seq) - 1)]
        known = sorted({d for seq in dims for d in seq if type(d) is int})
        self.labels = [*ub, *ranks, *known]
        self.lo = [0] * (len(ub) + len(ranks)) + known
        self.hi = [*ub.values(), *[cap] * len(ranks), *known]
        slot = {name: k for k, name in enumerate(ub)}
        slot.update((d, k) for k, d in enumerate(known, len(ub) + len(ranks)))
        attempts, cites = self.attempts, self.cites = [], []
        first = len(ub)  # the slot of each sequence's rank 0
        for s, seq in enumerate(dims):
            terms, edges = [slot[d] for d in seq], range(len(seq) - 1)
            attempts += [(first + i, 0, terms[j], terms[j]) for i in edges for j in (i, i + 1)]
            cites += [("le", s, j) for i in edges for j in (i, i + 1)]
            for j in range(1, len(seq) - 1):
                a, b, d = first + j - 1, first + j, terms[j]
                attempts += (a, 1, d, b), (b, 1, d, a)
                cites += ("eq", s, j), ("eq", s, j)
                if d < len(ub):
                    attempts.append((d, 2, a, b))
                    cites.append(("eq", s, j))
            first += len(seq) - 1

    def run(self) -> bool:
        """Sweep the attempts until a sweep changes nothing; True when an
        interval empties.  An attempt only shrinks its slot into a range
        the slots it reads fix, so until one of those changes, running it
        again would change nothing, and the sweeps skip it: slot v last
        changed at step ``changed[v]``, attempt k last ran at ``ran[k]``."""
        attempts, lo, hi, log = self.attempts, self.lo, self.hi, self.log
        changed, ran, t, swept = [0] * len(lo), [-1] * len(attempts), 0, -1
        while swept < len(log):
            swept = len(log)
            for k, (v, rule, x, y) in enumerate(attempts):
                t += 1
                if changed[x] <= ran[k] and changed[y] <= ran[k]:
                    continue
                ran[k] = t
                if rule == 0:
                    a, b = 0, hi[x]
                elif rule == 1:
                    a, b = lo[x] - hi[y], hi[x] - lo[y]
                else:
                    a, b = lo[x] + lo[y], hi[x] + hi[y]
                cur_lo, cur_hi = lo[v], hi[v]
                if a < cur_lo:
                    a = cur_lo
                if b > cur_hi:
                    b = cur_hi
                if a == cur_lo and b == cur_hi:
                    continue
                lo[v], hi[v], changed[v] = a, b, t
                log.append((k, a, b))
                if a > b:
                    return True
        return False

    def pruned(self) -> list[tuple[int, int, int]]:
        """The log entries the contradiction transitively relies on: an
        entry relies on every earlier one that set a slot its attempt
        reads, and on earlier settings of its own slot (replay folds each
        step into the current interval)."""
        attempts, labels = self.attempts, self.labels

        def reads(k):
            return {u for u in attempts[k][2:] if type(labels[u]) is not int}

        last = self.log[-1][0]
        needed, kept = {attempts[last][0], *reads(last)}, []
        for entry in reversed(self.log[:-1]):
            if attempts[entry[0]][0] in needed:
                kept.append(entry)
                needed |= reads(entry[0])
        return [*reversed(kept), self.log[-1]]

    def steps(self, entries: list[tuple[int, int, int]]) -> tuple[CertStep, ...]:
        """Log ``entries`` as certificate steps."""
        out = []
        for k, lo, hi in entries:
            kind, s, j = self.cites[k]
            label = self.labels[self.attempts[k][0]]
            var = label if type(label) is str else _rank_var(*label)
            out.append(CertStep(kind, s, j, var, lo, hi, self.dims[s][j]))
        return tuple(out)


def check_feasibility(problem: ExactSequenceProblem) -> FeasibilityVerdict:
    """Exact decision: a witness (dimensions and ranks) or an
    infeasibility certificate of replayable deduction steps."""
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    witness = _witness(dims, ub)
    if witness is not None:
        return FeasibilityVerdict(True, witness=witness)
    sweep = _Sweep(dims, ub)
    if not sweep.run():
        raise AssertionError("propagation found no contradiction and the search no witness")
    preamble = tuple(f"initial bound: {name} in [0, {hi}] (from the exactness rank equations)"
                     for name, hi in sorted(ub.items()))
    return FeasibilityVerdict(False, certificate=Certificate(sweep.steps(sweep.pruned()),
                                                             preamble))


# ---------------------------------------------------------------------------
# Verification of verdicts


def verify_witness(problem: ExactSequenceProblem, witness: dict) -> bool:
    """True when ``witness`` gives the unknown a dimension and every
    sequence exact ranks, all ints; False on any other input."""
    dims = _dims_table(problem)
    witness = witness if isinstance(witness, dict) else {}
    val, ranks_of = witness.get("dims"), witness.get("ranks")
    if not (isinstance(val, dict) and isinstance(ranks_of, dict)):
        return False
    for s, seq in enumerate(dims):
        ranks = ranks_of.get(f"s{s}")
        d = [x if type(x) is int else val.get(x) for x in seq]
        if (not isinstance(ranks, (tuple, list)) or len(ranks) != len(seq) - 1
                or any(type(x) is not int for x in (*d, *ranks))):
            return False
        if any(r < 0 or r > min(d[i], d[i + 1]) for i, r in enumerate(ranks)) or any(
                ranks[j - 1] + ranks[j] != d[j] for j in range(1, len(seq) - 1)):
            return False
    return True


def verify_certificate(problem: ExactSequenceProblem, cert: Certificate) -> bool:
    """Re-derive every step from its cited constraint, starting from the
    initial bounds; True when the chain ends in an empty interval.  A
    step citing a sequence, term or variable the problem lacks (an
    ``eq`` step needs an interior term), or holding a field of another
    type, makes it False."""
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    iv = {name: (0, hi) for name, hi in ub.items()}  # and each rank once a step sets it
    start = (0, _rank_cap(dims, ub))  # a rank's interval before that
    steps = getattr(cert, "steps", None)
    if not isinstance(steps, (tuple, list)):
        return False
    for step in steps:
        if not (isinstance(step, CertStep) and type(var := step.var) is str
                and all(type(x) is int for x in (step.seq, step.pos, step.lo, step.hi))):
            return False
        s, j = step.seq, step.pos
        inner = 1 if step.kind == "eq" else 0  # an eq step cites an interior term
        if not (0 <= s < len(dims) and inner <= j < len(dims[s]) - inner):
            return False
        # the ranks leaving terms j - 1 and j, where the sequence has them
        a = _rank_var(s, j - 1) if j else None
        b = _rank_var(s, j) if j < len(dims[s]) - 1 else None
        lo_d, hi_d = (d, d) if type(d := dims[s][j]) is int else iv[d]
        if step.kind == "le" and var in (a, b):
            allowed = (0, hi_d)
        elif step.kind == "eq" and var in (a, b):
            lo_o, hi_o = iv.get(b if var == a else a, start)
            allowed = (lo_d - hi_o, hi_d - lo_o)
        elif step.kind == "eq" and var == d:
            (lo_a, hi_a), (lo_b, hi_b) = iv.get(a, start), iv.get(b, start)
            allowed = (lo_a + lo_b, hi_a + hi_b)
        else:
            return False
        cur_lo, cur_hi = iv.get(var, start)
        lo, hi = max(cur_lo, allowed[0]), min(cur_hi, allowed[1])
        if (lo, hi) != (step.lo, step.hi):
            return False
        iv[var] = (lo, hi)
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
    combos, words = [], [["HF({},{}) = ({}, {})".format(probe.name, name, *hf)
                          for _, hf in branch_sets[name]] for name in end_names]
    for combo in itertools.product(*map(range, map(len, words))):
        label = ", ".join(map(list.__getitem__, words, combo))
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
            key = tuple(dict.fromkeys(map(row.__getitem__, used)))
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
