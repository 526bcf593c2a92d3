"""Integer-graded families of abelian groups.

A GradedGroup is a finite map degree -> group (absent degrees are zero),
optionally with an even period: then one fundamental domain [0, period)
is stored and lookups fold modulo the period.

The coefficient-change operation regrades Laurent coefficients from
deg T = -N0 down to a divisor -N by direct-summing degrees that become
identified.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .abgroup import FgAbGroup, ZERO, direct_sum


class GradingError(ValueError):
    """Raised on invalid gradings or coefficient-change preconditions."""


@dataclass(frozen=True)
class LaurentGrading:
    """Grading of the Laurent variable: t_degree is a negative even
    integer (all Lagrangians in scope are orientable, so minimal Maslov
    numbers are even)."""

    t_degree: int

    def __post_init__(self):
        if self.t_degree > -2 or self.t_degree % 2 != 0:
            raise GradingError(f"deg T must be even and <= -2, got {self.t_degree}")

    @property
    def step(self) -> int:
        return -self.t_degree


@dataclass(frozen=True)
class GradedGroup:
    """entries: sorted (degree, group) pairs with nonzero groups only.
    If period is set it must be a positive even integer and all stored
    degrees lie in [0, period)."""

    entries: tuple[tuple[int, FgAbGroup], ...] = ()
    period: int | None = None

    def __post_init__(self):
        if self.period is not None and (self.period <= 0 or self.period % 2 != 0):
            raise GradingError(f"period must be a positive even integer, got {self.period}")
        cleaned = []
        seen = set()
        for deg, grp in self.entries:
            if deg in seen:
                raise ValueError(f"duplicate degree {deg}")
            seen.add(deg)
            if self.period is not None and not 0 <= deg < self.period:
                raise ValueError(f"degree {deg} outside the fundamental domain")
            if not grp.is_trivial():
                cleaned.append((deg, grp))
        object.__setattr__(self, "entries", tuple(sorted(cleaned)))

    @staticmethod
    def from_dict(entries: dict[int, FgAbGroup], period: int | None = None) -> "GradedGroup":
        return GradedGroup(tuple(entries.items()), period)

    def entry(self, degree: int) -> FgAbGroup:
        if self.period is not None:
            degree %= self.period
        for deg, grp in self.entries:
            if deg == degree:
                return grp
        return ZERO

    def support(self) -> tuple[int, ...]:
        return tuple(deg for deg, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        body = ", ".join(f"{deg}: {grp}" for deg, grp in self.entries)
        if self.period is not None:
            return f"{{{body} (mod {self.period})}}"
        return f"{{{body}}}"


@dataclass(frozen=True)
class PeriodConflict:
    """First pair of degrees whose entries disagree under a requested
    period; a normal return value, not an exception."""

    period: int
    degree_a: int
    degree_b: int
    value_a: FgAbGroup
    value_b: FgAbGroup

    def __str__(self) -> str:
        return (f"period {self.period} conflict: degree {self.degree_a} has "
                f"{self.value_a} but degree {self.degree_b} has {self.value_b}")


def impose_periodicity(g: GradedGroup, period: int) -> GradedGroup | PeriodConflict:
    """Fold g to the given period if its entries allow it.

    For a finite g the stored support window [min degree, max degree] is
    read as observations (absent degrees inside the window are observed
    zeros); all observations in one residue class must agree.  Returns
    the compact periodic group, or a PeriodConflict naming the first
    clashing degree pair.
    """
    if period <= 0 or period % 2 != 0:
        raise GradingError(f"period must be a positive even integer, got {period}")
    if g.period is not None:
        if g.period == period or period % g.period == 0:
            # already at least this periodic; keep the finer statement
            return g
        # expand enough of the periodic group to observe every comparison
        span = 2 * lcm(g.period, period)
        window = {n: g.entry(n) for n in range(span)}
        g = GradedGroup.from_dict({n: grp for n, grp in window.items() if not grp.is_trivial()})
    if g.is_zero():
        return GradedGroup((), period)
    lo, hi = g.support()[0], g.support()[-1]
    residue_seen: dict[int, tuple[int, FgAbGroup]] = {}
    for n in range(lo, hi + 1):
        grp = g.entry(n)
        r = n % period
        if r in residue_seen:
            first_deg, first_grp = residue_seen[r]
            if first_grp != grp:
                return PeriodConflict(period, first_deg, n, first_grp, grp)
        else:
            residue_seen[r] = (n, grp)
    folded = {r: grp for r, (_, grp) in residue_seen.items() if not grp.is_trivial()}
    return GradedGroup.from_dict(folded, period)


def finest_period(g: GradedGroup) -> GradedGroup:
    """Normalize a periodic group to its finest valid even period."""
    if g.period is None:
        return g
    for p in range(2, g.period, 2):
        if g.period % p != 0:
            continue
        candidate = impose_periodicity(g, p)
        if isinstance(candidate, GradedGroup):
            return candidate
    return g


def coefficient_change(hf: GradedGroup, frm: LaurentGrading, to: LaurentGrading) -> GradedGroup:
    """Regrade Laurent coefficients from deg T = -N0 to deg T = -N.

    N must divide N0; the result at degree * is the direct sum of the
    input at degrees * + k*N for k = 0 .. N0/N - 1.

    >>> from .abgroup import cyclic
    >>> odd = GradedGroup.from_dict({1: cyclic(2)}, period=2)
    >>> changed = coefficient_change(odd, LaurentGrading(-8), LaurentGrading(-2))
    >>> str(changed.entry(1))
    '(Z/2)^4'
    """
    n0, n = frm.step, to.step
    if n0 % n != 0:
        raise GradingError(f"target step {n} does not divide source step {n0}")
    if hf.period is None or (hf.period != n0 and hf.period != 2):
        raise GradingError(f"input must be periodic with period {n0} or 2")
    folds = n0 // n
    result = {}
    for deg in range(n):
        parts = [hf.entry(deg + k * n) for k in range(folds)]
        result[deg] = direct_sum(*parts)
    return finest_period(GradedGroup.from_dict(
        {d: grp for d, grp in result.items() if not grp.is_trivial()}, period=n))
