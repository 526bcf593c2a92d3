"""Integer-graded families of abelian groups.

A GradedGroup is a finite map degree -> group (absent degrees are zero),
optionally with an even period: then one fundamental domain [0, period)
is stored and lookups fold modulo the period.

The coefficient-change operation regrades Laurent coefficients from
deg T = -N0 down to a divisor -N by direct-summing degrees that become
identified.
"""

from __future__ import annotations

from .abgroup import FgAbGroup, ZERO, _Record, direct_sum


class GradingError(ValueError):
    """Raised on invalid gradings or coefficient-change preconditions."""


class LaurentGrading:
    """Grading of the Laurent variable: t_degree is a negative even
    integer (all Lagrangians in scope are orientable, so minimal Maslov
    numbers are even)."""

    __slots__ = ("t_degree",)

    def __init__(self, t_degree: int):
        if t_degree > -2 or t_degree % 2 != 0:
            raise GradingError(f"deg T must be even and <= -2, got {t_degree}")
        self.t_degree = t_degree

    @property
    def step(self) -> int:
        return -self.t_degree


class GradedGroup(_Record):
    """entries: sorted (degree, group) pairs with nonzero groups only.
    If period is set it must be a positive even integer and all stored
    degrees lie in [0, period)."""

    __slots__ = ("entries", "period")

    def __init__(self, entries: tuple[tuple[int, FgAbGroup], ...] = (), period: int | None = None):
        if period is not None and (period <= 0 or period % 2 != 0):
            raise GradingError(f"period must be a positive even integer, got {period}")
        cleaned = []
        seen = set()
        for deg, grp in entries:
            if deg in seen:
                raise ValueError(f"duplicate degree {deg}")
            seen.add(deg)
            if period is not None and not 0 <= deg < period:
                raise ValueError(f"degree {deg} outside the fundamental domain")
            if not grp.is_trivial():
                cleaned.append((deg, grp))
        self.entries, self.period = tuple(sorted(cleaned)), period

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

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        body = ", ".join(f"{deg}: {grp}" for deg, grp in self.entries)
        if self.period is not None:
            return f"{{{body} (mod {self.period})}}"
        return f"{{{body}}}"


def finest_period(g: GradedGroup) -> GradedGroup:
    """Fold a periodic group to its finest even period: the smallest
    even divisor p of its period with g(n) = g(n mod p) for every n."""
    if g.period is None:
        return g
    for p in range(2, g.period, 2):
        if g.period % p == 0 and all(g.entry(n) == g.entry(n % p) for n in range(p, g.period)):
            return GradedGroup(tuple((n, grp) for n, grp in g.entries if n < p), p)
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
