"""Integer-graded families of abelian groups.

A GradedGroup is a finite map degree -> group (absent degrees are zero).

A 2-periodic group is its (even, odd) pair of groups.  The
coefficient-change operation regrades such a pair from deg T = -N0 down
to a divisor -N by direct-summing degrees that become identified.
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
    """entries: sorted (degree, group) pairs with nonzero groups only."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, FgAbGroup], ...] = ()):
        cleaned = []
        seen = set()
        for deg, grp in entries:
            if deg in seen:
                raise ValueError(f"duplicate degree {deg}")
            seen.add(deg)
            if not grp.is_trivial():
                cleaned.append((deg, grp))
        self.entries = tuple(sorted(cleaned))

    @staticmethod
    def from_dict(entries: dict[int, FgAbGroup]) -> "GradedGroup":
        return GradedGroup(tuple(entries.items()))

    def entry(self, degree: int) -> FgAbGroup:
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
        return f"{{{body}}}"


def coefficient_change(hf: tuple[FgAbGroup, FgAbGroup], frm: LaurentGrading,
                       to: LaurentGrading) -> tuple[FgAbGroup, FgAbGroup]:
    """Regrade the (even, odd) pair of a 2-periodic group from
    deg T = -N0 to deg T = -N.

    N must divide N0; the result at degree * is the direct sum of the
    input at degrees * + k*N for k = 0 .. N0/N - 1.  Steps are even, so
    each of those degrees has the parity of *, and each parity sums
    N0/N copies of its own group.

    >>> from .abgroup import cyclic
    >>> even, odd = coefficient_change((ZERO, cyclic(2)), LaurentGrading(-8), LaurentGrading(-2))
    >>> str(even), str(odd)
    ('0', '(Z/2)^4')
    """
    n0, n = frm.step, to.step
    if n0 % n != 0:
        raise GradingError(f"target step {n} does not divide source step {n0}")
    folds = n0 // n
    even, odd = hf
    return direct_sum(*[even] * folds), direct_sum(*[odd] * folds)
