"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor normal form: a free rank plus a
torsion chain d1 | d2 | ... | dk with every di >= 2.  The normal form is
unique, so isomorphism testing is a plain field comparison.

Presentations and homomorphisms are integer matrices over Python ints
(arbitrary precision; Smith normal form can blow up intermediate entries
even on small inputs).  Everything downstream - cokernels, kernels,
images, and the subquotients that drive spectral-sequence differentials -
reduces to one exact Smith normal form routine with unimodular
transforms.

>>> str(direct_sum(cyclic(2), cyclic(3)))
'Z/6'
>>> str(cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])))
'Z/2 + Z/4'
>>> str(tensor(Z, cyclic(2)))
'Z/2'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import mul


class HomValidationError(ValueError):
    """Raised when a matrix does not define a homomorphism of the
    declared groups, or when composite maps fail to vanish."""


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (orders here are tiny)."""
    result: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            result[d] = result.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        result[n] = result.get(n, 0) + 1
    return result


def _prime_powers(orders) -> dict[int, list[int]]:
    """prime -> exponent list (with multiplicity) of finite cyclic orders."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    return by_prime


def _invariant_chain(orders) -> tuple[int, ...]:
    """Recombine arbitrary finite cyclic orders (each >= 2) into the
    invariant-factor chain d1 | d2 | ... | dk."""
    by_prime = _prime_powers(orders)
    if not by_prime:
        return ()
    depth = max(len(v) for v in by_prime.values())
    factors = []
    for i in range(depth):
        # i-th largest prime power of every prime multiplies into one factor
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        factors.append(f)
    factors.reverse()  # ascending: d1 | d2 | ... | dk
    return tuple(factors)


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` must already be a divisibility chain; use
    :func:`from_orders` to canonicalize an arbitrary list of cyclic
    orders.

    >>> FgAbGroup(1, (2,)) == from_orders(0, 2)
    True
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        tors = tuple(self.torsion)
        object.__setattr__(self, "torsion", tors)
        for d in tors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(tors, tors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors violate divisibility: {a} then {b}")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order; None when infinite."""
        if self.free_rank > 0:
            return None
        return prod(self.torsion) if self.torsion else 1

    def generator_orders(self) -> tuple[int, ...]:
        """Orders of the canonical generators, free (0) first."""
        return (0,) * self.free_rank + self.torsion

    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_elementary_two(self) -> bool:
        return self.free_rank == 0 and all(d == 2 for d in self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, run in itertools.groupby(self.torsion):
            k = len(list(run))
            parts.append(f"Z/{d}" if k == 1 else f"(Z/{d})^{k}")
        return " + ".join(parts) if parts else "0"


def from_orders(*orders: int) -> FgAbGroup:
    """Build a group from cyclic orders; 0 means an infinite factor.

    >>> str(from_orders(0, 4, 6))
    'Z + Z/2 + Z/12'
    """
    rank = sum(1 for n in orders if n == 0)
    tors = _invariant_chain(abs(n) for n in orders if abs(n) > 1)
    return FgAbGroup(rank, tors)


def cyclic(n: int) -> FgAbGroup:
    return from_orders(n)


ZERO = FgAbGroup()
Z = FgAbGroup(1)
Z2 = cyclic(2)


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """Direct sum in canonical form; torsion chains are re-normalized.

    >>> direct_sum(cyclic(2), cyclic(3)) == cyclic(6)
    True
    """
    rank = sum(g.free_rank for g in groups)
    orders = [d for g in groups for d in g.torsion]
    return FgAbGroup(rank, _invariant_chain(orders))


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tensor product over Z.

    Bilinear over direct sums with Z (x) A = A and
    Z/m (x) Z/n = Z/gcd(m, n); computed prime by prime.
    """
    ea, eb = _prime_powers(a.torsion), _prime_powers(b.torsion)
    orders: list[int] = []
    for p in ea.keys() | eb.keys():
        xs, ys = ea.get(p, []), eb.get(p, [])
        orders.extend(p ** min(x, y) for x in xs for y in ys)
        orders.extend(p ** x for x in xs for _ in range(b.free_rank))
        orders.extend(p ** y for y in ys for _ in range(a.free_rank))
    return FgAbGroup(a.free_rank * b.free_rank, _invariant_chain(orders))


def tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tor over Z: Tor(Z, A) = 0 and Tor(Z/m, Z/n) = Z/gcd(m, n)."""
    ea, eb = _prime_powers(a.torsion), _prime_powers(b.torsion)
    orders: list[int] = []
    for p in ea.keys() & eb.keys():
        xs, ys = ea[p], eb[p]
        orders.extend(p ** min(x, y) for x in xs for y in ys)
    return FgAbGroup(0, _invariant_chain(orders))


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries stored row-major as tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry count does not match rows x cols")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), ncols, entries)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        data = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows)
        )
        return IntMatrix(self.rows, other.cols, data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple(self.entries[i] + other.entries[i] for i in range(self.rows))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@lru_cache(maxsize=None)
def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (u, d, v) with d = u * m * v.

    u and v are unimodular; d is diagonal with nonnegative entries
    satisfying the divisibility chain d1 | d2 | ...  Total function:
    empty matrices are fine.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    (2, 4)
    >>> u.mul(m).mul(v) == d
    True
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_add(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_add(i, j, c):  # col i += c * col j
        for r in range(rows):
            a[r][i] += c * a[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # the smallest nonzero entry of the trailing submatrix is the
        # pivot; re-selecting it before every reduction keeps the
        # intermediate entries (and the transforms) from swelling
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        target = next((i for i in range(t + 1, rows) if a[i][t] != 0), None)
        if target is not None:
            q = a[target][t] // a[t][t]
            row_add(target, t, -q)
            continue  # any remainder is strictly smaller and becomes the pivot
        target = next((j for j in range(t + 1, cols) if a[t][j] != 0), None)
        if target is not None:
            q = a[t][target] // a[t][t]
            col_add(target, t, -q)
            continue
        # cross is clear; enforce the divisibility chain before moving on
        offender = None
        for i in range(t + 1, rows):
            if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            row_neg(i)

    return (
        IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(a) if rows else IntMatrix(0, cols, ()),
        IntMatrix.from_rows(v) if cols else IntMatrix(cols, cols, ()),
    )


def cokernel(m: IntMatrix) -> FgAbGroup:
    """The group Z^rows / (column span of m), in canonical form.

    Diagonal 1s are dropped, diagonal 0s (and missing diagonal slots)
    contribute free rank.

    >>> str(cokernel(IntMatrix.from_rows([[2]])))
    'Z/2'
    """
    _, d, _ = smith_normal_form(m)
    diag = d.diagonal()
    nonzero = [x for x in diag if x != 0]
    free = m.rows - len(nonzero)
    return FgAbGroup(free, tuple(x for x in nonzero if x >= 2))


# ---------------------------------------------------------------------------
# Homomorphisms


def relation_matrix(g: FgAbGroup) -> IntMatrix:
    """Presentation relations of g on its canonical generators
    (free generators first): one column d_i * e_(free_rank + i) per
    torsion factor."""
    k = g.generator_count()
    t = len(g.torsion)
    data = [[0] * t for _ in range(k)]
    for i, d in enumerate(g.torsion):
        data[g.free_rank + i][i] = d
    return IntMatrix(k, t, tuple(tuple(r) for r in data))


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by an integer matrix on canonical generators.

    Column j of ``matrix`` is the image of source generator j written in
    the target's generators.  The matrix must respect torsion: a source
    generator of order d must land on an element killed by d.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.generator_count():
            raise HomValidationError("matrix rows do not match target generators")
        if self.matrix.cols != self.source.generator_count():
            raise HomValidationError("matrix cols do not match source generators")
        # the matrix with each column scaled by its source generator's
        # order must be zero; free columns scale to 0, so only the
        # torsion columns (which come last) are scaled and tested
        tors, free = self.source.torsion, self.source.free_rank
        if tors:
            scaled = (map(mul, tors, row[free:]) for row in self.matrix.entries)
            if not _zero_mod_orders(scaled, self.target.generator_orders()):
                raise HomValidationError(
                    "a torsion generator maps to an element its order does not kill")

    def is_zero(self) -> bool:
        return _zero_mod_orders(self.matrix.entries, self.target.generator_orders())


def _zero_mod_orders(rows, orders: tuple[int, ...]) -> bool:
    """Whether a matrix into a group with these generator orders is the
    zero map: row i vanishes modulo orders[i] (order 0: exactly).  Plain
    loops; this is the innermost test of the differential search."""
    for row, o in zip(rows, orders):
        if o:
            for x in row:
                if x % o:
                    return False
        else:
            for x in row:
                if x:
                    return False
    return True


def _kernel_lattice(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the integer kernel of m, living in Z^cols."""
    _, d, v = smith_normal_form(m)
    rank = sum(1 for x in d.diagonal() if x != 0)
    data = tuple(tuple(v.entries[i][j] for j in range(rank, m.cols)) for i in range(m.cols))
    return IntMatrix(m.cols, m.cols - rank, data)


def lattice_quotient(ambient: IntMatrix, sub: IntMatrix) -> FgAbGroup:
    """Isomorphism class of L1/L2 for lattices L1 = span(ambient cols),
    L2 = span(sub cols), both in the same Z^k; requires L2 <= L1."""
    if ambient.rows != sub.rows:
        raise ValueError("lattices live in different ambient ranks")
    u, d, _ = smith_normal_form(ambient)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    # write each generator of L2 in the basis d_ii * (u^-1 e_i) of L1
    x_rows = [[0] * sub.cols for _ in range(rank)]
    for i, row in enumerate(u.mul(sub).entries):
        for j, yi in enumerate(row):
            if i >= rank:
                if yi != 0:
                    raise HomValidationError("sublattice is not contained in the ambient lattice")
            else:
                q, r = divmod(yi, diag[i])
                if r != 0:
                    raise HomValidationError("sublattice is not contained in the ambient lattice")
                x_rows[i][j] = q
    return cokernel(IntMatrix(rank, sub.cols, tuple(tuple(r) for r in x_rows)))


def preimage_lattice(h: GroupHom) -> IntMatrix:
    """Generators (columns) of {x in Z^s : h(x) = 0 in the target},
    i.e. the kernel of the composite Z^s -> target."""
    r_t = relation_matrix(h.target)
    neg = IntMatrix(r_t.rows, r_t.cols,
                    tuple(tuple(-x for x in row) for row in r_t.entries))
    w = h.matrix.hstack(neg)
    basis = _kernel_lattice(w)
    s = h.source.generator_count()
    data = tuple(basis.entries[i] for i in range(s))
    return IntMatrix(s, basis.cols, data)


def hom_images(h: GroupHom) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup]:
    """Isomorphism classes of (image, kernel, cokernel) of h.

    >>> h = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
    >>> tuple(str(g) for g in hom_images(h))
    ('Z', '0', 'Z/2')
    """
    p = preimage_lattice(h)
    image = cokernel(p)  # source / kernel
    kernel = lattice_quotient(p, relation_matrix(h.source))
    coker = cokernel(h.matrix.hstack(relation_matrix(h.target)))
    return image, kernel, coker


def composite_is_zero(first: GroupHom, second: GroupHom) -> bool:
    """Whether second o first vanishes (first applied first)."""
    if first.target != second.source:
        raise HomValidationError("homs are not composable")
    m = second.matrix.mul(first.matrix)
    return _zero_mod_orders(m.entries, second.target.generator_orders())


def homology_at(incoming: GroupHom | None, outgoing: GroupHom | None,
                at: FgAbGroup | None = None) -> FgAbGroup:
    """ker(outgoing) / im(incoming) at the shared middle group.

    Either map may be None (the zero map).  Raises HomValidationError
    when the maps do not compose to zero.
    """
    if incoming is None and outgoing is None:
        if at is None:
            raise ValueError("need the middle group when both maps are zero")
        return at
    middle = outgoing.source if outgoing is not None else incoming.target
    if at is not None and at != middle:
        raise HomValidationError("middle group does not match the maps")
    if incoming is not None and outgoing is not None:
        if incoming.target != outgoing.source:
            raise HomValidationError("incoming target differs from outgoing source")
        if not composite_is_zero(incoming, outgoing):
            raise HomValidationError("consecutive differentials do not compose to zero")
    k = middle.generator_count()
    p = preimage_lattice(outgoing) if outgoing is not None else IntMatrix.identity(k)
    return subquotient(p, incoming, middle)


def subquotient(kernel: IntMatrix, incoming: GroupHom | None, middle: FgAbGroup) -> FgAbGroup:
    """kernel / (im(incoming) + relations of middle), for a kernel lattice
    given on the generators of ``middle`` (a ``preimage_lattice``, or the
    identity for the zero map).  Raises HomValidationError when the image
    does not lie in the kernel."""
    sub = relation_matrix(middle)
    if incoming is not None:
        sub = incoming.matrix.hstack(sub)
    return lattice_quotient(kernel, sub)


# ---------------------------------------------------------------------------
# Enumeration of homomorphisms


def _entry_values(target_order: int, bound: int) -> tuple[int, ...]:
    """Canonical entry range for a matrix slot: residues mod the target
    generator order, clipped to |entry| <= bound.  Free slots are
    ordered by absolute value so enumeration meets small representatives
    first."""
    if target_order == 0:
        return tuple(sorted(range(-bound, bound + 1), key=lambda x: (abs(x), x < 0)))
    return tuple(sorted({x % target_order for x in range(-bound, bound + 1)}))


@lru_cache(maxsize=None)
def hom_matrix_space(source: FgAbGroup, target: FgAbGroup, bound: int) -> tuple[GroupHom, ...]:
    """All valid homs source -> target with entries bounded by ``bound``,
    one matrix per distinct map (entries canonicalized mod target
    orders).  Deterministic order."""
    s_orders = source.generator_orders()
    t_orders = target.generator_orders()
    slots = [_entry_values(o, bound) for o in t_orders for _ in s_orders]
    homs = []
    k_t, k_s = len(t_orders), len(s_orders)
    for flat in itertools.product(*slots):
        data = tuple(flat[i * k_s:(i + 1) * k_s] for i in range(k_t))
        try:
            homs.append(GroupHom(source, target, IntMatrix(k_t, k_s, data)))
        except HomValidationError:
            continue
    return tuple(homs)


def bound_may_truncate(source: FgAbGroup, target: FgAbGroup, entry_bound: int) -> bool:
    """Whether entries beyond the bound could produce hom classes the
    enumeration misses.  Free generators always can; finite generators
    cannot once the bound covers their order."""
    if source.free_rank or target.free_rank:
        return True
    return any(d > entry_bound for d in source.torsion + target.torsion)
