"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor normal form: a free rank plus a
torsion chain d1 | d2 | ... | dk with every di >= 2.  The normal form is
unique, so isomorphism testing is a plain field comparison.

Presentations and homomorphisms are integer matrices over Python ints
(arbitrary precision; Smith normal form can blow up intermediate entries
even on small inputs).  Everything downstream - cokernels, kernels,
images, and the subquotients that drive spectral-sequence differentials -
reduces to one exact Smith elimination loop whose unimodular transforms
are optional: cokernels need only the diagonal, kernel lattices only the
column transform, and lattice quotients the row transform of the
ambient lattice (through the cached ``smith_normal_form``).

>>> str(direct_sum(cyclic(2), cyclic(3)))
'Z/6'
>>> str(cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])))
'Z/2 + Z/4'
>>> str(tensor(Z, cyclic(2)))
'Z/2'
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import attrgetter, mul


class HomValidationError(ValueError):
    """Raised when a matrix does not define a homomorphism of the
    declared groups, or when composite maps fail to vanish."""


class SolverLimitError(RuntimeError):
    """The search cannot run as asked: a hom space too large to index, a
    first page too large to search, or no consistent branch, which
    usually means the entry bound is too small rather than the scenario
    being infeasible."""


class _Record:
    """Base of the value classes, which are plain ``__slots__`` classes
    with a written-out ``__init__``: equality and hashing over the
    tuple ``_fields`` of the fields a class names in ``_compared`` (by
    default every slot), between objects of one exact type as a frozen
    dataclass compares, and a dataclass-style ``repr`` of those fields.
    Each class reads its fields through one ``operator.attrgetter``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._compared = cls.__dict__.get("_compared", cls.__slots__)
        if len(names) == 1:  # an attrgetter of one name gives the bare value
            get = attrgetter(*names)
            cls._fields = property(lambda self: (get(self),))
        else:
            cls._fields = property(attrgetter(*names) if names else lambda self: ())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


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


class FgAbGroup(_Record):
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` must already be a divisibility chain; use
    :func:`from_orders` to canonicalize an arbitrary list of cyclic
    orders.

    >>> FgAbGroup(1, (2,)) == from_orders(0, 2)
    True
    """

    __slots__ = ("free_rank", "torsion", "_hash")
    # the hash of the compared fields, kept in a slot: the enumerator
    # hashes groups on every dict lookup of a leaf
    _compared = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        tors = tuple(torsion)
        for d in tors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(tors, tors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors violate divisibility: {a} then {b}")
        self.free_rank, self.torsion = free_rank, tors
        self._hash = hash((free_rank, tors))

    def __hash__(self) -> int:
        return self._hash

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

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


class IntMatrix(_Record):
    """Integer matrix; entries stored row-major as tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry count does not match rows x cols")
        self.rows, self.cols, self.entries = rows, cols, entries

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), ncols, entries)

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


def _eliminate(a: list[list[int]], u: list[list[int]] | None = None,
               v: list[list[int]] | None = None) -> tuple[int, ...]:
    """Reduce the list matrix ``a`` in place to Smith normal form and
    return the nonzero part of its diagonal.  Row operations are applied
    to ``u`` and column operations to ``v`` when they are given."""
    rows, cols = len(a), len(a[0]) if a else 0
    col_mats = (a,) if v is None else (a, v)

    def row_add(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_add(i, j, c):  # col i += c * col j
        for mat in col_mats:
            for row in mat:
                row[i] += c * row[j]

    def col_swap(i, j):
        for mat in col_mats:
            for row in mat:
                row[i], row[j] = row[j], row[i]

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

    for i in range(t):
        if a[i][i] < 0:
            row_add(i, i, -2)  # negate row i
    return tuple(a[i][i] for i in range(t))


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    u, v = _identity_rows(rows), _identity_rows(cols)
    _eliminate(a, u, v)
    return (
        IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(a) if rows else IntMatrix(0, cols, ()),
        IntMatrix.from_rows(v) if cols else IntMatrix(cols, cols, ()),
    )


def _cokernel(a: list[list[int]]) -> FgAbGroup:
    """Z^len(a) / (column span of the list matrix a); consumes a."""
    diag = _eliminate(a)
    return FgAbGroup(len(a) - len(diag), tuple(x for x in diag if x >= 2))


def cokernel(m: IntMatrix) -> FgAbGroup:
    """The group Z^rows / (column span of m), in canonical form.

    Only the Smith diagonal is needed, so no transforms are built:
    diagonal 1s are dropped, diagonal 0s (and missing diagonal slots)
    contribute free rank.

    >>> str(cokernel(IntMatrix.from_rows([[2]])))
    'Z/2'
    """
    return _cokernel([list(r) for r in m.entries])


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


class GroupHom(_Record):
    """A homomorphism given by an integer matrix on canonical generators.

    Column j of ``matrix`` is the image of source generator j written in
    the target's generators.  The matrix must respect torsion: a source
    generator of order d must land on an element killed by d.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != target.generator_count():
            raise HomValidationError("matrix rows do not match target generators")
        if matrix.cols != source.generator_count():
            raise HomValidationError("matrix cols do not match source generators")
        # the matrix with each column scaled by its source generator's
        # order must be zero; free columns scale to 0, so only the
        # torsion columns (which come last) are scaled and tested
        tors, free = source.torsion, source.free_rank
        if tors:
            scaled = (map(mul, tors, row[free:]) for row in matrix.entries)
            if not _zero_mod_orders(scaled, target.generator_orders()):
                raise HomValidationError(
                    "a torsion generator maps to an element its order does not kill")
        self.source, self.target, self.matrix = source, target, matrix


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
    """Basis (as columns) of the integer kernel of m, living in Z^cols:
    the columns of the column transform past the Smith rank."""
    v = _identity_rows(m.cols)
    rank = len(_eliminate([list(r) for r in m.entries], v=v))
    return IntMatrix(m.cols, m.cols - rank, tuple(tuple(row[rank:]) for row in v))


def lattice_quotient(ambient: IntMatrix, sub: IntMatrix) -> FgAbGroup:
    """Isomorphism class of L1/L2 for lattices L1 = span(ambient cols),
    L2 = span(sub cols), both in the same Z^k; requires L2 <= L1."""
    if ambient.rows != sub.rows:
        raise ValueError("lattices live in different ambient ranks")
    u, d, _ = smith_normal_form(ambient)
    diag = [x for x in d.diagonal() if x]
    # write each generator of L2 in the basis d_ii * (u^-1 e_i) of L1
    sub_cols = list(zip(*sub.entries))
    x_rows = []
    for i, u_row in enumerate(u.entries):
        y = [sum(map(mul, u_row, col)) for col in sub_cols]
        di = diag[i] if i < len(diag) else 0
        if any(yi % di if di else yi for yi in y):
            raise HomValidationError("sublattice is not contained in the ambient lattice")
        if di:
            x_rows.append([yi // di for yi in y])
    return _cokernel(x_rows)


def preimage_lattice(h: GroupHom) -> IntMatrix:
    """Generators (columns) of {x in Z^s : h(x) = 0 in the target},
    i.e. the kernel of the composite Z^s -> target."""
    # [h | R] and [h | -R] have kernels (x, y) and (x, -y): the same lattice of x
    basis = _kernel_lattice(h.matrix.hstack(relation_matrix(h.target)))
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


def _residue_runs(t: int, d: int, bound: int) -> tuple[range, range]:
    """The residues x mod t that d kills (the multiples of t / gcd(d, t),
    every residue for d = 0) with x <= bound or t - x <= bound, as two
    ascending runs, the second past the first: at most min(t, 2 * bound
    + 1) values, found without a range over the bound or over t."""
    step = t // gcd(d, t)
    low = range(0, min(t, bound + 1), step)
    high = range(-(-max(low.stop, t - bound) // step) * step, t, step)
    return low, high


def _run_length(run: range) -> int:
    """``len(run)``, also past ``sys.maxsize``."""
    return max(0, -((run.start - run.stop) // run.step))


class HomMatrixSpace(Sequence):
    """The homs source -> target whose matrix entry (i, j) runs over
    ``entries[i][j]``, in the order of ``itertools.product`` over the
    entries in row-major order (the last entry fastest), with the
    invariants of each hom by its index.  Stores the entry ranges and
    each row's values (``rows``, row i running over the product of its
    entries' ranges): matrix h is decoded from its index (``matrix``),
    and a ``GroupHom`` is built only when one is indexed.

    The cokernel target / (im + relations) of a hom is fixed by the
    number of rows and the lattice spanned by the rows of [matrix |
    relations], so by the set of those rows up to sign, the hom's row
    class.  ``row_key(h)`` is that set as bits, one bit per distinct row
    up to sign, decoded from the index h as ``matrix`` decodes the rows,
    by per-row tables of each value's bit built from the entry ranges
    the first time a key is read.  The cokernel and the image are facts
    of the row class, one record of them taken the first time a hom of
    the class is read (``facts``, by row key), and a kernel lattice a
    fact of the hom; building a space computes none of them, no pass
    over the space keys its homs, and a search that reaches few homs
    reads few keys and takes few records.

    ``canonical`` is the set of homs least in their orbits under the
    signed permutations of equal-order source generators, one bitmask
    over the space built from the entry ranges alone (see its docstring
    and ``spectra``'s orbit rule)."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup,
                 entries: tuple[tuple[tuple[int, ...], ...], ...]):
        self.source, self.target, self.entries = source, target, entries
        self.rows = tuple(tuple(itertools.product(*row)) for row in entries)
        self._len = prod(map(len, self.rows))
        self.relations = relation_matrix(target)
        self.facts = _Facts(self)
        self._kernels: dict[int, IntMatrix] = {}

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, h: int) -> GroupHom:
        return GroupHom(self.source, self.target,
                        IntMatrix(self.target.generator_count(), self.source.generator_count(),
                                  self.matrix(h)))

    def matrix(self, h: int) -> tuple[tuple[int, ...], ...]:
        """The entry rows of hom h."""
        if not -self._len <= h < self._len:
            raise IndexError("matrix index out of range")
        h %= self._len
        out = []
        for values in reversed(self.rows):
            h, x = divmod(h, len(values))
            out.append(values[x])
        return tuple(reversed(out))

    @cached_property
    def _row_bits(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the bit of each of its values: one bit per distinct
        row of [matrix | relations] up to sign."""
        bit_of: dict[tuple[int, ...], int] = {}
        return tuple(tuple(bit_of.setdefault(min(v, tuple(-x for x in v)), 1 << len(bit_of))
                           for v in (value + relation for value in values))
                     for values, relation in zip(self.rows, self.relations.entries))

    def row_key(self, h: int) -> int:
        """The row class of hom h: the set of the rows of its [matrix |
        relations] up to sign, as bits (``_row_bits``)."""
        key = 0
        for bits in reversed(self._row_bits):
            h, x = divmod(h, len(bits))
            key |= bits[x]
        return key

    def kernel(self, h: int) -> IntMatrix:
        """The kernel lattice of hom h on the source generators."""
        kernel = self._kernels.get(h)
        if kernel is None:
            kernel = self._kernels[h] = preimage_lattice(self[h])
        return kernel

    @cached_property
    def canonical(self) -> int | None:
        """The homs that are least, in product order, in their orbits
        under the signed permutations of equal-order source generators,
        as one bitmask over the space, built once per space; None when
        that group moves a hom at most to its negation (each block of
        equal orders one generator, and the negation of all but one of
        them fixing every column, as for a lone Z, Z/2 or Z + Z/2), and
        then costs no more than that test.

        Such a permutation sends a hom to the same matrix with its
        columns permuted within blocks and negated, and the space to
        itself: a free entry runs over 0, 1, -1, ..., B, -B, and a
        torsion entry's residue runs are closed under x -> t - x.
        Product order is row-major, so it compares the columns of a
        block as top-down vectors (by value index): the least matrix of
        an orbit takes each column to the lesser of it and its negation,
        and sorts each block's columns ascending.  The mask is built per
        block from ``combinations_with_replacement`` over the
        sign-minimal columns, never by a scan of the space: the homs
        are the products of one choice per block, whose offsets in the
        index lie on disjoint digits, so the mask is the product of the
        blocks' bit polynomials.

        >>> bin(hom_matrix_space(FgAbGroup(2), Z, 1).canonical)  # (0 0), (0 1), (1 1)
        '0b10011'
        """
        entries, t_orders = self.entries, self.target.generator_orders()
        blocks, cols = [], 0  # the columns of each block
        for _, run in itertools.groupby(self.source.generator_orders()):
            blocks.append(range(cols, cols := cols + len(list(run))))
        if all(len(block) == 1 for block in blocks) and sum(
                any((-x % t if t else -x) != x for row, t in zip(entries, t_orders)
                    for x in row[block[0]]) for block in blocks) <= 1:
            return None
        # steps[e]: the index step of entry e in row-major order, the last fastest
        lens = [len(values) for row in entries for values in row]
        steps = list(itertools.accumulate(reversed(lens[1:]), mul, initial=1))[::-1]
        mask, upright = 1, (0,) * len(entries)
        for block in blocks:
            # each row's values in the block's columns: -1 below the value's
            # negation in value order, 0 equal to it, 1 above it
            block_signs = [[(2 * x > t) - (0 < 2 * x < t) if t else (x < 0) - (x > 0)
                            for x in row[block[0]]] for row, t in zip(entries, t_orders)]
            minimal = [sign <= upright for sign in itertools.product(*block_signs)]
            # the index offset of each sign-minimal column at each column of the block
            offsets = [list(itertools.compress(map(sum, itertools.product(*(
                range(0, len(row) * step, step) for row, step in zip(block_signs, steps[j::cols])))),
                minimal)) for j in block]
            mask *= sum(1 << sum(map(list.__getitem__, offsets, combo))
                        for combo in itertools.combinations_with_replacement(
                            range(len(offsets[0])), len(block)))
        return mask


class _Facts(dict):
    """The facts of each hom of ``space`` by its index: the record of its
    row class, ((free rank, torsion) of target / im, (rank of im, whether
    im is torsion-free)), one tuple per row class (``records``, by
    ``HomMatrixSpace.row_key``), taken from the first hom of the class
    read.  The rows fix the kernel, so the image too: into a free group
    the image is free, of the matrix rank, and a subgroup of a finite
    group is torsion-free only when zero, that is when the cokernel is
    the whole target; into a target with both parts it is source /
    kernel."""

    __slots__ = ("space", "records")

    def __init__(self, space: HomMatrixSpace):
        self.space = space
        self.records: dict[int, tuple[tuple[int, tuple[int, ...]], tuple[int, bool]]] = {}

    def __missing__(self, h: int) -> tuple[tuple[int, tuple[int, ...]], tuple[int, bool]]:
        space = self.space
        facts = self.records.get(key := space.row_key(h))
        if facts is None:
            rows, target = space.matrix(h), space.target
            coker = cokernel(IntMatrix(
                len(rows), space.source.generator_count() + space.relations.cols,
                tuple(map(tuple.__add__, rows, space.relations.entries))))
            if target.free_rank and target.torsion:
                image = cokernel(space.kernel(h))
                image = (image.free_rank, not image.torsion)
            else:
                image = (target.free_rank - coker.free_rank, not target.torsion or coker == target)
            facts = self.records[key] = ((coker.free_rank, coker.torsion), image)
        self[h] = facts
        return facts


# the most homs one hom space may hold: its orbit mask
# (``HomMatrixSpace.canonical``) and every vanishing mask over it hold a
# bit per hom, and a search may reach every hom; the largest space the
# tests build, Z^3 -> Z^3 at bound 1, has 19,683
MAX_HOMS = 1 << 20


def hom_matrix_space(source: FgAbGroup, target: FgAbGroup, bound: int) -> HomMatrixSpace:
    """All valid homs source -> target with entries bounded by ``bound``,
    one matrix per distinct map (entries canonicalized mod target
    orders), in the order of the product of the entries' ranges.

    A matrix is a hom when each torsion source generator of order d maps
    to an element d kills, which is a condition on each entry alone; so
    the homs are the product of each entry's admissible values, in the
    product's order.  The space keeps each entry's admissible values and
    each row's (a matrix is one choice per row, its length their
    product) and builds a ``GroupHom`` only when one is indexed.  A
    space of more than ``MAX_HOMS`` homs raises ``SolverLimitError``
    before any entry range is built: the space keeps per-hom invariants,
    so a larger one would exhaust memory before any search could end.

    >>> space = hom_matrix_space(cyclic(2), cyclic(4), 3)
    >>> len(space), space[1].matrix.entries
    (2, ((2,),))
    """
    s_orders, t_orders = source.generator_orders(), target.generator_orders()

    def count(t: int, d: int) -> int:
        if t:
            return sum(map(_run_length, _residue_runs(t, d, bound)))
        return 1 if d else 2 * bound + 1  # a torsion generator into a free one can only go to 0

    def slot(t: int, d: int) -> tuple[int, ...]:
        if t:
            return tuple(itertools.chain(*_residue_runs(t, d, bound)))
        if d:
            return (0,)
        # free slots by absolute value, so enumeration meets small representatives first
        return (0, *itertools.chain.from_iterable((x, -x) for x in range(1, bound + 1)))

    if prod(count(t, d) for t in t_orders for d in s_orders) > MAX_HOMS:
        raise SolverLimitError(
            f"the homs {source} -> {target} with entries bounded by entry_bound {bound} "
            f"number more than {MAX_HOMS}, too many to search; lower entry_bound")
    return HomMatrixSpace(source, target, tuple(tuple(slot(t, d) for d in s_orders)
                                                for t in t_orders))


def bound_may_truncate(source: FgAbGroup, target: FgAbGroup, entry_bound: int) -> bool:
    """Whether entries beyond the bound could produce hom classes the
    enumeration misses.  Free generators always can; finite generators
    cannot once the bound covers their order."""
    if source.free_rank or target.free_rank:
        return True
    return any(d > entry_bound for d in source.torsion + target.torsion)
