"""Homological spectral sequence solver over a column-supported first page.

The first page has E^1_(p,q) = H_q(S) for p in N*Z and zero elsewhere;
differentials on page r have bidegree (-r, r-1), so only page indices
divisible by N can carry nonzero maps, and no page beyond the row height
can.  Pages are stored over a finite window of columns; entries whose
fate depends on columns outside the window are tracked as *unresolved*
and excluded from the certified part of the abutment.

Undetermined differentials are enumerated exhaustively: arrows between
known nonzero entries are grouped into connected chains, every chain is
labeled with all bounded integer matrices whose consecutive composites
vanish, and labelings are deduplicated by the isomorphism classes of the
entries they produce.  A chain is labeled by a depth-first search over
its arrows that extends each partial labeling only with maps composing
to zero with the ones already placed, visiting labelings in the order
of the full product of hom spaces.

Which maps compose to zero comes from vanishing masks, and they factor
by rows and columns: g o f = 0 exactly when every row of g kills every
column of f modulo that row's target order, and a hom space is the
product of per-entry ranges in row-major order.  Every arrow of a
page has the same bidegree, so a position has at most one arrow in and
one out, a component is one chain, and in source order the arrow out of
an arrow's target comes just before it.  So a mask is indexed by the
homs g of the earlier arrow and holds one bit per hom f of the later
one.  One kill table per pair of spaces, each row value of g's space
against each value of each column of f's (exact dot products packed
into big-int lanes), gives the masks: the mask of g is the AND over f's
columns of the per-column bit polynomials, over f's mixed-radix index,
of the values that all of g's rows kill.  Cokernels come from rows
too: target / (im + relations) is fixed by the set of the rows of
[matrix | relations] up to sign, a hom's row class in its
``abgroup.HomMatrixSpace``, and the masks indexed by a space, its
cokernels and its images are computed once per class.

Sibling rule: under one prefix, a hom is skipped when an earlier
sibling has the same signature, which is everything later work reads
of it: its masks for later arrows, the rank and freeness of its image,
its cokernel, and the hom itself where a torsion image forces a
subquotient.  The earlier sibling admits the same completions, with the
same homology, at lexicographically smaller labelings that the search
visits first, so the skipped subtree holds no first representative:
the classes, their representatives and their order do not change.
Each arrow's signatures are read in one zip over per-hom part lists.

The homology at each position comes from invariants of each hom: M /
im(in) for the incoming map, and the rank of im(out) for the outgoing
one; when that image is free it splits off M / im(in), and only a
torsion image falls back to the kernel-lattice subquotient.  A hom
space keeps only each entry's and each row's admissible values
(``abgroup.hom_matrix_space``); masks and invariants are read off them
and off one representative's entry rows per row class, equal results
are one object, and a ``GroupHom`` is built only for a kernel lattice
or a representative's differentials.  Hom spaces, these invariants and
the classes of each component shape live in an ``EnumerationTable``
that the solves of one run share and that is dropped with the run, so
no enumeration state outlives it.  The solver turns each page once: the
next page is the untouched entries plus the homology the chosen
classes already computed (``turn_page`` is the validated public path
to the same page).  What a page's turn fixes, its components, next
unresolved set and pruner skeleton, is worked out once per turn,
surviving run arrows and unresolved set: a branch turns only on arrows
of the worst-case run below.  No page is scanned for that plan: it is
carried down.  A run arrow is a branch's when its window ends are live
(entries or unresolved), and a position live before a turn is live
after it unless a chosen class's result there is zero, so the next plan
follows from the page's live positions less those the chosen classes
zero, kept as bits.  The last turn is decided without building the
branch's page: it reads the entries on its components, each a kept
entry or a chosen class's result, and the parts of the entries it
leaves untouched, which are kept's plus each chosen class's, summed
from parts cached per class, lens and dropped positions.  A page is
built only for a leaf or for a turn that is not the last.

The abutment of every stable page must be 2-periodic and agree with
any pinned value.  Every page turn is pruned by one rule while its
classes are chosen, a theorem and not a heuristic.  It reads one
worst-case run per solve: the page run from the first page in which
every live position stays live (the branch whose differentials all
vanish).  Entries only shrink, so at every page index a real branch's
arrows are a subset of that run's and its unresolved set lies inside
that run's.  The degrees the run certifies on its stable page are
therefore certified on every branch's, and an entry is final after
turn r when its position's last touch (the last page whose worst-case
arrows have it as an endpoint) is at most r: no later differential
starts or ends there, so it is already its E-infinity value.

The rule is a rank flow.  Over Q a later differential of rank k lowers
the free rank of its source and of its target by k, so every later
arrow of the run gets one k >= 0, and the k of the arrows at a
position sum to at most its free rank now (unknown positions cap
nothing).  A certified degree ends at the free rank of its final
entries plus what the k leave at the others, and each parity needs one
common value (a pin fixes it).  While a turn's components are being
placed, each degree is bounded alone, with its arrows uncoupled: its
final free rank lies in [lo, hi], lo that of the final entries and hi
that of all of them, and when every entry there is final its group is
exact.  A branch is cut once the intervals and exact groups of one
parity have no common value.  That check reads the bounds so far, the
entries the placed classes put on the degrees it bounds and, before
the coupled flow below, their summed free ranks, so a turn's one
search (``_turn_combinations``) works out the classes that survive
under a prefix once per distinct such input, not once per prefix; with
the parts of the untouched entries in that input, the last turn's memo
is shared by every branch that reaches it with the same plan, so its
nodes are worked out once across all of them.
Once the last component is placed, and before the next page is built,
the coupled flow over every later turn is solved degree by degree
(each arrow joins degree d to d - 1): the branch is cut unless some
choice of k leaves each parity a common value inside those bounds.
The last turn, the one no worst-case arrow comes after, is the case
lo = hi, an exact check of (free rank, sorted prime powers) keys;
there, once both parities are exact, a branch whose abutment is
already a leaf is cut too.

Torsion is bounded the same way on the turns that are not the last.
Let d_p(M) = dim(M / pM), the free rank plus the number of cyclic
factors of order divisible by p.  Over the local ring Z_(p), a PID,
d_p(M) is the least number of generators of M_(p) (Nakayama's lemma),
and a submodule or a quotient needs no more generators than its
module; so d_p of a subquotient is at most d_p of the group, and an
entry's d_p never grows from page to page.  d_p adds on direct sums, so
a certified degree's final d_p lies between that of its final entries
and that of all of them, and the degrees of one parity must meet on it
as they must on the free rank.  A turn bounds d_p for each prime that
divides a torsion order among its entries, its classes' results and
the pins; for any other prime d_p is the free rank.  The last turn
skips it: every entry there is final, so every bound is an exact key,
which already fixes every d_p.  A bound packs the free rank and each
d_p into one int, a field per prime (``_Lens``), so parts add in one
int add and one parity's bounds meet in a few int operations.

The same run is the one window check: when it does not certify degrees
0 and 1, the solve raises ``WindowError`` before any class is
enumerated, naming the smallest window whose run does.  Surviving
branches are deduplicated by their abutment in degrees 0 and 1.  A
leaf is data only: its abutment, certified degrees and the
differentials of each page turn; the report renders it.

A leaf's abutment in a certified degree is the split extension, the
direct sum, of the E-infinity entries on its antidiagonal.  A spectral
sequence fixes its abutment only up to extension: those entries are
the quotients of a filtration of H_n, with the lower columns below, so
Z/2 over Z/2 may also abut to Z/4, and Z/2 over Z to Z.  The leaves,
their deduplication, the last turn's exact keys and the d_p bounds all
take the direct sum (Z/4 has d_2 = 1 where (Z/2)^2 has 2); an extension
of a quotient with l-torsion by a sub with free rank or l-torsion need
not split, and no such leaf is marked.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, count, product, repeat
from math import lcm, prod
from operator import mul, or_

from .abgroup import (FgAbGroup, GroupHom, HomMatrixSpace, ZERO, _Record, _factorize,
                      bound_may_truncate, composite_is_zero, direct_sum, hom_matrix_space,
                      homology_at, subquotient)
from .graded import GradedGroup


class SpectraError(ValueError):
    """Raised on malformed pages, assignments, or windows."""


class WindowError(SpectraError):
    """The window cannot certify the abutment in degrees 0 and 1."""


Position = tuple[int, int]
# arrows as (source, target) pairs
_Arrows = tuple[tuple[Position, Position], ...]


class BigradedPage:
    """One page of the spectral sequence over a finite column window.

    Columns run over p = k * column_step for |k| <= col_span; rows over
    0..row_max.  ``unresolved`` positions have unknown entries (their
    value depends on columns outside the window); ``base_row_support``
    records which rows of the first page are nonzero, which is all that
    can be said about columns outside the window after a turn.
    """

    __slots__ = ("page_index", "column_step", "col_span", "row_max", "entries", "unresolved",
                 "base_row_support", "_by_position")

    def __init__(self, page_index: int, column_step: int, col_span: int, row_max: int,
                 entries: Iterable[tuple[Position, FgAbGroup]],
                 unresolved: frozenset[Position] = frozenset(),
                 base_row_support: frozenset[int] = frozenset()):
        if column_step <= 0 or column_step % 2 != 0:
            raise SpectraError("column step must be a positive even integer")
        if col_span < 2:
            raise SpectraError("window must cover at least columns -2N..2N")
        cleaned = []
        for entry in entries:
            (p, q), grp = entry
            if p % column_step != 0:
                raise SpectraError(f"entry at column {p} off the column support")
            if not 0 <= q <= row_max:
                raise SpectraError(f"entry at row {q} outside rows 0..{row_max}")
            if grp.free_rank or grp.torsion:
                cleaned.append(entry)
        self.page_index, self.column_step, self.col_span = page_index, column_step, col_span
        self.row_max, self.unresolved, self.base_row_support = row_max, unresolved, base_row_support
        self.entries = tuple(sorted(cleaned))
        self._by_position = dict(self.entries)

    def turned(self, page_index: int, unresolved: frozenset[Position],
               entries: Iterable[tuple[Position, FgAbGroup]]) -> BigradedPage:
        """The page of this geometry at ``page_index`` with these entries."""
        return BigradedPage(page_index, self.column_step, self.col_span, self.row_max, entries,
                            unresolved, self.base_row_support)

    def window_columns(self) -> tuple[int, ...]:
        n = self.column_step
        return tuple(k * n for k in range(-self.col_span, self.col_span + 1))

    def in_window(self, p: int) -> bool:
        return p % self.column_step == 0 and abs(p) <= self.col_span * self.column_step

    def known(self, pos: Position) -> bool:
        """Whether ``pos`` is a window position whose entry is known."""
        return self.in_window(pos[0]) and pos not in self.unresolved

    def entry(self, p: int, q: int) -> FgAbGroup:
        return self._by_position.get((p, q), ZERO)


def build_e1(s_homology: GradedGroup, column_step: int, col_span: int = 2) -> BigradedPage:
    """First page: a copy of the intersection homology in every window
    column, zero elsewhere, over rows 0 up to the top of its support.

    s_homology must be the homology of a connected closed manifold
    (nonnegative support, nonzero degree 0 entry).  Whether the window
    can certify degrees 0 and 1 is ``solve_floer``'s check.
    """
    support = s_homology.support()
    if not support or min(support) < 0:
        raise SpectraError("intersection homology must live in nonnegative degrees")
    if s_homology.entry(0).is_trivial():
        raise SpectraError("connected intersection needs a nonzero degree 0 entry")
    entries = {}
    for k in range(-col_span, col_span + 1):
        for q, grp in s_homology.entries:
            entries[(k * column_step, q)] = grp
    return BigradedPage(
        page_index=1,
        column_step=column_step,
        col_span=col_span,
        row_max=max(support),
        entries=tuple(entries.items()),
        unresolved=frozenset(),
        base_row_support=frozenset(q for q, _ in s_homology.entries),
    )


# ---------------------------------------------------------------------------
# Page geometry


def _possibly_nonzero(page: BigradedPage, pos: Position) -> bool:
    """Whether the true infinite page can be nonzero at pos."""
    p, q = pos
    if q < 0 or q > page.row_max or p % page.column_step != 0:
        return False
    if page.in_window(p):
        return pos in page._by_position or pos in page.unresolved
    return q in page.base_row_support  # entries only shrink after page 1


def _first_active_page(page: BigradedPage) -> tuple[int, _Arrows] | None:
    """Smallest r >= page_index whose differentials touch an entry we
    still know, with its arrows; None when the window content is stable.
    The candidates are the multiples of the column step up to the row
    height plus one."""
    n = page.column_step
    for r in range(n, page.row_max + 2, n):
        if r >= page.page_index and (arrows := _arrows_at(page, r)):
            return r, arrows
    return None


def _arrows_at(page: BigradedPage, r: int) -> _Arrows:
    """Arrows (src, tgt) of page r between possibly-nonzero positions
    with at least one endpoint inside the window, in source order.

    Each arrow has a window endpoint that can be nonzero, so the arrows
    are read off those live positions (the entries and the unresolved
    positions): the arrow out of each, and the arrow into each from
    outside the window."""
    live = page.unresolved.union(page._by_position)
    arrows = []
    for p, q in live:
        tgt = (p - r, q + r - 1)
        if tgt in live or not page.in_window(tgt[0]) and _possibly_nonzero(page, tgt):
            arrows.append(((p, q), tgt))
        src = (p + r, q - r + 1)
        if not page.in_window(src[0]) and _possibly_nonzero(page, src):
            arrows.append((src, (p, q)))
    return tuple(sorted(arrows))


def _slots_and_unresolved(arrows: _Arrows, known: Callable[[Position], bool]) -> tuple[
        list[tuple[Position, Position]], frozenset[Position]]:
    """Split one page's arrows (``_arrows_at``) into assignment slots
    (both current entries ``known``: inside the window and not already
    unresolved) and the positions this turn makes unresolved.

    An arrow whose other endpoint's *current* entry is unknown carries
    an unknowable map, so the known endpoint's next entry is unknown;
    an arrow between two known entries is enumerable even when the
    neighbour's own next entry will be unknown."""
    slots = [(s, t) for s, t in arrows if known(s) and known(t)]
    newly = set()
    for src, tgt in arrows:
        if known(src) and not known(tgt):
            newly.add(src)
        elif known(tgt) and not known(src):
            newly.add(tgt)
    return slots, frozenset(newly)


# ---------------------------------------------------------------------------
# Assignments and page turning


def _validate_assignment(page: BigradedPage, r: int,
                         assigned: Iterable[tuple[Position, GroupHom]]) -> dict[Position, GroupHom]:
    if r < page.page_index:
        raise SpectraError(
            f"assignment for past page {r} applied to page {page.page_index}")
    first = _first_active_page(page)
    if first is not None and first[0] < r:
        raise SpectraError(f"cannot skip page {first[0]}: it may still carry differentials")
    homs = dict(assigned)
    if r % page.column_step != 0 and homs:
        raise SpectraError(f"page {r} differentials are forced zero by column support")
    for (p, q), h in homs.items():
        tgt = (p - r, q + r - 1)
        if h.source != page.entry(p, q):
            raise SpectraError(f"hom source at {(p, q)} does not match the entry")
        if h.target != page.entry(*tgt):
            raise SpectraError(f"hom target at {(p, q)} does not match entry at {tgt}")
    for (p, q), h in homs.items():
        nxt = homs.get((p - r, q + r - 1))
        if nxt is not None and not composite_is_zero(h, nxt):
            raise SpectraError(f"differentials out of {(p, q)} do not compose to zero")
    return homs


def turn_page(page: BigradedPage, r: int,
              homs: Iterable[tuple[Position, GroupHom]] = ()) -> BigradedPage:
    """Homology of the page at the differentials of page r: ``homs``
    pairs source positions with their maps, and absent positions carry
    the zero map.  The next page holds ker(outgoing)/im(incoming) at
    every resolved position.

    This is the validated public path (the page, the skipped pages and
    every composite are checked); the branch solver builds the same
    pages from the homology its component classes already computed."""
    homs = _validate_assignment(page, r, homs)
    _, newly_unresolved = _slots_and_unresolved(_arrows_at(page, r), page.known)
    unresolved = page.unresolved | newly_unresolved
    entries = tuple(
        ((p, q), homology_at(homs.get((p + r, q - r + 1)), homs.get((p, q)), grp))
        for (p, q), grp in page.entries if (p, q) not in unresolved)
    return page.turned(r + 1, unresolved, entries)


# ---------------------------------------------------------------------------
# Abutment


def certified_degrees(page: BigradedPage) -> list[int]:
    """Degrees whose full antidiagonal is known: every contribution
    comes from a resolved window position, and no column outside the
    window can contribute."""
    n = page.column_step
    w = page.col_span * n
    out = []
    for deg in range(-w, w + page.row_max + 1):
        ok = True
        p_lo = deg - page.row_max
        for p in range(((p_lo + n - 1) // n) * n, deg + 1, n):
            q = deg - p
            if not page.in_window(p):
                if q in page.base_row_support:
                    ok = False
                    break
            elif (p, q) in page.unresolved:
                ok = False
                break
        if ok:
            out.append(deg)
    return out


def _certified_sums(page: BigradedPage) -> list[tuple[int, FgAbGroup]]:
    """Each certified degree with the direct sum of its antidiagonal."""
    parts: dict[int, list[FgAbGroup]] = {deg: [] for deg in certified_degrees(page)}
    for (p, q), grp in page.entries:
        if p + q in parts:
            parts[p + q].append(grp)
    return [(deg, direct_sum(*grps)) for deg, grps in parts.items()]


# ---------------------------------------------------------------------------
# Component enumeration


class _ComponentClass(_Record):
    """One isomorphism class of labelings of a chain of arrows: the homs
    of a representative and the entries they produce."""

    __slots__ = ("results", "homs", "_zeros", "_positions", "_parts", "_packs")
    _compared = ("results", "homs")

    def __init__(self, results: tuple[tuple[Position, FgAbGroup], ...],
                 homs: tuple[tuple[Position, GroupHom], ...]):
        self.results, self.homs = results, homs
        self._zeros: int | None = None  # ``zeros``
        self._positions = frozenset(pos for pos, _ in results)
        # ``_degree_parts`` of the results, by ``_Lens``, and of those a
        # later turn leaves untouched, by lens and the positions it drops
        self._parts: dict = {}
        self._packs: dict = {}  # ``_Flow.pack`` of the results, by flow

    def zeros(self, bit: Callable[[Position], int]) -> int:
        """The bits of the positions whose result is zero, live before the
        turn and not after it, by ``bit``, the bits of the table that
        holds the class (``EnumerationTable.bit``)."""
        if self._zeros is None:
            self._zeros = sum(bit(pos) for pos, grp in self.results if grp.is_trivial())
        return self._zeros

    def degree_parts(self, lens: _Lens, key_of) -> dict[int, _Part]:
        parts = self._parts.get(lens)
        if parts is None:
            parts = self._parts[lens] = _degree_parts(self.results, lens, key_of)
        return parts

    def left_parts(self, plan: _Plan, lens: _Lens, key_of) -> dict[int, _Part]:
        """``degree_parts`` of the results that a later ``plan``'s turn,
        whose lens is ``lens``, leaves untouched."""
        parts = self._parts.get(plan)
        if parts is None:
            key = lens, plan.dropped.intersection(self._positions)
            parts = self._parts.get(key)
            if parts is None:
                parts = self._parts[key] = _degree_parts(
                    [res for res in self.results if res[0] not in key[1]], lens, key_of)
            self._parts[plan] = parts
        return parts

    def pack(self, flow: _Flow) -> int:
        packed = self._packs.get(flow)
        if packed is None:
            packed = self._packs[flow] = flow.pack(self.results)
        return packed


# a group's isomorphism class as (free rank, sorted prime powers)
_Key = tuple[int, tuple[int, ...]]


def _group_key(grp: FgAbGroup) -> _Key:
    """The free rank and the sorted prime powers of the torsion: equal
    exactly for isomorphic groups, and cheap to add."""
    return grp.free_rank, tuple(sorted(p ** e for d in grp.torsion
                                       for p, e in _factorize(d).items()))


# a direct sum of entries on one antidiagonal, as the pruner reads it
# through a ``_Lens``: the packed free rank and d_p of the final entries,
# their (unsorted) prime powers, the packed free rank and d_p of the
# others, and whether the others are all zero
_Part = tuple[int, tuple[int, ...], int, bool]
_NO_PART: _Part = (0, (), 0, True)


class _Lens:
    """What one page turn's interval check reads of a group: whether its
    position is ``final``, and its free rank and d_p for each of the
    ``primes`` p (none on the last turn; see ``_turn_lens``), packed into
    one int (``packed``): the free rank in field 0 and d_p of
    ``primes[j - 1]`` in field j, each field ``width`` value bits and one
    guard bit above them; ``meet`` meets bounds so packed.  A field holds
    at most ``_WorstCase.top``, which ``width`` covers, so the sums over
    one antidiagonal stay inside their fields.  With no prime the int is
    the free rank itself.  A lens is compared by identity, one per
    distinct reading in a run (``EnumerationTable.lens``), so a class's
    parts are cached per lens at the cost of an id hash."""

    __slots__ = ("final", "primes", "width", "ones", "guards")

    def __init__(self, final: frozenset[Position], primes: tuple[int, ...], width: int):
        self.final, self.primes, self.width = final, primes, width
        # the free rank's field (all of the int when there is no other)
        self.ones = (1 << width) - 1 if primes else -1
        self.guards = sum(1 << j * (width + 1) + width for j in range(len(primes) + 1))

    def packed(self, key: _Key) -> int:
        """The free rank and d_p of the group whose ``_group_key`` is
        ``key``: d_p is the free rank plus the number of its prime powers
        that p divides."""
        free, powers = key
        return free + sum(free + sum(not q % p for q in powers) << j * (self.width + 1)
                          for j, p in enumerate(self.primes, 1))

    def meet(self, seen: _Bound | None, bound: _Bound) -> _Bound | None:
        """``_meet`` field by field, for bounds packed by this lens.
        Setting the guards of x and subtracting y leaves a field's guard
        set exactly where x >= y (no field borrows from the next), and
        those guards, less themselves shifted down by ``width``, mask the
        fields: so the max of the lower ends and the min of the upper
        ones take a few int operations, and lo <= hi leaves every guard
        set."""
        if seen is None:
            return bound
        if bound[2] is not None and seen[2] is not None:
            return seen if bound[2] == seen[2] else None
        guards, width = self.guards, self.width
        x, y = bound[0], seen[0]
        ge = (x | guards) - y & guards
        lo = y ^ (x ^ y) & ge - (ge >> width)
        x, y = bound[1], seen[1]
        ge = (x | guards) - y & guards
        hi = x ^ (x ^ y) & ge - (ge >> width)
        if (hi | guards) - lo & guards != guards:
            return None
        return lo, hi, bound[2] or seen[2]


def _degree_parts(entries: Iterable[tuple[Position, FgAbGroup]], lens: _Lens,
                  key_of) -> dict[int, _Part]:
    """The ``_Part`` of the entries on each antidiagonal degree p + q, read
    through ``lens``; ``key_of`` gives a group's ``_group_key``."""
    final, primes = lens.final, lens.primes
    parts: dict[int, _Part] = {}
    for pos, grp in entries:
        free, powers = key = key_of(grp)
        deg = pos[0] + pos[1]
        packed = lens.packed(key) if primes else free
        f, pw, slack, zero = parts.get(deg, _NO_PART)
        parts[deg] = ((f + packed, pw + powers, slack, zero) if pos in final
                        else (f, pw, slack + packed, zero and not free and not powers))
    return parts


class EnumerationTable:
    """The enumeration work of one run, each piece done once and shared
    by every solve given the table: hom spaces by (source, target,
    bound) with their per-hom invariants, vanishing masks by pair of
    spaces, component classes by normalized shape and by absolute
    component, the pruner's key of each group and its lenses.

    The table is the only store: ``cli.run`` makes one per run and a
    direct ``solve_floer`` call makes its own, so no enumeration state
    outlives the run that built it."""

    def __init__(self):
        self._spaces: dict[tuple[FgAbGroup, FgAbGroup, int], HomMatrixSpace] = {}
        self._masks: dict[tuple[HomMatrixSpace, HomMatrixSpace], list[int]] = {}
        self._shapes: dict[tuple, tuple[_ComponentClass, ...]] = {}
        self._placed: dict[tuple, tuple[_ComponentClass, ...]] = {}
        self._keys: dict[FgAbGroup, _Key] = {}
        self._lenses: dict[tuple[frozenset[Position], tuple[int, ...], int], _Lens] = {}
        self._bits: dict[Position, int] = {}

    def space(self, source: FgAbGroup, target: FgAbGroup, bound: int) -> HomMatrixSpace:
        key = (source, target, bound)
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = hom_matrix_space(source, target, bound)
        return space

    def key(self, grp: FgAbGroup) -> _Key:
        """``_group_key(grp)``, computed once per distinct group."""
        key = self._keys.get(grp)
        if key is None:
            key = self._keys[grp] = _group_key(grp)
        return key

    def lens(self, final: frozenset[Position], primes: tuple[int, ...], width: int) -> _Lens:
        """The one ``_Lens`` of this reading."""
        lens = self._lenses.get(key := (final, primes, width))
        if lens is None:
            lens = self._lenses[key] = _Lens(final, primes, width)
        return lens

    def masks(self, first: HomMatrixSpace, second: HomMatrixSpace) -> list[int]:
        """``_vanishing_masks`` of the two spaces: indexed by the homs g
        of ``second``, with bits over the homs f of ``first``."""
        key = (first, second)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = _vanishing_masks(first, second)
        return masks

    def classes(self, arrows: _Arrows,
                positions: tuple[Position, ...], groups: tuple[FgAbGroup, ...], bound: int,
                signature: tuple[Position, ...]) -> tuple[_ComponentClass, ...]:
        """``_component_classes`` of one component, at its absolute
        positions (``positions``, sorted, with their ``groups``); the
        positions left out of ``signature`` (next entry unknowable) stay
        out of the dedup signature.  Each shape is enumerated once:
        positions are shifted so the component starts at column 0, and
        the classes are shifted back once per component."""
        key = (arrows, groups, bound, signature)
        placed = self._placed.get(key)
        if placed is not None:
            return placed
        groups = tuple(zip(positions, groups))
        base_p = min(p for (p, _), _ in arrows)
        shift = lambda pos: (pos[0] - base_p, pos[1])
        unshift = lambda pos: (pos[0] + base_p, pos[1])
        shape = (tuple((shift(s), shift(t)) for s, t in arrows),
                 tuple((shift(pos), grp) for pos, grp in groups), bound,
                 tuple(map(shift, signature)))
        rel = self._shapes.get(shape)
        if rel is None:
            rel = self._shapes[shape] = _component_classes(self, *shape)
        placed = self._placed[key] = tuple(
            _ComponentClass(results=tuple((unshift(pos), grp) for pos, grp in cls.results),
                            homs=tuple((unshift(pos), h) for pos, h in cls.homs))
            for cls in rel)
        return placed

    def bit(self, pos: Position) -> int:
        """The bit of ``pos`` in the live sets of the run's solves: one
        per position, in the order they are first met."""
        bit = self._bits.get(pos)
        if bit is None:
            bit = self._bits[pos] = 1 << len(self._bits)
        return bit


def _component_classes(table: EnumerationTable,
                       arrows: _Arrows,
                       groups: tuple[tuple[Position, FgAbGroup], ...],
                       bound: int,
                       signature_positions: tuple[Position, ...]) -> tuple[_ComponentClass, ...]:
    """All labelings of a connected arrow chain by bounded matrices with
    vanishing consecutive composites, deduplicated by the resulting
    homology groups at ``signature_positions`` (positions whose next
    entry is unknowable are excluded by the caller).  Each call
    enumerates afresh; ``EnumerationTable.classes`` keeps the result
    per shape for the rest of the run.

    ``arrows`` is one chain in source order, as ``_components`` gives
    it: arrow k - 1 leaves arrow k's target.  A depth-first search
    places one hom per arrow in that order, the first from its whole
    space and arrow k only from the homs that compose to zero with the
    hom placed on arrow k - 1 (its vanishing mask, from ``table``).  It
    visits labelings in the lexicographic order of the full product, so
    each class keeps the same first representative.

    Sibling rule: under one prefix, a hom on arrow k is skipped when an
    earlier hom tried there has the same signature.  The signature is
    everything later work reads of the hom: its mask for the next arrow,
    and, at the signature positions it touches, the rank and freeness of
    its image and its cokernel, plus the hom itself wherever a torsion
    image sends its site to ``subquotient``.
    Equal signatures admit the same completions, and each completion
    gives the same homology under both homs, so every class the skipped
    hom reaches is reached under the earlier one by a labeling that is
    lexicographically smaller and visited first.  The skipped subtree
    therefore holds no first representative, and the classes, their
    representatives and their order are those of the full search.

    Homology ker(out) / im(in) at M comes from per-hom invariants that
    each hom space of ``table`` keeps for the whole run (see
    ``HomMatrixSpace``): coker(in) = M / im(in) (M at a chain start),
    and the rank r of im(out) with whether it is torsion-free (r = 0 at
    a chain end; see ``HomMatrixSpace.images``).  A free im(out) splits
    off M / im(in), leaving coker(in) with r fewer free generators,
    built once per distinct result; only a torsion image falls back to
    ``subquotient`` on the kernel lattice, memoized per position by the
    (incoming, outgoing) pair.
    """
    group_of = dict(groups)
    spaces = [table.space(group_of[s], group_of[t], bound) for s, t in arrows]
    incoming_idx = {t: i for i, (_, t) in enumerate(arrows)}
    outgoing_idx = {s: i for i, (s, _) in enumerate(arrows)}
    # constraint[k] (k >= 1): masks[h] has bit b set when hom b of arrow
    # k composes to zero with hom h of arrow k - 1
    constraint = [None] + [table.masks(spaces[k], spaces[k - 1]) for k in range(1, len(arrows))]
    sites = [(pos, incoming_idx.get(pos), outgoing_idx.get(pos), {})
             for pos in signature_positions]
    in_sites = set(signature_positions)
    # (source, target) of arrow k as sites, and whether the target's
    # outgoing map can have a torsion image, sending the hom on arrow k
    # to subquotient there
    touches = [(s in in_sites, t in in_sites,
                t in outgoing_idx and bool(spaces[outgoing_idx[t]].target.torsion))
               for s, t in arrows]
    interned: dict[FgAbGroup, FgAbGroup] = {}
    split: dict[tuple[int, tuple[int, ...]], FgAbGroup] = {}
    chosen = [0] * len(arrows)
    classes: dict[tuple, _ComponentClass] = {}

    def homology(pos, i, o, memo):
        rank, free = (0, True) if o is None else spaces[o].image(chosen[o])
        if free:
            coker = group_of[pos] if i is None else spaces[i].coker(chosen[i])
            key = (coker.free_rank - rank, coker.torsion)
            grp = split.get(key)
            if grp is None:
                grp = FgAbGroup(*key)
                grp = split[key] = interned.setdefault(grp, grp)
            return grp
        key = (-1 if i is None else chosen[i], chosen[o])
        grp = memo.get(key)
        if grp is None:
            inc = spaces[i][key[0]] if i is not None else None
            grp = subquotient(spaces[o].kernel(key[1]), inc, group_of[pos])
            # one object per distinct group: a memo holds an entry for
            # every surviving pair
            grp = memo[key] = interned.setdefault(grp, grp)
        return grp

    def sibling_ids(k: int) -> list[int]:
        """Per hom of arrow k, the first hom with its signature (see the
        sibling rule), from one zip over the signature's parts."""
        space = spaces[k]
        source_site, target_site, feeds_subquotient = touches[k]
        parts = constraint[k + 1:k + 2]  # the next arrow's mask, if any
        if source_site:
            images = space.images()
            parts.append(images if not space.target.torsion else
                         [img if img[1] else (img, h) for h, img in enumerate(images)])
        if target_site:
            parts.append(space.coker_ids())
            if feeds_subquotient:
                parts.append(range(len(space)))
        first: dict[tuple, int] = {}
        return list(map(first.setdefault, zip(*parts) if parts else repeat(()),
                        range(len(space))))

    sids = [sibling_ids(k) for k in range(len(arrows))]

    # pending[k]: homs of arrow k not yet tried under the current prefix,
    # in product order; tried[k]: the signatures already tried under it
    pending = [iter(range(len(spaces[0])))] + [iter(())] * (len(arrows) - 1)
    tried: list[set[int]] = [set() for _ in arrows]
    k = 0
    while k >= 0:
        h = next(pending[k], None)
        if h is None:
            k -= 1
            continue
        sid = sids[k][h]
        if sid in tried[k]:
            continue
        tried[k].add(sid)
        chosen[k] = h
        if k + 1 < len(arrows):
            k += 1
            pending[k] = _set_bits(constraint[k][h])
            tried[k].clear()
            continue
        key = tuple((site[0], homology(*site)) for site in sites)
        if key not in classes:
            labeling = [sp[h] for sp, h in zip(spaces, chosen)]
            classes[key] = _ComponentClass(
                results=key,
                homs=tuple((arrow[0], h) for arrow, h in zip(arrows, labeling)
                           if not h.is_zero()),
            )
    return tuple(classes.values())


def _vanishing_masks(first: HomMatrixSpace, second: HomMatrixSpace) -> list[int]:
    """For each hom g of ``second``, the bitmask of the homs f of
    ``first`` with g o f = 0.  Equal masks are one object.

    One kill table, each row value of ``second`` against each value of
    each column of ``first`` (``_orthogonal``), gives the masks (see the
    module docstring): the mask of g is the AND, over f's columns, of
    the polynomials (``_digit_polys``) of the values that all of g's
    rows kill.  It is built once per row class of g."""
    ranges = first.entries  # ranges[j][c]: the values of entry (j, c) of f
    columns = [tuple(product(*column)) for column in zip(*ranges)]
    orders = second.target.generator_orders()
    # kills[c][t]: each value of row t of g -> the values of column c of f it kills
    kills = [[dict(zip(values, _orthogonal(values, column, o)))
              for values, o in zip(second.rows, orders)] for column in columns]
    polys = _digit_polys(ranges)
    interned: dict[int, int] = {}
    placed: dict[tuple[int, int], int] = {}
    by_class = {}
    for rep in dict.fromkeys(second.row_class):
        rows = second.matrix(rep)
        mask = (1 << len(first)) - 1
        for c, ((offsets, others), column_kills) in enumerate(zip(polys, kills)):
            allowed = (1 << len(offsets)) - 1
            for value, row_kills in zip(rows, column_kills):
                allowed &= row_kills[value]
            poly = placed.get((c, allowed))
            if poly is None:
                poly = placed[c, allowed] = _place(others, allowed, offsets)
            mask &= poly
        by_class[rep] = interned.setdefault(mask, mask)
    return list(map(by_class.__getitem__, second.row_class))


def _digit_polys(ranges: tuple[tuple[tuple[int, ...], ...], ...]) -> list[tuple[list[int], int]]:
    """For each column of a matrix space whose entry (j, c) runs over
    ``ranges[j][c]`` (row-major, the last entry fastest): the offset in
    the space's index of each value of the column's entries, in product
    order, and the bit polynomial of the other entries, the sum of 2 to
    the offset of each of their values.  The matrices whose column takes
    a value in a set S are then the offsets of S times that polynomial;
    the digits are disjoint, so no two terms collide."""
    weights = {}
    weight = prod(len(values) for row in ranges for values in row)
    for j, row in enumerate(ranges):
        for c, values in enumerate(row):
            weight //= len(values)
            weights[j, c] = weight
    polys = []
    for column in range(len(ranges[0]) if ranges else 0):
        offsets, others = [0], 1
        for (j, c), w in weights.items():
            n = len(ranges[j][c])
            if c == column:
                offsets = [o + x * w for o in offsets for x in range(n)]
            else:
                others = _place(others, (1 << n) - 1, range(0, n * w, w))
        polys.append((offsets, others))
    return polys


def _place(unit: int, mask: int, offsets: Sequence[int]) -> int:
    """The sum of ``unit`` shifted by ``offsets[i]`` for each set bit i of
    ``mask``."""
    return sum(unit << offsets[i] for i in _set_bits(mask))


def _orthogonal(vectors: Sequence[tuple[int, ...]], others: Sequence[tuple[int, ...]],
                order: int) -> list[int]:
    """For each vector v of ``vectors``, the bitmask of the positions of
    the ``others`` w with v . w = 0 modulo ``order`` (0: exactly); all
    vectors have one length.  Modulo an order the test is a loop over
    the residues; exactly, it is ``_zero_dot_products``."""
    if order:
        residues = [tuple(x % order for x in w) for w in others]

        def kills(v):
            return sum(1 << b for b, w in enumerate(residues) if not sum(map(mul, v, w)) % order)
    else:
        kills = _zero_dot_products(others, max(map(abs, chain.from_iterable(vectors)), default=0))
    found = {v: kills(v) for v in set(vectors)}
    return list(map(found.__getitem__, vectors))


def _zero_dot_products(others: Sequence[tuple[int, ...]], top_v: int) -> Callable[[tuple], int]:
    """The test that maps a vector v, of entries at most ``top_v`` in
    absolute value, to the bitmask of the ``others`` w with v . w = 0.

    The ``others`` are packed into one int per coordinate, vector number
    b in lane b, so v's dot products with all of them at once are a few
    big-int multiply-adds.  Lanes are W bits wide, W the least multiple
    of 8 with n * G * C < 2^(W-1) and G < 2^(W-1), where n is the length
    and G and C are the largest absolute entries of the others and of v;
    a bias of 2^(W-1) per lane then keeps every lane in [0, 2^W), so no
    lane borrows from or carries into the next, and a lane equals the
    bias exactly when its dot product is 0.  The packed ints are built
    from the lanes' biased bytes.  The top byte of each lane holds its
    zero flag, and ``bytes.translate`` with ``int(..., 2)`` packs the
    flags back into one bit per other vector."""
    if not others:
        return lambda v: 0
    n = len(others[0])
    lanes = len(others)
    top = max(map(abs, chain.from_iterable(others)), default=0)
    width = 8 * (max(n * top * top_v, top).bit_length() // 8 + 1)
    lane_bytes = width // 8
    ones = int.from_bytes(b"\x01".ljust(lane_bytes, b"\x00") * lanes, "little")
    high = ones << (width - 1)  # the bias, and the top bit of every lane
    low = high - ones
    lane_of: dict[int, bytes] = {}  # an entry's biased lane bytes
    parts = [bytearray() for _ in range(n)]
    for w in others:
        for part, x in zip(parts, w):
            part += lane_of.get(x) or lane_of.setdefault(
                x, (x + (1 << (width - 1))).to_bytes(lane_bytes, "little"))
    packed = [int.from_bytes(part, "little") - high for part in parts]

    def kills(v):
        nonzero = (sum(map(mul, packed, v)) + high) ^ high
        flags = ((((nonzero & low) + low) | nonzero) & high) ^ high
        digits = flags.to_bytes(lanes * lane_bytes, "big")[::lane_bytes]
        return int(digits.translate(_FLAG_DIGITS), 2)

    return kills


# the top byte of a lane's zero flag (0x80 or 0) as a binary digit
_FLAG_DIGITS = bytes.maketrans(b"\x80\x00", b"10")
# a binary digit as a byte that is true exactly for "1"
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first, read off one
    ``bin`` scan: taking bits off one at a time (``mask & -mask``) costs
    time linear in the mask for each bit."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_DIGITS))


def _components(slots: list[tuple[Position, Position]]) -> list[list[tuple[Position, Position]]]:
    """Connected components of one page's arrows under shared positions.
    Every position has at most one arrow out and one in, so each
    component is a chain, walked from its last target back along the
    arrows into each position: its arrows sorted by source, each arrow's
    target the source of the arrow before it, the order
    ``_component_classes`` reads.  Components come in the order of their
    last targets."""
    into = {t: s for s, t in slots}
    chains = []
    for end in sorted(into.keys() - into.values()):
        chain, pos = [], end
        while pos in into:
            chain.append((into[pos], pos))
            pos = into[pos]
        chains.append(chain)
    return chains


# ---------------------------------------------------------------------------
# The branch solver


# one page turn of a branch: the page index and its nonzero differentials
# by source position, sorted
_Turn = tuple[int, tuple[tuple[Position, GroupHom], ...]]


class BranchLeaf(_Record):
    """One consistent outcome: the 2-periodic abutment as its groups in
    even and odd degrees, the certified degree table behind it, and the
    differentials of every page turn on the way to the stable page
    (turns whose maps all vanish included)."""

    __slots__ = ("hf_even", "hf_odd", "certified", "turns", "stable_page")

    def __init__(self, hf_even: FgAbGroup, hf_odd: FgAbGroup,
                 certified: tuple[tuple[int, FgAbGroup], ...], turns: tuple[_Turn, ...],
                 stable_page: int):
        self.hf_even, self.hf_odd, self.certified = hf_even, hf_odd, certified
        self.turns, self.stable_page = turns, stable_page


class BranchTree(_Record):
    """Exhaustive solve result: all consistent Floer homology outcomes
    under the entry bound, deduplicated by abutment in degrees 0, 1."""

    __slots__ = ("column_step", "entry_bound", "row_max", "leaves", "bound_may_truncate")

    def __init__(self, column_step: int, entry_bound: int, row_max: int,
                 leaves: tuple[BranchLeaf, ...], bound_may_truncate: bool):
        self.column_step, self.entry_bound, self.row_max = column_step, entry_bound, row_max
        self.leaves, self.bound_may_truncate = leaves, bound_may_truncate


def _fold_parity(values: Iterable[tuple[int, FgAbGroup]]):
    """Fold (degree, group) values into the (even, odd) slots of a
    2-periodic abutment; None as soon as two values of one parity differ."""
    out = [None, None]
    for deg, grp in values:
        seen = out[deg % 2]
        if seen is None:
            out[deg % 2] = grp
        elif seen != grp:
            return None
    return tuple(out)


# what a turn knows of a degree's final value: its free rank lies in
# [lo, hi], and key is its exact ``_group_key`` when every entry on the
# degree's antidiagonal is final (None otherwise); on a turn that is not
# the last, lo and hi pack d_p's bounds too, each field as its
# ``_Lens`` says
_Bound = tuple[int, int, _Key | None]


def _meet(seen: _Bound | None, bound: _Bound) -> _Bound | None:
    """The common value of one parity narrowed by one more degree's
    bound; None when no group satisfies both."""
    if seen is None:
        return bound
    if bound[2] is not None and seen[2] is not None:
        return seen if bound[2] == seen[2] else None
    lo, hi = max(bound[0], seen[0]), min(bound[1], seen[1])
    return (lo, hi, bound[2] or seen[2]) if lo <= hi else None


class _WorstCase:
    """The page run from the first page in which every live position
    stays live (see the module docstring for what it bounds)."""

    __slots__ = ("first", "arrows", "degrees", "final", "top", "_bit", "_bits", "_ends",
                 "_reach", "_flows", "_plans", "_next")

    def __init__(self, first: BigradedPage, arrows: dict[int, _Arrows], degrees: frozenset[int],
                 final: dict[int, frozenset[Position]], top: int, bit: Callable[[Position], int]):
        self.first = first  # the run's first page, for its geometry
        self.arrows = arrows  # each turn's arrows, by page index
        self.degrees = degrees  # certified on the run's stable page
        # by page index: the window positions no arrow of a later turn
        # touches, whose entries are final once that turn is taken
        self.final = final
        # an upper bound on d_p, for every prime p, and so on the free
        # rank, of any antidiagonal of any page
        self.top = top
        self._bit = bit
        # ``bits`` and per turn each arrow with the bits of its window ends
        # (``_carried``), built when a plan is first carried down
        self._bits: dict[Position, int] | None = None
        self._ends: dict[int, tuple[tuple[tuple[Position, Position], int], ...]] = {}
        self._reach: dict[int, int] = {}  # the bits of the turns from a page index on
        # the lookahead of each turn that is not the last, by page index
        # and the unresolved set after the turn
        self._flows: dict = {}
        self._plans: dict = {}  # the solve's plans, by what ``_Plan`` reads
        self._next: dict = {}  # the same plans, by what ``plan`` reads

    @property
    def bits(self) -> dict[Position, int]:
        """The bit (``EnumerationTable.bit``) of each window end of a run
        arrow."""
        return self._carried()[0]

    def _carried(self) -> tuple[dict[Position, int], dict]:
        if self._bits is None:
            in_window, bit = self.first.in_window, self._bit
            self._bits = {pos: bit(pos) for turn in self.arrows.values() for arrow in turn
                          for pos in arrow if in_window(pos[0])}
            self._ends = {r: tuple((arrow, sum(self._bits.get(pos, 0) for pos in arrow))
                                   for arrow in turn) for r, turn in self.arrows.items()}
        return self._bits, self._ends

    def live(self, page: BigradedPage) -> int:
        """The bits of the positions that are live on ``page``: entries or
        unresolved."""
        return sum(bit for pos, bit in self.bits.items()
                   if pos in page._by_position or pos in page.unresolved)

    def first_plan(self) -> _Plan | None:
        """The plan of the first page's turn, None when it is stable: the
        run starts there, so the turn is the run's first, with all its
        arrows."""
        if not self.arrows:
            return None
        r = min(self.arrows)
        return self._plan(r, self.arrows[r], self.first.unresolved)

    def plan(self, after: int, live: int, unresolved: frozenset[Position]) -> _Plan | None:
        """The plan of the turn of a page of index ``after`` whose live
        bits are ``live`` and whose unresolved set is ``unresolved``; None
        when the page is stable.  A branch's arrows are among the run's,
        and a run arrow is the page's when its window ends are live, so the
        turn is the run's first from ``after`` on that keeps an arrow.
        Plans are found by the live bits of the turns from ``after`` on,
        so no page is scanned: a turn's positions are live on the next
        page unless one of its chosen classes zeroes them."""
        _, turns = self._carried()
        reach = self._reach.get(after)
        if reach is None:
            reach = self._reach[after] = reduce(or_, (bits for r, ends in turns.items()
                                                      if r >= after for _, bits in ends), 0)
        key = (after, live & reach, unresolved)
        if key not in self._next:
            self._next[key] = None
            for r, ends in turns.items():
                if r >= after and (kept := tuple(arrow for arrow, bits in ends
                                                 if live & bits == bits)):
                    self._next[key] = self._plan(r, kept, unresolved)
                    break
        return self._next[key]

    def _plan(self, r: int, arrows: _Arrows, unresolved: frozenset[Position]) -> _Plan:
        """The one plan of turn r with these arrows and unresolved set."""
        plan = self._plans.get(key := (r, arrows, unresolved))
        if plan is None:
            plan = self._plans[key] = _Plan(self, *key)
        return plan

    def flow(self, r: int, unresolved: frozenset[Position]) -> _Flow | None:
        """The lookahead after turn r, when the next unresolved set is
        ``unresolved``; None on the last turn."""
        if r == max(self.arrows):
            return None
        flow = self._flows.get((r, unresolved))
        if flow is None:
            flow = self._flows[r, unresolved] = _Flow(
                [arrow for turn, arrows in self.arrows.items() if turn > r for arrow in arrows],
                lambda pos: self.first.in_window(pos[0]) and pos not in unresolved,
                self.degrees, self.top)
        return flow


def _worst_case_run(page: BigradedPage, table: EnumerationTable | None = None) -> _WorstCase:
    """The worst-case run from ``page`` (a first page), and each window
    position's last touch: the last page index whose arrows have it as
    an endpoint; live sets take the bits of ``table``'s positions."""
    # later entries are subquotients of the first page's, d_p of a
    # subquotient is at most d_p of the group, which is at most its
    # generator count, and an antidiagonal meets each row once: so a
    # column's generator count bounds every antidiagonal's d_p
    top = sum(grp.generator_count() for (p, _), grp in page.entries if p == 0)
    first, arrows = page, {}
    last_touch: dict[Position, int] = {}
    while (found := _first_active_page(page)) is not None:
        r, arrows[r] = found
        last_touch.update((pos, r) for arrow in arrows[r] for pos in arrow)
        gone = _slots_and_unresolved(arrows[r], page.known)[1]
        page = page.turned(r + 1, page.unresolved | gone,
                           [entry for entry in page.entries if entry[0] not in gone])
    grid = [(p, q) for p in page.window_columns() for q in range(page.row_max + 1)]
    final = {r: frozenset(pos for pos in grid if last_touch.get(pos, 0) <= r) for r in arrows}
    return _WorstCase(first, arrows, frozenset(certified_degrees(page)), final, top,
                      (table or EnumerationTable()).bit)


def _smallest_window(s_homology: GradedGroup, column_step: int) -> int:
    """The smallest window whose first page's worst-case run certifies
    degrees 0 and 1.  Unresolved positions start outside the window, and
    page r moves them at most r columns inward, so a window reaching the
    top row plus every page index that can carry a differential always
    certifies them: that bounds the search."""
    top = max(s_homology.support())
    reach = top + 1 + sum(range(column_step, top + 2, column_step))
    limit = max(2, -(-reach // column_step))
    for span in range(2, limit):
        if {0, 1} <= _worst_case_run(build_e1(s_homology, column_step, span)).degrees:
            return span
    return limit


class _Flow:
    """The rank flow (see the module docstring) of the later ``arrows``
    of a turn that is not the last: one k >= 0 per arrow, the k at a
    ``known`` position summing to at most its free rank on the next page.
    Positions that are not known cap nothing; the certified ``degrees``,
    both parities among them, hold none of them.

    A page enters as one int (``pack``): the free rank of each capped
    position and the summed free rank of the other entries of each
    certified degree, in fields of ``width`` bits, wide enough for
    ``top``, a bound on any antidiagonal's d_p and so on its free rank
    (``_WorstCase.top``); a ``_Lens`` packs d_p in fields of that width
    on the turns that have a flow.  The fields
    are disjoint, so a page's int is the sum of the ints of its parts.
    ``values`` gives every (even, odd) pair of common free ranks that
    some choice of k leaves, memoized per int.  Every arrow joins a
    degree d to d - 1, so the k are chosen degree by degree from the top,
    keeping the set of distinct states (free ranks left, even value, odd
    value): a degree is settled once the arrows out of it are chosen,
    and no product over all arrows is formed."""

    __slots__ = ("width", "nodes", "bases", "steps", "_values", "_distinct")

    def __init__(self, arrows: Sequence[tuple[Position, Position]],
                 known: Callable[[Position], bool], degrees: Iterable[int], top: int):
        nodes = sorted({pos for arrow in arrows for pos in arrow if known(pos)})
        self.width = w = max(top.bit_length(), 1)
        self.nodes = {pos: i for i, pos in enumerate(nodes)}  # capped positions
        self.bases = {deg: (len(nodes) + j) * w for j, deg in enumerate(sorted(degrees))}
        # per degree, from the top: the arrows out of it, each as the
        # indices of its capped ends; its capped positions, and a 0/1 mask
        # that clears them once settled (None when it has none); its field
        arrows = [(sum(s), ends) for s, t in arrows
                  if (ends := tuple(self.nodes[pos] for pos in (s, t) if pos in self.nodes))]
        steps = []
        for deg in sorted({*(deg for deg, _ in arrows), *map(sum, nodes), *self.bases},
                          reverse=True):
            settled = tuple(i for i, pos in enumerate(nodes) if sum(pos) == deg)
            keep = tuple(int(i not in settled) for i in range(len(nodes))) if settled else None
            steps.append((tuple(ends for source, ends in arrows if source == deg), settled, keep,
                          self.bases.get(deg), deg % 2))
        self.steps = tuple(steps)
        self._values: dict[int, frozenset[tuple[int, int]]] = {}
        self._distinct: dict[frozenset, frozenset] = {}

    def pack(self, entries: Iterable[tuple[Position, FgAbGroup]]) -> int:
        """The int of known entries: a capped position's free rank in its
        field, any other on a certified degree added to the degree's."""
        packed = 0
        for pos, grp in entries:
            shift = self.nodes.get(pos)
            shift = self.bases.get(pos[0] + pos[1]) if shift is None else shift * self.width
            if shift is not None:
                packed += grp.free_rank << shift
        return packed

    def values(self, packed: int) -> frozenset[tuple[int, int]]:
        """The (even, odd) common free ranks the later turns can leave."""
        values = self._values.get(packed)
        if values is None:
            values = self._solve(packed)
            # one object per distinct set: most pages share a few
            values = self._values[packed] = self._distinct.setdefault(values, values)
        return values

    def _solve(self, packed: int) -> frozenset[tuple[int, int]]:
        w, ones = self.width, (1 << self.width) - 1
        # (free rank left at each capped position, (even, odd) value or None)
        states = {(tuple(packed >> (i * w) & ones for i in range(len(self.nodes))), (None, None))}
        for arrows, settled, keep, base, parity in self.steps:
            for ends in arrows:
                grown = set()
                for left, values in states:
                    grown.add((left, values))
                    for k in range(1, min(map(left.__getitem__, ends)) + 1):
                        cut = list(left)
                        for i in ends:
                            cut[i] -= k
                        grown.add((tuple(cut), values))
                states = grown
            done = set()
            for left, values in states:
                if base is not None:
                    value = (packed >> base & ones) + sum(map(left.__getitem__, settled))
                    if values[parity] is None:
                        values = (value, values[1]) if parity == 0 else (values[0], value)
                    elif values[parity] != value:
                        continue
                done.add((left if keep is None else tuple(map(mul, left, keep)), values))
            states = done
        return frozenset(values for _, values in states)


class _Plan:
    """The plan of turn r of the solve's worst-case ``run`` on a page
    whose unresolved set is ``unresolved``, where ``arrows`` are the run
    arrows of page r whose window ends are live (``_WorstCase.plan``):
    built once per turn, surviving run arrows and unresolved set, and
    shared by every branch that has them."""

    __slots__ = ("r", "comps", "unresolved", "dropped", "final", "flow", "checks", "reads",
                 "settled")

    def __init__(self, run: _WorstCase, r: int, arrows: _Arrows, unresolved: frozenset[Position]):
        self.r = r  # the page of the turn
        slots, newly_unresolved = _slots_and_unresolved(
            arrows, lambda pos: run.first.in_window(pos[0]) and pos not in unresolved)
        self.unresolved = unresolved = unresolved | newly_unresolved  # of the next page
        # per component: its arrows, its positions (sorted) and those
        # whose next entry is known (its signature)
        comps = []
        reach: dict[int, list[int]] = {}  # degree -> the components with an entry on it
        for i, comp in enumerate(_components(slots)):
            positions = sorted({pos for arrow in comp for pos in arrow})
            signature = tuple(pos for pos in positions if pos not in unresolved)
            comps.append((tuple(comp), tuple(positions), signature))
            for deg in sorted({sum(pos) for pos in signature}):
                if deg in run.degrees:
                    reach.setdefault(deg, []).append(i)
        self.comps = tuple(comps)
        # touched or next unresolved
        self.dropped = unresolved.union(*(positions for _, positions, _ in comps))
        self.final = run.final[r]  # the run's final positions after r
        # the rank-flow lookahead over the later turns; None on the last
        # turn, the one no worst-case arrow comes after
        self.flow = run.flow(r, unresolved)
        # the interval check's skeleton: checks[i + 1] holds each degree
        # whose last component is i (checks[0]: no component reaches it),
        # with the components that have an entry on its antidiagonal
        checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(len(comps) + 1)]
        for deg in sorted(run.degrees):
            at = tuple(reach.get(deg, ()))
            checks[at[-1] + 1 if at else 0].append((deg, at))
        self.checks = tuple(map(tuple, checks))
        # per component i: the (degree, earlier component) pairs its check
        # reads (the last component on each of its degrees is i itself)
        self.reads = tuple(tuple((deg, c) for deg, at in checks for c in at[:-1])
                           for checks in self.checks[1:])
        # per entry of checks, on a turn that is not the last: the parities
        # whose last degree it bounds.  After that only the flow reads
        # their bounds, and only the free ranks, so the check drops their
        # keys and d_p bounds, and states that differ only there are one
        last = {deg % 2: k for k, degrees in enumerate(self.checks) for deg, _ in degrees}
        self.settled = tuple(tuple(e for e in (0, 1) if self.flow is not None and last[e] == k)
                             for k in range(len(self.checks)))

    def kept_at(self, parts: dict[int, _Part]) -> tuple[tuple[_Part, ...], ...]:
        """The ``parts`` of the untouched entries on each entry of
        ``checks``: what the interval check reads of them."""
        return tuple(tuple(parts.get(deg, _NO_PART) for deg, _ in degrees)
                     for degrees in self.checks)


def solve_floer(s_homology: GradedGroup, column_step: int,
                constraints: tuple[tuple[int, FgAbGroup], ...] = (),
                entry_bound: int = 4, col_span: int = 2,
                table: EnumerationTable | None = None) -> BranchTree:
    """Enumerate every spectral-sequence outcome consistent with
    2-periodicity of the abutment and any pinned degrees.

    constraints pins specific abutment degrees: (degree, group) pairs
    are checked against the folded value at degree mod 2.  ``table``
    holds the enumeration work (hom spaces, per-hom invariants and
    component classes) shared with the other solves of a run; without
    one the solve builds its own, which is dropped when it returns.

    Raises ``WindowError``, naming the smallest window that can, before
    any class is enumerated when the window cannot certify degrees 0
    and 1.
    """
    root = build_e1(s_homology, column_step, col_span)
    if table is None:
        table = EnumerationTable()
    run = _worst_case_run(root, table)
    if not {0, 1} <= run.degrees:
        raise WindowError(f"window too small to certify abutment degrees 0 and 1 "
                          f"(rows 0..{root.row_max}, column step {column_step}); "
                          f"the smallest window that can is "
                          f"{_smallest_window(s_homology, column_step)}")
    pins = tuple(constraints)
    # the pins folded once per solve, each parity's as its ``_group_key``,
    # from which the interval check states its exact bound (None when two
    # pins of one parity differ, so that no branch agrees with them)
    pinned = _fold_parity(pins)
    if pinned is not None:
        pinned = tuple(None if grp is None else table.key(grp) for grp in pinned)
    # first leaf per (HF_even, HF_odd), in search order
    leaves: dict[tuple[FgAbGroup, FgAbGroup], BranchLeaf] = {}
    found: set[tuple[_Key, _Key]] = set()  # the leaves' keys as the pruner states them
    truncation = False

    def finish(page: BigradedPage, turns: list[_Turn]) -> None:
        certified = _certified_sums(page)
        key = _fold_parity(chain(pins, certified))
        if key is not None and key not in leaves:
            found.add((table.key(key[0]), table.key(key[1])))
            leaves[key] = BranchLeaf(
                hf_even=key[0], hf_odd=key[1], certified=tuple(certified), turns=tuple(turns),
                stable_page=page.page_index)

    # the memo of each last turn's search, by plan and lens, shared by every
    # branch that reaches it without a page
    memos: dict[tuple[_Plan, _Lens], dict] = {}

    def explore(page: BigradedPage, live: int | None, plan: _Plan, turns: list[_Turn]) -> None:
        # ``live``: the page's live bits (``_WorstCase.bits``), carried down
        # to every page but the first
        nonlocal truncation
        if not truncation:
            truncation = any(bound_may_truncate(page.entry(*s), page.entry(*t), entry_bound)
                             for arrows, _, _ in plan.comps for s, t in arrows)
        if pinned is None:  # clashing pins: the first page notes truncation, no branch survives
            return
        # the next page's entries that no component touches; each branch
        # adds the homology its chosen classes computed
        # (lists, not tuples: their lengths vary from branch to branch, and
        # freed tuples stay cached per length)
        kept = [entry for entry in page.entries if entry[0] not in plan.dropped]
        entry = page._by_position.__getitem__
        class_lists = [table.classes(arrows, positions, tuple(map(entry, positions)),
                                     entry_bound, signature)
                       for arrows, positions, signature in plan.comps]
        lens = _turn_lens(table, plan, kept, class_lists, pinned)
        kept_parts = plan.kept_at(_degree_parts(kept, lens, table.key))
        kept_pack = plan.flow.pack(kept) if plan.flow is not None else 0
        memo: dict = {}  # this page's, as a built page's turn has its own kept entries
        state = _start_state(plan, lens, table.key, kept_parts, kept_pack, pinned, memo)
        # on the last turn each bound is exact, so once both parities have
        # one, the branch's abutment is fixed: a leaf already found cuts it
        cut = found if plan.flow is None else ()
        if state is None or _is_cut(state, cut):
            return
        lasts: dict[_Plan, _LastTurn] = {}  # the last turns after this one
        if live is None and plan.flow is not None:
            live = run.live(page)
        bit = table.bit
        for chosen in _turn_combinations(plan, lens, table.key, class_lists, kept_parts,
                                         kept_pack, state, memo, cut):
            live_next, nxt = live, None
            if plan.flow is not None:  # a turn comes after this one
                for cls in chosen:
                    live_next &= ~cls.zeros(bit)
                nxt = run.plan(plan.r + 1, live_next, plan.unresolved)
            if nxt is None or nxt.flow is not None:
                page_next = page.turned(plan.r + 1, plan.unresolved,
                                        kept + [res for cls in chosen for res in cls.results])
                if nxt is None:
                    finish(page_next, turns + [_turn(plan.r, chosen)])
                else:
                    explore(page_next, live_next, nxt, turns + [_turn(plan.r, chosen)])
                continue
            # the last turn is decided without building the branch's page
            last = lasts.get(nxt)
            if last is None:
                last = lasts[nxt] = _LastTurn(table, plan, nxt, kept, entry, entry_bound, pinned,
                                              memos)
            parts = _CarriedParts(last, chosen)
            if not truncation:
                truncation = last.truncates(chosen)
            state = _start_state(nxt, last.lens, table.key, parts, 0, pinned, last.memo)
            if state is None or _is_cut(state, found):
                continue
            for chosen_last in _turn_combinations(nxt, last.lens, table.key,
                                                  last.class_lists(chosen), parts, 0, state,
                                                  last.memo, found):
                entries = [res for res in chain(kept, *(cls.results for cls in chosen))
                           if res[0] not in nxt.dropped]
                entries += [res for cls in chosen_last for res in cls.results]
                finish(page.turned(nxt.r + 1, nxt.unresolved, entries),
                       turns + [_turn(plan.r, chosen), _turn(nxt.r, chosen_last)])

    plan = run.first_plan()
    if plan is None:
        finish(root, [])
    else:
        explore(root, None, plan, [])
    ordered = tuple(sorted(leaves.values(), key=lambda lf: (str(lf.hf_even), str(lf.hf_odd))))
    return BranchTree(
        column_step=column_step,
        entry_bound=entry_bound,
        row_max=root.row_max,
        leaves=ordered,
        bound_may_truncate=truncation,
    )


class _LastTurn:
    """The ``last`` turn after ``plan``'s turn of a page, decided for each
    branch the page's search keeps without building the branch's page.
    The branch's next entries are the page's ``kept`` entries (those no
    component of ``plan`` touches) and its chosen classes' results, so
    what the last turn reads of them is worked out here once per page
    and last turn, and per branch only looked up or summed: its
    components' entries, from ``entry`` or a class's results, and the
    parts of the entries it leaves untouched, kept's and each class's,
    cached per class by lens and the positions the last turn drops
    (``_CarriedParts``).  Its search shares ``memos`` with every branch
    that has the plan."""

    __slots__ = ("table", "last", "entry", "entry_bound", "lens", "memo", "base", "carries",
                 "sources", "_lists")

    def __init__(self, table: EnumerationTable, plan: _Plan, last: _Plan,
                 kept: list[tuple[Position, FgAbGroup]], entry: Callable[[Position], FgAbGroup],
                 entry_bound: int, pinned: tuple[_Key | None, _Key | None],
                 memos: dict[tuple[_Plan, _Lens], dict]):
        self.table, self.last, self.entry, self.entry_bound = table, last, entry, entry_bound
        # a last turn's lens reads neither entries nor classes
        self.lens = lens = _turn_lens(table, last, [], [], pinned)
        self.memo = memos.setdefault((last, lens), {})
        # ``_Plan.kept_at`` of the kept entries the last turn leaves untouched
        self.base = last.kept_at(_degree_parts(
            [entry for entry in kept if entry[0] not in last.dropped], lens, table.key))
        # per entry of the last turn's checks, each component j of plan with
        # results the last turn leaves untouched on that entry's degrees,
        # with the (i, degree i) of those degrees
        left = [{sum(pos) for pos in signature if pos not in last.dropped}
                for _, _, signature in plan.comps]
        self.carries = tuple(
            tuple((j, at) for j, degrees_left in enumerate(left)
                  if (at := tuple((i, deg) for i, (deg, _) in enumerate(degrees)
                                  if deg in degrees_left)))
            for degrees in last.checks)
        # per component of the last turn: the components of plan whose
        # results lie on it, and where each of its positions' entries comes
        # from: (j, i), result i of component j's class, or None, a kept one
        at = {pos: (j, i) for j, (_, _, signature) in enumerate(plan.comps)
              for i, pos in enumerate(signature)}
        self.sources = tuple((tuple(sorted({src[0] for src in comp if src})), comp)
                             for comp in (tuple(map(at.get, positions))
                                          for _, positions, _ in last.comps))
        self._lists: dict[tuple, tuple[_ComponentClass, ...]] = {}  # by what a list reads

    def groups(self, chosen: list[_ComponentClass], k: int) -> tuple[FgAbGroup, ...]:
        """The entries of the last turn's component k after ``chosen``."""
        return tuple(self.entry(pos) if src is None else chosen[src[0]].results[src[1]][1]
                     for pos, src in zip(self.last.comps[k][1], self.sources[k][1]))

    def truncates(self, chosen: list[_ComponentClass]) -> bool:
        """Whether the bound may truncate a hom space of the last turn."""
        for k, (arrows, positions, _) in enumerate(self.last.comps):
            at = dict(zip(positions, self.groups(chosen, k)))
            if any(bound_may_truncate(at[s], at[t], self.entry_bound) for s, t in arrows):
                return True
        return False

    def class_lists(self, chosen: list[_ComponentClass]) -> list[tuple[_ComponentClass, ...]]:
        """The class lists of the last turn's components after
        ``chosen``, each by the classes whose results it reads."""
        lists = []
        for k, (arrows, positions, signature) in enumerate(self.last.comps):
            key = (k, *map(id, map(chosen.__getitem__, self.sources[k][0])))
            classes = self._lists.get(key)
            if classes is None:
                classes = self._lists[key] = self.table.classes(
                    arrows, positions, self.groups(chosen, k), self.entry_bound, signature)
            lists.append(classes)
        return lists


class _CarriedParts(dict):
    """``_Plan.kept_at`` of a last turn after ``chosen`` (``_LastTurn``),
    one entry of its checks at a time as the search first reads it: the
    untouched kept entries' parts plus the parts of the chosen classes'
    results that the last turn leaves untouched."""

    __slots__ = ("turn", "chosen")

    def __init__(self, turn: _LastTurn, chosen: list[_ComponentClass]):
        self.turn, self.chosen = turn, chosen

    def __missing__(self, k: int) -> tuple[_Part, ...]:
        turn, chosen = self.turn, self.chosen
        last, lens, key_of = turn.last, turn.lens, turn.table.key
        parts = list(turn.base[k])
        for j, at in turn.carries[k]:
            left = chosen[j].left_parts(last, lens, key_of)
            for i, deg in at:
                lo, powers, slack, zero = parts[i]
                f, pw, sl, z = left[deg]
                parts[i] = (lo + f, powers + pw, slack + sl, zero and z)
        parts = self[k] = tuple(parts)
        return parts


def _turn(r: int, chosen: list[_ComponentClass]) -> _Turn:
    """The turn of page r that ``chosen`` labels: its nonzero
    differentials by source position."""
    return r, tuple(sorted(hom for cls in chosen for hom in cls.homs))


def _turn_lens(table: EnumerationTable, plan: _Plan, kept: list[tuple[Position, FgAbGroup]],
               class_lists: list[tuple[_ComponentClass, ...]],
               pinned: tuple[_Key | None, _Key | None]) -> _Lens:
    """The ``_Lens`` of one page turn: ``plan.final``, and on a turn that
    is not the last the primes that divide a torsion order among the
    ``kept`` entries, the results of the classes in ``class_lists`` and
    the ``pinned`` keys, in fields of the flow's width.  For any other
    prime p every entry's d_p is its free rank, so d_p's bound would be
    the free rank's.  The last turn reads no prime: every entry there is
    final, so every bound is an exact key, which fixes each d_p."""
    if plan.flow is None:
        return table.lens(plan.final, (), 0)
    # every such prime divides a group's last invariant factor
    entries = chain(kept, *(cls.results for classes in class_lists for cls in classes))
    exponent = lcm(*(grp.torsion[-1] for _, grp in entries if grp.torsion),
                   *(lcm(*key[1]) for key in pinned if key is not None))
    return table.lens(plan.final, tuple(sorted(_factorize(exponent))), plan.flow.width)


def _is_cut(state: tuple[_Bound | None, _Bound | None], cut) -> bool:
    """Whether ``state`` has exact keys for both parities that are in
    ``cut``."""
    even, odd = state
    return bool(even and odd and (even[2], odd[2]) in cut)


def _start_state(plan: _Plan, lens: _Lens, key_of, kept_parts: Sequence[tuple[_Part, ...]],
                 kept_pack: int, pinned: tuple[_Key | None, _Key | None], memo: dict):
    """``check(-1, [], pinned)`` of ``_interval_check``: besides the plan,
    the lens and the pins it reads only the untouched parts on
    ``plan.checks[0]`` and, on a turn with no component, their
    ``_Flow.pack``, so it is worked out once per distinct such input in
    ``memo``, the turn's (see ``_turn_combinations``)."""
    start = memo.get(key := (-1, kept_parts[0], kept_pack))
    if start is None:
        check = _interval_check(plan, lens, key_of, kept_parts, kept_pack)
        start = memo[key] = (check(-1, [], pinned),)
    return start[0]


def _turn_combinations(plan: _Plan, lens: _Lens, key_of,
                       class_lists: list[tuple[_ComponentClass, ...]],
                       kept_parts: Sequence[tuple[_Part, ...]], kept_pack: int,
                       state: tuple[_Bound | None, _Bound | None], memo: dict, cut):
    """The combinations of one class per component of ``plan``'s turn
    that ``_interval_check`` keeps at every prefix, depth first in
    product order, from the start ``state`` (``_start_state``).
    ``kept_parts[k]`` holds the parts of the next page's entries that no
    component touches on the degrees of ``plan.checks[k]``
    (``_Plan.kept_at``), ``kept_pack`` their ``_Flow.pack`` and ``lens``
    is the turn's (``_turn_lens``); a prefix whose state has exact keys
    for both parities that are in ``cut`` is cut too, read as the prefix
    is entered.

    A check reads, besides the class, only its component i and that
    component's class list, the state, the untouched parts and the
    ``_Part`` of each placed class on the degrees ``plan.checks[i + 1]``
    bounds (``plan.reads[i]``) and, on the last component of a turn that
    is not the last, the summed ``_Flow.pack``; everything else it reads
    is fixed by the plan and the lens.  So a DFS node's kept children are
    worked out once per distinct such input, in ``memo``, which may
    serve every branch with that plan and lens (the solve shares a last
    turn's), and the search visits the same prefixes, in the same order,
    as it would checking each class.

    The search keeps one stack of sibling iterators, as
    ``_component_classes`` does, so a turn with many components does not
    nest a generator per component.  It yields its own ``chosen`` list,
    which changes once the caller asks for the next combination."""
    chosen: list[_ComponentClass] = []
    if not class_lists:
        yield chosen
        return
    flow, reads, last = plan.flow, plan.reads, len(class_lists) - 1
    check = None  # the turn's ``_interval_check``, built at the first miss
    # per placed class: its ``degree_parts`` and, on a turn that is not the
    # last, the summed ``_Flow.pack`` of the untouched entries and the
    # classes placed so far
    parts: list[dict[int, _Part]] = []
    packs = [kept_pack]

    def children(state):
        # the kept children of the node chosen, whose state is ``state``
        nonlocal check
        i = len(chosen)
        classes = class_lists[i]
        key = (i, id(classes), state, kept_parts[i + 1])
        if reads[i]:
            key += tuple(parts[c].get(deg, _NO_PART) for deg, c in reads[i])
        if i == last and flow is not None:
            key += (packs[i],)
        kids = memo.get(key)
        if kids is None:
            if check is None:
                check = _interval_check(plan, lens, key_of, kept_parts, kept_pack)
            # one object per distinct next state, keyed by itself (a pair
            # of bounds, never a node's key)
            kids = memo[key] = tuple((cls, memo.setdefault(nxt, nxt)) for cls in classes
                                     if (nxt := check(i, [*chosen, cls], state)) is not None)
        return iter(kids)

    # pending[k]: the kept children of component k not yet tried under chosen[:k]
    pending = [children(state)]
    while pending:
        for cls, state in pending[-1]:
            even, odd = state
            if even and odd and (even[2], odd[2]) in cut:
                continue
            chosen.append(cls)
            if len(chosen) <= last:
                parts.append(cls.degree_parts(lens, key_of))
                if flow is not None:
                    packs.append(packs[-1] + cls.pack(flow))
                pending.append(children(state))
                break
            yield chosen
            chosen.pop()
        else:
            pending.pop()
            if chosen:
                chosen.pop()
                parts.pop()
                if flow is not None:
                    packs.pop()


def _interval_check(plan: _Plan, lens: _Lens, key_of, kept_parts: Sequence[tuple[_Part, ...]],
                    kept_pack: int):
    """The check behind ``_turn_combinations``: ``check(i, placed, state)``
    is the state once the classes ``placed`` fill components 0..i (None
    when the branch is cut), and ``check(-1, [], pinned)`` states the
    pins' keys as exact bounds and bounds the degrees no component
    reaches.

    The theorem is the rank flow (``_Flow``): over Q each later arrow
    of the solve's worst-case run lowers the free rank of both its ends
    by one k >= 0, and the k at a position sum to at most its free rank
    on the next page.  Each degree certified on every stable page (those
    of the run) gets a bound on its final value once the last component
    with an entry on its antidiagonal is placed (degrees no component
    reaches are bounded with the pins before any is placed).  That bound
    is the flow with the degree's arrows uncoupled, each free to take
    all of a non-final entry's free rank: the free rank lies between
    that of its final entries (no worst-case arrow after the turn touches
    their positions, so no real one does) and that of all its entries,
    and when all its entries are final its ``_group_key`` is exact.

    On a turn that is not the last the same holds for d_p(M) =
    dim(M / pM), for each prime p of ``lens``.  Over Z_(p), a PID, d_p is
    the least number of generators (Nakayama), which no submodule or
    quotient exceeds, so an entry's E-infinity value has d_p in [0, d_p
    of the entry], and its own d_p when it is final; d_p adds on direct
    sums, so a degree's final d_p lies between that of its final entries
    and that of all of them.  The last turn reads no prime: its bounds
    are exact keys, which fix every d_p.  Like the exact keys, the d_p
    bound takes the split abutment: Z/4 has d_2 = 1 where (Z/2)^2 has 2.

    The DFS state is the common bound of each parity so far.  Once the
    last component is placed, before the next page is built, a turn that
    is not the last solves the coupled flow over every later turn at
    once: the branch is cut unless some choice of k leaves each parity
    one common free rank inside its bound; a parity whose last degree is
    bounded keeps its free rank alone (``_Plan.settled``).  Groups enter
    as keys (``key_of`` gives one), free ranks and d_p as ints packed by
    the ``_Lens`` and free ranks for the flow as ``_Flow.pack`` ints,
    summed once for the kept entries and once per class, so no node of
    the DFS adds groups.
    """
    flow, ones, settled = plan.flow, lens.ones, plan.settled
    last_comp = len(plan.comps) - 1
    meet = lens.meet if lens.primes else _meet

    def exact(key: _Key) -> _Bound:
        packed = lens.packed(key)
        return packed, packed, key

    def check(i, placed, state):
        # the pins' keys as exact bounds at the start
        out = list(state) if i >= 0 else [key and exact(key) for key in state]
        for (deg, at), (lo, powers, slack, zero) in zip(plan.checks[i + 1], kept_parts[i + 1]):
            for c in at:
                f, pw, sl, z = placed[c].degree_parts(lens, key_of).get(deg, _NO_PART)
                lo, powers, slack, zero = lo + f, powers + pw, slack + sl, zero and z
            seen = out[deg % 2] = meet(out[deg % 2], (
                lo, lo + slack, (lo & ones, tuple(sorted(powers))) if zero else None))
            if seen is None:
                return None
        for e in settled[i + 1]:  # only the flow reads these, and only free ranks
            out[e] = (out[e][0] & ones, out[e][1] & ones, None)
        if i == last_comp and flow is not None:
            (lo_even, hi_even, _), (lo_odd, hi_odd, _) = out
            packed = kept_pack + sum(cls.pack(flow) for cls in placed)
            if not any(lo_even <= even <= hi_even and lo_odd <= odd <= hi_odd
                       for even, odd in flow.values(packed)):
                return None
        return tuple(out)

    return check
