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
``abgroup.HomMatrixSpace``.  The masks indexed by a space, its
cokernels and its images are facts of a row class, each taken the
first time a hom the search reaches asks for it, so a class no reached
hom belongs to costs nothing.

Sibling rule: under one prefix, a hom is skipped when an earlier
sibling has the same signature, which is everything later work reads
of it: its masks for later arrows, the rank and freeness of its image,
its cokernel, and the hom itself where a torsion image forces a
subquotient.  The earlier sibling admits the same completions, with the
same homology, at lexicographically smaller labelings that the search
visits first, so the skipped subtree holds no first representative:
the classes, their representatives and their order do not change.

Orbit rule: arrow k tries only the homs least in their orbits under
the signed permutations of equal-order generators of its source
(``HomMatrixSpace.canonical``).  Such a permutation s is an
automorphism of the source of arrow k, which is the target of arrow
k + 1, so it acts on a labeling by h_k -> h_k s^-1 and h_(k+1) -> s
h_(k+1) and leaves every other hom as it is.  It maps each bounded hom
space to itself (it permutes a matrix's rows or columns within blocks
of equal orders and negates some; free entries run over 0, +-1, ...,
+-B and torsion residue runs are closed under x -> t - x), keeps every
composite zero (h_k s^-1 s h_(k+1) = h_k h_(k+1)), and gives isomorphic
homology at every position (s carries ker h_k / im h_(k+1) onto the new
one).  So it maps a labeling to one of the same class, and the two
first differ on arrow k, which comes before arrow k + 1 in product
order: a labeling whose h_k is not least in its orbit has a smaller
labeling in its class.  The first representative of a class, the least
labeling of the class in product order, is therefore least in its
orbit on every arrow, and the two rules compose: neither skips a hom of
it.  The orbit rule skips only homs that are not least in their orbits,
and the sibling rule skips a hom only when a sibling tried before it
under the same prefix (so itself skipped by neither rule) has its
signature, and that sibling with the same completion would be a
smaller labeling of the class.  The search visits the labelings it
keeps in product order, so the first it meets of each class is that
representative, and the classes, representatives and order are those
of the full search.  Where the group only negates homs (``canonical``
is None) every hom is tried: a hom's negation has its image, cokernel
and masks, so the sibling rule already skips it unless a torsion image
puts the hom itself in its signature.

The homology at each position comes from invariants of each hom: M /
im(in) for the incoming map, and the rank of im(out) for the outgoing
one; when that image is free it splits off M / im(in), and only a
torsion image falls back to the kernel-lattice subquotient.  A hom
space keeps only each entry's and each row's admissible values
(``abgroup.hom_matrix_space``); masks and invariants are read off them
and off one representative's entry rows per row class, equal masks
are one object, and a ``GroupHom`` is built only for a kernel lattice
or a representative's differentials.  Hom spaces, these invariants and
the classes of each component shape live in an ``EnumerationTable``
that the solves of one run share and that is dropped with the run, so
no enumeration state outlives it.  A shape is its chain moved to start
at column 0, and its classes are built once: a component reads them at
its column offset, their parts by the shape's degrees, and their
results moved only where a leaf, a later turn's untouched entries or
the flow read them.  The solver turns each branch once
per turn: its next entries are the untouched entries plus the homology
the chosen classes already computed (``turn_page`` is the validated
public path to the same page).  What a turn fixes, its components,
next unresolved set and pruner skeleton, is worked out once per turn,
surviving run arrows and unresolved set: a branch turns only on arrows
of the worst-case run below.  No page is scanned for that plan: it is
carried down.  A run arrow is a branch's when its window ends are live
(entries or unresolved), and a position live before a turn is live
after it unless a chosen class's result there is zero, so the next plan
follows from the page's live positions less those the chosen classes
zero, kept as bits.  Only a later turn's plan lookup reads them, so a
bit goes only to a window end of a run arrow after the run's first
turn: the one earlier lookup is the first page's, where every position
is live.  Every turn, the first, a middle and the last alike, is
decided without building the branch's page: it reads the entries on
its components, each one the earlier turn kept or a chosen class's
result, and the parts of the entries it leaves untouched, which are
kept's plus each chosen class's, summed from the parts each class
caches per lens and finality of its results.  Those are the
untouched results' parts on the degrees the turn carries: every arrow
lowers p + q by one, so a component's positions have pairwise distinct
degrees, and a class has at most one result per degree.  Which results
a turn carries and where its components' entries come from is fixed by
the two turns' component layouts, and worked out once per pair of
layouts (``_Layout.after``): on a degree the worst-case run certifies
no position is ever unresolved, so a result there is carried exactly
when no component of the turn touches its position.  A page is
built only for the first page, the worst-case run's stable page, which
has no entries, and a leaf.

The abutment of every stable page must be 2-periodic and agree with any
pinned value.  Every page turn is pruned by one rule while its classes
are chosen, a theorem and not a heuristic.  It reads one worst-case run
per solve: the page run from the first page in which every live
position stays live (the branch whose differentials all vanish).  No
entry of it vanishes, so each of its pages has the first page's live
positions and arrows: its turns are read off the first page, and only
its unresolved set grows.  Entries only shrink, so at every page index a
real branch's arrows are a subset of that run's and its unresolved set
lies inside that run's.  The degrees the run certifies on its stable
page are therefore certified on every branch's, and an entry is final
after turn r when its position's last touch (the last page whose
worst-case arrows have it as an endpoint) is at most r: no later
differential starts or ends there, so it is already its E-infinity
value.

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
under a prefix once per distinct such input, not once per prefix.  With
the parts of the untouched entries in that input, the rest of what the
check reads is the turn's component layout (``_Layout``: page index,
components, offsets, finals and skeleton), its flow (None exactly on
the last turn) and its lens, so one node memo per layout, flow and lens
lives as long as the solve, and every plan with them shares it.
Once the last component is placed, and before the next turn starts,
the coupled flow over every later turn is solved: the branch is cut
unless some choice of k leaves each parity a common value inside those
bounds.  Each arrow joins degree d to d - 1, and a degree's value reads
only the capped positions on it, so the flow falls apart into blocks,
runs of degrees linked through the capped ends of their arrows, which
share no position: only each parity's common value couples them.  The
flow's values are the join, on the parities each block defines, of
every block's (even | None, odd | None) values, each block solved degree
by degree over its own positions alone and memoized by its own fields
(free ranks and degree sums), one memo per block shape; a block that
certifies no degree is dropped, and a certified degree with no capped
position is one value its parity must take.
The last turn, the one no worst-case arrow comes after, is the case
lo = hi: every entry there is final, so each bound is one exact group;
there, once both parities are exact, a branch whose abutment is already
a leaf is cut too, and the check is equality: a class survives exactly
when its parts on the degrees its component completes are what the
parity values leave, less the untouched parts and the earlier classes'
parts.  So the search finds those classes by lookup, in an index of the
class list by those parts, and checks only them.

Torsion is bounded the same way on the turns that are not the last.
For a prime p let d_p(M) = dim(M ⊗ F_p) = dim(M / pM), the free rank
plus the number of invariant factors divisible by p.  Over the local
ring Z_(p), a PID, d_p(M) is the least number of generators of M_(p)
(Nakayama's lemma), and a submodule or a quotient needs no more
generators than its module, so d_p never grows on a subquotient, and an
entry's d_p never grows from page to page.  d_p adds on direct sums, so
a certified degree's final d_p lies between that of its final entries
and that of all of them, and the degrees of one parity must meet on it
as they must on the free rank.  A turn reads d_p for each prime p that
divides the exponent E of every torsion order among its entries, its
classes' results and the pins (for any other prime d_p is the free
rank), and its bounds pack the free rank and each d_p into one int, a
field each (``_Lens``), so parts add in one int add and one parity's
bounds meet in a few int operations.  These fields do not fix a group
(Z/2 and Z/4 pack alike), so on such a turn lo = hi is one exact packed
value, not always one group.  Two exact bounds that differ in a field
still admit no common group, so the meet stays sound, only coarser than
a meet of groups.  The last turn's classes are only known per branch,
so its one lens per solve packs the free rank and the multiplicity of
each prime power instead, which is additive and fixes every group; its
bounds are all exact groups and meet by equality.

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
their deduplication, the last turn's exact bounds and the d_p bounds
all take the direct sum (Z/4 has d_2 = 1 where (Z/2)^2 has 2); an
extension of a quotient with l-torsion by a sub with free rank or
l-torsion need not split, and no such leaf is marked.  Under a
non-split extension d_p stays subadditive: for a sub A of M, A ⊗ F_p ->
M ⊗ F_p -> (M / A) ⊗ F_p -> 0 is exact, so d_p(M) <= d_p(A) + d_p(M / A),
and only the lower end of a d_p field rests on the split choice.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, count, product
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


def _certified_sums(page: BigradedPage, degrees: Iterable[int]) -> list[tuple[int, FgAbGroup]]:
    """Each certified degree of ``page`` (``degrees``, its
    ``certified_degrees``) with the direct sum of its antidiagonal."""
    parts: dict[int, list[FgAbGroup]] = {deg: [] for deg in degrees}
    for (p, q), grp in page.entries:
        if p + q in parts:
            parts[p + q].append(grp)
    return [(deg, direct_sum(*grps)) for deg, grps in parts.items()]


# ---------------------------------------------------------------------------
# Component enumeration


class _ComponentClass(_Record):
    """One isomorphism class of labelings of a component shape, a chain of
    arrows moved to start at column 0: the homs of a representative and
    the entries they produce.  A component of the shape at column offset
    ``base`` (``_Layout.bases``) reads them through that offset, so one
    class serves every column where its shape occurs: its parts read the
    shape's degrees, and only a leaf, the entries a later turn leaves
    untouched and the flow's ``pack`` read its results moved (``at``).
    ``zeros`` has bit i set when result i is zero (see ``_Layout.zero_bits``)."""

    __slots__ = ("results", "homs", "zeros", "_at", "_parts", "_packs")
    _compared = ("results", "homs")

    def __init__(self, results: tuple[tuple[Position, FgAbGroup], ...],
                 homs: tuple[tuple[Position, GroupHom], ...]):
        self.results, self.homs = results, homs
        self.zeros = sum(1 << i for i, (_, grp) in enumerate(results) if grp.is_trivial())
        self._at: dict[int, tuple[tuple[Position, FgAbGroup], ...]] = {}  # ``at``, by offset
        self._parts: dict = {}  # ``degree_parts``, by lens and final results
        # ``pack``, by flow and then offset: a pair key costs about twice as
        # much per lookup, and a middle turn looks it up per placed class
        self._packs: dict[_Flow, dict[int, int]] = {}

    def at(self, base: int) -> tuple[tuple[Position, FgAbGroup], ...]:
        """The results at column offset ``base``, moved once per offset."""
        placed = self._at.get(base)
        if placed is None:
            placed = self._at[base] = tuple(((p + base, q), grp) for (p, q), grp in self.results)
        return placed

    def degree_parts(self, lens: _Lens, final: int | None) -> dict[int, _Bound]:
        """``_degree_parts`` of the results by the shape's degrees, bit i of
        ``final`` set when result i is final where the class is placed, and
        ``final`` None when every result is (``_shape_finals``), as on every
        last turn: those parts are keyed by the lens alone."""
        parts = self._parts.get(key := lens if final is None else (lens, final))
        if parts is None:
            parts = self._parts[key] = _degree_parts(self.results, lens, {
                pos for i, (pos, _) in enumerate(self.results) if final is None or final >> i & 1})
        return parts

    def pack(self, flow: _Flow, base: int) -> int:
        by_base = self._packs.get(flow)
        if by_base is None:
            by_base = self._packs[flow] = {}
        packed = by_base.get(base)
        if packed is None:
            packed = by_base[base] = flow.pack(self.at(base))
        return packed


# what a turn knows of a degree's final value, or of the part of it that
# some entries on its antidiagonal give: each field of its ``_Lens`` lies
# in [lo, hi], lo the packed sum of the final entries and hi that of all
# of them; lo = hi is exact, as when every entry is final
_Bound = tuple[int, int]
_NO_PART: _Bound = (0, 0)


class _Lens:
    """What one page turn's interval check reads of a group: the group
    packed into one int (``packed``), fields of ``width`` value bits under
    one guard bit each, the free rank in field 0.  On a turn that is not the
    last, field j holds d_p = the free rank plus the number of invariant
    factors divisible by p, for p the j-th of the turn's ``primes``
    (``_turn_lens``), so Z/2 and Z/4 pack alike; a bound is an int pair
    (lo, hi), and ``meet`` meets bounds so packed.  A field holds at most
    ``_WorstCase.width`` bits, so the sums over one antidiagonal stay
    inside their fields.

    The last turn's lens (``primes`` None, one per solve) packs the free
    rank and, for each prime power, how many elementary divisors equal
    it, in a field assigned on first sight.  That packing is additive and
    fixes the group, and every bound there is exact (lo = hi), so it
    meets by equality alone (its guards cover the free rank only).  A
    lens is only its packing, compared by identity, one per distinct
    packing in a run (``EnumerationTable.lens``), so a class's parts are
    cached per lens at the cost of an id hash (and per final results too
    where some of them are not final)."""

    __slots__ = ("primes", "width", "ones", "guards", "_fields", "_packed", "_indexes")

    def __init__(self, primes: tuple[int, ...] | None, width: int):
        self.primes, self.width = primes, width
        self.ones = (1 << width) - 1  # the free rank's field
        self.guards = sum(1 << j * (width + 1) + width for j in range(len(primes or ()) + 1))
        self._fields: dict[int, int] = {}  # the last turn's field of each prime power
        self._packed: dict[FgAbGroup, int] = {}
        self._indexes: dict[tuple, dict[tuple[int, ...], list[_ComponentClass]]] = {}

    def packed(self, grp: FgAbGroup) -> int:
        """``grp`` packed by this lens, worked out once per distinct group."""
        packed = self._packed.get(grp)
        if packed is None:
            free, shift = grp.free_rank, self.width + 1
            if self.primes is None:
                fields = self._fields
                packed = free + sum(1 << shift * fields.setdefault(p ** e, len(fields) + 1)
                                    for d in grp.torsion for p, e in _factorize(d).items())
            else:
                packed = free + sum(free + sum(not d % p for d in grp.torsion) << shift * j
                                    for j, p in enumerate(self.primes, 1))
            self._packed[grp] = packed
        return packed

    def index(self, classes: Sequence[_ComponentClass], final: int | None,
              degrees: tuple[int, ...]) -> dict[tuple[int, ...], list[_ComponentClass]]:
        """The ``classes`` of one shape by the lower ends of their parts
        (``_ComponentClass.degree_parts`` with ``final``) on the shape's
        ``degrees``, each group in list order; worked out once per class
        list.  Every class has a result on each of the degrees its
        component reaches, and under the last turn's lens lower ends are
        whole parts."""
        index = self._indexes.get(key := (id(classes), final, degrees))
        if index is None:
            index = self._indexes[key] = {}
            for cls in classes:
                parts = cls.degree_parts(self, final)
                index.setdefault(tuple(parts[deg][0] for deg in degrees), []).append(cls)
        return index

    def meet(self, seen: _Bound | None, bound: _Bound) -> _Bound | None:
        """The common value of one parity, ``seen`` so far, narrowed by
        one more degree's ``bound``, both packed by this lens; None when
        no group satisfies both.  Two exact bounds (lo = hi) must be
        equal; otherwise each field takes the max of the lower ends and
        the min of the upper ones.  Setting the guards of x and
        subtracting y leaves a field's guard set exactly where x >= y (no
        field borrows from the next), and those guards, less themselves
        shifted down by ``width``, mask the fields: so the max and the min
        take a few int operations, and lo <= hi leaves every guard set."""
        if seen is None:
            return bound
        if bound[0] == bound[1] and seen[0] == seen[1]:
            return seen if bound[0] == seen[0] else None
        guards, width = self.guards, self.width
        x, y = bound[0], seen[0]
        ge = (x | guards) - y & guards
        lo = y ^ (x ^ y) & ge - (ge >> width)
        x, y = bound[1], seen[1]
        ge = (x | guards) - y & guards
        hi = x ^ (x ^ y) & ge - (ge >> width)
        if (hi | guards) - lo & guards != guards:
            return None
        return lo, hi


def _degree_parts(entries: Iterable[tuple[Position, FgAbGroup]], lens: _Lens,
                  final: Container[Position]) -> dict[int, _Bound]:
    """The bound the entries on each antidiagonal degree p + q put on it,
    read through ``lens``, the entries at ``final`` positions final."""
    parts: dict[int, _Bound] = {}
    for pos, grp in entries:
        deg = pos[0] + pos[1]
        packed = lens.packed(grp)
        lo, hi = parts.get(deg, _NO_PART)
        parts[deg] = (lo + packed, hi + packed) if pos in final else (lo, hi + packed)
    return parts


class EnumerationTable:
    """The enumeration work of one run, each piece done once and shared
    by every solve given the table: hom spaces by (source, target,
    bound) with their per-hom invariants, vanishing masks by pair of
    spaces, component classes once per component shape (a component
    reads its shape's classes at its column offset, so no class is copied
    per column), and the pruner's lenses.

    The table is the only store: ``cli.run`` makes one per run and a
    direct ``solve_floer`` call makes its own, so no enumeration state
    outlives the run that built it."""

    def __init__(self):
        self._spaces: dict[tuple[FgAbGroup, FgAbGroup, int], HomMatrixSpace] = {}
        self._masks: dict[tuple[HomMatrixSpace, HomMatrixSpace], _VanishingMasks] = {}
        self._shapes: dict[tuple, tuple[_ComponentClass, ...]] = {}
        self._lenses: dict[tuple[tuple[int, ...] | None, int], _Lens] = {}

    def space(self, source: FgAbGroup, target: FgAbGroup, bound: int) -> HomMatrixSpace:
        key = (source, target, bound)
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = hom_matrix_space(source, target, bound)
        return space

    def lens(self, primes: tuple[int, ...] | None, width: int) -> _Lens:
        """The one ``_Lens`` of this packing."""
        lens = self._lenses.get(key := (primes, width))
        if lens is None:
            lens = self._lenses[key] = _Lens(primes, width)
        return lens

    def masks(self, first: HomMatrixSpace, second: HomMatrixSpace) -> _VanishingMasks:
        """The ``_VanishingMasks`` of the two spaces: indexed by the homs g
        of ``second``, with bits over the homs f of ``first``."""
        key = (first, second)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = _VanishingMasks(first, second)
        return masks

    def classes(self, arrows: _Arrows, groups: tuple[FgAbGroup, ...], bound: int,
                signature: tuple[Position, ...]) -> tuple[_ComponentClass, ...]:
        """``_component_classes`` of one component shape (``_Layout.shapes``):
        its arrows moved to start at column 0, the ``groups`` of its
        positions in sorted order, and the positions left out of
        ``signature`` (next entry unknowable) out of the dedup signature.
        Each shape is enumerated once per run, and every component of that
        shape reads the same classes at its column offset."""
        key = (arrows, groups, bound, signature)
        classes = self._shapes.get(key)
        if classes is None:
            positions = sorted({pos for arrow in arrows for pos in arrow})
            classes = self._shapes[key] = _component_classes(
                self, arrows, tuple(zip(positions, groups)), bound, signature)
        return classes


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
    per shape, the chain moved to start at column 0, for the rest of
    the run, and every component of that shape reads it at its column
    offset.

    ``arrows`` is one chain in source order, as ``_components`` gives
    it: arrow k - 1 leaves arrow k's target.  A depth-first search
    places one hom per arrow in that order, arrow k only from the homs
    that compose to zero with the hom placed on arrow k - 1 (its
    vanishing mask, from ``table``) and, on every arrow, only from the
    homs least in their orbits under the signed permutations of
    equal-order source generators (``HomMatrixSpace.canonical``).  It
    visits labelings in the lexicographic order of the full product, so
    each class keeps the same first representative.

    Orbit rule: such a permutation s of arrow k's source, the target of
    arrow k + 1, maps a labeling to one with h_k s^-1 and s h_(k+1) in
    place of h_k and h_(k+1).  It keeps every hom in its bounded space,
    every composite zero and every position's homology up to
    isomorphism, so the image is in the same class, and it is smaller
    when h_k s^-1 is: a labeling whose h_k is not least in its orbit is
    not the first of its class.  The module docstring has the proof in
    full, and why the rule composes with the sibling rule below.

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
    each hom space of ``table`` takes per row class the first time a
    reached hom asks, and keeps for the whole run (see
    ``HomMatrixSpace``): coker(in) = M / im(in) (M at a chain start),
    and the rank r of im(out) with whether it is torsion-free (r = 0 at
    a chain end; see ``HomMatrixSpace.image``).  A free im(out) splits
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

    def signature(k: int, h: int) -> tuple:
        """The signature of hom h of arrow k (see the sibling rule), read
        off the facts of its row class, which its space takes on first
        use."""
        space = spaces[k]
        source_site, target_site, feeds_subquotient = touches[k]
        sig = (constraint[k + 1][h],) if k + 1 < len(arrows) else ()
        if source_site:
            img = space.image(h)
            sig += (img if img[1] else (img, h),)
        if target_site:
            coker = space.coker(h)
            sig += (coker.free_rank, coker.torsion, h if feeds_subquotient else None)
        return sig

    # pending[k]: the canonical homs of arrow k (every hom where
    # ``canonical`` is None) not yet tried under the current prefix, in
    # product order; tried[k]: the signatures already tried under it
    canonical = [space.canonical for space in spaces]
    pending = [iter(range(len(spaces[0]))) if canonical[0] is None else _set_bits(canonical[0])]
    pending += [iter(())] * (len(arrows) - 1)
    tried: list[set[tuple]] = [set() for _ in arrows]

    def leaf():
        """The labeling ``chosen``, reached on the last arrow: its class
        keeps it when it is the class's first."""
        key = tuple((site[0], homology(*site)) for site in sites)
        if key not in classes:
            labeling = [sp[h] for sp, h in zip(spaces, chosen)]
            classes[key] = _ComponentClass(
                results=key,
                homs=tuple((arrow[0], h) for arrow, h in zip(arrows, labeling)
                           if not h.is_zero()),
            )

    k = 0
    while k >= 0:
        h = next(pending[k], None)
        if h is None:
            k -= 1
            continue
        sig = signature(k, h)
        if sig in tried[k]:
            continue
        tried[k].add(sig)
        chosen[k] = h
        if k + 1 < len(arrows):
            k += 1
            mask = constraint[k][h]
            pending[k] = _set_bits(mask if canonical[k] is None else mask & canonical[k])
            tried[k].clear()
            continue
        leaf()
    return tuple(classes.values())


class _VanishingMasks(dict):
    """For each hom g of ``second`` (the key), the bitmask of the homs f
    of ``first`` with g o f = 0, worked out per row class of g the first
    time a hom of that class is read.  Equal masks are one object.

    One kill table, each row value of ``second`` against each value of
    each column of ``first`` (``_orthogonal``), gives the masks (see the
    module docstring): the mask of g is the AND, over f's columns, of
    the polynomials (``_digit_polys``) of the values that all of g's
    rows kill."""

    def __init__(self, first: HomMatrixSpace, second: HomMatrixSpace):
        super().__init__()
        columns = [tuple(product(*column)) for column in zip(*first.entries)]
        orders = second.target.generator_orders()
        # kills[c][t]: each value of row t of g -> the values of column c of f it kills
        self.kills = [[dict(zip(values, _orthogonal(values, column, o)))
                       for values, o in zip(second.rows, orders)] for column in columns]
        self.polys = _digit_polys(first.entries)
        self.second, self.full = second, (1 << len(first)) - 1
        self.placed: dict[tuple[int, int], int] = {}
        self.interned: dict[int, int] = {}

    def __missing__(self, g: int) -> int:
        rep = self.second.row_class[g]
        if rep != g:
            mask = self[rep]
        else:
            mask = self.full
            for c, ((offsets, others), column_kills) in enumerate(zip(self.polys, self.kills)):
                allowed = (1 << len(offsets)) - 1
                for value, row_kills in zip(self.second.matrix(rep), column_kills):
                    allowed &= row_kills[value]
                poly = self.placed.get((c, allowed))
                if poly is None:
                    poly = self.placed[c, allowed] = _place(others, allowed, offsets)
                mask &= poly
            mask = self.interned.setdefault(mask, mask)
        self[g] = mask
        return mask


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
# the turns a branch has taken: each plan's layout with the classes chosen
# for its components, which stay as they are while the branch's later turns run
_Chosen = tuple[tuple["_Layout", list[_ComponentClass]], ...]


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


class _WorstCase:
    """The page run from the first page in which every live position
    stays live (see the module docstring for what it bounds), read off
    that page by ``_worst_case_run``."""

    __slots__ = ("first", "arrows", "degrees", "final", "width", "bits", "layouts", "_ends",
                 "_reach", "_flows", "_plans", "_next")

    def __init__(self, first: BigradedPage, arrows: dict[int, _Arrows], degrees: frozenset[int],
                 final: dict[int, frozenset[Position]], top: int):
        self.first = first  # the run's first page, for its geometry
        self.arrows = arrows  # each turn's arrows, by ascending page index
        self.degrees = degrees  # certified on the run's stable page
        # by page index: the window positions no arrow of a later turn
        # touches, whose entries are final once that turn is taken
        self.final = final
        # the bits of a bound's field: ``top`` bounds d_p, for every prime
        # p, and so each prime power's multiplicity and the free rank, of
        # any antidiagonal of any page
        self.width = max(top.bit_length(), 1)
        # a live bit for each window end of an arrow after the first turn:
        # only a later turn's plan lookup reads them (the first page's has
        # every position live); per turn, each arrow with its ends' bits
        self.bits = {pos: 1 << i for i, pos in enumerate(dict.fromkeys(
            pos for r in list(arrows)[1:] for arrow in arrows[r] for pos in arrow
            if first.in_window(pos[0])))}
        self._ends = {r: tuple((arrow, sum(self.bits.get(pos, 0) for pos in arrow))
                               for arrow in turn) for r, turn in arrows.items()}
        self._reach: dict[int, int] = {}  # the bits of the turns from a page index on
        # the lookahead of each turn that is not the last, by page index
        # and the unresolved set after the turn
        self._flows: dict = {}
        self._plans: dict = {}  # the solve's plans, by what ``_Plan`` reads
        # what the plans read of their components alone (``_Layout``), by
        # page index and components, so the plans that share them share it
        self.layouts: dict = {}
        self._next: dict = {}  # the same plans, by what ``plan`` reads

    def plan(self, after: int, live: int, unresolved: frozenset[Position]) -> _Plan | None:
        """The plan of the turn of a page of index ``after`` whose live
        bits are ``live`` and whose unresolved set is ``unresolved``; None
        when the page is stable.  A branch's arrows are among the run's,
        and a run arrow is the page's when its window ends are live, so the
        turn is the run's first from ``after`` on that keeps an arrow.
        Plans are found by the live bits of the turns from ``after`` on,
        so no page is scanned: a turn's positions are live on the next
        page unless one of its chosen classes zeroes them."""
        reach = self._reach.get(after)
        if reach is None:
            reach = self._reach[after] = reduce(or_, (bits for r, ends in self._ends.items()
                                                      if r >= after for _, bits in ends), 0)
        key = (after, live & reach, unresolved)
        if key not in self._next:
            self._next[key] = None
            for r, ends in self._ends.items():
                if r >= after and (kept := tuple(arrow for arrow, bits in ends
                                                 if live & bits == bits)):
                    # the one plan of turn r with these arrows and unresolved set
                    plan = self._plans.get(found := (r, kept, unresolved))
                    if plan is None:
                        plan = self._plans[found] = _Plan(self, *found)
                    self._next[key] = plan
                    break
        return self._next[key]

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
                self.degrees, self.width)
        return flow


def _worst_case_run(first: BigradedPage) -> _WorstCase:
    """The worst-case run from ``first`` (a first page), and each window
    position's last touch: the last page index whose arrows have it as
    an endpoint.  No entry of the run vanishes, so its turns' arrows are
    ``first``'s, and only its unresolved set grows; its one page is its
    stable page, with no entries, for the certified degrees."""
    # later entries are subquotients of the first page's, d_p of a
    # subquotient is at most d_p of the group, which is at most its
    # generator count, and an antidiagonal meets each row once: so a
    # column's generator count bounds every antidiagonal's d_p
    top = sum(grp.generator_count() for (p, _), grp in first.entries if p == 0)
    unresolved, arrows = first.unresolved, {}
    last_touch: dict[Position, int] = {}
    for r in range(first.column_step, first.row_max + 2, first.column_step):
        if turn := _arrows_at(first, r):
            arrows[r] = turn
            last_touch.update((pos, r) for arrow in turn for pos in arrow)
            known = lambda pos, gone=unresolved: first.in_window(pos[0]) and pos not in gone
            unresolved |= _slots_and_unresolved(turn, known)[1]
    grid = [(p, q) for p in first.window_columns() for q in range(first.row_max + 1)]
    final = {r: frozenset(pos for pos in grid if last_touch.get(pos, 0) <= r) for r in arrows}
    stable = first.turned(first.row_max + 2, unresolved, ())
    return _WorstCase(first, arrows, frozenset(certified_degrees(stable)), final, top)


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

    Every arrow joins a degree d to d - 1, and a degree's value reads
    only the capped positions on it, so the flow falls apart into
    blocks: runs of degrees joined through the capped ends of their
    arrows.  Blocks share no position and no k; only the common value of
    each parity couples them.  A block with no certified degree is
    dropped (its k can all be 0, and they change no value), and a lone
    certified degree, one with no capped position, is the summed free
    rank of its known entries, one more value its parity must take.

    A page enters as one int (``pack``): the free rank of each capped
    position of a kept block and the summed free rank of the other
    entries of each certified degree, in fields of ``width`` bits, wide
    enough for any antidiagonal's d_p and so its free rank
    (``_WorstCase.width``), the width of every ``_Lens``'s fields too.
    The fields are disjoint, so a page's int is the sum of the ints of its
    parts.  A block's positions have adjacent fields, and so do its
    degrees, so two shifts and masks read the block's own fields as two
    narrow ints; the lone degrees of each parity are adjacent too.
    ``values`` gives every (even, odd) pair of common free ranks that
    some choice of k leaves: the join, on the parities they define, of
    the lone degrees' values and of each block's (even | None, odd |
    None) pairs, which are solved once per distinct value of the block's
    fields (``_solve``), in a memo that the blocks of the same shape
    share."""

    __slots__ = ("width", "nodes", "bases", "lone", "blocks", "_values")

    def __init__(self, arrows: Sequence[tuple[Position, Position]],
                 known: Callable[[Position], bool], degrees: Iterable[int], width: int):
        self.width = w = width
        degrees = set(degrees)
        capped = {pos for arrow in arrows for pos in arrow if known(pos)}
        at: dict[int, list[Position]] = {}  # the capped positions of each degree
        for pos in sorted(capped):
            at.setdefault(sum(pos), []).append(pos)
        # per degree, the arrows whose highest capped end lies on it, each
        # as its capped ends, source first
        out_of: dict[int, list[tuple[Position, ...]]] = {}
        for arrow in arrows:
            if ends := tuple(pos for pos in arrow if pos in capped):
                out_of.setdefault(sum(ends[0]), []).append(ends)
        # the blocks that hold a capped position, from the top: a degree
        # starts one unless an arrow of the block above reaches it
        blocks: list[list[int]] = []
        reached: set[int] = set()
        for deg in sorted(at, reverse=True):
            if deg not in reached:
                blocks.append([])
            blocks[-1].append(deg)
            reached.update(sum(pos) for ends in out_of.get(deg, ()) for pos in ends)
        blocks = [block for block in blocks if degrees.intersection(block)]
        # the fields: the kept blocks' positions, their certified degrees,
        # then the lone degrees of each parity
        self.nodes = {pos: i * w for i, pos in enumerate(
            pos for block in blocks for deg in block for pos in at[deg])}
        lone = [[deg for deg in sorted(degrees - at.keys()) if deg % 2 == parity]
                for parity in (0, 1)]
        self.bases = {deg: (len(self.nodes) + j) * w for j, deg in enumerate(
            [deg for block in blocks for deg in block if deg in degrees] + lone[0] + lone[1])}
        # per parity with lone degrees: their fields' offset and mask, and
        # the int with a 1 in each field
        self.lone = tuple((parity, self.bases[group[0]], (1 << w * len(group)) - 1,
                           ((1 << w * len(group)) - 1) // ((1 << w) - 1))
                          for parity, group in enumerate(lone) if group)
        # per block: its positions' offset and mask, its degrees' offset
        # and mask, its memo, its position count and per degree from
        # the top the arrows out of it as the indices of their capped ends,
        # its capped positions (cleared once settled), its field in the
        # degrees' int or None and its parity.  Those steps fix what a
        # block's fields give, so blocks with the same steps share a memo
        self.blocks, memos = [], {}
        for block in blocks:
            positions = [pos for deg in block for pos in at[deg]]
            certified = [deg for deg in block if deg in degrees]
            index = {pos: i for i, pos in enumerate(positions)}
            bases = {deg: j * w for j, deg in enumerate(certified)}
            steps = tuple((tuple(tuple(map(index.__getitem__, ends))
                                 for ends in out_of.get(deg, ())),
                           tuple(map(index.__getitem__, at[deg])), bases.get(deg), deg % 2)
                          for deg in block)
            self.blocks.append((self.nodes[positions[0]], (1 << w * len(positions)) - 1,
                                self.bases[certified[0]], (1 << w * len(certified)) - 1,
                                memos.setdefault(steps, {}), len(positions), steps))
        self._values: dict[int, frozenset[tuple[int, int]]] = {}

    def pack(self, entries: Iterable[tuple[Position, FgAbGroup]]) -> int:
        """The int of known entries: a capped position's free rank in its
        field, any other on a certified degree added to the degree's."""
        packed = 0
        for pos, grp in entries:
            shift = self.nodes.get(pos, self.bases.get(pos[0] + pos[1]))
            if shift is not None:
                packed += grp.free_rank << shift
        return packed

    def values(self, packed: int) -> frozenset[tuple[int, int]]:
        """The (even, odd) common free ranks the later turns can leave,
        memoized per int: sibling classes of a turn's last component whose
        fields here agree ask for the same int."""
        values = self._values.get(packed)
        if values is None:
            values = self._values[packed] = self._join(packed)
        return values

    def _join(self, packed: int) -> frozenset[tuple[int, int]]:
        ones = (1 << self.width) - 1
        common: list = [None, None]
        for parity, shift, mask, repeat in self.lone:  # one equality test per parity
            fields = packed >> shift & mask
            if fields != (fields & ones) * repeat:
                return frozenset()
            common[parity] = fields & ones
        out = {tuple(common)}
        for at, mask, sums_at, sums_mask, memo, count, steps in self.blocks:
            ranks, sums = packed >> at & mask, packed >> sums_at & sums_mask
            found = memo.get(key := ranks | sums << mask.bit_length())
            if found is None:
                found = memo[key] = self._solve(ranks, sums, count, steps)
            out = {(even if e is None else e, odd if o is None else o)
                   for e, o in out for even, odd in found
                   if (e is None or even is None or e == even)
                   and (o is None or odd is None or o == odd)}
            if not out:
                break
        return frozenset(out)

    def _solve(self, ranks: int, sums: int, count: int, steps: tuple) -> frozenset:
        """A block's (even | None, odd | None) values from the free ranks
        of its ``count`` positions and its degrees' sums, each packed as a
        block's fields are: the k are chosen degree by degree from the top,
        keeping the set of distinct states (free ranks left at the block's
        positions, even value, odd value); a degree is settled once the
        arrows out of it are chosen, and no product over all arrows is
        formed."""
        w, ones = self.width, (1 << self.width) - 1
        states = {(tuple(ranks >> (i * w) & ones for i in range(count)), (None, None))}
        for arrows, settled, base, parity in steps:
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
                    value = (sums >> base & ones) + sum(map(left.__getitem__, settled))
                    if values[parity] is None:
                        values = (value, values[1]) if parity == 0 else (values[0], value)
                    elif values[parity] != value:
                        continue
                if settled:
                    left = list(left)
                    for i in settled:
                        left[i] = 0
                    left = tuple(left)
                done.add((left, values))
            states = done
        return frozenset(values for _, values in states)


class _Plan:
    """The plan of turn r of the solve's worst-case ``run`` on a page
    whose unresolved set is ``unresolved``, where ``arrows`` are the run
    arrows of page r whose window ends are live (``_WorstCase.plan``):
    built once per turn, surviving run arrows and unresolved set, and
    shared by every branch that has them.  It keeps what its unresolved
    set fixes, the next unresolved set, the positions the turn drops and
    the flow; the rest of what the turn reads is its component
    ``layout``."""

    __slots__ = ("layout", "unresolved", "dropped", "flow")

    def __init__(self, run: _WorstCase, r: int, arrows: _Arrows, unresolved: frozenset[Position]):
        slots, newly_unresolved = _slots_and_unresolved(
            arrows, lambda pos: run.first.in_window(pos[0]) and pos not in unresolved)
        self.unresolved = unresolved = unresolved | newly_unresolved  # of the next page
        # per component: its arrows, its positions (sorted) and those
        # whose next entry is known (its signature)
        comps = []
        for comp in _components(slots):
            positions = sorted({pos for arrow in comp for pos in arrow})
            comps.append((tuple(comp), tuple(positions),
                          tuple(pos for pos in positions if pos not in unresolved)))
        self.layout = run.layouts.get(key := (r, tuple(comps)))
        if self.layout is None:
            self.layout = run.layouts[key] = _Layout(run, *key)
        # touched or next unresolved
        self.dropped = unresolved.union(*(positions for _, positions, _ in comps))
        # the rank-flow lookahead over the later turns; None on the last
        # turn, the one no worst-case arrow comes after
        self.flow = run.flow(r, unresolved)


class _Layout:
    """What a plan of turn ``r`` of ``run`` reads of its components
    ``comps`` alone (``_Plan``): one object per page index and components
    in a run (``_WorstCase.layouts``, compared by identity), shared by
    every plan that has them.  Per component: its shape, its arrows and
    signature moved to start at column 0 (``shapes``); its column offset
    (``bases``); the live bits (``_WorstCase.bits``) that a class's
    ``zeros`` clear, those of the positions whose result is zero
    (``zero_bits``); and ``_shape_finals`` on the run's ``final``
    positions after turn r, which the turn's check reads (``finals``).
    Then the interval check's skeleton: checks[i + 1] holds each degree
    whose last component is i (checks[0]: no component reaches it), with
    each component c that has an entry on its antidiagonal, as (c, the
    degree on c's shape); per component i, the (earlier component, its
    degree) pairs its check reads (``reads``; the last component on each
    of its degrees is i itself); whether a later component's check reads
    its class's parts (``read``); and per entry of checks, on a turn that
    is not the last, the parities whose last degree it bounds
    (``settled``).  After that only the flow reads their bounds, and only
    the free ranks, so the check drops their torsion fields, and states
    that differ only there are one.  The page index fixes ``settled``:
    the flow is None exactly on the last turn.  Last, the node memos of
    the turns with these components, by flow and lens (``memos``, see
    ``_turn_combinations``), and ``after``."""

    __slots__ = ("r", "comps", "shapes", "bases", "zero_bits", "final", "finals", "checks",
                 "reads", "read", "settled", "memos", "_after")

    def __init__(self, run: _WorstCase, r: int, comps: tuple):
        self.r, self.comps = r, comps
        shapes, bases = [], []
        reach: dict[int, list[int]] = {}  # degree -> the components with an entry on it
        for i, (arrows, _, signature) in enumerate(comps):
            base = min(p for (p, _), _ in arrows)
            move = lambda pos: (pos[0] - base, pos[1])
            shapes.append((tuple((move(s), move(t)) for s, t in arrows),
                           tuple(map(move, signature))))
            bases.append(base)
            for deg in sorted({sum(pos) for pos in signature}):
                if deg in run.degrees:
                    reach.setdefault(deg, []).append(i)
        self.shapes, self.bases = tuple(shapes), tuple(bases)
        self.zero_bits = tuple(_Bits(tuple(run.bits.get(pos, 0) for pos in signature))
                               for _, _, signature in comps)
        self.final = run.final[r]
        self.finals = _shape_finals(comps, self.final)
        skeleton: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [
            [] for _ in range(len(comps) + 1)]
        for deg in sorted(run.degrees):
            at = tuple((c, deg - bases[c]) for c in reach.get(deg, ()))
            skeleton[at[-1][0] + 1 if at else 0].append((deg, at))
        self.checks = checks = tuple(map(tuple, skeleton))
        self.reads = tuple(tuple(pair for _, at in degrees for pair in at[:-1])
                           for degrees in checks[1:])
        readers = {c for pairs in self.reads for c, _ in pairs}
        self.read = tuple(i in readers for i in range(len(comps)))
        last = {deg % 2: k for k, degrees in enumerate(checks) for deg, _ in degrees}
        self.settled = tuple(tuple(e for e in (0, 1) if r < max(run.arrows) and last[e] == k)
                             for k in range(len(checks)))
        self.memos: dict = {}
        self._after: dict[_Layout | None, tuple[tuple, tuple, tuple]] = {}  # by earlier layout

    def after(self, earlier: _Layout | None) -> tuple[tuple, tuple, tuple]:
        """What the turn reads of the turn of the layout ``earlier`` (None
        at the first page), worked out once per pair of layouts.  First,
        per entry of ``checks``, each component j of ``earlier`` with
        results the turn leaves untouched on that entry's degrees, with the
        (i, degree of j's shape) of those degrees, i their index in the
        entry.  Second, per component of the turn, the components of
        ``earlier`` whose results lie on it, and where each of its
        positions' entries comes from: (j, i), result i of component j's
        class, or None, an entry ``earlier`` leaves untouched.  Third,
        ``_shape_finals`` of ``earlier``'s components on this turn's final
        positions, which its check reads.

        The two layouts fix all three.  Only the first reads more than the
        components and offsets of both, the check skeleton and the final
        positions: whether a plan drops a result's position, touching it
        or leaving it unresolved on the next page.  It reads that only on
        a degree the run certifies, the degrees of ``checks``.  A plan's
        unresolved set lies inside the worst-case run's, which only grows,
        and no position of the run's last unresolved set lies on a degree
        the run certifies: that is what certifying it means.  So on those
        degrees a plan drops exactly the positions its components touch,
        which the layout fixes, and no plan's own dropped set is read."""
        after = self._after.get(earlier)
        if after is None:
            comps = () if earlier is None else earlier.comps
            # each degree's entry k of ``checks`` and its index i there
            where = {deg: (k, i) for k, degrees in enumerate(self.checks)
                     for i, (deg, _) in enumerate(degrees)}
            touched = {pos for _, positions, _ in self.comps for pos in positions}
            carries = [{} for _ in self.checks]
            for j, (_, _, signature) in enumerate(comps):
                for pos in signature:
                    if pos not in touched and (found := where.get(deg := sum(pos))):
                        k, i = found
                        carries[k].setdefault(j, []).append((i, deg - earlier.bases[j]))
            carries = tuple(tuple((j, tuple(at)) for j, at in by_comp.items())
                            for by_comp in carries)
            at = {pos: (j, i) for j, (_, _, signature) in enumerate(comps)
                  for i, pos in enumerate(signature)}
            sources = tuple((tuple(sorted({src[0] for src in comp if src})), comp)
                            for comp in (tuple(map(at.get, positions))
                                         for _, positions, _ in self.comps))
            after = self._after[earlier] = (carries, sources, _shape_finals(comps, self.final))
        return after

    def results(self, chosen: list[_ComponentClass]) -> list[tuple[Position, FgAbGroup]]:
        """The results of the classes ``chosen`` for the turn's components,
        at their column offsets."""
        return [res for cls, base in zip(chosen, self.bases) for res in cls.at(base)]

    def kept_at(self, parts: dict[int, _Bound]) -> tuple[tuple[_Bound, ...], ...]:
        """The ``parts`` of the untouched entries on each entry of
        ``checks``: what the interval check reads of them."""
        return tuple(tuple(parts.get(deg, _NO_PART) for deg, _ in degrees)
                     for degrees in self.checks)


def _shape_finals(comps: Sequence[tuple[_Arrows, tuple[Position, ...], tuple[Position, ...]]],
                  final: frozenset[Position]) -> tuple[int | None, ...]:
    """Per component of ``comps``: which of its classes' results lie on
    ``final`` positions, bit i for result i, or None when all of them do."""
    return tuple(None if final.issuperset(signature) else
                 sum(1 << i for i, pos in enumerate(signature) if pos in final)
                 for _, _, signature in comps)


class _Bits(dict):
    """The sum of the ``bits`` that a mask selects, bit i for ``bits[i]``,
    by mask, each worked out at its first lookup."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        self.bits = bits

    def __missing__(self, mask: int) -> int:
        total = self[mask] = sum(bit for i, bit in enumerate(self.bits) if mask >> i & 1)
        return total


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
    run = _worst_case_run(root)
    if not {0, 1} <= run.degrees:
        raise WindowError(f"window too small to certify abutment degrees 0 and 1 "
                          f"(rows 0..{root.row_max}, column step {column_step}); "
                          f"the smallest window that can is "
                          f"{_smallest_window(s_homology, column_step)}")
    pins = tuple(constraints)
    # the pins folded once per solve, from which the interval check states
    # its exact bounds (None when two pins of one parity differ, so that no
    # branch agrees with them)
    pinned = _fold_parity(pins)
    # the last turn's lens, one per solve: every position is final there
    exact = table.lens(None, run.width)
    # first leaf per (HF_even, HF_odd), in search order
    leaves: dict[tuple[FgAbGroup, FgAbGroup], BranchLeaf] = {}
    found: set[tuple[int, int]] = set()  # the leaves' abutments, packed by ``exact``
    # the certified degrees of a leaf's page by its unresolved set: every
    # page of the solve has the root's geometry, which is all else they read
    certifies: dict[frozenset[Position], list[int]] = {}
    truncation = False

    def finish(page: BigradedPage, turns: _Chosen) -> None:
        degrees = certifies.get(page.unresolved)
        if degrees is None:
            degrees = certifies[page.unresolved] = certified_degrees(page)
        certified = _certified_sums(page, degrees)
        key = _fold_parity(chain(pins, certified))
        if key is not None and key not in leaves:
            found.add((exact.packed(key[0]), exact.packed(key[1])))
            leaves[key] = BranchLeaf(
                hf_even=key[0], hf_odd=key[1], certified=tuple(certified),
                turns=tuple(_turn(layout, chosen) for layout, chosen in turns),
                stable_page=page.page_index)

    def turn(after: _TurnAfter, live: int, turns: _Chosen) -> None:
        # the turn ``after.plan`` of a branch that took ``turns`` (none at
        # the first page); ``live``: its live bits (``_WorstCase.bits``)
        nonlocal truncation
        prev = turns[-1][1] if turns else []  # the classes of the earlier turn
        if not truncation:
            truncation = after.truncates(prev)
        if pinned is None:  # clashing pins: the first page notes truncation, no branch survives
            return
        plan, kept, class_lists = after.plan, None, None
        layout = plan.layout
        if plan.flow is None:  # the last turn: every bound is exact
            lens, kept_pack, cut = exact, 0, found
        else:
            kept, class_lists = after.untouched(prev), after.class_lists(prev)
            lens = _turn_lens(table, plan, kept, class_lists, pinned)
            kept_pack, cut = plan.flow.pack(kept), ()
        base, memo = after.at(lens)
        parts = _CarriedParts(after, lens, base, prev)
        state = _start_state(plan, lens, parts, kept_pack, pinned, memo, cut)
        if state is None:
            return
        if class_lists is None:  # most last turns end at their start, their lists unread
            class_lists = after.class_lists(prev)
        nexts: dict[_Plan, _TurnAfter] = {}  # the turns after this one
        for chosen in _turn_combinations(plan, lens, class_lists, parts, kept_pack, state, memo,
                                         cut):
            live_next = live
            for cls, zero_bits in zip(chosen, layout.zero_bits):
                live_next &= ~zero_bits[cls.zeros]
            nxt = run.plan(layout.r + 1, live_next, plan.unresolved)  # None after the last turn
            if nxt is None:
                finish(root.turned(layout.r + 1, plan.unresolved,
                                   after.untouched(prev) + layout.results(chosen)),
                       (*turns, (layout, chosen)))
                continue
            following = nexts.get(nxt)
            if following is None:
                following = nexts[nxt] = _TurnAfter(table, plan, nxt, kept, entry_bound)
            turn(following, live_next, (*turns, (layout, chosen)))

    live = (1 << len(run.bits)) - 1  # every position is live on the first page
    plan = run.plan(root.page_index, live, root.unresolved)
    if plan is None:
        finish(root, ())
    else:
        turn(_TurnAfter(table, None, plan, list(root.entries), entry_bound), live, ())
    ordered = tuple(sorted(leaves.values(), key=lambda lf: (str(lf.hf_even), str(lf.hf_odd))))
    return BranchTree(
        column_step=column_step,
        entry_bound=entry_bound,
        row_max=root.row_max,
        leaves=ordered,
        bound_may_truncate=truncation,
    )


class _TurnAfter:
    """The turn ``plan`` after the turn of the plan ``earlier`` (None at
    the first page), decided for each branch the earlier turn keeps
    without building the branch's page.  The branch's entries are
    ``kept``, those the earlier turn leaves untouched, and its chosen
    classes' results, so what the turn reads of them is worked out here
    once per earlier page and plan, and of the classes' results once per
    pair of layouts (``_Layout.after``), and per branch only looked up or
    summed: its components' entries, from ``kept`` or a class's results,
    and the parts of the entries it leaves untouched, kept's and each
    class's (``_CarriedParts``).  Kept's parts and the node memo, the plan's
    layout's for its flow and lens, are fetched once per lens (``at``)."""

    __slots__ = ("table", "earlier", "plan", "entry", "entry_bound", "kept", "carries", "sources",
                 "finals", "_lists", "_at")

    def __init__(self, table: EnumerationTable, earlier: _Plan | None, plan: _Plan,
                 kept: list[tuple[Position, FgAbGroup]], entry_bound: int):
        self.table, self.earlier, self.plan, self.entry_bound = table, earlier, plan, entry_bound
        self.entry = dict(kept).__getitem__
        # the kept entries the turn leaves untouched
        self.kept = [entry for entry in kept if entry[0] not in plan.dropped]
        self.carries, self.sources, self.finals = plan.layout.after(earlier and earlier.layout)
        self._lists: dict[tuple, tuple[_ComponentClass, ...]] = {}  # by what a list reads
        self._at: dict[_Lens, tuple[tuple[tuple[_Bound, ...], ...], dict]] = {}

    def at(self, lens: _Lens) -> tuple[tuple[tuple[_Bound, ...], ...], dict]:
        """The untouched kept entries' ``_Layout.kept_at`` under ``lens``,
        and the turn's node memo there."""
        at = self._at.get(lens)
        if at is None:
            layout = self.plan.layout
            at = self._at[lens] = (layout.kept_at(_degree_parts(self.kept, lens, layout.final)),
                                   layout.memos.setdefault((self.plan.flow, lens), {}))
        return at

    def untouched(self, chosen: list[_ComponentClass]) -> list[tuple[Position, FgAbGroup]]:
        """The entries after ``chosen`` that the turn leaves untouched."""
        dropped = self.plan.dropped
        placed = self.earlier.layout.results(chosen) if self.earlier else []
        return self.kept + [res for res in placed if res[0] not in dropped]

    def groups(self, chosen: list[_ComponentClass], k: int) -> tuple[FgAbGroup, ...]:
        """The entries of the turn's component k after ``chosen``."""
        return tuple(self.entry(pos) if src is None else chosen[src[0]].results[src[1]][1]
                     for pos, src in zip(self.plan.layout.comps[k][1], self.sources[k][1]))

    def truncates(self, chosen: list[_ComponentClass]) -> bool:
        """Whether the bound may truncate a hom space of the turn."""
        for k, (arrows, positions, _) in enumerate(self.plan.layout.comps):
            at = dict(zip(positions, self.groups(chosen, k)))
            if any(bound_may_truncate(at[s], at[t], self.entry_bound) for s, t in arrows):
                return True
        return False

    def class_lists(self, chosen: list[_ComponentClass]) -> list[tuple[_ComponentClass, ...]]:
        """The class lists of the turn's components after ``chosen``, each
        by the classes whose results it reads."""
        lists = []
        for k, (arrows, signature) in enumerate(self.plan.layout.shapes):
            key = (k, *map(id, map(chosen.__getitem__, self.sources[k][0])))
            classes = self._lists.get(key)
            if classes is None:
                classes = self._lists[key] = self.table.classes(
                    arrows, self.groups(chosen, k), self.entry_bound, signature)
            lists.append(classes)
        return lists


class _CarriedParts(dict):
    """``_Layout.kept_at`` of a turn after ``chosen`` (``_TurnAfter``) under
    ``lens``, one entry of its checks at a time as the search first reads
    it: the untouched kept entries' parts (``base``) plus the parts of
    the chosen classes' results that the turn leaves untouched, read by
    the degrees of each class's shape (``_Layout.after``).  A class's
    positions have pairwise distinct degrees (each arrow lowers p + q by
    one), so on a degree the turn carries its results' parts are those
    of the one untouched result there."""

    __slots__ = ("turn", "lens", "base", "chosen")

    def __init__(self, turn: _TurnAfter, lens: _Lens, base: tuple[tuple[_Bound, ...], ...],
                 chosen: list[_ComponentClass]):
        self.turn, self.lens, self.base, self.chosen = turn, lens, base, chosen

    def __missing__(self, k: int) -> tuple[_Bound, ...]:
        turn, chosen, lens = self.turn, self.chosen, self.lens
        finals = turn.finals
        parts = list(self.base[k])
        for j, at in turn.carries[k]:
            left = chosen[j].degree_parts(lens, finals[j])
            for i, deg in at:
                lo, hi = parts[i]
                f, h = left[deg]
                parts[i] = (lo + f, hi + h)
        parts = self[k] = tuple(parts)
        return parts


def _turn(layout: _Layout, chosen: list[_ComponentClass]) -> _Turn:
    """The turn of a plan of ``layout`` that ``chosen`` labels: its page
    index and its nonzero differentials by source position."""
    return layout.r, tuple(sorted(((p + base, q), hom) for cls, base in zip(chosen, layout.bases)
                                  for (p, q), hom in cls.homs))


def _turn_lens(table: EnumerationTable, plan: _Plan, kept: list[tuple[Position, FgAbGroup]],
               class_lists: list[tuple[_ComponentClass, ...]],
               pinned: tuple[FgAbGroup | None, FgAbGroup | None]) -> _Lens:
    """The ``_Lens`` of a turn that is not the last: each prime p dividing
    the exponent E of the torsion among the ``kept`` entries, the results
    of the classes in ``class_lists`` and the ``pinned`` groups, in fields
    of the flow's width.  For any other prime d_p is the free rank, so the
    turn reads every d_p of its groups (see the module docstring); the
    fields do not fix a group, so lo = hi is one exact packed value.  (The
    last turn reads the solve's own lens, under which every bound is one
    exact group.)"""
    entries = chain(kept, *(cls.results for classes in class_lists for cls in classes),
                    ((None, grp) for grp in pinned if grp is not None))
    # the exponent of a group is its last invariant factor
    exponent = lcm(*(grp.torsion[-1] for _, grp in entries if grp.torsion))
    return table.lens(tuple(sorted(_factorize(exponent))), plan.flow.width)


def _start_state(plan: _Plan, lens: _Lens, kept_parts: Sequence[tuple[_Bound, ...]],
                 kept_pack: int, pinned: tuple[FgAbGroup | None, FgAbGroup | None], memo: dict,
                 cut):
    """``check(-1, [], pinned)`` of ``_interval_check``, or None when both
    parities are bounded and their lower ends are in ``cut`` (the leaves
    already found, on a last turn, where every bound is exact).  Besides
    the plan's layout and flow, the lens and the pins (one per solve) the
    check reads only the untouched parts on ``plan.layout.checks[0]`` and, on a
    turn with no component, their ``_Flow.pack``, so it is worked out
    once per distinct such input in ``memo`` (see
    ``_turn_combinations``)."""
    start = memo.get(key := (-1, kept_parts[0], kept_pack))
    if start is None:
        check = _interval_check(plan, lens, kept_parts, kept_pack)
        start = memo[key] = (check(-1, [], pinned),)
    state = start[0]
    if state is not None and state[0] and state[1] and (state[0][0], state[1][0]) in cut:
        return None
    return state


def _turn_combinations(plan: _Plan, lens: _Lens,
                       class_lists: list[tuple[_ComponentClass, ...]],
                       kept_parts: Sequence[tuple[_Bound, ...]], kept_pack: int,
                       state: tuple[_Bound | None, _Bound | None], memo: dict, cut):
    """The combinations of one class per component of ``plan``'s turn
    that ``_interval_check`` keeps at every prefix, depth first in
    product order, from the start ``state`` (``_start_state``).
    ``kept_parts[k]`` holds the parts of the next page's entries that no
    component touches on the degrees of ``plan.layout.checks[k]``
    (``_Layout.kept_at``), ``kept_pack`` their ``_Flow.pack`` and ``lens``
    is the turn's (``_turn_lens``, or the solve's exact lens on the last
    turn); a prefix whose state bounds both parities with lower ends in
    ``cut`` is cut too, read as the prefix is entered.

    A check reads, besides the class, only its component i and that
    component's class list, the state, the untouched parts and the
    parts of each placed class on the degrees ``plan.layout.checks[i +
    1]`` bounds (``_Layout.reads``) and, on the last component of a turn
    that is not the last, the summed ``_Flow.pack``; the rest is fixed by
    the lens, the flow and the plan's ``_Layout``, by page index and
    components (whose page index fixes ``_Layout.settled``, the flow
    being None exactly on the last turn).  So a DFS node's kept children are worked out once
    per distinct such input, in ``memo``, the layout's for that flow and
    lens, and the search visits the same prefixes, in the same order, as
    it would checking each class.  A placed class's parts are read at its
    component's column offset (``_Layout.bases``), by the degrees of its
    shape.

    On the last turn every bound is exact, so at a node whose parities
    are both exact ``_Lens.meet`` is integer equality, and a class
    survives exactly when its parts on the degrees component i completes
    (those of ``plan.layout.checks[i + 1]``) equal the needed remainder:
    each parity value less the untouched parts and the earlier classes'
    parts there.  Such
    a node checks only the classes that ``_Lens.index`` files under that
    remainder, in list order; every other class would fail its check, so
    the kept children are the same.

    The search keeps one stack of sibling iterators, as
    ``_component_classes`` does, so a turn with many components does not
    nest a generator per component.  It yields its own ``chosen`` list,
    which changes once the caller asks for the next combination."""
    chosen: list[_ComponentClass] = []
    if not class_lists:
        yield chosen
        return
    layout, flow = plan.layout, plan.flow
    reads, read, finals, bases = layout.reads, layout.read, layout.finals, layout.bases
    last = len(class_lists) - 1
    check = None  # the turn's ``_interval_check``, built at the first miss
    # per placed class: its ``degree_parts`` when a later check reads them
    # (``_Layout.read``) and, on a turn that is not the last, the summed
    # ``_Flow.pack`` of the untouched entries and the classes placed so far
    parts: list[dict[int, _Bound] | None] = []
    packs = [kept_pack]

    def children(state):
        # the kept children of the node chosen, whose state is ``state``
        nonlocal check
        i = len(chosen)
        classes = class_lists[i]
        key = (i, id(classes), state, kept_parts[i + 1])
        if reads[i]:
            key += tuple(parts[c].get(deg, _NO_PART) for c, deg in reads[i])
        if i == last and flow is not None:
            key += (packs[i],)
        kids = memo.get(key)
        if kids is None:
            if check is None:
                check = _interval_check(plan, lens, kept_parts, kept_pack)
            if flow is None and state[0] and state[1]:
                # the last turn's bounds are exact, so with both parities
                # exact the check is equality: a class survives exactly
                # when its parts on the degrees component i completes are
                # what the parity values leave, less the untouched parts
                # and the earlier classes' parts
                degrees = layout.checks[i + 1]
                needed = tuple(state[deg % 2][0] - lo
                               - sum(parts[c].get(rel, _NO_PART)[0] for c, rel in at[:-1])
                               for (deg, at), (lo, _) in zip(degrees, kept_parts[i + 1]))
                completes = tuple(at[-1][1] for _, at in degrees)
                classes = lens.index(classes, finals[i], completes).get(needed, ())
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
            if even and odd and (even[0], odd[0]) in cut:
                continue
            i = len(chosen)
            chosen.append(cls)
            if i < last:
                parts.append(cls.degree_parts(lens, finals[i]) if read[i] else None)
                if flow is not None:
                    packs.append(packs[-1] + cls.pack(flow, bases[i]))
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


def _interval_check(plan: _Plan, lens: _Lens, kept_parts: Sequence[tuple[_Bound, ...]],
                    kept_pack: int):
    """The check behind ``_turn_combinations``: ``check(i, placed, state)``
    is the state once the classes ``placed`` fill components 0..i (None
    when the branch is cut), and ``check(-1, [], pinned)`` states the
    pinned groups as exact bounds and bounds the degrees no component
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
    their positions, so no real one does) and that of all its entries.

    The same holds for each d_p = dim(M ⊗ F_p) that ``lens`` packs, p a
    prime of the turn (see the module docstring): d_p never grows on a
    subquotient, so an entry's E-infinity value has d_p in [0, d_p of the
    entry], and its own d_p when it is final, and d_p adds on direct
    sums.  So a bound is the packed pair (lo, hi) of the final entries'
    sum and all the entries' sum, and when all its entries are final,
    lo = hi is the degree's exact packed value (on the last turn, its
    exact group).  Like the leaves, these bounds take the split abutment:
    Z/4 has d_2 = 1 where (Z/2)^2 has 2.

    The DFS state is the common bound of each parity so far, narrowed
    one degree at a time by ``_Lens.meet`` on every turn.  Once the
    last component is placed, before the next turn starts, a turn that
    is not the last solves the coupled flow over every later turn at
    once: the branch is cut unless some choice of k leaves each parity
    one common free rank inside its bound; a parity whose last degree is
    bounded keeps its free rank alone (``_Layout.settled``).  Groups enter
    as ints packed by the ``_Lens`` and free ranks for the flow as
    ``_Flow.pack`` ints, summed once for the kept entries and once per
    class, so no node of the DFS adds groups.
    """
    layout, flow, ones, meet = plan.layout, plan.flow, lens.ones, lens.meet
    checks, settled, finals, bases = layout.checks, layout.settled, layout.finals, layout.bases
    last_comp = len(layout.comps) - 1

    def check(i, placed, state):
        # the pins as exact bounds at the start
        out = list(state) if i >= 0 else [grp and (lens.packed(grp),) * 2 for grp in state]
        for (deg, at), (lo, hi) in zip(checks[i + 1], kept_parts[i + 1]):
            for c, rel in at:
                f, h = placed[c].degree_parts(lens, finals[c]).get(rel, _NO_PART)
                lo, hi = lo + f, hi + h
            seen = out[deg % 2] = meet(out[deg % 2], (lo, hi))
            if seen is None:
                return None
        for e in settled[i + 1]:  # only the flow reads these, and only free ranks
            out[e] = (out[e][0] & ones, out[e][1] & ones)
        if i == last_comp and flow is not None:
            (lo_even, hi_even), (lo_odd, hi_odd) = out
            packed = kept_pack + sum(cls.pack(flow, base) for cls, base in zip(placed, bases))
            if not any(lo_even <= even <= hi_even and lo_odd <= odd <= hi_odd
                       for even, odd in flow.values(packed)):
                return None
        return tuple(out)

    return check
