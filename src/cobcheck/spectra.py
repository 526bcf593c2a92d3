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
of the full product of hom spaces.  Which maps compose to zero comes
from vanishing masks: the free rows of a whole hom space are packed
into big-int lanes of W bits, W the least multiple of 8 with n * G * C
below 2^(W-1) (n source generators, G and C the largest absolute
entries of the two maps), so one multiply-add tests a column against
every hom at once.

Sibling rule: under one prefix, a hom is skipped when an earlier
sibling has the same signature, which is everything later work reads
of it: its masks for later arrows, the rank and freeness of its image,
its cokernel, and the hom itself where a torsion image forces a
subquotient.  The earlier sibling admits the same completions with the
same homology, at lexicographically smaller labelings that the search
visits first, so the skipped subtree holds no first representative:
the classes, their representatives and their order do not change.

The homology at each position comes from invariants computed once per
hom: M / im(in) for the incoming map, and the rank of im(out) for the
outgoing one; when that image is free it splits off M / im(in), and
only a torsion image falls back to the kernel-lattice subquotient.  Hom
spaces, these invariants and the classes of each component shape live
in an ``EnumerationTable`` that the solves of one run share and that is
dropped with the run, so no enumeration state outlives it.  The solver
turns each page once: the next page is the untouched entries plus the
homology the chosen classes already computed (``turn_page`` is the
validated public path to the same page).  The abutment of every stable
page must be 2-periodic; branches that violate periodicity (or a pinned
value) are pruned, on the last turn while the classes are chosen, by
comparing groups as (free rank, sorted prime powers) keys, and
surviving branches are deduplicated by their abutment in degrees 0 and
1.  A leaf is data only: its abutment, certified degrees and the
differentials of each page turn; the report renders it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import mul

from .abgroup import (FgAbGroup, GroupHom, IntMatrix, ZERO, _factorize,
                      bound_may_truncate, cokernel, composite_is_zero, direct_sum,
                      hom_matrix_space, homology_at, preimage_lattice, relation_matrix,
                      subquotient)
from .graded import GradedGroup


class SpectraError(ValueError):
    """Raised on malformed pages, assignments, or windows."""


class WindowError(SpectraError):
    """The window cannot certify the abutment in degrees 0 and 1."""


Position = tuple[int, int]


@dataclass(frozen=True)
class BigradedPage:
    """One page of the spectral sequence over a finite column window.

    Columns run over p = k * column_step for |k| <= col_span; rows over
    0..row_max.  ``unresolved`` positions have unknown entries (their
    value depends on columns outside the window); ``base_row_support``
    records which rows of the first page are nonzero, which is all that
    can be said about columns outside the window after a turn.
    """

    page_index: int
    column_step: int
    col_span: int
    row_max: int
    entries: tuple[tuple[Position, FgAbGroup], ...]
    unresolved: frozenset[Position] = frozenset()
    base_row_support: frozenset[int] = frozenset()
    _by_position: dict[Position, FgAbGroup] = field(init=False, compare=False, repr=False)
    _arrows: dict[int, tuple[tuple[Position, Position], ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.column_step <= 0 or self.column_step % 2 != 0:
            raise SpectraError("column step must be a positive even integer")
        if self.col_span < 2:
            raise SpectraError("window must cover at least columns -2N..2N")
        cleaned = []
        for (p, q), grp in self.entries:
            if p % self.column_step != 0:
                raise SpectraError(f"entry at column {p} off the column support")
            if not 0 <= q <= self.row_max:
                raise SpectraError(f"entry at row {q} outside rows 0..{self.row_max}")
            if not grp.is_trivial():
                cleaned.append(((p, q), grp))
        object.__setattr__(self, "entries", tuple(sorted(cleaned)))
        object.__setattr__(self, "_by_position", dict(self.entries))

    def window_columns(self) -> tuple[int, ...]:
        n = self.column_step
        return tuple(k * n for k in range(-self.col_span, self.col_span + 1))

    def in_window(self, p: int) -> bool:
        return p % self.column_step == 0 and abs(p) <= self.col_span * self.column_step

    def entry(self, p: int, q: int) -> FgAbGroup:
        return self._by_position.get((p, q), ZERO)


def build_e1(s_homology: GradedGroup, column_step: int, col_span: int = 2,
             row_max: int | None = None) -> BigradedPage:
    """First page: a copy of the intersection homology in every window
    column, zero elsewhere.

    s_homology must be a finite table of a connected closed manifold
    (nonnegative support, nonzero degree 0 entry).
    """
    if s_homology.period is not None:
        raise SpectraError("intersection homology must be a finite table")
    support = s_homology.support()
    if not support or min(support) < 0:
        raise SpectraError("intersection homology must live in nonnegative degrees")
    if s_homology.entry(0).is_trivial():
        raise SpectraError("connected intersection needs a nonzero degree 0 entry")
    top = max(support)
    if row_max is None:
        row_max = top
    if row_max < top:
        raise SpectraError(f"row_max {row_max} below the homology support {top}")
    if col_span * column_step < row_max - 1:
        need = max(2, -(-(row_max - 1) // column_step))
        raise SpectraError(f"window too small to certify abutment degrees 0 and 1 "
                           f"(rows 0..{row_max}, column step {column_step}); "
                           f"the smallest window that can is {need}")
    entries = {}
    for k in range(-col_span, col_span + 1):
        for q, grp in s_homology.entries:
            entries[(k * column_step, q)] = grp
    return BigradedPage(
        page_index=1,
        column_step=column_step,
        col_span=col_span,
        row_max=row_max,
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
        return pos in page.unresolved or not page.entry(p, q).is_trivial()
    return q in page.base_row_support  # entries only shrink after page 1


def _live_rows(page: BigradedPage) -> frozenset[int]:
    rows = set(page.base_row_support)  # columns outside the window always exist
    rows.update(q for (_, q), _ in page.entries)
    rows.update(q for _, q in page.unresolved)
    return frozenset(rows)


def _support_page_from(page: BigradedPage, start: int) -> int | None:
    """First page index r >= start, stepping by the column step, whose
    differentials join two live rows; None when there is none."""
    rows = _live_rows(page)
    r = start
    while r - 1 <= page.row_max:
        if any(q in rows and (q + r - 1) in rows for q in range(page.row_max + 1)):
            return r
        r += page.column_step
    return None


def _first_active_page(page: BigradedPage) -> int | None:
    """Smallest r >= page_index whose differentials touch an entry we
    still know; None when the window content is stable."""
    n = page.column_step
    r = ((max(page.page_index, 1) + n - 1) // n) * n
    while r - 1 <= page.row_max:
        if _arrows_at(page, r):
            return r
        r += n
    return None


def _arrows_at(page: BigradedPage, r: int) -> tuple[tuple[Position, Position], ...]:
    """Arrows (src, tgt) of page r between possibly-nonzero positions
    with at least one endpoint inside the window, in source order;
    computed once per page and r.

    Each arrow has a window endpoint that can be nonzero, so the arrows
    are read off those live positions: the arrow out of each, and the
    arrow into each from outside the window."""
    cached = page._arrows.get(r)
    if cached is not None:
        return cached
    live = {pos for pos in chain(page._by_position, page.unresolved) if page.in_window(pos[0])}
    arrows = []
    for p, q in live:
        tgt = (p - r, q + r - 1)
        if tgt in live or not page.in_window(tgt[0]) and _possibly_nonzero(page, tgt):
            arrows.append(((p, q), tgt))
        src = (p + r, q - r + 1)
        if not page.in_window(src[0]) and _possibly_nonzero(page, src):
            arrows.append((src, (p, q)))
    page._arrows[r] = tuple(sorted(arrows))
    return page._arrows[r]


def _slots_and_unresolved(page: BigradedPage, r: int) -> tuple[
        list[tuple[Position, Position]], frozenset[Position]]:
    """Split page-r arrows into assignment slots (both current entries
    known: inside the window and not already unresolved) and the
    positions this turn makes unresolved.

    An arrow whose other endpoint's *current* entry is unknown carries
    an unknowable map, so the known endpoint's next entry is unknown;
    an arrow between two known entries is enumerable even when the
    neighbour's own next entry will be unknown."""
    arrows = _arrows_at(page, r)

    def current_known(pos: Position) -> bool:
        return page.in_window(pos[0]) and pos not in page.unresolved

    slots = [(s, t) for s, t in arrows if current_known(s) and current_known(t)]
    newly = set()
    for src, tgt in arrows:
        if current_known(src) and not current_known(tgt):
            newly.add(src)
        elif current_known(tgt) and not current_known(src):
            newly.add(tgt)
    return slots, frozenset(newly)


# ---------------------------------------------------------------------------
# Assignments and page turning


@dataclass(frozen=True)
class DifferentialAssignment:
    """Differentials of one page, keyed by source position; absent
    positions carry the zero map.  Consecutive composites must vanish."""

    page_index: int
    homs: tuple[tuple[Position, GroupHom], ...]


def _validate_assignment(page: BigradedPage, d: DifferentialAssignment) -> dict[Position, GroupHom]:
    r = d.page_index
    if r < page.page_index:
        raise SpectraError(
            f"assignment for past page {r} applied to page {page.page_index}")
    first = _first_active_page(page)
    if first is not None and first < r:
        raise SpectraError(f"cannot skip page {first}: it may still carry differentials")
    if r % page.column_step != 0 and d.homs:
        raise SpectraError(f"page {r} differentials are forced zero by column support")
    homs = dict(d.homs)
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


def turn_page(page: BigradedPage, d: DifferentialAssignment) -> BigradedPage:
    """Homology of the page at the assigned differentials: the next page
    holds ker(outgoing)/im(incoming) at every resolved position.

    This is the validated public path (the page, the skipped pages and
    every composite are checked); the branch solver builds the same
    pages from the homology its component classes already computed."""
    homs = _validate_assignment(page, d)
    r = d.page_index
    _, newly_unresolved = _slots_and_unresolved(page, r)
    unresolved = page.unresolved | newly_unresolved
    entries = tuple(
        ((p, q), homology_at(homs.get((p + r, q - r + 1)), homs.get((p, q)), grp))
        for (p, q), grp in page.entries if (p, q) not in unresolved)
    return replace(page, page_index=r + 1, unresolved=unresolved, entries=entries)


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


def _certified_parts(page: BigradedPage) -> dict[int, list[FgAbGroup]]:
    """Each certified degree with the page's entries on its antidiagonal;
    the degrees must include 0 and 1."""
    degs = certified_degrees(page)
    if 0 not in degs or 1 not in degs:
        raise WindowError("window cannot certify abutment degrees 0 and 1")
    parts: dict[int, list[FgAbGroup]] = {deg: [] for deg in degs}
    for (p, q), grp in page.entries:
        if p + q in parts:
            parts[p + q].append(grp)
    return parts


def _certified_sums(page: BigradedPage) -> list[tuple[int, FgAbGroup]]:
    """Each certified degree with the direct sum of its antidiagonal."""
    return [(deg, direct_sum(*grps)) for deg, grps in _certified_parts(page).items()]


def abutment(page: BigradedPage) -> GradedGroup:
    """Direct sum over antidiagonals of a stable page, reported on the
    certified degrees (which must include 0 and 1)."""
    if _first_active_page(page) is not None:
        raise SpectraError("page is not stable; differentials may still act")
    return GradedGroup.from_dict({deg: grp for deg, grp in _certified_sums(page)
                                  if not grp.is_trivial()})


# ---------------------------------------------------------------------------
# Component enumeration


@dataclass(frozen=True)
class _ComponentClass:
    """One isomorphism class of labelings of a chain of arrows: the homs
    of a representative and the entries they produce."""

    results: tuple[tuple[Position, FgAbGroup], ...]
    homs: tuple[tuple[Position, GroupHom], ...]
    # per antidiagonal degree p + q, the ``_group_key`` of the direct sum
    # of the results there, for the pruner; built from the results when
    # not given (a copy shifted by whole columns passes its own)
    degree_keys: dict[int, _Key] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.degree_keys is None:
            parts: dict[int, list[_Key]] = {}
            for (p, q), grp in self.results:
                parts.setdefault(p + q, []).append(_group_key(grp))
            object.__setattr__(self, "degree_keys",
                               {deg: _key_sum(keys) for deg, keys in parts.items()})


# a group's isomorphism class as (free rank, sorted prime powers)
_Key = tuple[int, tuple[int, ...]]


def _group_key(grp: FgAbGroup) -> _Key:
    """The free rank and the sorted prime powers of the torsion: equal
    exactly for isomorphic groups, and cheap to add (``_key_sum``)."""
    return grp.free_rank, tuple(sorted(p ** e for d in grp.torsion
                                       for p, e in _factorize(d).items()))


def _key_sum(keys: list[_Key]) -> _Key:
    """The ``_group_key`` of the direct sum of groups with these keys."""
    if len(keys) == 1:
        return keys[0]
    return (sum(free for free, _ in keys),
            tuple(sorted(chain.from_iterable(powers for _, powers in keys))))


class _HomSpace:
    """The bounded homs source -> target, with the invariants of each
    hom by its index in ``homs``, each computed on first use."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup, bound: int):
        self.target = target
        self.homs = hom_matrix_space(source, target, bound)
        self._relations = relation_matrix(target)
        self._cokernels: list[FgAbGroup | None] = [None] * len(self.homs)
        self._images: list[tuple[int, bool] | None] = [None] * len(self.homs)
        self._kernels: dict[int, IntMatrix] = {}

    def coker(self, h: int) -> FgAbGroup:
        """target / im(hom h)."""
        grp = self._cokernels[h]
        if grp is None:
            grp = self._cokernels[h] = cokernel(self.homs[h].matrix.hstack(self._relations))
        return grp

    def image(self, h: int) -> tuple[int, bool]:
        """The rank of im(hom h) and whether that image is torsion-free."""
        img = self._images[h]
        if img is None:
            if not self.target.torsion:
                # a subgroup of a free group: free, of the matrix rank; with
                # no relations to add, the cokernel is the one coker() keeps
                img = (self.target.free_rank - self.coker(h).free_rank, True)
            elif not self.target.free_rank:
                # a subgroup of a finite group: torsion-free only when zero
                img = (0, self.homs[h].is_zero())
            elif not (kernel := self.kernel(h)).cols:
                # nothing of Z^s maps to zero: a free source embedded whole
                img = (kernel.rows, True)
            else:
                grp = cokernel(kernel)  # source / kernel
                img = (grp.free_rank, not grp.torsion)
            self._images[h] = img
        return img

    def kernel(self, h: int) -> IntMatrix:
        """The kernel lattice of hom h on the source generators."""
        kernel = self._kernels.get(h)
        if kernel is None:
            kernel = self._kernels[h] = preimage_lattice(self.homs[h])
        return kernel


class EnumerationTable:
    """The enumeration work of one run, each piece done once and shared
    by every solve given the table: hom spaces by (source, target,
    bound) with their per-hom invariants, vanishing masks by pair of
    spaces, component classes by normalized shape and by absolute
    component, and the pruner's key of each group.

    The table is the only store: ``cli.run`` makes one per run and a
    direct ``solve_floer`` call makes its own, so no enumeration state
    outlives the run that built it."""

    def __init__(self):
        self._spaces: dict[tuple[FgAbGroup, FgAbGroup, int], _HomSpace] = {}
        self._masks: dict[tuple[_HomSpace, _HomSpace, bool], list[int]] = {}
        self._shapes: dict[tuple, tuple[_ComponentClass, ...]] = {}
        self._placed: dict[tuple, tuple[_ComponentClass, ...]] = {}
        self._keys: dict[FgAbGroup, _Key] = {}

    def space(self, source: FgAbGroup, target: FgAbGroup, bound: int) -> _HomSpace:
        key = (source, target, bound)
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = _HomSpace(source, target, bound)
        return space

    def key(self, grp: FgAbGroup) -> _Key:
        """``_group_key(grp)``, computed once per distinct group."""
        key = self._keys.get(grp)
        if key is None:
            key = self._keys[grp] = _group_key(grp)
        return key

    def masks(self, first: _HomSpace, second: _HomSpace, by_second: bool) -> list[int]:
        """``_vanishing_masks`` of the two spaces, indexed by the homs of
        ``first`` or, when ``by_second``, of ``second``."""
        key = (first, second, by_second)
        masks = self._masks.get(key)
        if masks is None:
            masks = _vanishing_masks(first.homs, second.homs, second.target)
            if by_second:
                masks = _transpose_masks(masks, len(second.homs))
            self._masks[key] = masks
        return masks

    def classes(self, page: BigradedPage, comp: list[tuple[Position, Position]],
                bound: int, skip: frozenset[Position]) -> tuple[_ComponentClass, ...]:
        """``_component_classes`` of one component of ``page``, at its
        absolute positions; positions in ``skip`` (next entry unknowable)
        stay out of the dedup signature.  Each shape is enumerated once:
        positions are shifted so the component starts at column 0, and
        the classes are shifted back once per component."""
        pos_set = sorted({pos for arrow in comp for pos in arrow})
        arrows = tuple(comp)
        groups = tuple((pos, page.entry(*pos)) for pos in pos_set)
        signature = tuple(pos for pos in pos_set if pos not in skip)
        key = (arrows, groups, bound, signature)
        placed = self._placed.get(key)
        if placed is not None:
            return placed
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
            _ComponentClass(
                results=tuple((unshift(pos), grp) for pos, grp in cls.results),
                homs=tuple((unshift(pos), h) for pos, h in cls.homs),
                degree_keys={deg + base_p: k for deg, k in cls.degree_keys.items()},
            )
            for cls in rel)
        return placed


def _component_classes(table: EnumerationTable,
                       arrows: tuple[tuple[Position, Position], ...],
                       groups: tuple[tuple[Position, FgAbGroup], ...],
                       bound: int,
                       signature_positions: tuple[Position, ...]) -> tuple[_ComponentClass, ...]:
    """All labelings of a connected arrow chain by bounded matrices with
    vanishing consecutive composites, deduplicated by the resulting
    homology groups at ``signature_positions`` (positions whose next
    entry is unknowable are excluded by the caller).  Each call
    enumerates afresh; ``EnumerationTable.classes`` keeps the result
    per shape for the rest of the run.

    A depth-first search places one hom per arrow, in ``arrows`` order,
    and extends arrow k only with homs whose composite with every
    already placed neighbour vanishes (bitmask tables over positions in
    the hom space, from ``table``).  It visits labelings in the
    lexicographic order of the full product, so each class keeps the
    same first representative.

    Sibling rule: under one prefix, a hom on arrow k is skipped when an
    earlier hom tried there has the same signature.  The signature is
    everything later work reads of the hom: its mask rows for the later
    arrows it constrains, and, at the signature positions it touches,
    the rank and freeness of its image and its cokernel, plus the hom
    itself wherever a torsion image sends its site to ``subquotient``.
    Equal signatures admit the same completions, and each completion
    gives the same homology under both homs, so every class the skipped
    hom reaches is reached under the earlier one by a labeling that is
    lexicographically smaller and visited first.  The skipped subtree
    therefore holds no first representative, and the classes, their
    representatives and their order are those of the full search.

    Homology ker(out) / im(in) at M comes from per-hom invariants that
    ``table`` computes once per (hom space, hom) for the whole run:
    coker(in) = M / im(in) (M at a chain start), and the rank r of
    im(out) with whether it is torsion-free (r = 0 at a chain end; see
    ``_HomSpace.image``).  A free im(out) splits off M / im(in), leaving
    coker(in) with r fewer free generators, built once per distinct
    result; only a torsion image falls back to ``subquotient`` on the
    kernel lattice, memoized per position by the (incoming, outgoing)
    pair.
    """
    group_of = dict(groups)
    spaces = [table.space(group_of[s], group_of[t], bound) for s, t in arrows]
    incoming_idx = {t: i for i, (_, t) in enumerate(arrows)}
    outgoing_idx = {s: i for i, (s, _) in enumerate(arrows)}
    # constraints[k]: (i, masks) for each placed-before neighbour i of
    # arrow k; masks[h] has bit b set when hom b of arrow k composes to
    # zero with hom h of arrow i.  later[i]: those masks lists of the
    # arrows after arrow i, the mask rows of its homs that they read.
    constraints: list[list[tuple[int, list[int]]]] = [[] for _ in arrows]
    later: list[list[list[int]]] = [[] for _ in arrows]
    for i, (_, tgt) in enumerate(arrows):
        j = outgoing_idx.get(tgt)
        if j is None:
            continue
        masks = table.masks(spaces[i], spaces[j], i > j)
        constraints[max(i, j)].append((min(i, j), masks))
        later[min(i, j)].append(masks)
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
            inc = spaces[i].homs[key[0]] if i is not None else None
            grp = subquotient(spaces[o].kernel(key[1]), inc, group_of[pos])
            # one object per distinct group: a memo holds an entry for
            # every surviving pair
            grp = memo[key] = interned.setdefault(grp, grp)
        return grp

    signature_ids: list[dict[tuple, int]] = [{} for _ in arrows]
    sibling_ids: list[list[int | None]] = [[None] * len(sp.homs) for sp in spaces]

    def sibling_id(k: int, h: int) -> int:
        """The id of hom h's signature on arrow k (see the sibling rule)."""
        sid = sibling_ids[k][h]
        if sid is None:
            space = spaces[k]
            source_site, target_site, feeds_subquotient = touches[k]
            sig = [tuple(masks[h] for masks in later[k])]
            if source_site:
                sig.append(img := space.image(h))
                if not img[1]:
                    sig.append(h)
            if target_site:
                sig.append(space.coker(h))
                if feeds_subquotient:
                    sig.append(h)
            ids = signature_ids[k]
            sid = sibling_ids[k][h] = ids.setdefault(tuple(sig), len(ids))
        return sid

    def allowed(k: int) -> int:
        mask = (1 << len(spaces[k].homs)) - 1
        for i, masks in constraints[k]:
            mask &= masks[chosen[i]]
        return mask

    # pending[k]: homs of arrow k not yet tried under the current prefix,
    # taken lowest bit first to keep the product order; tried[k]: the
    # signatures already tried under it
    pending = [allowed(0)] + [0] * (len(arrows) - 1)
    tried: list[set[int]] = [set() for _ in arrows]
    k = 0
    while k >= 0:
        if not pending[k]:
            k -= 1
            continue
        low = pending[k] & -pending[k]
        pending[k] ^= low
        h = low.bit_length() - 1
        sid = sibling_id(k, h)
        if sid in tried[k]:
            continue
        tried[k].add(sid)
        chosen[k] = h
        if k + 1 < len(arrows):
            k += 1
            pending[k] = allowed(k)
            tried[k].clear()
            continue
        key = tuple((site[0], homology(*site)) for site in sites)
        if key not in classes:
            labeling = [sp.homs[h] for sp, h in zip(spaces, chosen)]
            classes[key] = _ComponentClass(
                results=key,
                homs=tuple((arrow[0], h) for arrow, h in zip(arrows, labeling)
                           if not h.is_zero()),
            )
    return tuple(classes.values())


def _vanishing_masks(first: tuple[GroupHom, ...], second: tuple[GroupHom, ...],
                     target: FgAbGroup) -> list[int]:
    """For each hom f in ``first``: the bitmask of positions of homs g in
    ``second`` with g o f = 0 in ``target``.

    g o f vanishes exactly when g kills every column of f's matrix, so
    the test runs once per distinct column.  The free rows of every g
    are packed into one int per (target row, source column), hom b in
    lane b, so a column's dot products with all the g at once are a few
    big-int multiply-adds.  Lanes are W bits wide, W the least multiple
    of 8 with n * G * C < 2^(W-1), where n is the number of source
    generators of g and G and C are the largest absolute entries of the
    g rows and the f columns; a bias of 2^(W-1) per lane then keeps
    every lane in [0, 2^W), so no lane borrows from or carries into the
    next, and a lane equals the bias exactly when its dot product is 0.
    The top byte of each lane holds its zero flag, and ``bytes.translate``
    with ``int(..., 2)`` packs the flags back into one bit per hom.  Rows
    into torsion generators keep the exact loop modulo their orders, over
    the homs the free rows leave."""
    if not second:
        return [0] * len(first)
    free = target.free_rank
    torsion = tuple(enumerate(target.torsion, start=free))
    n = second[0].matrix.cols
    lanes = len(second)
    top = max((abs(x) for g in second for row in g.matrix.entries[:free] for x in row),
              default=0)
    top_col = max((abs(x) for f in first for row in f.matrix.entries for x in row), default=0)
    width = 8 * ((n * top * top_col).bit_length() // 8 + 1)
    lane_bytes = width // 8
    ones = int.from_bytes(b"\x01".ljust(lane_bytes, b"\x00") * lanes, "little")
    high = ones << (width - 1)  # the bias, and the top bit of every lane
    low = high - ones
    packed = [[sum(g.matrix.entries[i][j] << (b * width) for b, g in enumerate(second))
               for j in range(n)] for i in range(free)]
    kills: dict[tuple[int, ...], int] = {}

    def killers(col: tuple[int, ...]) -> int:
        nonzero = 0
        for row in packed:
            nonzero |= (sum(map(mul, row, col)) + high) ^ high
        flags = ((((nonzero & low) + low) | nonzero) & high) ^ high
        digits = flags.to_bytes(lanes * lane_bytes, "big")[::lane_bytes]
        mask = int(digits.translate(_FLAG_DIGITS), 2)
        if torsion:
            left = mask
            while left:
                low_bit = left & -left
                left ^= low_bit
                g_rows = second[low_bit.bit_length() - 1].matrix.entries
                if any(sum(map(mul, g_rows[i], col)) % o for i, o in torsion):
                    mask ^= low_bit
        return mask

    out = []
    for f in first:
        mask = (1 << lanes) - 1
        for col in zip(*f.matrix.entries):
            m = kills.get(col)
            if m is None:
                m = kills[col] = killers(col)
            mask &= m
        out.append(mask)
    return out


# the top byte of a lane's zero flag (0x80 or 0) as a binary digit
_FLAG_DIGITS = bytes.maketrans(b"\x80\x00", b"10")


def _transpose_masks(masks: list[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit a of out[b] is bit b of masks[a]."""
    out = [0] * width
    for a, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= 1 << a
            mask ^= low
    return out


def _components(slots: list[tuple[Position, Position]]) -> list[list[tuple[Position, Position]]]:
    """Connected components of the arrow set under shared positions."""
    parent: dict[Position, Position] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in slots:
        parent.setdefault(s, s)
        parent.setdefault(t, t)
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    groups: dict[Position, list] = {}
    for arrow in slots:
        groups.setdefault(find(arrow[0]), []).append(arrow)
    return [sorted(groups[k]) for k in sorted(groups)]


# ---------------------------------------------------------------------------
# The branch solver


# one page turn of a branch: the page index and its nonzero differentials
# by source position, sorted
_Turn = tuple[int, tuple[tuple[Position, GroupHom], ...]]


@dataclass(frozen=True)
class BranchLeaf:
    """One consistent outcome: the 2-periodic abutment, the certified
    degree table behind it, and the differentials of every page turn on
    the way to the stable page (turns whose maps all vanish included)."""

    hf: GradedGroup
    certified: tuple[tuple[int, FgAbGroup], ...]
    turns: tuple[_Turn, ...]
    stable_page: int

    @property
    def hf_even(self) -> FgAbGroup:
        return self.hf.entry(0)

    @property
    def hf_odd(self) -> FgAbGroup:
        return self.hf.entry(1)


@dataclass(frozen=True)
class BranchTree:
    """Exhaustive solve result: all consistent Floer homology outcomes
    under the entry bound, deduplicated by abutment in degrees 0, 1."""

    column_step: int
    entry_bound: int
    col_span: int
    row_max: int
    leaves: tuple[BranchLeaf, ...]
    bound_may_truncate: bool

    @property
    def status(self) -> str:
        return "ok" if self.leaves else "empty"


def _fold_parity(values: Iterable[tuple[int, FgAbGroup | _Key]], slots=(None, None)):
    """Fold (degree, group) values, groups or their keys, into the (even,
    odd) slots of a 2-periodic abutment; None as soon as two values of
    one parity differ.  Consumes ``values`` lazily, so a clash stops the
    work that produces the remaining values."""
    out = list(slots)
    for deg, grp in values:
        seen = out[deg % 2]
        if seen is None:
            out[deg % 2] = grp
        elif seen != grp:
            return None
    return tuple(out)


def solve_floer(s_homology: GradedGroup, column_step: int,
                constraints: tuple[tuple[int, FgAbGroup], ...] = (),
                entry_bound: int = 4, col_span: int = 2,
                row_max: int | None = None,
                table: EnumerationTable | None = None) -> BranchTree:
    """Enumerate every spectral-sequence outcome consistent with
    2-periodicity of the abutment and any pinned degrees.

    constraints pins specific abutment degrees: (degree, group) pairs
    are checked against the folded value at degree mod 2.  ``table``
    holds the enumeration work (hom spaces, per-hom invariants and
    component classes) shared with the other solves of a run; without
    one the solve builds its own, which is dropped when it returns.
    """
    if table is None:
        table = EnumerationTable()
    root = build_e1(s_homology, column_step, col_span, row_max)
    pins = tuple(constraints)
    # first leaf per (HF_even, HF_odd), in search order
    leaves: dict[tuple[FgAbGroup, FgAbGroup], BranchLeaf] = {}
    truncation = False

    def finish(page: BigradedPage, turns: list[_Turn]) -> None:
        certified = _certified_sums(page)
        key = _fold_parity(chain(pins, certified))
        if key is not None and key not in leaves:
            leaves[key] = BranchLeaf(
                hf=GradedGroup.from_dict({0: key[0], 1: key[1]}, period=2),
                certified=tuple(certified), turns=tuple(turns),
                stable_page=page.page_index)

    def explore(page: BigradedPage, turns: list[_Turn]) -> None:
        nonlocal truncation
        r = _first_active_page(page)
        if r is None:
            finish(page, turns)
            return
        slots, newly_unresolved = _slots_and_unresolved(page, r)
        comps = _components(slots)
        for s, t in slots:
            if bound_may_truncate(page.entry(*s), page.entry(*t), entry_bound):
                truncation = True
        unresolved = page.unresolved | newly_unresolved
        touched = {pos for s, t in slots for pos in (s, t)}
        # the next page without the components' entries; each branch adds
        # the homology its chosen classes computed
        base = replace(page, page_index=r + 1, unresolved=unresolved,
                       entries=tuple((pos, grp) for pos, grp in page.entries
                                     if pos not in touched and pos not in unresolved))
        class_lists = [table.classes(page, comp, entry_bound, unresolved) for comp in comps]

        # the pruner checks the final abutment, so it only applies when no
        # later page can carry a differential
        if _support_page_from(page, r + page.column_step) is None:
            pruner = _build_pruner(base, comps, pins, table.key)
        else:
            pruner = _accept_all

        def dfs(i: int, chosen: list[_ComponentClass], state) -> None:
            if i == len(class_lists):
                homs = tuple(sorted(hom for cls in chosen for hom in cls.homs))
                results = tuple(res for cls in chosen for res in cls.results)
                explore(replace(base, entries=base.entries + results), turns + [(r, homs)])
                return
            for cls in class_lists[i]:
                placed = chosen + [cls]
                nxt = pruner(i, placed, state)
                if nxt is not None:
                    dfs(i + 1, placed, nxt)

        seed = pruner(-1, [], None)
        if seed is not None:
            dfs(0, [], seed)

    explore(root, [])
    ordered = tuple(sorted(leaves.values(), key=lambda lf: (str(lf.hf_even), str(lf.hf_odd))))
    return BranchTree(
        column_step=column_step,
        entry_bound=entry_bound,
        col_span=col_span,
        row_max=root.row_max,
        leaves=ordered,
        bound_may_truncate=truncation,
    )


def _accept_all(i, placed, state):
    """Pruner for a turn that later pages may still change: no check."""
    return ()


def _build_pruner(base: BigradedPage, comps, pins, key_of):
    """Incremental 2-periodicity checking for a final page turn.

    ``base`` is the next page without the components' entries: it fixes
    the certified degrees and the contribution of untouched entries.
    Each degree is checked once the last component with an entry on its
    antidiagonal is placed (degrees no component reaches are checked
    with the pins before any is placed).  Groups are compared by their
    ``_group_key`` (``key_of`` gives it for one group): the untouched
    entries' key per degree is built once per pruner, each class's per
    degree once per class, and a degree's value once per combination of
    classes on its antidiagonal, so no node of the DFS takes a direct
    sum.  The DFS state is the pair of parity keys found so far.
    """
    sums = {deg: _key_sum([key_of(grp) for grp in grps])
            for deg, grps in _certified_parts(base).items()}
    reach: dict[int, list[int]] = {}  # degree -> the components with an entry on it
    for i, comp in enumerate(comps):
        for deg in {sum(pos) for arrow in comp for pos in arrow if pos not in base.unresolved}:
            if deg in sums:
                reach.setdefault(deg, []).append(i)
    completed_at: dict[int, list[tuple[int, _Key, list[int]]]] = {}
    for deg, key in sums.items():
        at = reach.get(deg, [])
        completed_at.setdefault(at[-1] if at else -1, []).append((deg, key, at))
    pin_keys = [(deg, key_of(grp)) for deg, grp in pins]
    # by degree and the identities of the classes on it, which the table
    # keeps alive for the whole run
    values: dict[tuple[int, ...], _Key] = {}

    def value(deg, key, at, placed):
        memo_key = (deg, *(id(placed[c]) for c in at))
        found = values.get(memo_key)
        if found is None:
            found = values[memo_key] = _key_sum([key, *(placed[c].degree_keys[deg] for c in at)])
        return found

    def check(i, placed, state):
        if i < 0:
            return _fold_parity(chain(pin_keys, ((deg, key) for deg, key, _ in
                                                 completed_at.get(-1, ()))))
        return _fold_parity(((deg, value(deg, key, at, placed))
                             for deg, key, at in completed_at.get(i, ())), state)

    return check
