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
of the full product of hom spaces; the homology at each position is
memoized by the maps on its own arrows.  The abutment of every stable
page must be 2-periodic; branches that violate periodicity (or a pinned
value) are pruned, and surviving branches are deduplicated by their
abutment in degrees 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .abgroup import (FgAbGroup, GroupHom, IntMatrix, ZERO, bound_may_truncate,
                      composite_is_zero, direct_sum, hom_images,
                      hom_matrix_space, homology_at, preimage_lattice,
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
        raise SpectraError("window too small to certify abutment degrees 0 and 1")
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


def trivial_pages(page: BigradedPage) -> int | None:
    """Index of the first page that can carry a nonzero differential, by
    column and row support alone; pages below it are all equal.  None
    when no differential can ever be nonzero."""
    return _support_page_from(page, page.column_step)


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
    with at least one endpoint inside the window; computed once per page
    and r."""
    cached = page._arrows.get(r)
    if cached is not None:
        return cached
    cols = set(page.window_columns())
    src_cols = sorted(cols | {c + r for c in cols})
    arrows = []
    for p in src_cols:
        for q in range(page.row_max + 1):
            src, tgt = (p, q), (p - r, q + r - 1)
            if not (page.in_window(p) or page.in_window(p - r)):
                continue
            if _possibly_nonzero(page, src) and _possibly_nonzero(page, tgt):
                arrows.append((src, tgt))
    page._arrows[r] = tuple(arrows)
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
    holds ker(outgoing)/im(incoming) at every resolved position."""
    homs = _validate_assignment(page, d)
    r = d.page_index
    _, newly_unresolved = _slots_and_unresolved(page, r)
    unresolved = page.unresolved | newly_unresolved
    entries: dict[Position, FgAbGroup] = {}
    for (p, q), grp in page.entries:
        if (p, q) in unresolved:
            continue
        incoming = homs.get((p + r, q - r + 1))
        outgoing = homs.get((p, q))
        entries[(p, q)] = homology_at(incoming, outgoing, grp)
    return BigradedPage(
        page_index=r + 1,
        column_step=page.column_step,
        col_span=page.col_span,
        row_max=page.row_max,
        entries=tuple(entries.items()),
        unresolved=unresolved,
        base_row_support=page.base_row_support,
    )


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


def is_stable(page: BigradedPage) -> bool:
    return _first_active_page(page) is None


def abutment(page: BigradedPage) -> GradedGroup:
    """Direct sum over antidiagonals of a stable page, reported on the
    certified degrees (which must include 0 and 1)."""
    if not is_stable(page):
        raise SpectraError("page is not stable; differentials may still act")
    degs = certified_degrees(page)
    if 0 not in degs or 1 not in degs:
        raise WindowError("window cannot certify abutment degrees 0 and 1")
    values = {}
    for deg in degs:
        parts = [grp for (p, q), grp in page.entries if p + q == deg]
        total = direct_sum(*parts) if parts else ZERO
        if not total.is_trivial():
            values[deg] = total
    return GradedGroup.from_dict(values)


# ---------------------------------------------------------------------------
# Component enumeration


@dataclass(frozen=True)
class _ComponentClass:
    """One isomorphism class of labelings of a chain of arrows: the homs
    of a representative and the entries they produce."""

    results: tuple[tuple[Position, FgAbGroup], ...]
    homs: tuple[tuple[Position, GroupHom], ...]


@lru_cache(maxsize=None)
def _component_classes(arrows: tuple[tuple[Position, Position], ...],
                       groups: tuple[tuple[Position, FgAbGroup], ...],
                       bound: int,
                       signature_positions: tuple[Position, ...]) -> tuple[_ComponentClass, ...]:
    """All labelings of a connected arrow chain by bounded matrices with
    vanishing consecutive composites, deduplicated by the resulting
    homology groups at ``signature_positions`` (positions whose next
    entry is unknowable are excluded by the caller).  Positions are
    pre-normalized by the caller so equal shapes share cache entries.

    A depth-first search places one hom per arrow, in ``arrows`` order,
    and extends arrow k only with homs whose composite with every
    already placed neighbour vanishes (bitmask tables over positions in
    ``hom_matrix_space``).  It visits the surviving labelings in the
    lexicographic order of the full product, so each class keeps the
    same first representative.  Homology is memoized per call: at a
    chain end by the single hom index, in the middle by the (incoming,
    outgoing) index pair; the kernel lattice of each outgoing hom is
    computed once.
    """
    group_of = dict(groups)
    spaces = [hom_matrix_space(group_of[s], group_of[t], bound) for s, t in arrows]
    incoming_idx = {t: i for i, (_, t) in enumerate(arrows)}
    outgoing_idx = {s: i for i, (s, _) in enumerate(arrows)}
    # constraints[k]: (i, masks) for each placed-before neighbour i of
    # arrow k; masks[h] has bit b set when hom b of arrow k composes to
    # zero with hom h of arrow i
    constraints: list[list[tuple[int, list[int]]]] = [[] for _ in arrows]
    for i, (_, tgt) in enumerate(arrows):
        j = outgoing_idx.get(tgt)
        if j is None:
            continue
        masks = _vanishing_masks(spaces[i], spaces[j], group_of[arrows[j][1]])
        if i < j:
            constraints[j].append((i, masks))
        else:
            constraints[i].append((j, _transpose_masks(masks, len(spaces[j]))))
    sites = [(pos, incoming_idx.get(pos), outgoing_idx.get(pos), {})
             for pos in signature_positions]
    kernels: dict[tuple[int, int], IntMatrix] = {}
    interned: dict[FgAbGroup, FgAbGroup] = {}
    chosen = [0] * len(arrows)
    classes: dict[tuple, _ComponentClass] = {}

    def homology(pos, i, o, memo):
        key = (-1 if i is None else chosen[i], -1 if o is None else chosen[o])
        grp = memo.get(key)
        if grp is None:
            if o is None:
                kernel = IntMatrix.identity(group_of[pos].generator_count())
            else:
                kernel = kernels.get((o, key[1]))
                if kernel is None:
                    kernel = kernels[o, key[1]] = preimage_lattice(spaces[o][key[1]])
            inc = spaces[i][key[0]] if i is not None else None
            grp = subquotient(kernel, inc, group_of[pos])
            # one object per distinct group: a middle memo holds an entry
            # for every surviving pair
            grp = memo[key] = interned.setdefault(grp, grp)
        return grp

    def allowed(k: int) -> int:
        mask = (1 << len(spaces[k])) - 1
        for i, masks in constraints[k]:
            mask &= masks[chosen[i]]
        return mask

    # pending[k]: homs of arrow k not yet tried under the current prefix;
    # taking the lowest bit first keeps the product order
    pending = [allowed(0)] + [0] * (len(arrows) - 1)
    k = 0
    while k >= 0:
        if not pending[k]:
            k -= 1
            continue
        low = pending[k] & -pending[k]
        pending[k] ^= low
        chosen[k] = low.bit_length() - 1
        if k + 1 < len(arrows):
            k += 1
            pending[k] = allowed(k)
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


def _vanishing_masks(first: tuple[GroupHom, ...], second: tuple[GroupHom, ...],
                     target: FgAbGroup) -> list[int]:
    """For each hom f in ``first``: the bitmask of positions of homs g in
    ``second`` with g o f = 0 in ``target``.

    g o f vanishes exactly when g kills every column of f's matrix, so
    the test runs once per distinct column, in plain integer arithmetic
    modulo the target generator orders."""
    orders = target.generator_orders()
    rows = [g.matrix.entries for g in second]
    kills: dict[tuple[int, ...], int] = {}

    def killers(col: tuple[int, ...]) -> int:
        mask = 0
        for b, g_rows in enumerate(rows):
            for row, o in zip(g_rows, orders):
                x = sum(map(mul, row, col))
                if (x % o if o else x):
                    break
            else:
                mask |= 1 << b
        return mask

    out = []
    for f in first:
        mask = (1 << len(second)) - 1
        for col in zip(*f.matrix.entries):
            m = kills.get(col)
            if m is None:
                m = kills[col] = killers(col)
            mask &= m
        out.append(mask)
    return out


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


def _enumerate_component(page: BigradedPage, comp: list[tuple[Position, Position]],
                         bound: int, skip: frozenset[Position]) -> list[_ComponentClass]:
    """Classes of one component, computed on normalized positions and
    mapped back to absolute ones; positions in ``skip`` (next entry
    unknowable) stay out of the dedup signature."""
    base_p = min(p for (p, _), _ in comp)
    shift = lambda pos: (pos[0] - base_p, pos[1])
    unshift = lambda pos: (pos[0] + base_p, pos[1])
    arrows = tuple((shift(s), shift(t)) for s, t in comp)
    pos_set = sorted({pos for arrow in comp for pos in arrow})
    groups = tuple((shift(pos), page.entry(*pos)) for pos in pos_set)
    signature = tuple(shift(pos) for pos in pos_set if pos not in skip)
    rel = _component_classes(arrows, groups, bound, signature)
    return [
        _ComponentClass(
            results=tuple((unshift(pos), grp) for pos, grp in cls.results),
            homs=tuple((unshift(pos), h) for pos, h in cls.homs),
        )
        for cls in rel
    ]


# ---------------------------------------------------------------------------
# The branch solver


@dataclass(frozen=True)
class BranchLeaf:
    """One consistent outcome: the 2-periodic abutment, the certified
    degree table behind it, the assignment trail, and a readable trace."""

    hf: GradedGroup
    certified: tuple[tuple[int, FgAbGroup], ...]
    assignments: tuple[tuple[int, Position, GroupHom], ...]
    trace: tuple[str, ...]

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
    root: BigradedPage
    leaves: tuple[BranchLeaf, ...]
    bound_may_truncate: bool

    @property
    def status(self) -> str:
        return "ok" if self.leaves else "empty"


def _describe_hom(r: int, src: Position, tgt: Position, h: GroupHom) -> str:
    image, kernel, coker = hom_images(h)
    rows = [list(row) for row in h.matrix.entries]
    text = (f"d{r} {src}->{tgt}: {h.source} -> {h.target}, matrix {rows}, "
            f"image {image}, kernel {kernel}, cokernel {coker}")
    if h.source == FgAbGroup(1) and h.target == FgAbGroup(1):
        m = abs(h.matrix.entries[0][0])
        if m:
            text += f" (image index {m} in Z)"
    return text


def solve_floer(s_homology: GradedGroup, column_step: int,
                constraints: tuple[tuple[int, FgAbGroup], ...] = (),
                entry_bound: int = 4, col_span: int = 2,
                row_max: int | None = None) -> BranchTree:
    """Enumerate every spectral-sequence outcome consistent with
    2-periodicity of the abutment and any pinned degrees.

    constraints pins specific abutment degrees: (degree, group) pairs
    are checked against the folded value at degree mod 2.
    """
    root = build_e1(s_homology, column_step, col_span, row_max)
    pins = tuple(constraints)
    leaves: list[BranchLeaf] = []
    truncation = False

    def finish(page: BigradedPage, trace: list[str],
               assignments: list[tuple[int, Position, GroupHom]]) -> None:
        table = abutment(page)
        degs = certified_degrees(page)
        even = {table.entry(d) for d in degs if d % 2 == 0}
        odd = {table.entry(d) for d in degs if d % 2 == 1}
        if len(even) > 1 or len(odd) > 1:
            return
        hf0 = even.pop() if even else ZERO
        hf1 = odd.pop() if odd else ZERO
        for deg, grp in pins:
            if (hf0 if deg % 2 == 0 else hf1) != grp:
                return
        hf = GradedGroup.from_dict({0: hf0, 1: hf1}, period=2)
        lines = trace + [
            f"stable at page {page.page_index}; certified degrees {degs[0]}..{degs[-1]}",
            f"2-periodic abutment: HF_even = {hf0}, HF_odd = {hf1}",
        ]
        leaves.append(BranchLeaf(
            hf=hf,
            certified=tuple((d, table.entry(d)) for d in degs),
            assignments=tuple(assignments),
            trace=tuple(lines),
        ))

    def explore(page: BigradedPage, trace: list[str],
                assignments: list[tuple[int, Position, GroupHom]]) -> None:
        nonlocal truncation
        r = _first_active_page(page)
        if r is None:
            finish(page, trace, assignments)
            return
        slots, newly_unresolved = _slots_and_unresolved(page, r)
        comps = _components(slots)
        for s, t in slots:
            if bound_may_truncate(page.entry(*s), page.entry(*t), entry_bound):
                truncation = True
        skip = page.unresolved | newly_unresolved
        class_lists = [_enumerate_component(page, comp, entry_bound, skip) for comp in comps]

        # the pruner checks the final abutment, so it only applies when no
        # later page can carry a differential
        if _support_page_from(page, r + page.column_step) is None:
            pruner = _build_pruner(page, r, comps, newly_unresolved, pins)
        else:
            pruner = _accept_all

        def emit(chosen: list[_ComponentClass]) -> None:
            homs = tuple((pos, h) for cls in chosen for pos, h in cls.homs)
            d = DifferentialAssignment(page_index=r, homs=homs)
            next_page = turn_page(page, d)
            lines = [f"page {r} differentials:"] if homs else [f"page {r}: all differentials vanish"]
            lines += [_describe_hom(r, src, (src[0] - r, src[1] + r - 1), h)
                      for src, h in sorted(homs)]
            explore(next_page, trace + lines,
                    assignments + [(r, src, h) for src, h in sorted(homs)])

        def dfs(i: int, chosen: list[_ComponentClass], state) -> None:
            if i == len(class_lists):
                emit(chosen)
                return
            for cls in class_lists[i]:
                nxt = pruner(i, chosen, cls, state)
                if nxt is not None:
                    dfs(i + 1, chosen + [cls], nxt)

        seed = pruner(-1, [], None, None)
        if seed is not None:
            dfs(0, [], seed)

    explore(root, [f"E^1: columns at multiples of {column_step}, "
                   f"rows 0..{root.row_max} carry the intersection homology"], [])

    deduped: dict[tuple[FgAbGroup, FgAbGroup], BranchLeaf] = {}
    for leaf in leaves:
        key = (leaf.hf_even, leaf.hf_odd)
        if key not in deduped:
            deduped[key] = leaf
    ordered = tuple(sorted(deduped.values(), key=lambda lf: (str(lf.hf_even), str(lf.hf_odd))))
    return BranchTree(
        column_step=column_step,
        entry_bound=entry_bound,
        col_span=col_span,
        root=root,
        leaves=ordered,
        bound_may_truncate=truncation,
    )


def _accept_all(i, chosen, cls, state):
    """Pruner for a turn that later pages may still change: no check."""
    return ()


def _build_pruner(page: BigradedPage, r: int, comps, newly_unresolved, pins):
    """Incremental 2-periodicity checking for a final page turn.

    Precomputes, per certified degree of the post-turn page, the fixed
    contribution from untouched entries and which components cover the
    rest; as the DFS places components, completed degrees must agree
    with their parity class and any pins.  The DFS state is the pair of
    parity values discovered so far (None = not yet seen).
    """
    shadow = BigradedPage(
        page_index=r + 1,
        column_step=page.column_step,
        col_span=page.col_span,
        row_max=page.row_max,
        entries=page.entries,
        unresolved=page.unresolved | newly_unresolved,
        base_row_support=page.base_row_support,
    )
    degs = certified_degrees(shadow)
    if 0 not in degs or 1 not in degs:
        raise WindowError("window cannot certify abutment degrees 0 and 1")
    comp_of_pos = {}
    for i, comp in enumerate(comps):
        for arrow in comp:
            for pos in arrow:
                comp_of_pos[pos] = i
    info = {}
    for deg in degs:
        fixed = []
        pending: set[int] = set()
        for (p, q), grp in page.entries:
            if p + q != deg or (p, q) in shadow.unresolved:
                continue
            i = comp_of_pos.get((p, q))
            if i is None:
                fixed.append(grp)
            else:
                pending.add(i)
        info[deg] = (direct_sum(*fixed) if fixed else ZERO, pending)
    pin_of = {0: None, 1: None}
    for deg, grp in pins:
        parity = deg % 2
        if pin_of[parity] is not None and pin_of[parity] != grp:
            return lambda *a: None  # contradictory pins: nothing survives
        pin_of[parity] = grp
    completed_at: dict[int, list[int]] = {}
    for deg, (_, pending) in info.items():
        stage = max(pending) if pending else -1
        completed_at.setdefault(stage, []).append(deg)

    def check(i, chosen, cls, state):
        parity_val = dict(state) if state else {0: pin_of[0], 1: pin_of[1]}
        placed = chosen + ([cls] if cls is not None else [])
        for deg in completed_at.get(i, ()):
            fixed, pending = info[deg]
            parts = [fixed]
            for j in sorted(pending):
                parts.extend(grp for (p, q), grp in placed[j].results if p + q == deg)
            val = direct_sum(*parts)
            parity = deg % 2
            if parity_val[parity] is None:
                parity_val[parity] = val
            elif parity_val[parity] != val:
                return None
        return tuple(parity_val.items())

    return check
