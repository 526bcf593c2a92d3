"""Independent oracles shared by the test modules."""

import itertools
import math
import operator

from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, bound_may_truncate, composite_is_zero, direct_sum,
                              from_orders, hom_matrix_space, homology_at)
from cobcheck.exactness import (BranchOutcome, CertStep, Certificate, ClaimVerdict,
                                ExactSequenceProblem, FeasibilityVerdict, _dims_table,
                                _rank_var, _unknown_bounds, build_cobordism_sequences,
                                check_feasibility)
from cobcheck.graded import GradedGroup
from cobcheck.spectra import (BranchLeaf, BranchTree, EnumerationTable, SpectraError, WindowError,
                              _ComponentClass, _component_classes, _first_active_page,
                              _interval_check, _possibly_nonzero, _shape_finals,
                              _slots_and_unresolved, build_e1, certified_degrees)
from cobcheck.topology import Product, RealProjective, Sphere


def order(grp: FgAbGroup) -> int | None:
    """Group order; None when infinite."""
    return None if grp.free_rank else math.prod(grp.torsion)


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))


def dimension(space) -> int:
    """The dimension of a space expression."""
    if isinstance(space, (Sphere, RealProjective)):
        return space.n
    if isinstance(space, Product):
        return dimension(space.left) + dimension(space.right)
    return space.dimension


def abutment(page) -> GradedGroup:
    """Direct sum over antidiagonals of a stable page, on its certified
    degrees, which must include 0 and 1; the replay check of a leaf's
    certified table."""
    if _first_active_page(page) is not None:
        raise SpectraError("page is not stable; differentials may still act")
    on_degree = {deg: [] for deg in certified_degrees(page)}
    if not {0, 1} <= on_degree.keys():
        raise WindowError("window cannot certify abutment degrees 0 and 1")
    for (p, q), grp in page.entries:
        if p + q in on_degree:
            on_degree[p + q].append(grp)
    sums = {deg: direct_sum(*grps) for deg, grps in on_degree.items()}
    return GradedGroup.from_dict({deg: grp for deg, grp in sums.items() if not grp.is_trivial()})


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination; the
    unimodularity oracle for Smith normal form transforms."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def entry_values(order: int, bound: int) -> tuple[int, ...]:
    """Reference for the values a matrix entry into a generator of
    ``order`` runs over: the residues of the x with |x| <= bound,
    ascending, or into a free generator (order 0) each such x, by
    absolute value, positive first."""
    xs = range(-bound, bound + 1)
    if order:
        return tuple(sorted({x % order for x in xs}))
    return tuple(sorted(xs, key=lambda x: (abs(x), -x)))


def hom_matrix_space_by_product(source: FgAbGroup, target: FgAbGroup, bound: int):
    """Reference for ``abgroup.hom_matrix_space``: every matrix of the
    full product of entry ranges, row-major, kept when ``GroupHom``
    accepts it."""
    s_orders, t_orders = source.generator_orders(), target.generator_orders()
    slots = [entry_values(o, bound) for o in t_orders for _ in s_orders]
    homs = []
    for flat in itertools.product(*slots):
        rows = tuple(flat[i * len(s_orders):(i + 1) * len(s_orders)] for i in range(len(t_orders)))
        try:
            homs.append(GroupHom(source, target, IntMatrix(len(t_orders), len(s_orders), rows)))
        except ValueError:
            continue
    return homs


def components_by_union_find(slots):
    """Reference for ``spectra._components``: the connected components of
    the arrows under shared positions, found by a union-find that assumes
    nothing of their shape, each as its arrows sorted by source, in the
    order of each component's root."""
    parent = {}

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
    groups = {}
    for arrow in slots:
        groups.setdefault(find(arrow[0]), []).append(arrow)
    return [sorted(groups[k]) for k in sorted(groups)]


def solve_floer_without_pruning(s_homology, column_step, constraints=(), entry_bound=4,
                                col_span=2) -> BranchTree:
    """Reference for the pruning of ``spectra.solve_floer``: on every page
    turn, every combination of component classes, each giving the next
    page as the untouched entries plus the homology its classes hold;
    2-periodicity and the pins are checked on the stable page only.  The
    first branch per abutment is kept, in search order, and leaves are
    sorted as the solver sorts them.  Each component's classes are
    enumerated at its own positions, not read from a shape moved to
    column 0 as the solver reads them."""
    table = EnumerationTable()
    placed = {}  # the classes of each component, by its arrows, groups and signature
    root = build_e1(s_homology, column_step, col_span)
    leaves = {}
    truncation = False
    geometry = {}  # the next turn and the certified degrees, by geometry
    sums = {}  # direct sums by summands

    def direct_sum_of(grps):
        grps = tuple(grps)
        if grps not in sums:
            sums[grps] = direct_sum(*grps)
        return sums[grps]

    def explore(page, combos):
        # combos: (page index, classes) of each turn so far
        nonlocal truncation
        key = (page.page_index, frozenset(pos for pos, _ in page.entries), page.unresolved)
        if key not in geometry:
            geometry[key] = (_first_active_page(page), certified_degrees(page))
        found, degrees = geometry[key]
        if found is None:
            if not {0, 1} <= set(degrees):
                raise WindowError("window cannot certify abutment degrees 0 and 1")
            on_degree = {deg: [] for deg in degrees}
            for (p, q), grp in page.entries:
                if p + q in on_degree:
                    on_degree[p + q].append(grp)
            certified = ((deg, direct_sum_of(grps)) for deg, grps in on_degree.items())
            values = {}
            if all(values.setdefault(deg % 2, grp) == grp
                   for deg, grp in itertools.chain(constraints, certified)):
                key = (values[0], values[1])
                if key not in leaves:
                    leaves[key] = BranchLeaf(
                        hf_even=key[0], hf_odd=key[1],
                        certified=tuple((deg, direct_sum_of(grps))
                                        for deg, grps in on_degree.items()),
                        turns=tuple((turn, tuple(sorted(hom for cls in combo for hom in cls.homs)))
                                    for turn, combo in combos),
                        stable_page=page.page_index)
            return
        r, arrows = found
        slots, newly_unresolved = _slots_and_unresolved(arrows, page.known)
        truncation |= any(bound_may_truncate(page.entry(*s), page.entry(*t), entry_bound)
                          for s, t in slots)
        unresolved = page.unresolved | newly_unresolved
        touched = {pos for arrow in slots for pos in arrow}
        kept = tuple((pos, grp) for pos, grp in page.entries
                     if pos not in touched and pos not in unresolved)
        class_lists = []
        for comp in components_by_union_find(slots):
            positions = tuple(sorted({pos for arrow in comp for pos in arrow}))
            key = (tuple(comp), tuple((pos, page.entry(*pos)) for pos in positions),
                   tuple(pos for pos in positions if pos not in unresolved))
            if key not in placed:
                placed[key] = _component_classes(table, key[0], key[1], entry_bound, key[2])
            class_lists.append(placed[key])
        for combo in itertools.product(*class_lists):
            results = tuple(res for cls in combo for res in cls.results)
            explore(page.turned(r + 1, unresolved, kept + results),
                    combos + [(r, combo)])

    explore(root, [])
    return BranchTree(
        column_step=column_step, entry_bound=entry_bound, row_max=root.row_max,
        bound_may_truncate=truncation,
        leaves=tuple(sorted(leaves.values(), key=lambda lf: (str(lf.hf_even), str(lf.hf_odd)))))


def flow_values_by_product(arrows, ranks, degrees):
    """Reference for ``spectra._Flow.values``: every (even, odd) pair of
    common free ranks that one k >= 0 per arrow can leave, found by trying
    every k of every arrow.  ``ranks`` maps each known position to its
    free rank; a k is at most the smaller free rank of its known ends, and
    the k of the arrows at a known position sum to at most its free rank.
    A degree ends at the free rank left on its known positions."""
    arrows = [arrow for arrow in arrows if arrow[0] in ranks or arrow[1] in ranks]
    choices = [range(min(ranks[pos] for pos in arrow if pos in ranks) + 1) for arrow in arrows]
    out = set()
    for ks in itertools.product(*choices):
        left = dict(ranks)
        for arrow, k in zip(arrows, ks):
            for pos in arrow:
                if pos in left:
                    left[pos] -= k
        if min(left.values(), default=0) < 0:
            continue
        ends = [sum(rank for pos, rank in left.items() if sum(pos) == deg) for deg in degrees]
        values = {}
        if all(values.setdefault(deg % 2, end) == end for deg, end in zip(degrees, ends)):
            out.add((values[0], values[1]))
    return out


class WholeFlow:
    """Reference for ``spectra._Flow.values``: the flow built on the same
    ``arrows``, ``known`` positions, certified ``degrees`` and field
    ``width``, solved whole, with no blocks: one state over every capped
    position, the k chosen degree by degree from the top, keeping the set
    of distinct states (free ranks left, even value, odd value)."""

    def __init__(self, arrows, known, degrees, width):
        nodes = sorted({pos for arrow in arrows for pos in arrow if known(pos)})
        self.width = width
        self.nodes = {pos: i for i, pos in enumerate(nodes)}  # capped positions
        self.degrees = sorted(degrees)
        # per degree, from the top: the arrows out of it, each as the
        # indices of its capped ends; its capped positions, cleared once
        # settled; its index among the certified degrees
        out_of = {}
        for s, t in arrows:
            if ends := tuple(self.nodes[pos] for pos in (s, t) if pos in self.nodes):
                out_of.setdefault(sum(s), []).append(ends)
        at = {}
        for i, pos in enumerate(nodes):
            at.setdefault(sum(pos), []).append(i)
        index = {deg: j for j, deg in enumerate(self.degrees)}
        self.steps = tuple((tuple(out_of.get(deg, ())), tuple(at.get(deg, ())),
                            index.get(deg), deg % 2)
                           for deg in sorted({*out_of, *at, *index}, reverse=True))

    def values_of(self, flow, packed):
        """The values of ``packed``, an int of ``flow`` (built on the same
        arrows, known positions, degrees and width), read into one state.
        A capped position that ``flow`` does not pack, one whose block
        certifies no degree, gets a full field: then its arrows can take
        the most, and still no value may change."""
        ones = (1 << self.width) - 1
        ranks = tuple(packed >> flow.nodes[pos] & ones if pos in flow.nodes else ones
                      for pos in self.nodes)
        sums = [packed >> flow.bases[deg] & ones for deg in self.degrees]
        states = {(ranks, (None, None))}
        for arrows, settled, j, parity in self.steps:
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
                if j is not None:
                    value = sums[j] + sum(map(left.__getitem__, settled))
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


def meet_of_each_field(seen, bound):
    """Reference for ``spectra._Lens.meet`` on one field: the common value
    of one parity, ``seen`` so far, narrowed by one more degree's
    ``bound``, each a (lo, hi) pair; None when no value lies in both."""
    if seen is None:
        return bound
    lo, hi = max(bound[0], seen[0]), min(bound[1], seen[1])
    return (lo, hi) if lo <= hi else None


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    return GroupHom(source, target, zero_matrix(target.generator_count(),
                                                source.generator_count()))


def signed_permutation_orbits(space):
    """Reference for ``HomMatrixSpace.canonical``: the orbit of each hom
    of ``space``, as a set of indexes, under every signed permutation of
    equal-order source generators, which permutes a matrix's columns
    within each block of equal orders and negates any of them (entries
    reduced modulo the target orders); and the index of each hom's
    negation."""
    s_orders, t_orders = space.source.generator_orders(), space.target.generator_orders()
    index = {space.matrix(h): h for h in range(len(space))}
    blocks = [list(run) for _, run in itertools.groupby(range(len(s_orders)),
                                                        key=s_orders.__getitem__)]
    moves = [(tuple(itertools.chain(*perms)), signs)
             for perms in itertools.product(*map(itertools.permutations, blocks))
             for signs in itertools.product((1, -1), repeat=len(s_orders))]
    orbits = []
    for h in range(len(space)):
        rows = space.matrix(h)
        orbits.append({index[tuple(tuple(sign * row[j] % t if t else sign * row[j]
                                         for j, sign in zip(order, signs))
                                   for row, t in zip(rows, t_orders))]
                       for order, signs in moves})
    negations = [index[tuple(tuple(-x % t if t else -x for x in row)
                             for row, t in zip(space.matrix(h), t_orders))]
                 for h in range(len(space))]
    return orbits, negations


def component_classes_by_product(arrows, groups, bound, signature_positions):
    """Reference for ``spectra._component_classes``: every labeling in the
    full product of the per-arrow hom spaces, tested for vanishing
    consecutive composites afterwards; classes keep their first
    labeling in product order."""
    group_of = dict(groups)
    spaces = [hom_matrix_space(group_of[s], group_of[t], bound) for s, t in arrows]
    incoming_idx = {t: i for i, (_, t) in enumerate(arrows)}
    outgoing_idx = {s: i for i, (s, _) in enumerate(arrows)}
    classes = {}
    for labeling in itertools.product(*spaces):
        ok = True
        for i, (src, tgt) in enumerate(arrows):
            j = outgoing_idx.get(tgt)
            if j is not None and not composite_is_zero(labeling[i], labeling[j]):
                ok = False
                break
        if not ok:
            continue
        results = []
        for pos in signature_positions:
            inc = labeling[incoming_idx[pos]] if pos in incoming_idx else None
            out = labeling[outgoing_idx[pos]] if pos in outgoing_idx else None
            results.append((pos, homology_at(inc, out, group_of[pos])))
        key = tuple(results)
        if key not in classes:
            classes[key] = _ComponentClass(
                results=key,
                homs=tuple((arrows[i][0], labeling[i]) for i in range(len(arrows))
                           if not labeling[i].is_zero()),
            )
    return tuple(classes.values())


def component_classes_without_skipping(arrows, groups, bound, signature_positions):
    """Reference for the sibling and orbit rules of
    ``spectra._component_classes``: the same depth-first search in
    product order, extending every prefix with every hom whose composites
    with the placed neighbours vanish, and ``homology_at`` at every leaf;
    classes keep their first labeling.

    A composite g o f vanishes exactly when each row of g, a map into
    one cyclic summand of its target, kills each column of f, the image
    of one cyclic summand of f's source; each (column, row) pair is
    tested once, with ``composite_is_zero``."""
    group_of = dict(groups)
    spaces = [hom_matrix_space(group_of[s], group_of[t], bound) for s, t in arrows]
    incoming_idx = {t: i for i, (_, t) in enumerate(arrows)}
    outgoing_idx = {s: i for i, (s, _) in enumerate(arrows)}
    # neighbours[k]: (i, i_first) for each neighbour i placed before arrow
    # k, i_first when arrow i maps into arrow k's source
    neighbours = [[] for _ in arrows]
    for k, (src, tgt) in enumerate(arrows):
        if src in incoming_idx and incoming_idx[src] < k:
            neighbours[k].append((incoming_idx[src], True))
        if tgt in outgoing_idx and outgoing_idx[tgt] < k:
            neighbours[k].append((outgoing_idx[tgt], False))
    chosen = []
    homology = {}
    classes = {}
    killed = {}
    # per arrow: each hom's rows and columns, and the orders of its source
    # and target generators
    rows = [[space.matrix(h) for h in range(len(space))] for space in spaces]
    columns = [[tuple(zip(*matrix)) for matrix in matrices] for matrices in rows]
    orders = [(space.source.generator_orders(), space.target.generator_orders())
              for space in spaces]

    def vanishes(a, f, b, g):
        """Whether hom f of arrow a then hom g of arrow b composes to zero."""
        middle = spaces[b].source
        for d, column in zip(orders[a][0], columns[a][f]):
            for t, row in zip(orders[b][1], rows[b][g]):
                key = (b, d, column, t, row)
                if key not in killed:
                    killed[key] = composite_is_zero(
                        GroupHom(from_orders(d), middle,
                                 IntMatrix(len(column), 1, tuple((x,) for x in column))),
                        GroupHom(middle, from_orders(t), IntMatrix(1, len(row), (row,))))
                if not killed[key]:
                    return False
        return True

    def site(pos):
        i, o = incoming_idx.get(pos), outgoing_idx.get(pos)
        key = (pos, None if i is None else chosen[i], None if o is None else chosen[o])
        if key not in homology:
            homology[key] = homology_at(None if i is None else spaces[i][chosen[i]],
                                        None if o is None else spaces[o][chosen[o]],
                                        group_of[pos])
        return homology[key]

    def extend(k):
        if k == len(arrows):
            key = tuple((pos, site(pos)) for pos in signature_positions)
            if key not in classes:
                labeling = [sp[h] for sp, h in zip(spaces, chosen)]
                classes[key] = _ComponentClass(
                    results=key,
                    homs=tuple((arrows[i][0], h) for i, h in enumerate(labeling)
                               if not h.is_zero()))
            return
        for h in range(len(spaces[k])):
            if all(vanishes(i, chosen[i], k, h) if i_first else vanishes(k, h, i, chosen[i])
                   for i, i_first in neighbours[k]):
                chosen.append(h)
                extend(k + 1)
                chosen.pop()

    extend(0)
    return tuple(classes.values())


def vanishing_masks_by_loop(first, second, target):
    """Reference for ``EnumerationTable.masks``, which is its transpose
    (``transpose_masks``): for each hom f in ``first``, bit b set when
    g = second[b] kills every column of f's matrix, one plain dot
    product per (column, g, target row), each tested modulo the target
    generator order."""
    orders = target.generator_orders()
    rows = [g.matrix.entries for g in second]
    kills = {}

    def killers(col):
        mask = 0
        for b, g_rows in enumerate(rows):
            for row, o in zip(g_rows, orders):
                x = sum(map(operator.mul, row, col))
                if (x % o if o else x):
                    break
            else:
                mask |= 1 << b
        return mask

    out = []
    for f in first:
        mask = (1 << len(second)) - 1
        for col in zip(*f.matrix.entries):
            if col not in kills:
                kills[col] = killers(col)
            mask &= kills[col]
        out.append(mask)
    return out


def transpose_masks(masks, width):
    """Bit-matrix transpose: bit a of out[b] is bit b of masks[a], for
    ``width`` output rows."""
    return [sum(1 << a for a, mask in enumerate(masks) if mask >> b & 1) for b in range(width)]


def orthogonal_by_loop(vectors, others, order):
    """Reference for ``spectra._orthogonal``: for each vector v, bit b
    set when v . others[b] is 0 modulo ``order`` (0: exactly), one plain
    dot product per pair."""
    out = []
    for v in vectors:
        mask = 0
        for b, w in enumerate(others):
            x = sum(map(operator.mul, v, w))
            if not (x % order if order else x):
                mask |= 1 << b
        out.append(mask)
    return out


def rp_boundary_matrices(n: int) -> list[IntMatrix]:
    """Cellular boundary maps of RP^n: one cell per dimension 0..n,
    d_k = multiplication by 1 + (-1)^k.  Entry k is d_k: C_k -> C_{k-1}."""
    mats = [IntMatrix(0, 1, ())]  # d_0: C_0 -> 0
    for k in range(1, n + 1):
        mats.append(IntMatrix.from_rows([[1 + (-1) ** k]]))
    return mats


def cellular_homology(boundaries: list[IntMatrix]) -> dict[int, FgAbGroup]:
    """Homology of a chain complex given by boundary matrices
    d_k: C_k -> C_{k-1} (entry k of the list); an independent oracle
    built on kernels and images only."""
    out = {}
    top = len(boundaries) - 1
    for k in range(top + 1):
        d_k = boundaries[k]
        free_k = FgAbGroup(d_k.cols)
        outgoing = None
        if d_k.rows > 0:
            outgoing = GroupHom(free_k, FgAbGroup(d_k.rows), d_k)
        incoming = None
        if k + 1 <= top and boundaries[k + 1].cols > 0:
            incoming = GroupHom(FgAbGroup(boundaries[k + 1].cols), free_k, boundaries[k + 1])
        grp = homology_at(incoming, outgoing, free_k)
        if not grp.is_trivial():
            out[k] = grp
    return out


def rp_homology_cellular(n: int) -> dict[int, FgAbGroup]:
    return cellular_homology(rp_boundary_matrices(n))


def certify_nonexistence_per_branch(claims, branch_sets, probe, grading):
    """Reference for ``exactness.certify_nonexistence``: every claim's
    window is rebuilt in every branch combination, and problems are
    keyed by their full term sequences."""
    source = claims[0].source
    unknown = f"HF1({probe.name},{source.name})"
    end_names = sorted({lag.name for c in claims for lag in c.ends})
    granted = [k for k, c in enumerate(claims) if c.granted]
    combos = []
    for combo in itertools.product(*(branch_sets[name] for name in end_names)):
        hf = {name: value for name, (_, value) in zip(end_names, combo)}
        label = ", ".join(f"HF({probe.name},{name}) = ({value[0]}, {value[1]})"
                          for name, (_, value) in zip(end_names, combo))
        combos.append((label, [build_cobordism_sequences(probe, c.ends, c.source, hf,
                                                         unknown, grading).sequences
                               for c in claims]))
    verdicts = {}
    out = []
    for k, claim in enumerate(claims):
        used = granted + ([k] if not claim.granted else [])
        outcomes = []
        for label, built in combos:
            problem = ExactSequenceProblem(
                sequences=tuple(dict.fromkeys(seq for j in used for seq in built[j])))
            if problem not in verdicts:
                verdicts[problem] = check_feasibility(problem)
            outcomes.append(BranchOutcome(label, verdicts[problem]))
        infeasible = all(not oc.verdict.feasible for oc in outcomes)
        out.append(ClaimVerdict(
            ends=(claim.ends[0].name, claim.ends[1].name),
            granted=claim.granted,
            verdict="INFEASIBLE" if infeasible else "NOT OBSTRUCTED",
            branches=tuple(outcomes),
        ))
    return out


class State:
    """The string-keyed interval store of the reference propagation,
    with deduction logging: unknowns at [0, ub], ranks at [0, a cap above
    any value they can take]."""

    def __init__(self, dims, ub):
        self.dims = dims
        big = sum(ub.values()) + sum(d for seq in dims for d in seq if isinstance(d, int)) + 1
        self.iv = {name: (0, hi) for name, hi in ub.items()}
        for s, seq in enumerate(dims):
            for i in range(len(seq) - 1):
                self.iv[_rank_var(s, i)] = (0, big)
        self.steps = []
        self.contradiction = False

    def interval(self, x):
        return (x, x) if isinstance(x, int) else self.iv[x]

    def tighten(self, var, lo, hi, kind, seq, pos) -> bool:
        cur_lo, cur_hi = self.iv[var]
        lo, hi = max(lo, cur_lo), min(hi, cur_hi)
        if (lo, hi) == (cur_lo, cur_hi):
            return False
        self.iv[var] = (lo, hi)
        self.steps.append(CertStep(kind, seq, pos, var, lo, hi, self.dims[seq][pos]))
        if lo > hi:
            self.contradiction = True
        return True


def attempts_by_name(dims):
    """Every tightening of one propagation sweep, in sweep order, as
    (variable, rule, sequence, position, x, y): "le" bounds a rank by
    term x, "diff" sets one rank of an exactness equation to term x
    minus rank y, and "sum" sets an unknown term to ranks x plus y.
    Also, per variable, the attempts that read it."""
    out = []
    readers = {}
    for s, seq in enumerate(dims):
        ranks = [_rank_var(s, i) for i in range(len(seq) - 1)]
        for i, rv in enumerate(ranks):
            for j in (i, i + 1):
                out.append((rv, "le", s, j, seq[j], None))
        for j in range(1, len(seq) - 1):
            a, b, d = ranks[j - 1], ranks[j], seq[j]
            out.append((a, "diff", s, j, d, b))
            out.append((b, "diff", s, j, d, a))
            if isinstance(d, str):
                out.append((d, "sum", s, j, a, b))
    for k, (_, _, _, _, x, y) in enumerate(out):
        if isinstance(x, str):
            readers.setdefault(x, []).append(k)
        if y is not None:
            readers.setdefault(y, []).append(k)
    return out, readers


def propagate(state) -> None:
    """Run all constraints to a fixpoint, logging each tightening, and
    skip an attempt until a variable it reads changes."""
    attempts, readers = attempts_by_name(state.dims)
    stale = [True] * len(attempts)
    changed = True
    while changed:
        changed = False
        for k, (var, rule, s, j, x, y) in enumerate(attempts):
            if not stale[k]:
                continue
            stale[k] = False
            if rule == "le":
                lo, hi = 0, state.interval(x)[1]
            elif rule == "diff":
                (lo_x, hi_x), (lo_y, hi_y) = state.interval(x), state.iv[y]
                lo, hi = lo_x - hi_y, hi_x - lo_y
            else:
                (lo_x, hi_x), (lo_y, hi_y) = state.iv[x], state.iv[y]
                lo, hi = lo_x + lo_y, hi_x + hi_y
            if state.tighten(var, lo, hi, "le" if rule == "le" else "eq", s, j):
                if state.contradiction:
                    return
                changed = True
                for r in readers.get(var, ()):
                    stale[r] = True


def propagate_by_full_sweeps(state) -> None:
    """Reference for the stale-attempt skipping of ``propagate`` (and of
    ``exactness._Sweep.run``): every constraint of every sequence in each
    sweep, until a sweep changes nothing."""
    dims = state.dims
    while True:
        changed = False
        for s, seq in enumerate(dims):
            for i in range(len(seq) - 1):
                for j in (i, i + 1):
                    changed |= state.tighten(_rank_var(s, i), 0, state.interval(seq[j])[1],
                                             "le", s, j)
                    if state.contradiction:
                        return
            for j in range(1, len(seq) - 1):
                a, b = _rank_var(s, j - 1), _rank_var(s, j)
                lo_d, hi_d = state.interval(seq[j])
                changed |= state.tighten(a, lo_d - state.iv[b][1], hi_d - state.iv[b][0],
                                         "eq", s, j)
                if state.contradiction:
                    return
                changed |= state.tighten(b, lo_d - state.iv[a][1], hi_d - state.iv[a][0],
                                         "eq", s, j)
                if state.contradiction:
                    return
                if isinstance(seq[j], str):
                    (lo_a, hi_a), (lo_b, hi_b) = state.iv[a], state.iv[b]
                    changed |= state.tighten(seq[j], lo_a + lo_b, hi_a + hi_b, "eq", s, j)
                    if state.contradiction:
                        return
        if not changed:
            return


def prune_steps(dims, steps):
    """The steps the final contradiction transitively relies on: a step
    relies on every earlier step that set a variable its cited
    constraint reads, and on earlier settings of its own variable."""

    def reads(step):
        s, j = step.seq, step.pos
        d = dims[s][j]
        out = {d} if isinstance(d, str) else set()
        if step.kind == "eq":
            out |= {_rank_var(s, j - 1), _rank_var(s, j)}
            out.discard(step.var)
        return out

    keep = [False] * len(steps)
    keep[-1] = True
    needed = {steps[-1].var} | reads(steps[-1])
    for idx in range(len(steps) - 2, -1, -1):
        step = steps[idx]
        if step.var in needed:
            keep[idx] = True
            needed |= reads(step)
    return tuple(s for s, k in zip(steps, keep) if k)


def first_chain_by_trial(d):
    """Reference for ``exactness._first_chain``: each first rank in
    ascending order, the chain it forces checked rank by rank."""
    for r0 in range(min(d[0], d[1]) + 1):
        chain = [r0]
        for j in range(1, len(d) - 1):
            nxt = d[j] - chain[-1]
            if nxt < 0 or nxt > min(d[j], d[j + 1]):
                break
            chain.append(nxt)
        else:
            return chain
    return None


def search_witness(dims, state):
    """Exhaustive search inside the propagated intervals: the unknown's
    dimension in ascending order, then one rank chain per sequence."""
    names = sorted({d for seq in dims for d in seq if isinstance(d, str)})
    boxes = [range(state.iv[n][0], state.iv[n][1] + 1) for n in names]
    for combo in itertools.product(*boxes):
        val = dict(zip(names, combo))
        ranks = []
        for seq in dims:
            chain = first_chain_by_trial([x if isinstance(x, int) else val[x] for x in seq])
            if chain is None:
                break
            ranks.append(chain)
        else:
            return {"dims": val, "ranks": {f"s{s}": tuple(r) for s, r in enumerate(ranks)}}
    return None


def check_feasibility_by_propagation(problem, propagate=propagate) -> FeasibilityVerdict:
    """Reference for ``exactness.check_feasibility``: string-keyed
    propagation on every problem, a certificate from its pruned log when
    it empties an interval, and otherwise an ascending search over the
    unknown's propagated interval."""
    dims = _dims_table(problem)
    ub = _unknown_bounds(dims)
    preamble = tuple(f"initial bound: {name} in [0, {hi}] (from the exactness rank equations)"
                     for name, hi in sorted(ub.items()))
    state = State(dims, ub)
    propagate(state)
    if state.contradiction:
        return FeasibilityVerdict(False, certificate=Certificate(
            prune_steps(dims, state.steps), preamble))
    witness = search_witness(dims, state)
    if witness is None:
        raise AssertionError("propagation found no contradiction and the search no witness")
    return FeasibilityVerdict(True, witness=witness)


def arrows_by_scan(page, r):
    """Reference for ``spectra._arrows_at``: every (column, row) source
    on the window columns and their shifts by r, tested at both ends."""
    cols = set(page.window_columns())
    arrows = []
    for p in sorted(cols | {c + r for c in cols}):
        for q in range(page.row_max + 1):
            src, tgt = (p, q), (p - r, q + r - 1)
            if not (page.in_window(p) or page.in_window(p - r)):
                continue
            if _possibly_nonzero(page, src) and _possibly_nonzero(page, tgt):
                arrows.append((src, tgt))
    return tuple(arrows)


def turn_combinations_by_check(plan, lens, class_lists, kept_parts, kept_pack, state, memo, cut):
    """Reference for ``spectra._turn_combinations``: each class under
    each prefix checked by the unmemoized ``_interval_check``, depth first
    in product order from the start ``state``.  ``cut`` is read just
    before a kept class is entered, as the search reads it; ``memo`` is
    not read."""
    check = _interval_check(plan, lens, kept_parts, kept_pack)

    def entered(state):
        even, odd = state
        return not (even and odd and (even[0], odd[0]) in cut)

    def walk(chosen, state):
        if len(chosen) == len(class_lists):
            yield chosen
            return
        for cls in class_lists[len(chosen)]:
            nxt = check(len(chosen), [*chosen, cls], state)
            if nxt is not None and entered(nxt):
                yield from walk([*chosen, cls], nxt)

    yield from walk([], state)


def turn_after_by_dropped_set(earlier, plan):
    """Reference for ``spectra._Layout.after``: what the turn of ``plan``
    reads of the turn of the plan ``earlier`` (None at the first page),
    worked out from the two plans, as the solver did once per pair of
    plans.  An earlier result is carried on an entry of the turn's checks
    when its position is not in ``plan.dropped``, the positions the turn
    touches or leaves unresolved on the next page."""
    layout = plan.layout
    comps = () if earlier is None else earlier.layout.comps
    where = {deg: (k, i) for k, degrees in enumerate(layout.checks)
             for i, (deg, _) in enumerate(degrees)}
    carries = [{} for _ in layout.checks]
    for j, (_, _, signature) in enumerate(comps):
        for pos in signature:
            if pos not in plan.dropped and (found := where.get(deg := sum(pos))):
                k, i = found
                carries[k].setdefault(j, []).append((i, deg - earlier.layout.bases[j]))
    carries = tuple(tuple((j, tuple(at)) for j, at in by_comp.items()) for by_comp in carries)
    at = {pos: (j, i) for j, (_, _, signature) in enumerate(comps)
          for i, pos in enumerate(signature)}
    sources = tuple((tuple(sorted({src[0] for src in comp if src})), comp)
                    for comp in (tuple(map(at.get, positions))
                                 for _, positions, _ in layout.comps))
    return carries, sources, _shape_finals(comps, layout.final)
