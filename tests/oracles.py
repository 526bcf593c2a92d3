"""Independent oracles shared by the test modules."""

import itertools

from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, composite_is_zero,
                              hom_matrix_space, homology_at)
from cobcheck.spectra import _ComponentClass


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


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    return GroupHom(source, target, IntMatrix.zero(target.generator_count(),
                                                   source.generator_count()))


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
