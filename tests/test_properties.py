"""Randomized properties of the transform-free Smith diagonal, of the
per-hom homology rule in ``spectra._component_classes``, and of the
per-window deduplication in ``exactness.certify_nonexistence``."""
import contextlib
import copy
import functools
import io
import json
import operator
import tempfile
from importlib import resources
from math import gcd
from pathlib import Path

from hypothesis import given, settings, strategies as st

import cobcheck.abgroup as abgroup
from cobcheck.abgroup import (FgAbGroup, GroupHom, IntMatrix, cokernel,
                              composite_is_zero, from_orders, preimage_lattice,
                              relation_matrix, smith_normal_form, subquotient)
from cobcheck.cli import main
from cobcheck.exactness import CobordismClaim, certify_nonexistence
from cobcheck.graded import LaurentGrading
from cobcheck.spectra import EnumerationTable, _component_classes
from cobcheck.topology import LagrangianDescriptor

from oracles import certify_nonexistence_per_branch, component_classes_by_product


ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))


@st.composite
def matrices(draw, max_dim=5):
    """Integer matrices of any shape up to max_dim, empty ones included,
    some rows and columns forced to zero."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, max_dim - 1)))
    zero_cols = draw(st.sets(st.integers(0, max_dim - 1)))
    data = tuple(tuple(0 if i in zero_rows or j in zero_cols else draw(ENTRIES)
                       for j in range(cols)) for i in range(rows))
    return IntMatrix(rows, cols, data)


@st.composite
def groups(draw, max_rank=3, max_torsion=2):
    return from_orders(*[0] * draw(st.integers(0, max_rank)),
                       *draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=max_torsion)))


@st.composite
def homs(draw, source, target, bound=3):
    """A valid hom: a source generator of order d > 0 moves a target
    generator of order o by a multiple of o / gcd(d, o), so d kills its
    image (and it cannot reach a free target generator at all)."""
    def step(d, o):
        return 1 if d == 0 else (o // gcd(d, o) if o else 0)

    data = tuple(tuple(step(d, o) * draw(st.integers(-bound, bound))
                       for d in source.generator_orders())
                 for o in target.generator_orders())
    return GroupHom(source, target,
                    IntMatrix(len(data), source.generator_count(), data))


@settings(deadline=None, database=None)
@given(matrices())
def test_transform_free_diagonal_matches_smith_normal_form(m):
    _, d, _ = smith_normal_form(m)
    diag = abgroup._eliminate([list(r) for r in m.entries])
    assert diag == tuple(x for x in d.diagonal() if x)


@settings(deadline=None, database=None)
@given(st.data())
def test_homology_from_cokernel_when_outgoing_image_is_free(data):
    # H = ker(out) / im(in) at M; when im(out) = M / ker(out) is free of
    # rank r, M / im(in) is H plus Z^r
    middle = data.draw(groups())
    out = data.draw(homs(middle, data.draw(groups(max_rank=2))))
    kernel = preimage_lattice(out)
    # H depends only on im(in), and every subgroup of ker(out) is the
    # image of a free group: columns are combinations of the kernel lattice
    rank_in = data.draw(st.integers(0, 3))
    coeffs = tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(rank_in))
                   for _ in range(kernel.cols))
    inc = GroupHom(FgAbGroup(rank_in), middle,
                   kernel.mul(IntMatrix(kernel.cols, rank_in, coeffs)))
    assert composite_is_zero(inc, out)
    image = cokernel(kernel)
    if not out.target.torsion:
        # into a free group the image is free, of the matrix rank
        assert image == FgAbGroup(out.target.free_rank - cokernel(out.matrix).free_rank)
    if not image.torsion:
        coker = cokernel(inc.matrix.hstack(relation_matrix(middle)))
        assert (FgAbGroup(coker.free_rank - image.free_rank, coker.torsion)
                == subquotient(kernel, inc, middle))


@settings(deadline=None, database=None, max_examples=40)
@given(st.lists(groups(max_rank=1, max_torsion=1), min_size=3, max_size=3),
       st.integers(1, 2))
def test_component_classes_of_random_chains_match_product_enumeration(shape, bound):
    # A -> M -> B: every class the enumerator reports at A, M and B
    # (image ranks into free and torsion targets, the cokernel rule and
    # its lattice fallback) against homology_at on every labeling of
    # the product
    positions = ((4, 0), (0, 3), (-4, 6))
    groups_at = tuple(zip(positions, shape))
    arrows = tuple(zip(positions, positions[1:]))
    got = _component_classes(EnumerationTable(), arrows, groups_at, bound, positions)
    assert got == component_classes_by_product(arrows, groups_at, bound, positions)


def elementary_two(dim: int) -> FgAbGroup:
    return FgAbGroup(0, (2,) * dim)


@st.composite
def claim_systems(draw):
    """2-5 ends with 1-3 elementary-2 branches each, and claims among
    them: granted or not, sharing ends, one with both ends equal."""
    names = [f"E{i}" for i in range(draw(st.integers(2, 5)))]
    ends = {name: LagrangianDescriptor(name, None, 7, draw(st.sampled_from([2, 4, None])))
            for name in names}
    hf = st.tuples(st.integers(0, 3), st.integers(0, 3))
    branch_sets = {name: [(f"branch {b}", tuple(map(elementary_two, draw(hf))))
                          for b in range(1, draw(st.integers(1, 3)) + 1)]
                   for name in names}
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                    st.booleans()), min_size=1, max_size=5))
    same = draw(st.sampled_from(names))
    pairs.insert(draw(st.integers(0, len(pairs))), (same, same, draw(st.booleans())))
    source = LagrangianDescriptor("S", None, 7, None)
    claims = [CobordismClaim(source, (ends[a], ends[b]), granted) for a, b, granted in pairs]
    return claims, branch_sets


@settings(deadline=None, database=None, max_examples=60)
@given(claim_systems())
def test_certify_nonexistence_matches_per_branch_rebuild(system):
    claims, branch_sets = system
    probe = LagrangianDescriptor("K", None, 7, 8)
    got = certify_nonexistence(claims, branch_sets, probe, LaurentGrading(-2))
    want = certify_nonexistence_per_branch(claims, branch_sets, probe, LaurentGrading(-2))
    assert got == want

    def sharing(verdicts):
        """Branch positions numbered by the verdict object they hold."""
        first: dict[int, int] = {}
        return [first.setdefault(id(b.verdict), len(first))
                for cv in verdicts for b in cv.branches]

    assert sharing(got) == sharing(want)


# single-field mutations of the bundled document: each ends in a report,
# a named validation error or a named solver limit, never a traceback
BUNDLED = json.loads((resources.files("cobcheck") / "data" / "paper_cp7.json").read_text())
DELETE = object()


def field_paths(node, path=()):
    """The path of every key and array element below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


FIELD_PATHS = list(field_paths(BUNDLED))
# JSON values of every type; none is an integer above 1, so no mutation
# raises entry_bound or window (no labeling budget bounds the work yet)
JSON_VALUES = (None, True, "x", 0.5, [], {})


@st.composite
def mutations(draw):
    path = draw(st.sampled_from(FIELD_PATHS))
    doc = copy.deepcopy(BUNDLED)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    old = parent[path[-1]]
    new = draw(st.one_of(
        st.just(DELETE),
        st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]),
        st.integers(-2, 3)))
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@settings(deadline=None, database=None, max_examples=80)
@given(mutations())
def test_single_field_mutations_end_in_a_named_outcome(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    err = err.getvalue()
    assert code in {0, 1, 2, 10}
    assert code != 2 or err.startswith("solver limit:"), err
    assert "Traceback" not in err
