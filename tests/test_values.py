"""The value classes: plain ``__slots__`` classes whose equality and
hashing are those of the frozen dataclasses they replace."""
import itertools

import pytest

from cobcheck.abgroup import (FgAbGroup, GroupHom, HomValidationError, IntMatrix, Z, ZERO,
                              cyclic)
from cobcheck.exactness import (BranchOutcome, CertStep, Certificate, ClaimVerdict,
                                ExactSequenceProblem, FeasibilityVerdict, Known, Unknown)
from cobcheck.graded import GradedGroup, GradingError, LaurentGrading
from cobcheck.spectra import BigradedPage, BranchLeaf, BranchTree, SpectraError, _ComponentClass
from cobcheck.topology import (Explicit, LagrangianDescriptor, Product, RealProjective, Sphere,
                               TopologyError)

# each class that keeps value equality, with a maker of one value; two
# calls give equal values that are distinct objects
VALUES = {
    FgAbGroup: lambda: FgAbGroup(1, [2, 4]),
    IntMatrix: lambda: IntMatrix.from_rows([[2, 0]]),
    GroupHom: lambda: GroupHom(Z, Z, IntMatrix.from_rows([[2]])),
    GradedGroup: lambda: GradedGroup.from_dict({0: Z, 1: cyclic(2)}),
    Sphere: lambda: Sphere(3),
    RealProjective: lambda: RealProjective(3),
    Product: lambda: Product(Sphere(1), Sphere(2)),
    Explicit: lambda: Explicit(GradedGroup.from_dict({0: Z, 2: Z}), 2),
    Known: lambda: Known(cyclic(2)),
    Unknown: lambda: Unknown("X"),
    ExactSequenceProblem: lambda: ExactSequenceProblem(((Known(ZERO), Unknown("X"), Known(ZERO)),)),
    CertStep: lambda: CertStep("eq", 0, 1, "rk(s0.f0)", 0, 1, "dim(X)"),
    Certificate: lambda: Certificate((CertStep("le", 0, 0, "rk(s0.f0)", 0, 0, 0),),
                                     preamble=("initial bound",)),
    FeasibilityVerdict: lambda: FeasibilityVerdict(False, certificate=Certificate(())),
    BranchOutcome: lambda: BranchOutcome("branch 1", FeasibilityVerdict(True)),
    ClaimVerdict: lambda: ClaimVerdict(("A", "B"), True, "INFEASIBLE", ()),
    _ComponentClass: lambda: _ComponentClass(
        (((0, 0), Z),), (((2, 0), GroupHom(Z, Z, IntMatrix.from_rows([[1]]))),)),
    BranchLeaf: lambda: BranchLeaf(Z, ZERO, ((0, Z),), (), 2),
    BranchTree: lambda: BranchTree(2, 1, 3, (), False),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values_with_equal_hashes(cls):
    a, b = VALUES[cls](), VALUES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(a._fields)  # the hash a frozen dataclass gives
    assert {a: 1}[b] == 1
    # a value is not the tuple of its fields, as a namedtuple would be
    assert a != a._fields and a._fields != a


def test_a_field_change_makes_a_different_value():
    assert FgAbGroup(1, (2,)) != FgAbGroup(1, (4,)) != FgAbGroup(2, (4,))
    assert GroupHom(Z, Z, IntMatrix.from_rows([[2]])) != GroupHom(Z, Z, IntMatrix.from_rows([[3]]))
    assert Product(Sphere(1), Sphere(2)) != Product(Sphere(2), Sphere(1))
    assert VALUES[CertStep]() != CertStep("eq", 0, 1, "rk(s0.f0)", 0, 2, "dim(X)")
    grown = _ComponentClass((((0, 0), Z),), ())
    assert grown != VALUES[_ComponentClass]()
    # the component class caches do not take part
    cached = VALUES[_ComponentClass]()
    cached._parts[frozenset()] = {}
    assert cached == VALUES[_ComponentClass]()


def test_two_classes_with_the_same_field_values_are_unequal():
    pairs = 0
    for first, second in itertools.permutations(VALUES, 2):
        a = VALUES[first]()
        if len(first.__slots__) != len(second.__slots__):
            continue
        b = object.__new__(second)
        for name, value in zip(second.__slots__, (getattr(a, n) for n in first.__slots__)):
            setattr(b, name, value)
        if a._fields == b._fields:
            pairs += 1
            assert a != b and b != a
    assert pairs >= 20
    assert Sphere(3) != RealProjective(3)
    assert Known(cyclic(2)) != Unknown(cyclic(2))


@pytest.mark.parametrize("make, error, message", [
    (lambda: FgAbGroup(-1), ValueError, "free_rank must be nonnegative"),
    (lambda: FgAbGroup(0, (1,)), ValueError, "invariant factor 1 < 2"),
    (lambda: FgAbGroup(0, (4, 2)), ValueError, "violate divisibility: 4 then 2"),
    (lambda: IntMatrix(1, 2, ((1,),)), ValueError, "entry count does not match"),
    (lambda: GroupHom(cyclic(2), Z, IntMatrix.from_rows([[1]])), HomValidationError,
     "a torsion generator maps to an element its order does not kill"),
    (lambda: GroupHom(Z, Z, IntMatrix.from_rows([[1, 1]])), HomValidationError,
     "matrix cols do not match"),
    (lambda: LaurentGrading(-3), GradingError, "deg T must be even and <= -2, got -3"),
    (lambda: GradedGroup(((0, Z), (0, Z))), ValueError, "duplicate degree 0"),
    (lambda: Sphere(-1), TopologyError, "sphere dimension must be nonnegative"),
    (lambda: RealProjective(-1), TopologyError, "projective space dimension"),
    (lambda: Explicit(GradedGroup.from_dict({0: Z}), -1), TopologyError,
     "dimension must be nonnegative"),
    (lambda: LagrangianDescriptor("L", None, 7, 3), TopologyError,
     "L: orientable Lagrangians have even Maslov number"),
    (lambda: LagrangianDescriptor("L", None, 7, None, orientable=False, spin=False),
     TopologyError, "L: unknown Maslov number requires orientable"),
    (lambda: ExactSequenceProblem(((Known(ZERO), Unknown("X")),)), ValueError,
     "every sequence needs at least 3 terms"),
    (lambda: BigradedPage(1, 3, 2, 0, ()), SpectraError, "column step must be"),
    (lambda: BigradedPage(1, 2, 2, 0, (((1, 0), Z),)), SpectraError, "off the column support"),
], ids=["rank", "factor", "chain", "matrix", "hom-torsion", "hom-cols", "grading",
        "degree", "sphere", "rp", "explicit-dim",
        "maslov", "unknown-maslov", "two-terms", "page-step", "page-column"])
def test_bad_input_raises_the_named_error(make, error, message):
    with pytest.raises(error, match=message):
        make()
