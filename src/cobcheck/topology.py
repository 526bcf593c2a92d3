"""Homology catalog for the manifolds the scenarios use.

Spheres and real projective spaces come from closed-form tables (the
tests cross-check the real projective table against a cellular chain
complex).  Products go through the Kunneth formula

    H_n(X x Y) = sum_{i+j=n} H_i (x) H_j  +  sum_{i+j=n-1} Tor(H_i, H_j).

The Z_2 Mayer-Vietoris check encodes the rank argument that forces the
first two Stiefel-Whitney classes of a glued space to vanish when its
two pieces are spin: if the restriction to the intersection is
surjective in degrees 0..2, exactness makes the pullback to the pieces
injective there.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .abgroup import FgAbGroup, Z, ZERO, _Record, cyclic, direct_sum, tensor, tor
from .graded import GradedGroup


class TopologyError(ValueError):
    """Raised on malformed space or Lagrangian data."""


# ---------------------------------------------------------------------------
# Space expressions


class Sphere(_Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise TopologyError("sphere dimension must be nonnegative")
        self.n = n


class RealProjective(_Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise TopologyError("projective space dimension must be nonnegative")
        self.n = n


class Product(_Record):
    __slots__ = ("left", "right")

    def __init__(self, left: SpaceExpr, right: SpaceExpr):
        self.left, self.right = left, right


class Explicit(_Record):
    """A space given directly by its integral homology."""

    __slots__ = ("homology", "dimension")

    def __init__(self, homology: GradedGroup, dimension: int):
        if dimension < 0:
            raise TopologyError("dimension must be nonnegative")
        if any(d < 0 for d in homology.support()):
            raise TopologyError("homology must live in nonnegative degrees")
        self.homology, self.dimension = homology, dimension


SpaceExpr = Sphere | RealProjective | Product | Explicit


# ---------------------------------------------------------------------------
# Homology


def _sphere_homology(n: int) -> dict[int, FgAbGroup]:
    if n == 0:
        return {0: FgAbGroup(2)}
    return {0: Z, n: Z}


def _rp_homology_table(n: int) -> dict[int, FgAbGroup]:
    """Closed form: H_0 = Z, H_k = Z/2 for odd k < n, H_n = Z for odd n."""
    out = {0: Z}
    for k in range(1, n):
        if k % 2 == 1:
            out[k] = cyclic(2)
    if n >= 1 and n % 2 == 1:
        out[n] = Z
    return out


def kunneth(hx: GradedGroup, hy: GradedGroup) -> GradedGroup:
    out: dict[int, FgAbGroup] = {}
    for i, gi in hx.entries:
        for j, gj in hy.entries:
            t = tensor(gi, gj)
            if not t.is_trivial():
                out[i + j] = direct_sum(out.get(i + j, ZERO), t)
            tt = tor(gi, gj)
            if not tt.is_trivial():
                out[i + j + 1] = direct_sum(out.get(i + j + 1, ZERO), tt)
    return GradedGroup.from_dict(out)


@lru_cache(maxsize=None)
def homology(space: SpaceExpr) -> GradedGroup:
    """Integral homology of a catalog space.

    >>> str(homology(Sphere(3)))
    '{0: Z, 3: Z}'
    >>> homology(Product(RealProjective(3), Sphere(3))).entry(3)
    FgAbGroup(free_rank=2, torsion=())
    """
    if isinstance(space, Sphere):
        return GradedGroup.from_dict(_sphere_homology(space.n))
    if isinstance(space, RealProjective):
        return GradedGroup.from_dict(_rp_homology_table(space.n))
    if isinstance(space, Product):
        return kunneth(homology(space.left), homology(space.right))
    return space.homology


def z2_cohomology_dims(h: GradedGroup, degrees) -> dict[int, int]:
    """dim_F2 H^k(X; Z_2) from integral homology via universal
    coefficients: rank H_k plus the 2-torsion counts of H_k and
    H_(k-1)."""

    def two_torsion_count(g: FgAbGroup) -> int:
        return sum(1 for d in g.torsion if d % 2 == 0)

    out = {}
    for k in degrees:
        hk, hk1 = h.entry(k), h.entry(k - 1) if k >= 1 else ZERO
        out[k] = hk.free_rank + two_torsion_count(hk) + two_torsion_count(hk1)
    return out


# ---------------------------------------------------------------------------
# Lagrangian data


class LagrangianDescriptor:
    """Declared data of a monotone Lagrangian in CP^ambient_dim.

    maslov is the minimal Maslov number; None means unknown but even
    (the descriptor must then be orientable), which is all a surgery
    product needs.  space is None when no homology data is declared.
    """

    __slots__ = ("name", "space", "ambient_dim", "maslov", "orientable", "spin", "monotone")

    def __init__(self, name: str, space: SpaceExpr | None, ambient_dim: int, maslov: int | None,
                 orientable: bool = True, spin: bool = True, monotone: bool = True):
        if ambient_dim < 1:
            raise TopologyError(f"{name}: ambient dimension must be positive")
        if spin and not orientable:
            raise TopologyError(f"{name}: spin requires orientable")
        if maslov is not None:
            if maslov < 0:
                raise TopologyError(f"{name}: Maslov number must be nonnegative")
            if orientable and maslov % 2 != 0:
                raise TopologyError(f"{name}: orientable Lagrangians have even Maslov number")
        elif not orientable:
            raise TopologyError(f"{name}: unknown Maslov number requires orientable")
        self.name, self.space, self.ambient_dim, self.maslov = name, space, ambient_dim, maslov
        self.orientable, self.spin, self.monotone = orientable, spin, monotone


def pair_maslov(a: LagrangianDescriptor, b: LagrangianDescriptor) -> int:
    """Minimal Maslov number of a pair: gcd of the two numbers, with
    gcd(x, 0) = x.  Both Lagrangians must be monotone with known
    numbers."""
    if not (a.monotone and b.monotone):
        raise TopologyError("pair Maslov number needs monotone Lagrangians")
    if a.maslov is None or b.maslov is None:
        raise TopologyError("pair Maslov number needs declared Maslov numbers")
    return gcd(a.maslov, b.maslov)


def monotonicity_constant(ambient_dim: int) -> int:
    """tau = 2(n+1)/pi for CP^n, returned as the integer 2(n+1) that
    multiplies 1/pi.

    >>> monotonicity_constant(7)
    16
    """
    if ambient_dim < 1:
        raise TopologyError("ambient dimension must be positive")
    return 2 * (ambient_dim + 1)


# ---------------------------------------------------------------------------
# Mayer-Vietoris spin check


def mayer_vietoris_spin_check(l1: dict[int, int], s: dict[int, int],
                              restriction_ranks: dict[int, int]) -> bool:
    """Rank check over Z_2 for a space glued from two pieces along s.

    Inputs are Z_2-cohomology dimensions by degree, as
    ``z2_cohomology_dims`` gives them (an absent degree has dimension
    0), for the first piece l1 and the intersection s, plus the declared
    ranks of the degreewise restriction from l1 to s.
    Returns True when the declared restriction is surjective in
    degrees 1 and 2, which by Mayer-Vietoris exactness forces the
    pullback to the pieces to be injective in degrees 1 and 2; with
    spin pieces that pins w_1 and w_2 of the glued space to zero.
    Degree 0 surjectivity is automatic for connected pieces.

    Returns False (inconclusive) when the surjectivity hypothesis
    fails; raises on missing or impossible rank data.
    """
    for k in (1, 2):
        if k not in restriction_ranks:
            raise TopologyError(f"missing restriction rank in degree {k}")
        rank = restriction_ranks[k]
        if rank < 0 or rank > min(l1.get(k, 0), s.get(k, 0)):
            raise TopologyError(
                f"degree {k}: restriction rank {rank} exceeds the possible range")
    return all(restriction_ranks[k] == s.get(k, 0) for k in (1, 2))
