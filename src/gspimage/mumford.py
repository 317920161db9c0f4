"""The tensor-cube engine over F_l.

The representation (a, b, c) -> a (x) b (x) c of GL2^3 into GSp8, the order
of its image, the special Lagrangian subgroup spanned by e111, e122, e212,
e221, and the two-element pointwise stabilizer of that subgroup inside the
image.

Everything runs at level 1: the construction lives over the prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .galois_model import (
    CapExceeded,
    DegreeReport,
    DEFAULT_CAP,
    _primitive_root,
    degree_report,
    gl2_group,  # perfbench's tracer wraps this binding (layers.REQUIRED_ALIASES)
    gl2_order,
)
from .modring import MatrixMod, NotInvertible, ResidueRing
from .symplectic import SymplecticSpace, m1, multiplier, tensor_form
from .torsion import TorsionSubgroup, subgroup_from_generators

# 0-based positions of e111, e122, e212, e221 in the lexicographic basis
_LAGRANGIAN_INDICES = (0, 3, 5, 6)


class ExpectationFailed(RuntimeError):
    """A value the construction guarantees came out different."""


def _ring(ell: int) -> ResidueRing:
    return ResidueRing(ell, 1)


def tensor_space(ell: int) -> SymplecticSpace:
    return tensor_form(3, _ring(ell))


def rho(a: MatrixMod, b: MatrixMod, c: MatrixMod) -> MatrixMod:
    """Kronecker-product action on the rank-8 module, basis ordered e111..e222."""
    if not (a.ring == b.ring == c.ring):
        raise ValueError("factors must share a ring")
    for M in (a, b, c):
        if M.dim != 2:
            raise ValueError("factors must be 2x2")
        if not M.is_invertible:
            raise NotInvertible("tensor factors must be invertible")
    return a.kron(b).kron(c)


def lagrangian_H(ell: int) -> TorsionSubgroup:
    """The rank-4 subgroup on e111, e122, e212, e221; totally isotropic for
    the tensor form."""
    gens = []
    for idx in _LAGRANGIAN_INDICES:
        v = [0] * 8
        v[idx] = 1
        gens.append(tuple(v))
    return subgroup_from_generators(gens, _ring(ell))


def pointwise_stabilizer_in_image(ell: int, cap: int = DEFAULT_CAP) -> list[MatrixMod]:
    """All image elements rho(a,b,c) fixing e111, e122, e212, e221 pointwise.

    Over a field a pure tensor a e_i (x) b e_j (x) c e_k equals
    e_i (x) e_j (x) e_k only when each factor fixes its basis line, and the
    four targets meet both columns of a, of b and of c.  So a, b and c are
    diagonal, and canonically a = diag(1, alpha), b = diag(1, beta),
    c = diag(g0, g1).  The targets read g0 = 1, beta g1 = 1, alpha g1 = 1
    and alpha beta g0 = 1: so g1 = beta^-1, alpha = beta and beta^2 = 1,
    and one pass over the l - 1 candidates beta keeps the solutions.  The
    cap bounds that count.  Found elements are re-verified against the
    fixed vectors and returned sorted by entries.
    """
    ring = _ring(ell)
    if ell - 1 > cap:
        raise CapExceeded(
            f"tensor-cube stabilizer exceeds cap={cap}: {ell - 1} diagonal candidates at l={ell}"
        )
    found = []
    for beta in range(1, ell):
        if beta * beta % ell == 1:
            g1 = pow(beta, -1, ell)
            a, b, c = (MatrixMod.diagonal(ring, [1, x]) for x in (beta, beta, g1))
            found.append(rho(a, b, c))
    fixed = [tuple(int(t == idx) for t in range(8)) for idx in _LAGRANGIAN_INDICES]
    for M in found:
        if any(M.apply(e) != e for e in fixed):
            raise AssertionError("solver produced a non-fixing element")
    return sorted(found, key=MatrixMod.flat)


def image_order(ell: int) -> int:
    """|image| = (|GL2|/(l-1))^2 * |GL2|: each fiber of rho is one scalar orbit
    {(la a, mu b, nu c) : la mu nu = 1}, of (l-1)^2 triples."""
    n = gl2_order(ell)
    return (n // (ell - 1)) ** 2 * n


@dataclass(frozen=True)
class MumfordReport(DegreeReport):
    """DegreeReport plus the stabilizer and image data specific to this model."""

    stabilizer_size: int
    stabilizer_elements: tuple[tuple[int, ...], ...]
    image_order: int


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ExpectationFailed(message)


def verify_mu_s_failure(
    ells: Sequence[int],
    *,
    cap: int = DEFAULT_CAP,
    mu_c=Fraction(1),
) -> list[MumfordReport]:
    """Run the full counterexample battery for each odd prime in ells.

    Checks, for each l: the Lagrangian has m1 = 0, the pointwise stabilizer
    in the image is exactly {I, diag(1,-1,-1,1,-1,1,1,-1)}, its multipliers
    are {1, -1}, and the cyclotomic intersection degree in the full-image
    model is (l-1)/2.  The resulting ratios grow linearly in l, which is the
    unboundedness the reports document.
    """
    reports = []
    for ell in ells:
        if ell == 2:
            raise ValueError("ell must be odd")
        ring = _ring(ell)
        S = tensor_space(ell)
        H = lagrangian_H(ell)
        m1v = m1(H, S)
        _expect(m1v == 0, f"m1 of the Lagrangian is {m1v}, expected 0 (ell={ell})")
        stab = pointwise_stabilizer_in_image(ell, cap=cap)
        ident = MatrixMod.identity(ring, 8)
        flip = MatrixMod.diagonal(ring, [1, -1, -1, 1, -1, 1, 1, -1])
        _expect(
            set(stab) == {ident, flip},
            f"stabilizer is not {{I, diag(1,-1,-1,1,-1,1,1,-1)}} at ell={ell}",
        )
        lam_T = {multiplier(M, S) for M in stab}
        _expect(lam_T == {1, ell - 1}, f"stabilizer multipliers {lam_T} != {{1,-1}}")
        img = image_order(ell)
        # det maps the torus diag(1, x) onto all units, so lambda(image) is
        # generated by one primitive root
        lam_G = [_primitive_root(ring)]
        rep = degree_report(ring, m1v, img, len(stab), lam_G, lam_T, mu_c)
        inter = rep.deg_cyclo_intersection
        _expect(inter == (ell - 1) // 2, f"intersection degree {inter} != (l-1)/2")
        reports.append(
            MumfordReport(
                **vars(rep),
                stabilizer_size=len(stab),
                stabilizer_elements=tuple(M.flat() for M in stab),
                image_order=img,
            )
        )
    return reports
