"""Symplectic similitude structure over Z/l^n.

Forms (standard and tensor-power), membership in the similitude group via
the multiplier character, the pairing on torsion vectors, and the invariant
m1 of a finite subgroup.  Roots of unity never appear: a pairing value is
carried additively as its exponent in Z/l^m, and "generates mu_{l^k}" turns
into the valuation statement k = m - v(exponent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .modring import MatrixMod, ResidueRing

if TYPE_CHECKING:  # pragma: no cover
    from .torsion import TorsionSubgroup


class NotAlternating(ValueError):
    """Requested form is not alternating."""


class NotSimilitude(ValueError):
    """Matrix does not rescale the symplectic form."""


class OrderTooLarge(ValueError):
    """Point order exceeds the requested pairing level."""


@dataclass(frozen=True)
class SymplecticSpace:
    """A free module of rank 2g with a fixed non-degenerate alternating form."""

    g: int
    form: MatrixMod
    ring: ResidueRing

    def __post_init__(self) -> None:
        f = self.form
        if f.ring != self.ring:
            raise ValueError("form ring mismatch")
        if f.dim != 2 * self.g:
            raise ValueError("form dimension must be 2g")
        neg = (-f).rows
        if f.transpose().rows != neg:
            raise NotAlternating("form must be antisymmetric")
        if any(f.rows[i][i] != 0 for i in range(f.dim)):
            raise NotAlternating("form must have zero diagonal")
        # one nonzero entry per row and per column, each a unit (the
        # standard, tensor and self-product forms): a permuted unit diagonal,
        # invertible without the O(n^3) determinant.  A row's one nonzero
        # entry is its sum, found by index.
        cols = [row.index(sum(row)) if row.count(0) == f.dim - 1 else None for row in f.rows]
        monomial = (
            None not in cols
            and len(set(cols)) == f.dim
            and all(self.ring.is_unit(row[c]) for row, c in zip(f.rows, cols))
        )
        if not monomial and not f.is_invertible:
            raise ValueError("form must be non-degenerate")

    @property
    def dim(self) -> int:
        return 2 * self.g

    @property
    def unit_entry(self) -> tuple[int, int]:
        """The first position (i, j), row-major, of a unit entry of the form;
        a non-degenerate form over a local ring has one."""
        return next(
            (i, j)
            for i, row in enumerate(self.form.rows)
            for j, x in enumerate(row)
            if self.ring.is_unit(x)
        )


def standard_form(g: int, ring: ResidueRing) -> SymplecticSpace:
    """Antidiagonal form: +1 in rows 1..g, -1 in rows g+1..2g."""
    if g < 1:
        raise ValueError("g must be >= 1")
    n, zero = 2 * g, (0,) * (2 * g)
    rows = tuple(
        zero[: n - 1 - i] + (1 if i < g else ring.modulus - 1,) + zero[n - i :] for i in range(n)
    )
    return SymplecticSpace(g, MatrixMod._of_reduced(ring, rows), ring)


def tensor_form(k: int, ring: ResidueRing) -> SymplecticSpace:
    """The 2^k-dimensional Kronecker power of the standard 2x2 form.

    Only odd k yields an alternating form (an even tensor power of
    alternating forms is symmetric).  Basis vectors e_{i1..ik} are ordered
    lexicographically, matching nested Kronecker products.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 0:
        raise NotAlternating("even tensor powers of alternating forms are symmetric")
    psi = MatrixMod(ring, [[0, 1], [-1, 0]])
    form = psi
    for _ in range(k - 1):
        form = form.kron(psi)
    return SymplecticSpace(2 ** (k - 1), form, ring)


def multiplier(M: MatrixMod, S: SymplecticSpace) -> int:
    """The unit lambda in 0..l^n - 1 with M^T form M = lambda * form.

    Raises NotSimilitude when no such unit exists.
    """
    if M.ring != S.ring:
        raise ValueError("ring mismatch")
    if M.dim != S.dim:
        raise ValueError("dimension mismatch")
    form = S.form
    N = M.transpose() @ (form @ M)
    ring = S.ring
    mod = ring.modulus
    i, j = S.unit_entry
    lam = N.rows[i][j] * ring.inverse(form.rows[i][j]) % mod
    if not ring.is_unit(lam) or any(
        n != lam * f % mod for nrow, frow in zip(N.rows, form.rows) for n, f in zip(nrow, frow)
    ):
        raise NotSimilitude("matrix does not rescale the form by a unit")
    return lam


def weil_pairing(P: Sequence[int], Q: Sequence[int], S: SymplecticSpace, n: int) -> int:
    """Level-n pairing of two vectors of order dividing l^n, as the exponent
    in 0..l^n - 1 of the root of unity it stands for.

    The vectors live at the ambient level N of S; they are divided exactly by
    l^(N-n) to land in (Z/l^n)^{2g}, where the pairing is P^T form Q.
    """
    ring = S.ring
    N = ring.level
    if not 1 <= n <= N:
        raise ValueError("pairing level must satisfy 1 <= n <= N")
    shift = ring.ell ** (N - n)
    mod_n = ring.ell ** n
    for v in (P, Q):
        if len(v) != S.dim:
            raise ValueError("vector dimension mismatch")
        if any(x % ring.modulus % shift != 0 for x in v):
            raise OrderTooLarge(f"coordinate not divisible by l^{N - n}")
    p = [x % ring.modulus // shift for x in P]
    q = [x % ring.modulus // shift for x in Q]
    form = S.form.rows
    total = 0
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        row = form[i]
        total += pi * sum(row[j] * q[j] for j in range(len(q)) if row[j])
    return total % mod_n


def m1(H: "TorsionSubgroup", S: SymplecticSpace) -> int:
    """Largest k such that two equal-order points of H pair to a primitive
    l^k-th root.

    A pairing exponent e at level n stands for a root of exact order
    l^(n - v_l(e)), with v_l(0) = n.  Fast path: it suffices to scan pairs
    of Smith-basis generators scaled to their common order.  m1_exhaustive
    is the reference implementation that scans all pairs of elements; the
    two are property-tested against each other.
    """
    if H.ring != S.ring:
        raise ValueError("subgroup and space live over different rings")
    basis, orders = H.basis, H.orders
    ell = S.ring.ell
    best = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            n = min(orders[i], orders[j])
            if n <= best:
                continue  # cannot improve: k <= n
            P = tuple(x * ell ** (orders[i] - n) for x in basis[i])
            Q = tuple(x * ell ** (orders[j] - n) for x in basis[j])
            e = weil_pairing(P, Q, S, n)
            best = max(best, n - min(S.ring.valuation(e), n))
    return best


def _np_valuation(arr: np.ndarray, ell: int, level: int) -> np.ndarray:
    out = np.full(arr.shape, level, dtype=np.int64)
    cur = np.asarray(arr, dtype=np.int64).copy()
    for v in range(level):
        mask = (out == level) & (cur % ell != 0)
        out[mask] = v
        cur //= ell
    return out


def m1_exhaustive(H: "TorsionSubgroup", S: SymplecticSpace) -> int:
    """Reference m1: scan every pair of equal-order elements of H."""
    if H.ring != S.ring:
        raise ValueError("subgroup and space live over different rings")
    ring = S.ring
    ell, N = ring.ell, ring.level
    elems = H.element_array()
    if len(elems) <= 1:
        return 0
    order_exp = N - _np_valuation(elems, ell, N).min(axis=1)
    psi = np.array(S.form.rows, dtype=np.int64)
    best = 0
    for n in range(N, 0, -1):
        if n <= best:
            break
        bucket = elems[order_exp == n]
        if len(bucket) == 0:
            continue
        mod_n = ell ** n
        pts = (bucket // ell ** (N - n)) % mod_n
        right = (psi @ pts.T) % mod_n
        for i0 in range(0, len(pts), 512):
            prod = (pts[i0 : i0 + 512] @ right) % mod_n
            best = max(best, int(n - _np_valuation(prod, ell, n).min()))
            if best == n:
                break
    return best
