"""Finite subgroups of (Z/l^N)^d in Smith-basis normal form.

A subgroup is carried by an invariant-factor basis e_1, .., e_r with exact
orders l^{m_1} >= .. >= l^{m_r}, together with the row transform that makes
membership a divisibility check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .modring import MatrixMod, ResidueRing, _combine, _smith_rect

_ENUM_CAP = 2_000_000


class TorsionSubgroup:
    """Immutable subgroup of (Z/l^N)^d; build via subgroup_from_generators."""

    __slots__ = ("ring", "ambient_dim", "basis", "orders", "_transform", "_divisors")

    def __init__(self, ring, ambient_dim, basis, orders, transform, divisors):
        self.ring = ring
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(x % ring.modulus for x in b) for b in basis)
        self.orders = tuple(orders)
        self._transform = transform  # U with U*v divisible by l^{s_i} iff v in H
        self._divisors = tuple(divisors)
        if any(m <= 0 for m in self.orders):
            raise ValueError("orders must be positive")
        if list(self.orders) != sorted(self.orders, reverse=True):
            raise ValueError("orders must be non-increasing")

    @property
    def order(self) -> int:
        return self.ring.ell ** sum(self.orders)

    @property
    def exponent(self) -> int:
        """e with l^e the exponent of the group (0 for the trivial group)."""
        return self.orders[0] if self.orders else 0

    def is_trivial(self) -> bool:
        return not self.orders

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        ell = self.ring.ell
        w = self._transform.apply(v)
        return all(x % ell ** s == 0 for x, s in zip(w, self._divisors))

    def slice(self, m: int) -> "TorsionSubgroup":
        """The subgroup H[l^m] of elements killed by l^m."""
        if m < 0:
            raise ValueError("m must be >= 0")
        ell = self.ring.ell
        gens = [
            tuple(x * ell ** max(mi - m, 0) for x in b)
            for b, mi in zip(self.basis, self.orders)
            if min(mi, m) > 0
        ]
        return subgroup_from_generators(gens, self.ring, ambient_dim=self.ambient_dim)

    def element_array(self) -> np.ndarray:
        """All elements as an (|H|, d) int64 array."""
        if self.order > _ENUM_CAP:
            raise ValueError(f"refusing to enumerate {self.order} elements")
        mod = self.ring.modulus
        ell = self.ring.ell
        out = np.zeros((1, self.ambient_dim), dtype=np.int64)
        for b, m in zip(self.basis, self.orders):
            coeffs = np.arange(ell**m, dtype=np.int64)
            bvec = np.array(b, dtype=np.int64)
            out = (coeffs[:, None, None] * bvec[None, None, :] + out[None, :, :]) % mod
            out = out.reshape(-1, self.ambient_dim)
        return out

    def __repr__(self) -> str:
        return (
            f"TorsionSubgroup(l={self.ring.ell}, N={self.ring.level}, "
            f"dim={self.ambient_dim}, orders={list(self.orders)})"
        )


def subgroup_from_generators(
    vectors: Sequence[Sequence[int]],
    ring: ResidueRing,
    *,
    ambient_dim: int | None = None,
) -> TorsionSubgroup:
    """Smith-normalize a generating set into an invariant-factor basis.

    With A the generator matrix (columns = generators) and U A V = D its
    Smith form, the subgroup is the direct sum of the cyclic factors spanned
    by the columns of A V = U^-1 D: column i is l^{s_i} * col_i(U^-1), of
    order l^{N - s_i}.
    """
    vectors = [tuple(map(int, v)) for v in vectors]  # exact products in _combine
    if ambient_dim is None:
        if not vectors:
            raise ValueError("ambient_dim required for an empty generating set")
        ambient_dim = len(vectors[0])
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("generators must share the ambient dimension")
    d = ambient_dim
    N = ring.level
    if not vectors:
        return TorsionSubgroup(
            ring, d, [], [], MatrixMod.identity(ring, d), [N] * d
        )
    cols = [[v[i] for v in vectors] for i in range(d)]  # d x k
    U, D, V = _smith_rect(ring, cols)
    zero = (0,) * d
    basis = []
    orders = []
    divisors = []
    # column i of A V combines the generators by column i of V
    for i, v_col in zip(range(d), zip(*V)):
        s = ring.valuation(D[i][i])
        divisors.append(s)
        if s < N:
            basis.append(_combine(v_col, vectors, ring.modulus, zero))
            orders.append(N - s)
    divisors += [N] * (d - len(divisors))
    Umat = MatrixMod._of_reduced(ring, tuple(map(tuple, U)))
    return TorsionSubgroup(ring, d, basis, orders, Umat, divisors)


def trivial_subgroup(ring: ResidueRing, ambient_dim: int) -> TorsionSubgroup:
    return subgroup_from_generators([], ring, ambient_dim=ambient_dim)


def full_subgroup(ring: ResidueRing, ambient_dim: int) -> TorsionSubgroup:
    gens = [tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)]
    return subgroup_from_generators(gens, ring, ambient_dim=ambient_dim)
