"""Exact linear algebra over Z/l^n: valuations, units, matrices, Smith form.

Everything in this module is immutable and pure.  Residues are stored as
canonical least non-negative representatives and every operation reduces
eagerly, so equality and hashing are structural; the group-enumeration
layers rely on this to dedupe matrices by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

# The primes up to 37: is_prime's trial divisors, and a witness set making
# Miller-Rabin deterministic for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Moduli must fit a 64-bit word so that numpy batch kernels stay exact.
_WORD_CAP = 1 << 63


class NotInvertible(ValueError):
    """Scalar or matrix has no inverse over the ring."""


def is_prime(n: int) -> bool:
    """Deterministic primality check (trial division + Miller-Rabin)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def unit_group_order(ell: int, level: int) -> int:
    """Order of (Z/l^level)^*, i.e. Euler phi of a prime power."""
    if level == 0:
        return 1
    return ell ** level - ell ** (level - 1)


@dataclass(frozen=True)
class ResidueRing:
    """The ring Z/l^n for a prime l and level n >= 1."""

    ell: int
    level: int
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.ell, int) or not is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        # l >= 2, so a level past 62 passes the word: l^n is not formed then
        m = _WORD_CAP if self.level > 62 else self.ell ** self.level
        if m >= _WORD_CAP:
            raise ValueError("modulus l^n must fit in a 64-bit word")
        object.__setattr__(self, "modulus", m)

    def valuation(self, x: int) -> int:
        """Largest v <= level with l^v | x; by convention valuation(0) = level."""
        x %= self.modulus
        if x == 0:
            return self.level
        v = 0
        while x % self.ell == 0:
            x //= self.ell
            v += 1
        return v

    def is_unit(self, x: int) -> bool:
        return x % self.ell != 0

    def inverse(self, x: int) -> int:
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise NotInvertible(f"{x} is not a unit mod {self.ell}^{self.level}") from None

    def unit_subgroup_orders(self, gens) -> list[int]:
        """|<gens> mod l^n| for n = 0..level, for units ``gens`` of this ring.

        Let U_1 be the units that are 1 mod l (mod 4 when l = 2).  It is
        cyclic, and 1 + l^v u (u a unit, v >= 1, v >= 2 when l = 2) has order
        l^max(0, n - v) mod l^n.  So once n reaches the level of U/U_1 (1, or
        2 for l = 2), |<gens> mod l^n| = A * l^max(0, n - v): A is the order
        of the image of <gens> in U/U_1, and v the least valuation of y - 1
        over elements y generating the part of <gens> in U_1.

        * Odd l: (Z/l^level)^* is cyclic, so the order of <gens> is the lcm
          of the generators' orders.  x has order a * ord(x^a), a its order
          mod l; so A is the lcm of the a, and the y are the x^a.
        * l = 2: A is 2 when some generator s0 is 3 mod 4.  The y are the
          generators that are 1 mod 4 and s * s0 for the others: Schreier
          generators of the kernel of <gens> -> (Z/4)^*.
        """
        ell, mod = self.ell, self.modulus
        xs = [x % mod for x in gens]
        if any(x % ell == 0 for x in xs):
            raise NotInvertible("unit subgroup generators must be units")
        if ell == 2:
            start = 2
            s0 = next((x for x in xs if x % 4 == 3), None)
            top = 1 if s0 is None else 2
            ys = [x if x % 4 == 1 else x * s0 % mod for x in xs]
        else:
            start, top, ys = 1, 1, []
            primes = _prime_factors(ell - 1)
            for x in xs:
                a = ell - 1
                for p in primes:
                    while a % p == 0 and pow(x, a // p, ell) == 1:
                        a //= p
                top = math.lcm(top, a)
                ys.append(pow(x, a, mod))
        v = min((self.valuation(y - 1) for y in ys), default=self.level)
        return [top * ell ** max(0, n - v) if n >= start else 1 for n in range(self.level + 1)]

    def units(self) -> Iterator[int]:
        """Units in ascending canonical order."""
        for x in range(1, self.modulus):
            if x % self.ell != 0:
                yield x

    @property
    def unit_count(self) -> int:
        return unit_group_order(self.ell, self.level)

    def at_level(self, level: int) -> "ResidueRing":
        return ResidueRing(self.ell, level)


def _combine(coeffs: Sequence[int], vectors: Iterable[Sequence[int]], m: int, zero: tuple) -> tuple:
    """``sum(c * v)`` over the pairs of ``coeffs`` and ``vectors`` whose
    coefficient is nonzero, reduced mod ``m`` once, as a tuple; ``zero``
    when every coefficient is 0.  A zero coefficient's vector is never read,
    so a sparse matrix costs a term per nonzero entry, not per entry."""
    acc = None
    for c, v in compress(zip(coeffs, vectors), coeffs):
        term = map(mul, repeat(c), v)
        acc = term if acc is None else map(add, acc, term)
    return zero if acc is None else tuple([x % m for x in acc])


class MatrixMod:
    """A square matrix over a ResidueRing, stored canonically reduced.

    Instances are immutable, hashable and comparable by value, which is what
    lets group closures use plain sets for dedup.
    """

    __slots__ = ("ring", "rows", "_hash")

    def __init__(self, ring: ResidueRing, rows: Sequence[Sequence[int]]):
        m = ring.modulus
        self.ring = ring
        self.rows = tuple([tuple([int(x) % m for x in row]) for row in rows])
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        self._hash = None

    # -- construction -----------------------------------------------------

    @classmethod
    def _of_reduced(cls, ring: ResidueRing, rows: tuple[tuple[int, ...], ...]) -> "MatrixMod":
        """The matrix of square tuple rows whose entries are already reduced
        mod the modulus: the constructor's reduction and checks are skipped."""
        out = cls.__new__(cls)
        out.ring = ring
        out.rows = rows
        out._hash = None
        return out

    @classmethod
    def identity(cls, ring: ResidueRing, dim: int) -> "MatrixMod":
        zero = (0,) * dim
        return cls._of_reduced(ring, tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(dim)))

    @classmethod
    def diagonal(cls, ring: ResidueRing, entries: Sequence[int]) -> "MatrixMod":
        m, zero = ring.modulus, (0,) * len(entries)
        return cls._of_reduced(
            ring, tuple([zero[:i] + (int(x) % m,) + zero[i + 1 :] for i, x in enumerate(entries)])
        )

    @classmethod
    def from_flat(cls, ring: ResidueRing, dim: int, flat: Sequence[int]) -> "MatrixMod":
        it = iter(flat)
        return cls(ring, [[next(it) for _ in range(dim)] for _ in range(dim)])

    # -- value semantics ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    def flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixMod)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.ell, self.ring.level, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"MatrixMod({self.ring.ell}^{self.ring.level}, {list(map(list, self.rows))})"

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "MatrixMod") -> "MatrixMod":
        """Row i of the product combines the rows of ``other`` picked by the
        nonzero entries of row i (``_combine``)."""
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed rings")
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim}x{self.dim} @ {other.dim}x{other.dim}"
            )
        m, rows = self.ring.modulus, other.rows
        zero = (0,) * len(rows)
        return MatrixMod._of_reduced(
            self.ring, tuple([_combine(row, rows, m, zero) for row in self.rows])
        )

    def __neg__(self) -> "MatrixMod":
        m = self.ring.modulus
        return MatrixMod._of_reduced(
            self.ring, tuple([tuple([m - a if a else 0 for a in row]) for row in self.rows])
        )

    def kron(self, other: "MatrixMod") -> "MatrixMod":
        """The Kronecker product, entry (i*n + k, j*n + l) = self[i][j] *
        other[k][l] for n = other.dim, on Python ints."""
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed rings")
        m = self.ring.modulus
        return MatrixMod._of_reduced(
            self.ring,
            tuple(
                [tuple([x * y % m for x in arow for y in brow]) for arow in self.rows for brow in other.rows]
            ),
        )

    def transpose(self) -> "MatrixMod":
        return MatrixMod._of_reduced(self.ring, tuple(zip(*self.rows)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product, canonical output: the combination of the
        columns picked by the nonzero coordinates of ``vec`` (``_combine``)."""
        rows = self.rows
        if len(vec) != len(rows):
            raise ValueError(
                f"dimension mismatch: {self.dim}x{self.dim} applied to a vector of length {len(vec)}"
            )
        return _combine(vec, zip(*rows), self.ring.modulus, (0,) * len(rows))

    # -- invertibility ------------------------------------------------------

    def det(self) -> int:
        """Determinant, computed exactly on integer lifts then reduced."""
        return _int_det([list(r) for r in self.rows]) % self.ring.modulus

    @property
    def is_invertible(self) -> bool:
        # Over the local ring Z/l^n a matrix is invertible iff det is a unit.
        return self.ring.is_unit(self.det())

    def inverse(self) -> "MatrixMod":
        return mat_invert(self)

    def reduce_level(self, level: int) -> "MatrixMod":
        return MatrixMod(self.ring.at_level(level), self.rows)


def _int_det(a: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant over the integers."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _smith_rect(ring: ResidueRing, mat: list[list[int]]):
    """Smith form of a rectangular matrix over Z/l^n by valuation pivoting.

    Returns row and column transforms U, V and the diagonal D with
    U*mat*V = D, as lists of rows of reduced Python ints.  The pivot is
    always an entry of globally minimal valuation (ties broken row-major),
    so the diagonal valuations come out non-decreasing; unit parts of
    pivots are absorbed into U, leaving pure powers of l (or 0) on the
    diagonal.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    m = ring.modulus
    ell = ring.ell
    level = ring.level
    a = [[int(x) % m for x in row] for row in mat]
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    for k in range(min(nr, nc)):
        best = None
        bestv = level
        for i in range(k, nr):
            row = a[i]
            for j in range(k, nc):
                if row[j]:
                    v = ring.valuation(row[j])
                    if v < bestv:
                        bestv, best = v, (i, j)
            if bestv == 0:
                break  # a unit: no later entry has a smaller valuation
        if best is None:
            break  # remaining block is identically zero
        bi, bj = best
        if bi != k:
            a[k], a[bi] = a[bi], a[k]
            U[k], U[bi] = U[bi], U[k]
        if bj != k:
            for row in a:
                row[k], row[bj] = row[bj], row[k]
            for row in V:
                row[k], row[bj] = row[bj], row[k]
        pe = ell ** bestv
        u = a[k][k] // pe
        s = pow(u, -1, m)
        if s != 1:
            a[k] = [x * s % m for x in a[k]]
            U[k] = [x * s % m for x in U[k]]
        for r in range(k + 1, nr):
            if a[r][k]:
                f = a[r][k] // pe  # exact: every entry has valuation >= bestv
                a[r] = [(x - f * y) % m for x, y in zip(a[r], a[k])]
                U[r] = [(x - f * y) % m for x, y in zip(U[r], U[k])]
        for c in range(k + 1, nc):
            if a[k][c]:
                f = a[k][c] // pe
                for row in a:
                    if row[k]:
                        row[c] = (row[c] - f * row[k]) % m
                for row in V:
                    if row[k]:
                        row[c] = (row[c] - f * row[k]) % m
    return U, a, V


def smith_normal_form(M: MatrixMod) -> tuple[MatrixMod, MatrixMod, MatrixMod]:
    """Decompose M as U M V = D with U, V invertible and D diagonal.

    Diagonal entries are 0 or pure powers of l, in non-decreasing valuation
    order.
    """
    U, D, V = _smith_rect(M.ring, [list(r) for r in M.rows])
    return tuple(MatrixMod._of_reduced(M.ring, tuple(map(tuple, X))) for X in (U, D, V))


def mat_invert(M: MatrixMod) -> MatrixMod:
    """Inverse of M over Z/l^n, read off its Smith form: U M V = D, and M is
    invertible exactly when D is the identity, so that M^-1 = V U."""
    U, D, V = smith_normal_form(M)
    if D != MatrixMod.identity(M.ring, M.dim):
        raise NotInvertible("determinant is not a unit")
    return V @ U
