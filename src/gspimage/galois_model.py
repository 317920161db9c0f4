"""Finite Galois-image engine.

Matrix groups inside GSp_2g(Z/l^n): closures held as element arrays, and
the GL2, diagonal-torus and self-product builders' groups scanned block by
block as they are written; pointwise stabilizers, the field-degree
bookkeeping built on the multiplier character, and congruence-filtered
subgroups.

Degrees are modeled exactly: [K(H):K] is the index of the pointwise
stabilizer, the cyclotomic degree at level m is the size of the multiplier
image mod l^m, and the degree of the cyclotomic intersection is
|lambda(G)| / |lambda(T)| for T the stabilizer.  ``degree_report`` computes
all of them from |G|, |T|, generators of lambda(G) and lambda(T), and m1.
``build_degree_report`` takes them from a ``MatrixGroup``, lambda(G)
from the multipliers of its recorded generators; ``orbit_degree_report``
takes them from the orbit of H's basis and its Schreier multipliers,
without closing G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .modring import (
    MatrixMod,
    ResidueRing,
    _smith_rect,
    unit_group_order,
)
from .symplectic import (
    SymplecticSpace,
    m1,
    multiplier,
    standard_form,
)
from .torsion import TorsionSubgroup, subgroup_from_generators

DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """A group or search is too large to materialize under the given cap."""


class ChainNotIncreasing(ValueError):
    """Congruence-filter chain is not increasing."""


def _np_batch_ok(mod: int, dim: int) -> bool:
    # intermediate sums stay below 2^62 in int64 kernels
    return dim * mod * mod < (1 << 62)


# rows per batch in the array kernels; bounds their temporaries
_BATCH = 1 << 12


def _row_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of ``_BATCH`` rows of ``rows``; one empty slice
    when ``rows`` is empty, so that a kernel still sees the row width."""
    return (rows[i : i + _BATCH] for i in range(0, max(len(rows), 1), _BATCH))


def _rebatched(runs) -> Iterator[np.ndarray]:
    """The rows of ``runs`` (blocks of rows of any lengths), in order, as
    blocks of ``_BATCH`` rows, the last one shorter, so that a scan pays its
    per-block cost once per ``_BATCH`` rows.  A block that lies in one run
    is a view of it; one that spans runs is joined from their slices."""
    pending, count = [], 0
    for run in runs:
        while len(run):
            part, run = run[: _BATCH - count], run[_BATCH - count :]
            pending.append(part)
            count += len(part)
            if count == _BATCH:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, count = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _batched(kernel, blocks) -> np.ndarray:
    """``kernel`` applied to each of ``blocks`` (consecutive blocks of rows,
    at least one), results joined.

    Each block reaches the kernel widened to int64, or as it is when stored
    as object dtype (no copy), for kernels that multiply whole rows:
    multipliers and packed keys.  The fixing test and level reduction never
    widen a block (see ``_fixing_scan`` and ``MatrixGroup.reduce_level``),
    and the BFS multiplies no group-sized rows at all (see ``_bfs``).
    """
    return np.concatenate(
        [kernel(b.astype(object if b.dtype == object else np.int64, copy=False)) for b in blocks]
    )


def _kernel_dtype(mod: int, dim: int):
    """int64 where the batch kernels cannot overflow, Python ints otherwise."""
    return np.int64 if _np_batch_ok(mod, dim) else object


def _unsigned_dtype(bound: int):
    """The smallest unsigned dtype holding every integer in 0..``bound``,
    object dtype (Python ints) past uint64."""
    return next(
        (t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if bound <= np.iinfo(t).max),
        object,
    )


def _storage_dtype(mod: int, dim: int):
    """The smallest unsigned dtype holding a residue mod ``mod`` inside the
    kernel guard (``mod < 2^31`` there), object dtype past it."""
    return _unsigned_dtype(mod - 1) if _np_batch_ok(mod, dim) else object


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """``x % m`` for an array of non-negative integers, in ``x``'s dtype,
    which must hold ``m``.  numpy floor-divides by a scalar with a multiply
    and a shift but takes ``%`` with a division per entry, so an integer
    dtype gets ``x - (x // m) * m``, in one temporary as ``%`` would use;
    object dtype (Python ints) keeps ``%``."""
    if x.dtype == object:
        return x % m
    q = x // m
    q *= m
    return np.subtract(x, q, out=q)


def _pack(flat: np.ndarray, mod: int) -> np.ndarray:
    """Key of each row of ``flat``: two keys are equal exactly when the rows are.

    Entries are packed base ``mod``, first entry most significant, into int64
    words of as many entries as stay below 2^63.  A row that fits one word gets
    an int64 key; a row of ``w`` words gets one ``np.void`` scalar of ``8*w``
    bytes.  Void keys sort bytewise: a consistent total order, not the numeric
    one, which is all that sorting, ``np.searchsorted`` and ``np.isin`` need.
    """
    width = flat.shape[1]
    step = 1
    while step < width and mod ** (step + 1) < (1 << 63):
        step += 1
    nwords = -(-width // step)
    weights = np.zeros((width, nwords), dtype=np.int64)  # word j = block j . weights
    for i in range(width):
        last = min(width, (i // step + 1) * step) - 1
        weights[i, i // step] = mod ** (last - i)
    # one block widened at a time; object blocks fit int64 (ResidueRing keeps
    # mod < 2^63) and must be cast, or the words would come out as objects
    words = _batched(lambda block: block.astype(np.int64, copy=False) @ weights, _row_blocks(flat))
    return words.ravel() if nwords == 1 else words.view(f"V{8 * nwords}").ravel()


# entries of a key-indexed int32 seen table, 16 MiB
_DENSE_KEYS = 1 << 22

# the entry of an unseen key in a seen table; a point index is at least 0
_UNSEEN = np.iinfo(np.int32).min


def _first_unseen(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence in ``keys`` of each key
    whose ``table`` entry is ``_UNSEEN``, in one pass over ``keys``.

    Key j gets the stamp -1 - j, so an earlier occurrence has the larger
    stamp.  ``np.maximum.at`` leaves a seen entry (a point index, at least
    0) alone and leaves an unseen one holding the stamp of its key's first
    occurrence, which the caller may overwrite; the first occurrences are
    where an entry equals the stamp.  ``keys`` must number fewer than 2^31,
    so that every stamp is above ``_UNSEEN`` in the table's int32.
    """
    stamps = np.arange(-1, -1 - len(keys), -1, dtype=table.dtype)
    # a repeated index in a fancy assignment keeps an unspecified value;
    # maximum.at keeps the greatest, and takes its fast path only when the
    # values are of the table's dtype
    np.maximum.at(table, keys, stamps)
    return np.flatnonzero(table[keys] == stamps)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending.  Sorts ``values`` in
    place, so its memory holds the sort: no argsort and no sorted copy."""
    values.sort()
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class MatrixGroup:
    """A finite group of similitudes, in a deterministic element order.

    ``blocks()`` yields the elements, one row-major matrix per row, in
    element order and in blocks of ``_BATCH`` rows.  A builder
    (``gl2_group``, ``scenario_cm``, ``scenario_selfproduct``) gives its
    closed-form ``order`` and ``runs``, a function that writes the rows
    afresh on each call, one run at a time (160 KiB for the 10^6-element cm
    torus at l^n = 125); every other group gives its elements.  ``array``
    is all the elements as one read-only (order, d*d) array, joined from the
    runs on first access and kept; from then on the blocks are slices of
    it.  The fixing test, the multiplier scan and membership (``in``) read
    blocks, so a degree report, a stabilizer or a membership test never
    holds a built group whole; ``reduce_level`` and iteration read
    ``array``.

    Storage is narrow: inside the kernel guard (``_np_batch_ok``) it is the
    smallest unsigned dtype holding a residue mod l^n (uint8 up to 256,
    uint16 up to 65536, uint32 above), past it object dtype (Python ints).
    The product kernels compute wide, in int64 or object dtype: ``_batched``
    widens one block of rows at a time.  ``close`` multiplies out each
    vector of its row orbits once and builds ``array`` from row ids, one
    BFS level at a time.  The fixing test sums only the columns it reads,
    in the narrowest unsigned dtype holding its bound, and ``reduce_level``
    takes remainders in the storage dtype.  Unsigned subtraction wraps, so
    widen ``array`` before doing other arithmetic on it; ``tolist()`` gives
    Python ints.  The constructor takes distinct reduced elements, as every
    builder here produces them.

    ``generators``, when not empty, generates the group.  Only the builders
    record them (``close``, ``gl2_group``, ``scenario_cm``,
    ``scenario_selfproduct``, and ``reduce_level`` from its source's), each
    for the group it builds; subgroups cut out by a test (``close`` with
    ``fixing`` among them) record none.
    ``build_degree_report`` relies on this: it reads lambda(G) from the
    generators' multipliers.
    """

    __slots__ = ("space", "generators", "order", "_runs", "_array")

    def __init__(self, space: SymplecticSpace, generators, elements=(), *, runs=None, order=0):
        """The group of the rows ``elements``, or of the ``order`` rows, in
        the storage dtype, of the runs that ``runs()`` yields."""
        self.space = space
        self.generators = tuple(generators)
        for g in self.generators:
            multiplier(g, space)  # raises NotSimilitude on a bad generator
        self._runs, self._array, self.order = runs, None, order
        if runs is None:
            arr = np.asarray(elements, dtype=self._dtype()).reshape(-1, self.dim**2).view()
            arr.flags.writeable = False
            self._array, self.order = arr, len(arr)

    @property
    def ring(self) -> ResidueRing:
        return self.space.ring

    @property
    def dim(self) -> int:
        return self.space.dim

    def _dtype(self):
        return _storage_dtype(self.ring.modulus, self.dim)

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            arr = np.empty((self.order, self.dim**2), dtype=self._dtype())
            pos = 0
            for run in self._runs():
                arr[pos : pos + len(run)] = run
                pos += len(run)
            arr.flags.writeable = False
            self._array, self._runs = arr, None
        return self._array

    def blocks(self) -> Iterator[np.ndarray]:
        """The elements in element order, as consecutive blocks of
        ``_BATCH`` rows, the last one shorter: cut from the builder's runs
        until ``array`` is joined, slices of ``array`` from then on.  Read
        them; never write to them."""
        if self._array is None:
            return _rebatched(self._runs())
        return _row_blocks(self._array)

    def __iter__(self) -> Iterator[MatrixMod]:
        for row in self.array:
            yield MatrixMod.from_flat(self.ring, self.dim, row.tolist())

    def __contains__(self, M: MatrixMod) -> bool:
        """Whether ``M`` is an element; False for a matrix over another ring
        or of another size, as ``MatrixMod.__eq__`` decides."""
        if not isinstance(M, MatrixMod) or M.ring != self.ring or M.dim != self.dim:
            return False
        row = np.array(M.flat(), dtype=self._dtype())
        return any((block == row).all(axis=1).any() for block in self.blocks())

    def multipliers(self) -> tuple[int, ...]:
        """Multiplier of every element, in element order."""
        return tuple(self._multiplier_values().tolist())

    def _multiplier_values(self) -> np.ndarray:
        mod, d = self.ring.modulus, self.dim
        rows = self.space.form.rows
        i, j = self.space.unit_entry
        psi = np.array(rows, dtype=_kernel_dtype(mod, d)) % mod
        inv = self.ring.inverse(rows[i][j])

        def kernel(flat):
            # (M^T psi M)[i,j] = col_i(M)^T psi col_j(M)
            M = flat.reshape(-1, d, d)
            left = M[:, :, i] @ psi % mod
            return (left * M[:, :, j]).sum(axis=1) % mod * inv % mod

        return _batched(kernel, self.blocks())

    def multiplier_image(self) -> np.ndarray:
        """The distinct multipliers, ascending, as a read-only array in the
        kernel dtype (int64, or object past the guard), not the storage
        dtype, so reducing it mod l^m needs no widening.  Scans every
        element on each call."""
        image = _distinct(self._multiplier_values())
        image.flags.writeable = False
        return image

    def reduce_level(self, level: int) -> "MatrixGroup":
        """Image under reduction mod l^level, first occurrences in element order."""
        if not 1 <= level <= self.ring.level:
            raise ValueError(f"can only reduce to a level in 1..{self.ring.level}, got {level}")
        p = self.ring.ell ** level
        # the remainder is taken in the storage dtype, which holds p below
        # the top level; at the top level the entries are already reduced
        reduced = self.array if level == self.ring.level else _mod(self.array, p)
        reduced = reduced.astype(_storage_dtype(p, self.dim), copy=False)
        keep = np.zeros(len(reduced), dtype=bool)
        keep[:1] = True  # the first element is a first occurrence
        seen, count = _seen_set(p ** (self.dim * self.dim), _pack(reduced[:1], p)), 1
        for i in range(0, len(reduced), _BATCH):  # one block of keys at a time
            first, _ = seen.add(_pack(reduced[i : i + _BATCH], p), count)
            keep[i + first] = True
            count += len(first)
        ring = self.ring.at_level(level)
        space = SymplecticSpace(self.space.g, self.space.form.reduce_level(level), ring)
        gens = tuple(g.reduce_level(level) for g in self.generators)
        return MatrixGroup(space, gens, reduced[keep])


class _SeenTable:
    """A seen set over a small key space: an int32 table indexed by the
    packed key, ``_UNSEEN`` for an unseen key and the key's point index
    otherwise.  An add finds its new keys in one pass (``_first_unseen``)."""

    def __init__(self, size: int, start_key: np.ndarray):
        self.table = np.full(size, _UNSEEN, dtype=np.int32)
        self.table[start_key] = 0

    def add(self, keys: np.ndarray, count: int, lookup: bool = False):
        """Ascending indices of the first occurrence of each unseen key in
        ``keys``; those keys become points ``count``, ``count + 1``, ... in
        that order.  With ``lookup``, also the point index of every key in
        ``keys`` after the add, else None."""
        first = _first_unseen(self.table, keys)
        self.table[keys[first]] = np.arange(count, count + len(first))
        return first, (self.table[keys] if lookup else None)


class _SeenSorted:
    """A seen set as the sorted array of the keys seen so far and, aligned
    with it, the point index of each, for key spaces too large for a table.
    The keys are int64, void (the multi-word keys of ``reduce_level``) or
    object (Python ints: BFS keys past 2^63); every step below takes all
    three."""

    def __init__(self, start_key: np.ndarray):
        self.keys = start_key
        self.index = np.zeros(len(start_key), dtype=np.int64)

    def add(self, keys: np.ndarray, count: int, lookup: bool = False):
        """As ``_SeenTable.add``.  ``keys`` is sorted once: each distinct key
        is searched in the seen keys, and the lookup spreads each one's point
        back over its run in that sort."""
        order = np.argsort(keys)  # not stable: reduceat takes each run's minimum index
        ordered = keys[order]
        run_start = np.ones(len(keys), dtype=bool)
        run_start[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(run_start)
        uniq, first = ordered[starts], np.minimum.reduceat(order, starts)
        pos = np.searchsorted(self.keys, uniq)
        at = np.minimum(pos, len(self.keys) - 1)
        new = self.keys[at] != uniq
        run_points = self.index[at] if lookup else None  # right for the keys seen before
        pos, uniq, first = pos[new], uniq[new], first[new]
        by_first = np.argsort(first)
        added = np.empty(len(first), dtype=np.int64)
        added[by_first] = np.arange(count, count + len(first))
        self.keys = np.insert(self.keys, pos, uniq)
        self.index = np.insert(self.index, pos, added)
        points = None
        if lookup:
            run_points[new] = added
            points = np.empty(len(keys), dtype=np.int64)
            points[order] = run_points[np.cumsum(run_start) - 1]
        return first[by_first], points


def _seen_set(size: int, start_key: np.ndarray):
    """A seen set over a space of ``size`` keys holding ``start_key`` (one
    key, or none) as point 0: a ``_SeenTable`` up to ``_DENSE_KEYS`` keys,
    checked before the table is allocated, a ``_SeenSorted`` past it."""
    if size <= _DENSE_KEYS:
        return _SeenTable(size, start_key)
    return _SeenSorted(start_key)


def _cap_exceeded(stage: str, cap: int, count: int, depth: int) -> CapExceeded:
    noun = "elements" if stage == "closure" else "points"
    return CapExceeded(f"{stage} exceeds cap={cap}: {count} {noun} through BFS depth {depth}")


def _row_orbits(rows, mats, mod: int, cap: int, stage: str) -> list:
    """The orbit of each of ``rows`` under v -> v @ m mod ``mod`` for m in
    ``mats`` (rows and matrices as tuples of Python ints), one BFS level at
    a time: each level is multiplied out in one batch, in the kernel dtype,
    and its products are looked up in a dict of the vectors found so far.

    For each row: its orbit's vectors in discovery order (a list of tuples;
    a vector's id is its index), the orbit's int32 action table (``act[a,
    j]`` the id of vector a times mats[j]) and the row's id.  Rows in one
    orbit share its list and table.  A row orbit is the image of the orbit
    of any matrix holding the row, so it is never the longer; one past
    ``cap`` raises CapExceeded as ``_bfs`` does, with its own count and
    depth.
    """
    d = len(rows[0])
    wide = _kernel_dtype(mod, d)
    mats = np.array(mats, dtype=wide).reshape(-1, d, d)
    orbits, out = [], []  # orbits: (vectors, index, table) of each distinct orbit
    for row in rows:
        orbit = next((o for o in orbits if row in o[1]), None)
        if orbit is None:
            vectors, index, act, depth = [row], {row: 0}, [], 0
            level = np.array([row], dtype=wide)
            while len(level):
                count = len(vectors)
                # in (vector, matrix) order, as in _bfs
                prods = (level[:, None, None, :] @ mats % mod).reshape(-1, d)
                fresh = []
                for j, y in enumerate(zip(*prods.T.tolist())):
                    if y not in index:
                        if len(vectors) == cap:
                            raise _cap_exceeded(stage, cap, count, depth)
                        index[y] = len(vectors)
                        vectors.append(y)
                        fresh.append(j)
                    act.append(index[y])
                level, depth = prods[fresh], depth + 1
            orbit = (vectors, index, np.array(act, dtype=np.int32).reshape(len(vectors), len(mats)))
            orbits.append(orbit)
        out.append((orbit[0], orbit[2], orbit[1][row]))
    return out


def _bfs(rows, mats, mod: int, cap: int, stage: str, units=None):
    """Breadth-first orbit of one k x d matrix under x -> x @ m mod ``mod``.

    ``rows`` are the k rows of the start matrix and ``mats`` the action
    matrices, as tuples of Python ints.  Row i of x @ m is row i of x times
    m, so a point is the tuple of the ids of its rows in the orbits of the
    start rows (``_row_orbits``), and a product is k gathers from their
    action tables, with no matrix product.  A point's key is its row ids in
    the mixed radix of the orbit sizes: int64 while the key space prod
    |orbit_i| is below 2^63, Python ints (object dtype) past it.

    Each frontier is multiplied by every matrix in one batch; products are
    taken in (frontier index, matrix index) order and each new point is kept
    at its first occurrence, so the point order is that of the
    one-product-at-a-time search.  Newness is tested once per level against
    the seen set ``_seen_set`` picks by the size of the key space, known
    before the first level: a ``_SeenTable`` up to ``_DENSE_KEYS`` keys, a
    ``_SeenSorted`` past it.  The next frontier is the new keys' row ids.
    Raises CapExceeded, naming ``stage``, when the point count, or a row
    orbit's, would pass the cap.

    ``units``, when given, is one unit mod ``mod`` per matrix (Python ints).
    Each point x then carries lambda_x, the product of the units along its
    BFS tree path, in the smallest unsigned dtype holding (mod - 1)^2
    (object past uint64).  A new point y takes as lambda_y the step value
    lam_i * lambda_x of its first occurrence, so the Schreier scalar of a
    product y = x @ m_i, its step value over lambda_y, is formed only where
    they differ: once per level and distinct step * mod + lambda_y, which
    is below mod^2 and so in the dtype.

    Returns the BFS levels (the new points of each depth, in point order,
    as a (k, count) int32 array of row ids), the vectors of each start
    row's orbit by id, and the distinct Schreier scalars other than 1,
    ascending (an empty list without ``units``).
    """
    orbits = _row_orbits(rows, mats, mod, cap, stage)
    sizes = [len(table) for _, table, _ in orbits]
    space = math.prod(sizes)
    dtype = np.int64 if space < 1 << 63 else object
    weights = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    keyed = [table.astype(dtype) * w for (_, table, _), w in zip(orbits, weights)]
    start = sum(a * w for (_, _, a), w in zip(orbits, weights))
    frontier = np.array([[a] for _, _, a in orbits], dtype=np.int32)
    seen, count = _seen_set(space, np.array([start], dtype=dtype)), 1
    levels, scalars = [frontier], set()
    if units is not None:
        lam = np.array(units, dtype=_unsigned_dtype((mod - 1) ** 2))
        lam_front = lam_points = np.ones(1, dtype=lam.dtype)  # lam_points: lambda_x by point index
    while frontier.shape[1]:
        # take: a gather of whole table rows, faster than fancy indexing
        keys = keyed[0].take(frontier[0], axis=0).ravel()
        for table, ids in zip(keyed[1:], frontier[1:]):
            keys += table.take(ids, axis=0).ravel()
        first, points = seen.add(keys, count, units is not None)
        # raise only on finding a new point, as the one-at-a-time search does
        if len(first) and count + len(first) > cap:
            raise _cap_exceeded(stage, cap, count, len(levels) - 1)
        if units is not None:
            step = (lam_front[:, None] * lam % mod).ravel()  # in product order
            lam_front = step[first]
            if count + len(first) > len(lam_points):  # grown geometrically
                lam_points = np.resize(lam_points, 2 * (count + len(first)))
            lam_points[count : count + len(first)] = lam_front
            lam_y = lam_points[points]
            odd = step != lam_y
            if odd.any():
                for pair in _distinct(step[odd] * mod + lam_y[odd]).tolist():
                    s, y = divmod(pair, mod)
                    scalars.add(s * pow(y, -1, mod) % mod)
        count += len(first)
        rest, ids = keys[first], []
        for n in sizes[:0:-1]:  # the new keys' row ids, in the mixed radix of the sizes
            rest, ids = rest // n, [rest % n] + ids
        frontier = np.array([rest] + ids, dtype=np.int32)
        levels.append(frontier)
    return levels, [vectors for vectors, _, _ in orbits], sorted(scalars)


def close(
    space: SymplecticSpace,
    generators: Sequence[MatrixMod],
    cap: int = DEFAULT_CAP,
    fixing: Optional[TorsionSubgroup] = None,
) -> MatrixGroup:
    """Breadth-first closure of a generating set under multiplication: the
    orbit of the identity under right multiplication by the generators.

    The generated semigroup equals the generated group because every element
    of a finite matrix group has finite order.  The element order is that of
    the one-product-at-a-time search (see ``_bfs``), which runs on row ids;
    each level is decoded here, row i of every element by one gather from
    the columns of row i's orbit.  Raises CapExceeded when the element count
    would pass the cap.

    With a non-trivial ``fixing`` = H, returns instead the elements that fix
    H pointwise, in closure order and with no generators recorded: the
    ``stabilizer`` of the closure, element for element, without decoding the
    closure.  Row i of M e = e reads row_i(M) . e = e_i, and row_i(M) is a
    vector of row i's orbit, so one mask per row over its orbit's vectors,
    computed in the kernel dtype, tests each element on its row ids; only
    the elements every mask passes are decoded.  The BFS still visits the
    whole group, so ``cap`` bounds the closure as without ``fixing``.
    """
    for g in generators:
        multiplier(g, space)
    if fixing is not None:
        _check_subgroup(space, fixing)
    d, mod = space.dim, space.ring.modulus
    identity = MatrixMod.identity(space.ring, d).rows
    levels, orbits, _ = _bfs(identity, [g.rows for g in generators], mod, cap, "closure")
    masks = []
    if fixing is not None and not fixing.is_trivial():
        wide = _kernel_dtype(mod, d)
        basis = np.array(fixing.basis, dtype=wide)  # the vectors e, one per row
        masks = [
            (np.array(vectors, dtype=wide) @ basis.T % mod == basis[:, i]).all(axis=1)
            for i, vectors in enumerate(orbits)
        ]
    columns = [np.array(vectors, dtype=_storage_dtype(mod, d)).T.copy() for vectors in orbits]
    for j, ids in enumerate(levels):  # each level's ids are freed once decoded
        if masks:
            ids = ids[:, np.all([mask[r] for mask, r in zip(masks, ids)], axis=0)]
        levels[j] = np.concatenate([np.take(c, r, axis=1) for c, r in zip(columns, ids)]).T
    return MatrixGroup(space, () if masks else generators, np.concatenate(levels))


def _check_subgroup(space: SymplecticSpace, H: TorsionSubgroup) -> None:
    if H.ring != space.ring:
        raise ValueError("group and subgroup live over different rings")
    if H.ambient_dim != space.dim:
        raise ValueError("ambient dimension mismatch")


def stabilizer(G: MatrixGroup, H: TorsionSubgroup) -> MatrixGroup:
    """Pointwise fixer {M in G : M e = e for every Smith-basis generator e}.

    Fixing a generating set fixes all of H by linearity.  For a closure,
    ``close(..., fixing=H)`` lists the same elements without building G.
    """
    if not isinstance(G, MatrixGroup):
        raise TypeError("stabilizer enumeration needs a MatrixGroup")
    _check_subgroup(G.space, H)
    if H.is_trivial():
        return G
    return MatrixGroup(G.space, (), _fixing_scan(G, [(G.ring.modulus, H.basis)])[1])


def _fixing_scan(G: MatrixGroup, conditions) -> tuple[np.ndarray, np.ndarray]:
    """Ascending indices, and the rows, of the elements M of G with M v = v
    mod p for every vector v of every (p, vectors) pair in ``conditions``.

    Each vector v, reduced mod p and skipped when it is 0, gives one test per
    row i: sum_j M[i, j] v_j = v_i mod p over the nonzero v_j.  The tests are
    built once and run over ``G.blocks()``, so a built group is scanned as
    its builder writes it, never joined.  A test reads only its columns
    i*d + j of the stored rows and sums them in the narrowest unsigned dtype
    holding both the bound sum_j v_j (mod - 1) and p (``_mod`` needs p in
    the dtype), or in object dtype when the rows are stored so; no block is
    widened.  The tests of the largest p, the most selective, run first;
    each block keeps its surviving rows and their indices (the block's
    offset plus their place in it) after each test, and stops once none
    survives.
    """
    d, top, stored = G.dim, G.ring.modulus - 1, G._dtype()
    tests = []
    for p, vectors in sorted(conditions, key=lambda c: -c[0]):
        for v in vectors:
            v = [int(x) % p for x in v]
            terms = [(j, x) for j, x in enumerate(v) if x]
            if terms:
                bound = max(sum(x for _, x in terms) * top, p)
                acc = object if stored == object else _unsigned_dtype(bound)
                tests += [([(i * d + j, x) for j, x in terms], v[i], p, acc) for i in range(d)]
    hits, rows, start = [np.arange(0)], [np.empty((0, d * d), dtype=stored)], 0
    for block in G.blocks():
        index = np.arange(start, start + len(block))
        start += len(block)
        for terms, target, p, acc in tests:
            total = np.zeros(len(block), dtype=acc)
            for col, x in terms:
                total += block[:, col] if x == 1 else np.multiply(block[:, col], x, dtype=acc)
            kept = _mod(total, p) == target
            block, index = block[kept], index[kept]
            if not len(index):
                break
        if len(index):
            hits.append(index)
            rows.append(block)
    return np.concatenate(hits), np.concatenate(rows)


def gl2_order(ell: int, level: int = 1) -> int:
    """|GL2(Z/l^level)| = l^(4(level-1)) (l^2 - 1)(l^2 - l)."""
    return ell ** (4 * (level - 1)) * (ell * ell - 1) * (ell * ell - ell)


class FullGL2Group:
    """GL2(Z/l^m) as a structured group, never materialized.

    The GL2 stabilizer-order oracle of the tests and the benchmark; no
    command uses it.  It answers only the closed-form order and a
    stabilizer counter based on solving the fixing conditions row by row,
    so [K(H):K] in the full image is ``order // stabilizer_order(H)``.
    """

    def __init__(self, ring: ResidueRing):
        self.ring = ring

    @property
    def order(self) -> int:
        return gl2_order(self.ring.ell, self.ring.level)

    def stabilizer_order(self, H: TorsionSubgroup) -> int:
        """|{M : Mv = v for all v in H}| by counting solutions of (M-I)v = 0.

        Each row r of X = M - I independently satisfies r.v = 0 for every
        basis vector v; the solution module S is read off a Smith form of the
        constraint matrix.  det(I+X) being a unit only depends on X mod l, so
        the unit filter is applied on the (at most l^2-point) reduction of S
        and scaled by the uniform fiber size.
        """
        ring = self.ring
        if H.ring != ring or H.ambient_dim != 2:
            raise ValueError("subgroup does not live in this group's space")
        if H.is_trivial():
            return self.order
        ell, level = ring.ell, ring.level
        A = [list(v) for v in H.basis]  # k x 2 constraint rows
        _, D, V = _smith_rect(ring, A)
        k = len(A)
        svals = []
        for i in range(2):
            svals.append(ring.valuation(D[i][i]) if i < min(2, k) else level)
        s_size = ell ** sum(svals)
        span_gens = [
            (V[0][i] % ell, V[1][i] % ell) for i in range(2) if svals[i] == level
        ]
        sbar = {(0, 0)}
        for gv in span_gens:
            sbar = {
                ((x + c * gv[0]) % ell, (x1 + c * gv[1]) % ell)
                for (x, x1) in sbar
                for c in range(ell)
            }
        per_class = s_size // len(sbar)
        valid = 0
        for r1 in sbar:
            for r2 in sbar:
                if ((1 + r1[0]) * (1 + r2[1]) - r1[1] * r2[0]) % ell != 0:
                    valid += 1
        return valid * per_class * per_class


def filtered_subgroup(
    Gfull: MatrixGroup,
    fixers: Sequence[TorsionSubgroup],
    cutoffs: Sequence[int],
) -> MatrixGroup:
    """Congruence-filtered subgroup: elements of Gfull that fix the i-th
    vector list mod l^min(level, n_i).

    An empty chain returns Gfull itself.  The fixed subgroups must decrease
    along the chain (so the fixers increase) and the cutoffs must be strictly
    increasing, else ChainNotIncreasing; a fixer outside Gfull's ring or
    dimension raises ValueError before either test.
    """
    if len(fixers) != len(cutoffs):
        raise ValueError("fixers and cutoffs must have equal length")
    if not fixers:
        return Gfull
    for Hf in fixers:
        if Hf.ring != Gfull.ring or Hf.ambient_dim != Gfull.dim:
            raise ValueError("fixer does not live in the group's ambient space")
    if any(n < 1 for n in cutoffs) or any(
        a >= b for a, b in zip(cutoffs, cutoffs[1:])
    ):
        raise ChainNotIncreasing("cutoffs must be strictly increasing and >= 1")
    for a, b in zip(fixers, fixers[1:]):
        if not all(a.contains(v) for v in b.basis):
            raise ChainNotIncreasing("fixed subgroups must form a decreasing chain")
    level = Gfull.ring.level
    conditions = [
        (Gfull.ring.ell ** min(level, cut), Hf.basis)
        for Hf, cut in zip(fixers, cutoffs)
        if not Hf.is_trivial()
    ]
    return MatrixGroup(Gfull.space, (), _fixing_scan(Gfull, conditions)[1])


# -- scenario builders ------------------------------------------------------


def scenario_cm(g: int, ell: int, level: int = 1, cap: int = DEFAULT_CAP):
    """Diagonal-torus image with H generated by the all-ones vector.

    G is the group of all diagonal similitudes diag(d_1..d_2g) of the
    standard form, i.e. d_i d_{2g+1-i} all equal; its order is phi(l^n)^(g+1).
    With r a primitive root mod l^n, G is generated by the g + 1 matrices
    with r at i and 1/r at 2g+1-i (multiplier 1), for i = 1..g, and
    diag(1, ..., 1, r, ..., r) (multiplier r).

    Element order: lexicographic in (lambda, d_1, ..., d_g), each running
    over the units mod l^n in increasing order, where lambda is the
    multiplier and d_{2g+1-i} = lambda / d_i.
    """
    if ell == 2:
        raise ValueError("ell must be odd")
    ring = ResidueRing(ell, level)
    phi, count = ring.unit_count, 1
    for _ in range(g + 1):  # phi^(g+1), one factor at a time
        count *= phi
        if count > cap:  # phi >= 2, so this stops within log2(cap) + 1 factors
            # the whole count where it is at most 4096 bits long
            short = (g + 1) * phi.bit_length() <= 4096
            size = phi ** (g + 1) if short else f"more than {count}"
            raise CapExceeded(f"diagonal torus has {size} elements, cap={cap}")
    space = standard_form(g, ring)
    n2, mod = 2 * g, ring.modulus
    narrow = _storage_dtype(mod, n2)
    units = list(ring.units())

    def on_axes(values, *axes):
        return np.expand_dims(values, tuple(i for i in range(g + 1) if i not in axes))

    def runs():
        # the rows of k consecutive lambdas, k phi^g rows with k at least 1
        # and at most about _BATCH rows when phi^g is short, form a grid with
        # axis 0 for lambda and axis i for d_i, each over the units in
        # increasing order.  Its d_i columns are the same for every k
        # lambdas, so they are broadcast once, into ``template``; each grid
        # is a copy of it with the lambda / d_i columns broadcast from a
        # k x phi table.
        k = max(1, _BATCH // phi**g)
        unit_row = np.array(units, dtype=narrow)
        wide = np.array(units, dtype=_kernel_dtype(mod, n2))
        inv = np.array([ring.inverse(u) for u in units], dtype=wide.dtype)
        template = np.zeros((k,) + (phi,) * g + (n2 * n2,), dtype=narrow)
        for j in range(g):
            template[..., j * (n2 + 1)] = on_axes(unit_row, 1 + j)
        for a in range(0, phi, k):
            ratio = (wide[a : a + k, None] * inv % mod).astype(narrow)
            grid = template[: len(ratio)].copy()
            for j in range(g, n2):  # d_{j+1} = lambda / d_{2g-j}
                grid[..., j * (n2 + 1)] = on_axes(ratio, 0, n2 - j)
            yield grid.reshape(-1, n2 * n2)

    r = _primitive_root(ring)
    gens = []
    for j in range(g):
        d = [1] * n2
        d[j], d[n2 - 1 - j] = r, ring.inverse(r)
        gens.append(MatrixMod.diagonal(ring, d))
    gens.append(MatrixMod.diagonal(ring, [1] * g + [r] * g))
    G = MatrixGroup(space, gens, runs=runs, order=count)
    H = subgroup_from_generators([(1,) * n2], ring)
    return G, H


def gl2_standard_generators(ring: ResidueRing) -> list[MatrixMod]:
    """Elementary transvections plus diag(r,1) for a primitive root r (odd l)."""
    if ring.ell == 2:
        raise ValueError("primitive-root generator needs odd ell")
    r = _primitive_root(ring)
    return [
        MatrixMod(ring, [[1, 1], [0, 1]]),
        MatrixMod(ring, [[1, 0], [1, 1]]),
        MatrixMod(ring, [[r, 0], [0, 1]]),
    ]


def _primitive_root(ring: ResidueRing) -> int:
    """The least generator of the cyclic unit group mod l^n, for odd l."""
    return next(u for u in ring.units() if ring.unit_subgroup_orders([u])[-1] == ring.unit_count)


def gl2_group(ring: ResidueRing, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """All of GL2(Z/l^n).

    Element order: the rows (a, b, c, d) with a d - b c a unit, in
    lexicographic order of (a, b, c, d) with entries in 0..l^n - 1.
    """
    ell, n, mod = ring.ell, ring.level, ring.modulus
    count = gl2_order(ell, n)
    if count > cap:
        raise CapExceeded(f"GL2(Z/{ell}^{n}) has {count} elements, cap={cap}")
    space = standard_form(1, ring)
    narrow = _storage_dtype(mod, 2)

    def runs():
        # one run of rows per a: the rows with first entry a keep the
        # (b, c, d) with a d - b c a unit, which depends on a only through
        # r = a mod l.  So kept[r] is computed once, for a = r, serves every
        # a = q l + r, and is dropped after the last.  Every temporary is
        # mod^3-sized.
        rest = np.indices((mod,) * 3, dtype=np.min_scalar_type(mod - 1)).reshape(3, -1)
        b, c, d = (x.astype(np.int64) % ell for x in rest)
        bc = b * c % ell
        kept = [None] * ell
        for a in range(mod):
            q, r = divmod(a, ell)
            if q == 0:
                kept[r] = rest[:, (r * d - bc) % ell != 0].T
            run = np.empty((len(kept[r]), 4), dtype=narrow)
            run[:, 0] = a
            run[:, 1:] = kept[r]
            if a + ell >= mod:
                kept[r] = None
            yield run

    gens = gl2_standard_generators(ring) if ell != 2 else ()
    return MatrixGroup(space, gens, runs=runs, order=count)


def scenario_selfproduct(ell: int, level: int = 1, cap: int = DEFAULT_CAP):
    """Self-product image {diag-block(g, g)} inside GSp4 with form psi + psi,
    and H generated by (P, Q) = (1,0,0,1), whose pairing value is primitive.
    G is generated by diag-block(x, x) for x in ``gl2_standard_generators``."""
    if ell == 2:
        raise ValueError("ell must be odd")
    ring = ResidueRing(ell, level)
    gl2 = gl2_group(ring, cap)
    m = ring.modulus
    rows = [
        [0, 1, 0, 0],
        [-1 % m, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1 % m, 0],
    ]
    space = SymplecticSpace(2, MatrixMod(ring, rows), ring)
    dtype = _storage_dtype(m, 4)

    def runs():
        # diag-block(g, g), row-major: (a, b, 0, 0, c, d, 0, 0, 0, 0, a, b, 0, 0, c, d)
        for block in gl2.blocks():
            flats = np.zeros((len(block), 16), dtype=dtype)
            flats[:, [0, 1, 4, 5]] = block
            flats[:, [10, 11, 14, 15]] = block
            yield flats

    gens = [
        MatrixMod(ring, [[*row, 0, 0] for row in x.rows] + [[0, 0, *row] for row in x.rows])
        for x in gl2.generators
    ]
    G = MatrixGroup(space, gens, runs=runs, order=gl2.order)
    H = subgroup_from_generators([(1, 0, 0, 1)], ring)
    return G, H


# -- reporting ---------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    """Exact degree bookkeeping for one (scenario, l) pair.

    ramified_type marks scenarios whose multiplier image is a proper
    subgroup of the units (the analogue of l ramifying); it shows up in the
    table output only, never in the JSON schema.  ``to_json_dict`` writes
    every other field, subclass fields included, in field order.
    """

    ell: int
    level: int
    m1: int
    deg_KH: int
    deg_cyclo_intersection: int
    deg_cyclo_at_m1: int
    ratio: Fraction
    mu_w_witness_n: Optional[int]
    ramified_type: bool = field(default=False, kw_only=True)

    def to_json_dict(self) -> dict:
        """The JSON report: a Fraction as its string, a tuple of rows as a
        list of lists."""
        d = {}
        for f in fields(self):
            if f.name == "ramified_type":
                continue
            val = getattr(self, f.name)
            if isinstance(val, Fraction):
                val = str(val)
            elif isinstance(val, tuple):
                val = [list(row) for row in val]
            d[f.name] = val
        return d


def degree_report(
    ring: ResidueRing, m1v: int, order_G: int, order_T: int, lam_G, lam_T, mu_c=Fraction(1)
) -> DegreeReport:
    """The degree report of a group G and the pointwise stabilizer T of H,
    from |G|, |T|, generating sets of the multiplier images lambda(G) and
    lambda(T) (residues mod l^level, as Python ints; a whole image generates
    itself) and m1 = m1(H).  Only |G|/|T| is used, so the orbit length over 1
    serves as well.

    The cyclotomic degree at level n is c_n = |lambda(G) mod l^n|, so c_0 = 1;
    ``ResidueRing.unit_subgroup_orders`` computes it from the generators.
    The mu_w witness is the smallest n with c_n <= C * I and I <= C * c_n,
    both non-strict, for C = ``mu_c`` and I the intersection degree; C < 1
    raises ValueError.

    For odd l a witness exists at C = l - 1.  (Z/l^level)^* is cyclic, so
    lambda(G) is cyclic of order a * l^j with a | l - 1, and reduction mod l^n
    leaves c_n = a * l^max(0, n - k) with k = level - j.  I divides
    |lambda(G)|, so I = a' * l^j' with a' | a and j' <= j; at n = k + j',
    c_n = a * l^j', so I <= c_n = (a / a') * I <= (l - 1) * I.

    Raises AssertionError when |T| does not divide |G| or |lambda(T)| does
    not divide |lambda(G)|: both are subgroup orders.
    """
    C = Fraction(mu_c)
    if C < 1:
        raise ValueError("C must be >= 1")
    if order_G % order_T != 0:
        raise AssertionError("stabilizer order must divide the group order")
    cyclo = ring.unit_subgroup_orders(lam_G)
    lam_T_size = ring.unit_subgroup_orders(lam_T)[-1]
    if cyclo[-1] % lam_T_size != 0:
        raise AssertionError("multiplier image of a subgroup must divide")
    inter = cyclo[-1] // lam_T_size
    witness = next((n for n, c in enumerate(cyclo) if c <= C * inter and inter <= C * c), None)
    return DegreeReport(
        ell=ring.ell,
        level=ring.level,
        m1=m1v,
        deg_KH=order_G // order_T,
        deg_cyclo_intersection=inter,
        deg_cyclo_at_m1=cyclo[m1v],
        ratio=Fraction(inter, cyclo[m1v]),
        mu_w_witness_n=witness,
        ramified_type=cyclo[-1] < unit_group_order(ring.ell, ring.level),
    )


def _multiplier_generators(X: MatrixGroup) -> list[int]:
    """A generating set of lambda(X): lambda is a homomorphism, so the
    multipliers of ``X.generators`` when X records any, else those of all
    its elements."""
    if X.generators:
        return [multiplier(g, X.space) for g in X.generators]
    return X.multiplier_image().tolist()


def build_degree_report(G: MatrixGroup, H: TorsionSubgroup, mu_c=Fraction(1)) -> DegreeReport:
    """Run the full degree battery for one scenario instance.

    lambda(G) and lambda(T) come from ``_multiplier_generators``.  T, the
    pointwise stabilizer of H, records no generators unless H is trivial
    (then T is G), so T is scanned; G is scanned only when it records none."""
    T = stabilizer(G, H)
    lam_G, lam_T = _multiplier_generators(G), _multiplier_generators(T)
    return degree_report(G.ring, m1(H, G.space), G.order, T.order, lam_G, lam_T, mu_c)


def orbit_degree_report(
    space: SymplecticSpace,
    generators: Sequence[MatrixMod],
    H: TorsionSubgroup,
    cap: int = DEFAULT_CAP,
    mu_c=Fraction(1),
) -> DegreeReport:
    """The degree report of G = <generators> and H without closing G.

    A breadth-first search runs over the G-orbit of the tuple of H's
    Smith-basis vectors, each point stored as the r x d matrix B^T so that g
    acts as x -> x @ g^T.  By orbit-stabilizer the orbit length is [G:T] for
    T the pointwise stabilizer of H.  lambda(G) is generated by the
    generators' multipliers, and lambda(T) by the multipliers of Schreier's
    generators s_y^-1 g s_x of T, where s_x is the BFS-tree word reaching x
    and y = g x.  lambda lands in an abelian group, so these are the scalars
    lambda(g) lambda(s_x) / lambda(s_y), and no transversal matrix is built.
    ``cap`` bounds the orbit length; past it CapExceeded names the orbit.
    """
    ring = space.ring
    if H.ring != ring or H.ambient_dim != space.dim:
        raise ValueError("subgroup does not live in the group's space")
    lam = [multiplier(g, space) for g in generators]  # raises NotSimilitude
    if H.is_trivial():  # an empty basis: G fixes it, so T = G
        length, lam_T = 1, lam
    else:
        transposes = [tuple(zip(*g.rows)) for g in generators]
        levels, _, lam_T = _bfs(H.basis, transposes, ring.modulus, cap, "orbit", lam)
        length = sum(ids.shape[1] for ids in levels)
    return degree_report(ring, m1(H, space), length, 1, lam, lam_T, mu_c)
