"""Finite Galois-image engine.

Matrix groups inside GSp_2g(Z/l^n): closures and the GL2, diagonal-torus
and self-product builders' groups, all stored and scanned as row ids;
pointwise stabilizers, the field-degree bookkeeping built on the
multiplier character, and congruence-filtered subgroups.

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

import itertools
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


# rows per batch in the array kernels, and frontier points per add to a
# BFS seen table; bounds their temporaries
_BATCH = 1 << 12


def _kernel_dtype(mod: int, dim: int):
    """int64 where the batch kernels cannot overflow, Python ints otherwise."""
    return np.int64 if _np_batch_ok(mod, dim) else object


# (dtype, its largest value), narrowest first: the unsigned storage and id
# dtypes, and the signed key dtypes
_UNSIGNED_MAX = tuple((t, int(np.iinfo(t).max)) for t in (np.uint8, np.uint16, np.uint32, np.uint64))
_KEY_MAX = tuple((t, int(np.iinfo(t).max)) for t in (np.int32, np.int64))


def _unsigned_dtype(bound: int):
    """The smallest unsigned dtype holding every integer in 0..``bound``,
    object dtype (Python ints) past uint64."""
    return next((t for t, top in _UNSIGNED_MAX if bound <= top), object)


def _storage_dtype(mod: int, dim: int):
    """The smallest unsigned dtype holding a residue mod ``mod`` inside the
    kernel guard (``mod < 2^31`` there), object dtype past it."""
    return _unsigned_dtype(mod - 1) if _np_batch_ok(mod, dim) else object


# entries of a key-indexed int32 seen table, 16 MiB
_DENSE_KEYS = 1 << 22

# bytes of one BFS add's product batch, checked before it is allocated
_LEVEL_BYTES = 1 << 30

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
    so that every stamp is above ``_UNSEEN`` in the table's int32, and must
    hold no key whose entry is an earlier stamp (a stamp is below 0, so it
    would not read as seen).
    """
    stamps = np.arange(-1, -1 - len(keys), -1, dtype=table.dtype)
    # a repeated index in a fancy assignment keeps an unspecified value;
    # maximum.at keeps the greatest, and takes its fast path only when the
    # values are of the table's dtype
    np.maximum.at(table, keys, stamps)
    return np.flatnonzero(table.take(keys) == stamps)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending.  Sorts ``values`` in
    place, so its memory holds the sort: no argsort and no sorted copy."""
    values.sort()
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _mixed_radix(sizes: list) -> tuple:
    """The key space ``prod(sizes)`` of tuples of ids, the i-th below
    ``sizes[i]``, the narrowest dtype holding it (int32 below 2^31, int64
    below 2^63, Python ints (object dtype) past it) and the weights that
    read a tuple as one key, first id most significant."""
    space = math.prod(sizes)
    dtype = next((t for t, top in _KEY_MAX if space <= top), object)
    return space, dtype, [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]


def _radix_keys(ids, weights: list, dtype) -> np.ndarray:
    """The key of each tuple of ``ids`` (one id array per place) under the
    weights and dtype of ``_mixed_radix``; one place's ids are its keys."""
    if len(ids) == 1:
        return ids[0].astype(dtype, copy=False)
    keys = np.multiply(ids[0], weights[0], dtype=dtype)
    for r, w in zip(ids[1:], weights[1:]):
        keys += r if w == 1 else np.multiply(r, w, dtype=dtype)
    return keys


def _numbering(vectors: np.ndarray, mod: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``vectors`` (residues mod ``mod``), ordered by
    their keys in the mixed radix ``_mixed_radix([mod] * d)``, as a (d, m)
    array of columns, and the id of each row of ``vectors`` among them, in
    the narrowest unsigned dtype."""
    _, dtype, weights = _mixed_radix([mod] * vectors.shape[1])
    if vectors.dtype == object and dtype != object:
        vectors = vectors.astype(dtype)
    keys = _radix_keys(list(vectors.T), weights, dtype)
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return vectors[first].T.copy(), ids.reshape(-1).astype(_unsigned_dtype(max(len(first) - 1, 0)))


def _every(columns) -> list:
    """The masks that every vector of ``columns`` passes, one per row: under
    them a group's ``batches`` is its full enumeration."""
    return [np.ones(c.shape[1], dtype=bool) for c in columns]


def _stored(batches: list):
    """The ``batches`` of a group kept as lists of row ids, one id array per
    row, in element order.  Under given masks each batch's passing ids are
    gathered most selective row first, each row over the survivors of the
    ones before; a row whose mask is all true is skipped, a batch left
    empty is not yielded, and a mask with no true entry yields nothing.
    Under masks that every vector passes it yields ``batches`` themselves."""

    def source(masks):
        picked = [i for i, m in enumerate(masks) if not m.all()]
        picked.sort(key=lambda i: masks[i].mean())
        if not picked:
            yield from batches
        elif masks[picked[0]].any():
            for ids in batches:
                index = np.flatnonzero(masks[picked[0]].take(ids[picked[0]]))
                for i in picked[1:]:
                    index = index[masks[i].take(ids[i].take(index))]
                if len(index):
                    yield [r.take(index) for r in ids]

    return source


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index runs ``starts[t] .. starts[t] + lengths[t] - 1``, joined in
    order of t."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


class MatrixGroup:
    """A finite group of similitudes, in a deterministic element order,
    stored as row ids.

    Row i of every element is one of the vectors of ``columns[i]``, a (d,
    n_i) array in the storage dtype with one vector per column, so an
    element is the tuple of its d row ids.  ``batches(masks)`` takes a
    boolean mask per row over that row's vectors and yields, in element
    order, the ids of the elements whose every row passes its mask, one
    batch at a time: d id arrays of one length, row i's indexing
    ``columns[i]``.  A batch may share its arrays with other batches and
    rows.  Under masks that every vector passes (``_every``) it is the full
    enumeration, which has at least one batch, and an empty one only for an
    empty group.  A builder (``gl2_group``, ``scenario_cm``,
    ``scenario_selfproduct``) answers from its own parametrization, writing
    only the passing elements' ids, afresh on each call; stored batches
    (``close``'s BFS levels, the ids that ``stabilizer``,
    ``filtered_subgroup`` and ``reduce_level`` keep) are filtered by
    ``_stored``.  The ids are all a group keeps of its elements.

    Every test on a group is one scan (``_scan``): a mask per row, from the
    fixing test (``_fixing_scan``) or from equality with a matrix's rows
    (``in``).  ``reduce_level`` counts its kernel with one fixing scan, then
    renumbers the ids of the full enumeration until its image is complete.
    ``blocks()`` is the only decode: it gathers the elements from the ids
    on each call, one row-major matrix per row, in element order and in
    blocks of at most ``_BATCH`` rows.  Nothing holds a group whole.

    Storage is narrow: inside the kernel guard (``_np_batch_ok``) it is the
    smallest unsigned dtype holding a residue mod l^n (uint8 up to 256,
    uint16 up to 65536, uint32 above), past it object dtype (Python ints);
    an id is in the smallest unsigned dtype holding its row's vector count.
    The multiplier kernel computes wide, in int64 or object dtype, one
    block at a time, and the fixing test multiplies the fixed vectors,
    reduced, by each row's vectors in that dtype; ``reduce_level`` takes
    remainders in the storage dtype.  Unsigned subtraction wraps, so
    widen a block before doing other arithmetic on it; ``tolist()`` gives
    Python ints.  The elements must be distinct and reduced, as every
    builder here produces them.

    ``generators``, when not empty, generates the group.  Only the builders
    record them (``close``, ``gl2_group``, ``scenario_cm``,
    ``scenario_selfproduct``, and ``reduce_level`` from its source's), each
    for the group it builds; subgroups cut out by a test record none.
    ``units`` holds their multipliers, in order.  ``build_degree_report``
    relies on this: it reads lambda(G) from them.
    """

    __slots__ = ("space", "generators", "units", "columns", "batches", "order")

    def __init__(self, space: SymplecticSpace, generators, columns, batches, order, units=None):
        """The group of the ``order`` elements whose row ids ``batches``
        yields over ``columns`` under masks that every vector passes.
        ``units``, when given, are the generators' multipliers, already
        checked."""
        self.space = space
        self.generators = tuple(generators)
        if units is None:  # raises NotSimilitude on a bad generator
            units = [multiplier(g, space) for g in self.generators]
        self.units = tuple(units)
        self.columns, self.batches, self.order = columns, batches, order

    @property
    def ring(self) -> ResidueRing:
        return self.space.ring

    @property
    def dim(self) -> int:
        return self.space.dim

    def _slices(self) -> Iterator[list]:
        """The batches cut into slices of ``_BATCH`` elements, in order;
        an empty batch gives one empty slice."""
        for ids in self.batches(_every(self.columns)):
            for s in range(0, max(len(ids[0]), 1), _BATCH):
                yield [r[s : s + _BATCH] for r in ids]

    def _decode(self, ids) -> np.ndarray:
        """The row-major elements whose row ids are ``ids``: row i of each is
        one gather from ``columns[i]``."""
        # a (d*d, count) array read transposed
        return np.concatenate([c.take(r, axis=1) for c, r in zip(self.columns, ids)]).T

    def blocks(self) -> Iterator[np.ndarray]:
        """The elements in element order, decoded from the row ids on each
        call, in consecutive blocks of at most ``_BATCH`` rows, at least one."""
        return map(self._decode, self._slices())

    def _scan(self, masks: list) -> list:
        """The row ids, as one batch, of the elements whose row i passes
        ``masks[i]``, a mask over the vectors of ``columns[i]``, for every
        i, in element order: the batches that ``batches(masks)`` yields,
        joined.  Nothing is decoded."""
        kept = [ids for ids in self.batches(masks) if len(ids[0])]
        if not kept:
            return [np.zeros(0, dtype=np.uint8) for _ in masks]
        return [np.concatenate(parts) for parts in zip(*kept)]

    def __contains__(self, M: MatrixMod) -> bool:
        """Whether ``M`` is an element; False for a matrix over another ring
        or of another size, as ``MatrixMod.__eq__`` decides.  A scan of the
        row ids with the mask of the vectors equal to each row of M, which
        stops at its first hit: a builder's group yields M's ids alone."""
        if not isinstance(M, MatrixMod) or M.ring != self.ring or M.dim != self.dim:
            return False
        pairs = zip(self.columns, M.rows)
        masks = [(c.T == np.array(row, dtype=c.dtype)).all(axis=1) for c, row in pairs]
        return any(len(ids[0]) for ids in self.batches(masks))

    def multiplier_image(self) -> np.ndarray:
        """The distinct multipliers, ascending, as a read-only array in the
        kernel dtype (int64, or object past the guard), not the storage
        dtype, so reducing it mod l^m needs no widening.  Scans every
        element on each call, one block widened at a time."""
        mod, d = self.ring.modulus, self.dim
        rows = self.space.form.rows
        i, j = self.space.unit_entry
        psi = np.array(rows, dtype=_kernel_dtype(mod, d)) % mod
        inv = self.ring.inverse(rows[i][j])
        values = []
        for block in self.blocks():
            # (M^T psi M)[i,j] = col_i(M)^T psi col_j(M)
            M = block.astype(psi.dtype, copy=False).reshape(-1, d, d)
            left = M[:, :, i] @ psi % mod
            values.append((left * M[:, :, j]).sum(axis=1) % mod * inv % mod)
        image = _distinct(np.concatenate(values))
        image.flags.writeable = False
        return image

    def reduce_level(self, level: int) -> "MatrixGroup":
        """Image under reduction mod l^level, first occurrences in element
        order; the group itself at the top level, where its elements are
        already reduced and distinct.

        The image has [G : K] elements, K = {M in G : M = I mod l^level}
        the kernel, which one ``_fixing_scan`` counts.  Each row's vectors
        are reduced once and renumbered, so an element's image is the tuple
        of its rows' new ids.  First occurrences are found by the
        mixed-radix keys of those tuples (``_mixed_radix``, as in ``_bfs``)
        through ``_seen_set``, one slice of ``_BATCH`` elements at a time,
        and the sweep stops at the slice that completes [G : K] of them:
        the slices left hold no new image.  Nothing is decoded or joined.

        The early stop presumes that the elements form a group, as those of
        every builder and of ``close`` do.  Of sets that are no group it
        catches only some, with ValueError: where |K| does not divide |G|,
        or the count of images ends other than at [G : K] (short of it, or
        past it inside a slice).  A set whose count of images reaches
        [G : K] at the end of a slice returns those images, possibly fewer
        than its whole sweep would find."""
        if not 1 <= level <= self.ring.level:
            raise ValueError(f"can only reduce to a level in 1..{self.ring.level}, got {level}")
        if level == self.ring.level:
            return self
        p = self.ring.ell ** level
        kernel = _fixing_scan(self, [(p, np.eye(self.dim, dtype=int))]).order
        target, rest = divmod(self.order, kernel) if kernel else (0, self.order)
        if rest:
            raise ValueError(f"not a group: the kernel mod {p} has {kernel} of {self.order} elements")
        stored = _storage_dtype(p, self.dim)
        # the storage dtype holds p below the top level
        reduced = [(c % p).astype(stored, copy=False) for c in self.columns]
        numbered = [_numbering(c.T, p) for c in reduced]
        columns, renumber = [c for c, _ in numbered], [r for _, r in numbered]
        size, dtype, weights = _mixed_radix([c.shape[1] for c in columns])
        slices = ([m.take(r) for m, r in zip(renumber, ids)] for ids in self._slices())
        head = next(slices)
        # the first element is a first occurrence
        kept = [[r[:1] for r in head]]
        seen, count = _seen_set(size, _radix_keys(kept[0], weights, dtype)), len(head[0][:1])
        for ids in itertools.chain([head], slices):
            first, _ = seen.add(_radix_keys(ids, weights, dtype), count)
            kept.append([r.take(first) for r in ids])
            count += len(first)
            if count == target:
                break
        if count != target:
            raise ValueError(f"not a group: {count} images mod {p}, not [G : K] = {target}")
        batch = [np.concatenate(parts) for parts in zip(*kept)]
        ring = self.ring.at_level(level)
        space = SymplecticSpace(self.space.g, self.space.form.reduce_level(level), ring)
        gens = tuple(g.reduce_level(level) for g in self.generators)
        units = [u % p for u in self.units]
        return MatrixGroup(space, gens, columns, _stored([batch]), count, units)


class _SeenTable:
    """A seen set over a small key space: an int32 table indexed by the
    key, ``_UNSEEN`` for an unseen key.  An add finds its new keys in one
    pass (``_first_unseen``).  A seen key's entry is its point index when
    the adds ask for lookups; when they do not, it is only some value other
    than ``_UNSEEN``: the stamp ``_first_unseen`` left there.  An add reads
    only its own keys' entries, so ``_bfs`` adds ``_BATCH`` frontier points'
    products at a time (``chunk``) for the same work as whole levels."""

    def __init__(self, size: int, start_key: np.ndarray):
        self.table = np.full(size, _UNSEEN, dtype=np.int32)
        self.table[start_key] = 0

    def chunk(self, width: int) -> int:
        """How many of a level's ``width`` frontier points an add takes."""
        return min(width, _BATCH)

    def add(self, keys: np.ndarray, count: int, lookup: bool = False):
        """Ascending indices of the first occurrence of each unseen key in
        ``keys``; those keys become points ``count``, ``count + 1``, ... in
        that order.  With ``lookup``, also the point index of every key in
        ``keys`` after the add, else None.  Every add of one table must ask
        for lookups, or none may."""
        if lookup:
            first = _first_unseen(self.table, keys)
            self.table[keys.take(first)] = np.arange(count, count + len(first))
            return first, self.table.take(keys)
        # stamp only the keys not seen before; the stamps mark them seen
        fresh = np.flatnonzero(self.table.take(keys) == _UNSEEN)
        return fresh.take(_first_unseen(self.table, keys.take(fresh))), None


class _SeenSorted:
    """A seen set as the sorted array of the keys seen so far and, aligned
    with it, the point index of each, for int64 key spaces too large for a
    table.  An add inserts into the whole sorted array, so its cost grows
    with the keys seen, not with its own: ``_bfs`` adds a whole level at a
    time (``chunk``)."""

    def __init__(self, start_key: np.ndarray):
        self.keys = start_key
        self.index = np.zeros(len(start_key), dtype=np.int64)

    def chunk(self, width: int) -> int:
        """All ``width`` frontier points: each add inserts into the whole array."""
        return width

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


class _SeenDict:
    """A seen set for keys past 2^63, Python ints (object dtype): a dict from
    each key seen to its point index.  An add walks its own keys, so
    ``_bfs`` adds ``_BATCH`` frontier points at a time, as on the table."""

    chunk = _SeenTable.chunk

    def __init__(self, start_key: np.ndarray):
        self.index = dict.fromkeys(start_key.tolist(), 0)

    def add(self, keys: np.ndarray, count: int, lookup: bool = False):
        """As ``_SeenTable.add``."""
        index, first, points = self.index, [], []
        for j, key in enumerate(keys.tolist()):
            points.append(index.setdefault(key, count + len(first)))
            if points[-1] == count + len(first):  # a key seen before has a smaller point
                first.append(j)
        return np.array(first, dtype=np.intp), np.array(points, dtype=np.int64) if lookup else None


def _seen_set(size: int, start_key: np.ndarray):
    """A seen set over a space of ``size`` keys holding ``start_key`` (one
    key, or none) as point 0: a ``_SeenDict`` for object keys (past 2^63),
    else a ``_SeenTable`` up to ``_DENSE_KEYS`` keys, checked before the
    table is allocated, and a ``_SeenSorted`` past it."""
    if start_key.dtype == object:
        return _SeenDict(start_key)
    if size <= _DENSE_KEYS:
        return _SeenTable(size, start_key)
    return _SeenSorted(start_key)


def _cap_exceeded(stage: str, cap: int, count: int, depth: int) -> CapExceeded:
    noun = "elements" if stage == "closure" else "points"
    return CapExceeded(f"{stage} exceeds cap={cap}: {count} {noun} through BFS depth {depth}")


def _bfs(rows, mats, mod: int, cap: int, stage: str, units=None):
    """Breadth-first orbit of one k x d matrix under x -> x @ m mod ``mod``.

    ``rows`` are the k rows of the start matrix and ``mats`` the action
    matrices, as tuples of Python ints.  Row i of x @ m is row i of x times
    m, so one level loop (``search``) walks the orbit of each distinct start
    row, whose points are vectors, then that of the start matrix, whose
    points are tuples of row ids.  Only the products differ: a chunk of
    vectors times every matrix is one matrix product in the kernel dtype, a
    chunk of tuples' products k gathers from the row orbits' action tables.
    A point's key reads its coordinates in a mixed radix (``_mixed_radix``):
    a vector's d entries base ``mod``, a tuple's ids in that of the orbit
    sizes.  A row search's lookups of its products' points are its orbit's
    int32 action table, ``act[a, j]`` the id (discovery index) of vector a
    times mats[j]; rows in one orbit share it.  With k = 1 the row search is
    the point search: it carries the units, and nothing more is searched.

    Each level streams through the seen set (``_seen_set``) in chunks of as
    many frontier points as its ``chunk`` says, so that on the table and the
    dict every product batch, key array and seen-test temporary is bounded
    by ``_BATCH * len(mats)`` products.  Products are taken in (frontier
    index, matrix index) order and each new point is kept at its first
    occurrence, so the point order is that of the one-product-at-a-time
    search.  Raises CapExceeded, naming ``stage``, when a search's point
    count would pass the cap (a row orbit, the point orbit's image, is never
    the longer), or when an add's product batch would take more than
    ``_LEVEL_BYTES``, checked on a level's first chunk before it is built.

    ``units``, when given, is one unit mod ``mod`` per matrix (Python ints).
    Each point x then carries lambda_x, the product of the units along its
    BFS tree path, in the smallest unsigned dtype holding (mod - 1)^2
    (object past uint64).  A new point y takes as lambda_y the step value
    lam_i * lambda_x of its first occurrence, so the Schreier scalar of y =
    x @ m_i, its step value over lambda_y, is formed only where they differ:
    once per add and distinct step * mod + lambda_y, below mod^2.

    Returns the BFS levels (each depth's new points as a (k, count) array of
    row ids in the narrowest unsigned dtype), each start row's orbit (its
    vectors, a (d, n) array in the kernel dtype, and its action table), and
    the distinct Schreier scalars other than 1, ascending (none without units).
    """
    d, k = len(rows[0]), len(rows)
    wide = _kernel_dtype(mod, d)
    # the matrices side by side: a vector's products are one row of v @ joined
    joined = np.array(mats, dtype=wide).reshape(-1, d, d).transpose(1, 0, 2).reshape(d, len(mats) * d)
    lam = None if units is None else np.array(units, dtype=_unsigned_dtype((mod - 1) ** 2))

    def times(part):
        prods = part.T @ joined
        prods %= mod
        return list(prods.reshape(-1, d).T)

    def search(start, step, sizes, word, lam=None, table=None):
        """Levels and scalars from the (k, 1) coordinates ``start``, the i-th
        below ``sizes[i]``; ``step`` gives a chunk's products' k coordinate
        arrays, ``word`` bytes an entry.  Lookups go to ``table`` if given."""
        space, dtype, weights = _mixed_radix(sizes)
        frontier, lookup, scalars = start, lam is not None or table is not None, set()
        seen, count, levels = _seen_set(space, _radix_keys(start, weights, dtype)), 1, [start]
        # bytes per product: its coordinates, and four words for its key and
        # the seen test's temporaries (past int64, a pointer and a Python int)
        per_product = len(start) * word + 4 * (8 if dtype != object else 48)
        if lam is not None:
            lam_points = np.ones(1, dtype=lam.dtype)  # lambda_x by point index
        while frontier.shape[1]:
            # the frontier is the last ``width`` points found, from ``head`` on
            width, level_count, found = frontier.shape[1], count, []
            head = count - width
            chunk = seen.chunk(width)
            need = chunk * len(mats) * per_product
            if need > _LEVEL_BYTES:
                budget = f"{stage} exceeds the BFS level budget of {_LEVEL_BYTES} bytes"
                raise CapExceeded(f"{budget}: depth {len(levels) - 1} needs {need} bytes")
            for at in range(0, width, chunk):
                # a level of one chunk is neither sliced nor joined
                part = frontier if chunk == width else frontier[:, at : at + chunk]
                prods = step(part)
                first, points = seen.add(_radix_keys(prods, weights, dtype), count, lookup)
                # raise only on finding a new point, as the one-at-a-time search does
                if len(first) and count + len(first) > cap:
                    raise _cap_exceeded(stage, cap, level_count, len(levels) - 1)
                if table is not None:
                    table.append(points)
                if lam is not None:
                    lam_x = lam_points[head + at : head + at + part.shape[1]]
                    steps = (lam_x[:, None] * lam % mod).ravel()  # in product order
                    if count + len(first) > len(lam_points):  # grown geometrically
                        lam_points = np.resize(lam_points, 2 * (count + len(first)))
                    lam_points[count : count + len(first)] = steps[first]
                    lam_y = lam_points[points]
                    odd = steps != lam_y
                    if odd.any():
                        for pair in _distinct(steps[odd] * mod + lam_y[odd]).tolist():
                            s, y = divmod(pair, mod)
                            scalars.add(s * pow(y, -1, mod) % mod)
                count += len(first)
                found.append(np.array([c.take(first) for c in prods], dtype=frontier.dtype))
            frontier = found[0] if len(found) == 1 else np.concatenate(found, axis=1)
            levels.append(frontier)
        return levels, sorted(scalars)

    orbits, ids = [], []  # each start row's (vectors, act), and its id there
    for x in np.array(rows, dtype=wide):
        hits = ((o, np.flatnonzero((o[0] == x[:, None]).all(axis=0))) for o in orbits)
        orbit, at = next(((o, int(a[0])) for o, a in hits if len(a)), (None, 0))
        if orbit is None:
            table, word = [], 8 if wide != object else 48
            levels, scalars = search(x[:, None], times, [mod] * d, word, lam if k == 1 else None, table)
            vectors, act = np.concatenate(levels, axis=1), np.concatenate(table)
            orbit = (vectors, act.astype(np.int32, copy=False).reshape(vectors.shape[1], len(mats)))
        orbits.append(orbit)
        ids.append(at)
    sizes = [len(act) for _, act in orbits]
    ids_dtype = _unsigned_dtype(max(sizes) - 1)
    if k == 1:  # the row search was the point search: a point's id is its vector's
        bounds = np.cumsum([v.shape[1] for v in levels])[:-1]
        return np.split(np.arange(sizes[0], dtype=ids_dtype)[None], bounds, axis=1), orbits, scalars

    def gathers(part):  # take: a gather of whole table rows, faster than fancy indexing
        return [act.take(i, axis=0).ravel() for (_, act), i in zip(orbits, part)]

    levels, scalars = search(np.array(ids, dtype=ids_dtype)[:, None], gathers, sizes, 4, lam)
    return levels, orbits, scalars


def close(
    space: SymplecticSpace, generators: Sequence[MatrixMod], cap: int = DEFAULT_CAP
) -> MatrixGroup:
    """Breadth-first closure of a generating set under multiplication: the
    orbit of the identity under right multiplication by the generators.

    The generated semigroup equals the generated group because every element
    of a finite matrix group has finite order.  The element order is that of
    the one-product-at-a-time search (see ``_bfs``), which runs on row ids.
    The group keeps them: its batches are the BFS levels, and row i's
    columns are the vectors of the orbit of e_i.  Raises CapExceeded when
    the element count would pass the cap.
    """
    units = [multiplier(g, space) for g in generators]  # raises NotSimilitude
    d, mod = space.dim, space.ring.modulus
    identity = MatrixMod.identity(space.ring, d).rows
    levels, orbits, _ = _bfs(identity, [g.rows for g in generators], mod, cap, "closure")
    levels.pop()  # the search ends on an empty level
    columns = [vectors.astype(_storage_dtype(mod, d)) for vectors, _ in orbits]
    order = sum(ids.shape[1] for ids in levels)
    return MatrixGroup(space, generators, columns, _stored(levels), order, units)


def _check_subgroup(space: SymplecticSpace, H: TorsionSubgroup) -> None:
    if H.ring != space.ring:
        raise ValueError("group and subgroup live over different rings")
    if H.ambient_dim != space.dim:
        raise ValueError("ambient dimension mismatch")


def stabilizer(G: MatrixGroup, H: TorsionSubgroup) -> MatrixGroup:
    """Pointwise fixer {M in G : M e = e for every Smith-basis generator e}.

    Fixing a generating set fixes all of H by linearity.  ``_fixing_scan``
    tests G on its row ids, so G is neither decoded nor joined; T keeps
    G's element order and holds the surviving ids over G's columns, decoded
    only when its ``blocks()`` are read.
    """
    if not isinstance(G, MatrixGroup):
        raise TypeError("stabilizer enumeration needs a MatrixGroup")
    _check_subgroup(G.space, H)
    if H.is_trivial():
        return G
    return _fixing_scan(G, [(G.ring.modulus, H.basis)])


def _fixing_scan(G: MatrixGroup, conditions) -> MatrixGroup:
    """The subgroup of the elements M of G with M v = v mod p for every
    vector v of every (p, vectors) pair in ``conditions``.  Row i of M v
    reads only row i of M, one of the vectors of G's ``columns[i]``, so each
    condition is one product per row: its vectors, reduced mod p into an
    (r, d) array V in the kernel dtype (``_kernel_dtype``), times
    ``columns[i]``, compared mod p with column i of V.  That gives each row
    a mask for ``MatrixGroup._scan``; the subgroup holds the surviving ids
    over G's columns, in G's element order."""
    masks, d = _every(G.columns), G.dim
    wide = _kernel_dtype(G.ring.modulus, d)
    for p, vectors in conditions:
        V = np.array([[int(x) % p for x in v] for v in vectors], dtype=wide).reshape(-1, d)
        for i, c in enumerate(G.columns):
            masks[i] &= (V @ c % p == V[:, i : i + 1]).all(axis=0)
    batch = G._scan(masks)
    return MatrixGroup(G.space, (), G.columns, _stored([batch]), len(batch[0]))


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

    An empty chain returns Gfull itself.  The fixers must decrease along
    the chain, each holding the next, and the cutoffs must be strictly
    increasing, else ChainNotIncreasing; a fixer outside Gfull's ring or
    dimension raises ValueError before either test.  The result holds
    Gfull's surviving row ids, as ``stabilizer``'s does.
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
    return _fixing_scan(Gfull, conditions)


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

    Row i takes the values u e_i, u over the units in increasing order, so
    an entry's id is its unit's index.  Under the scan's masks the rows
    pair up: for each multiplier lambda and each i, the d_i kept are those
    whose row i passes its mask and whose partner lambda / d_i passes row
    2g+1-i's, found from row i's passing units (``searchsorted`` on the
    units gives each candidate's partner).  The
    elements of lambda are the lexicographic product of those lists.  A
    batch holds k consecutive multipliers, k at least 1 and as large as
    fits in ``_BATCH`` elements of the product of the candidate counts, so
    the ratios computed and the ids written are bounded by the candidates,
    never by a phi x phi table; under masks that every unit passes, a batch
    holds k multipliers' phi^g elements.
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
            raise CapExceeded(f"cm torus exceeds cap={cap}: {size} elements")
    space = standard_form(g, ring)
    n2, mod = 2 * g, ring.modulus
    units = np.array(list(ring.units()), dtype=_kernel_dtype(mod, n2))
    inv = np.array([ring.inverse(u) for u in units.tolist()], dtype=units.dtype)
    columns = [np.zeros((n2, phi), dtype=_storage_dtype(mod, n2)) for _ in range(n2)]
    for i, c in enumerate(columns):
        c[i] = units
    ids = _unsigned_dtype(phi - 1)

    def batches(masks):
        # pair t: rows t and n2 - 1 - t, holding d_(t+1) and lambda / d_(t+1);
        # the candidates are row t's passing units, in increasing order
        pairs = [(np.flatnonzero(masks[t]), masks[n2 - 1 - t]) for t in range(g)]
        size = math.prod(len(cand) for cand, _ in pairs)
        if not size:
            return
        k = max(1, _BATCH // size)
        for lo in range(0, phi, k):
            lams = units[lo : lo + k]
            lists = []  # per pair: each lambda's kept count, and the kept d and ratio ids
            for cand, other in pairs:
                partner = np.searchsorted(units, lams[:, None] * inv.take(cand) % mod)
                at, col = np.nonzero(other.take(partner))
                d, r = cand.take(col), partner[at, col]
                lists.append((np.bincount(at, minlength=len(lams)), d.astype(ids), r.astype(ids)))
            # the lexicographic product, one pair at a time: each element so
            # far is repeated once per d of the next pair its multiplier keeps
            lam_of, out = np.arange(len(lams)), [None] * n2
            for t, (n, d, r) in enumerate(lists):
                width = n.take(lam_of)
                pos = _runs((np.cumsum(n) - n).take(lam_of), width)
                lam_of = lam_of.repeat(width)
                for row in [*range(t), *range(n2 - t, n2)]:
                    out[row] = out[row].repeat(width)
                out[t], out[n2 - 1 - t] = d.take(pos), r.take(pos)
            if len(lam_of):
                yield out

    r = _primitive_root(ring)
    gens = []
    for j in range(g):
        d = [1] * n2
        d[j], d[n2 - 1 - j] = r, ring.inverse(r)
        gens.append(MatrixMod.diagonal(ring, d))
    gens.append(MatrixMod.diagonal(ring, [1] * g + [r] * g))
    G = MatrixGroup(space, gens, columns, batches, count)
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

    Both rows take the primitive vectors P (those nonzero mod l) in
    lexicographic order, so the elements are the (P[i], P[j]) with a unit
    determinant, in order of (i, j).  The determinant is a unit exactly when
    P[j] mod l is off the line through P[i] mod l, so the partners j of an
    i depend only on that line and are listed once for each of the l + 1
    lines, all of one length.  Under the scan's masks each line's partners
    are filtered once by row 1's mask, and the i kept are those passing row
    0's mask whose line keeps a partner.  A batch holds the elements of k
    consecutive kept i, k at least 1 and as large as fits in ``_BATCH`` at
    the most partners a line keeps.
    """
    ell, n, mod = ring.ell, ring.level, ring.modulus
    count = gl2_order(ell, n)
    if count > cap:
        raise CapExceeded(f"gl2 group exceeds cap={cap}: GL2(Z/{ell}^{n}) has {count} elements")
    space = standard_form(1, ring)
    vectors = np.indices((mod, mod)).reshape(2, -1)
    P = vectors[:, (vectors % ell).any(axis=0)]
    x, y = P % ell
    # the line through P mod l: its slope y / x, or l where x = 0
    inverse = np.array([0] + [pow(u, -1, ell) for u in range(1, ell)])
    line = np.where(x, y * inverse[x] % ell, ell)
    ids = _unsigned_dtype(P.shape[1] - 1)
    partners = np.array([np.flatnonzero(line != t) for t in range(ell + 1)], dtype=ids)
    columns = P.astype(_storage_dtype(mod, 2))

    def batches(masks):
        first, second = masks
        kept = [p[second.take(p)] for p in partners]  # each line's partners passing row 1
        counts = np.array([len(p) for p in kept])
        rows = np.flatnonzero(first & (counts.take(line) > 0))
        k = max(1, _BATCH // max(counts.max(), 1))
        lines = line.take(rows)
        rows, widths, lines = rows.astype(ids), counts.take(lines), lines.tolist()
        for s in range(0, len(rows), k):
            second_ids = np.concatenate([kept[t] for t in lines[s : s + k]])
            yield [rows[s : s + k].repeat(widths[s : s + k]), second_ids]

    gens = gl2_standard_generators(ring) if ell != 2 else ()
    return MatrixGroup(space, gens, [columns, columns], batches, count)


def scenario_selfproduct(ell: int, level: int = 1, cap: int = DEFAULT_CAP):
    """Self-product image {diag-block(g, g)} inside GSp4 with form psi + psi,
    and H generated by (P, Q) = (1,0,0,1), whose pairing value is primitive.
    G is generated by diag-block(x, x) for x in ``gl2_standard_generators``.

    Element order: that of ``gl2_group``.  An element of GL2 with row ids
    (i, j) gives the one with row ids (i, j, i, j): rows 0 and 1 take the
    primitive vectors placed in the first block, rows 2 and 3 in the
    second.  So the scan's masks are GL2's under rows 0 and 2's masks
    joined, and rows 1 and 3's."""
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
    P = gl2.columns[0]
    first, second = (np.zeros((4, P.shape[1]), dtype=_storage_dtype(m, 4)) for _ in range(2))
    first[:2], second[2:] = P, P

    def batches(masks):
        return ([i, j, i, j] for i, j in gl2.batches([masks[0] & masks[2], masks[1] & masks[3]]))

    gens = [
        MatrixMod(ring, [[*row, 0, 0] for row in x.rows] + [[0, 0, *row] for row in x.rows])
        for x in gl2.generators
    ]
    G = MatrixGroup(space, gens, [first, first, second, second], batches, gl2.order)
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
    multipliers of ``X.generators`` (``X.units``) when X records any, else
    those of all its elements."""
    return list(X.units) if X.generators else X.multiplier_image().tolist()


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
    _check_subgroup(space, H)
    lam = [multiplier(g, space) for g in generators]  # raises NotSimilitude
    if H.is_trivial():  # an empty basis: G fixes it, so T = G
        length, lam_T = 1, lam
    else:
        transposes = [tuple(zip(*g.rows)) for g in generators]
        levels, _, lam_T = _bfs(H.basis, transposes, ring.modulus, cap, "orbit", lam)
        length = sum(ids.shape[1] for ids in levels)
    return degree_report(ring, m1(H, space), length, 1, lam, lam_T, mu_c)
