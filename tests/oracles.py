"""Test-only oracles: triple-loop references for the ``MatrixMod``
kernels, readers of a group's elements through ``blocks()``, a group
numbered from an element list, the reduction and the scan of a group's full
enumeration, the brute-force tensor-cube stabilizer search, and the dict
search of row orbits that ``_bfs``'s own level loop replaced.  No command
needs any of them."""

import numpy as np

from gspimage import galois_model as gm
from gspimage.galois_model import CapExceeded, MatrixGroup, _cap_exceeded, _kernel_dtype, gl2_group
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.mumford import rho

# the fixing conditions (i, j, k): rho(a, b, c) sends e_i (x) e_j (x) e_k, a
# basis vector of the Lagrangian e111, e122, e212, e221, to itself
FIX_TARGETS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def reference_matmul(A: MatrixMod, B: MatrixMod) -> tuple:
    """The rows of A @ B, every entry a sum over every k, reduced."""
    n, m = A.dim, A.ring.modulus
    return tuple(
        tuple(sum(A.rows[i][k] * B.rows[k][j] for k in range(n)) % m for j in range(n))
        for i in range(n)
    )


def reference_apply(A: MatrixMod, vec) -> tuple:
    """A times the column vector ``vec``, every entry a sum over every k,
    reduced."""
    n, m = A.dim, A.ring.modulus
    return tuple(sum(A.rows[i][k] * vec[k] for k in range(n)) % m for i in range(n))


def reference_kron(A: MatrixMod, B: MatrixMod) -> tuple:
    """The rows of the Kronecker product: entry (i*q + k, j*q + l) is
    A[i][j] * B[k][l] for q = B.dim, reduced."""
    p, q, m = A.dim, B.dim, A.ring.modulus
    return tuple(
        tuple(A.rows[r // q][c // q] * B.rows[r % q][c % q] % m for c in range(p * q))
        for r in range(p * q)
    )


def elements(G) -> np.ndarray:
    """All of G's elements, in element order, as one (order, d*d) array in
    the storage dtype, joined from ``blocks()``."""
    return np.concatenate(list(G.blocks()))


def matrices(G) -> list:
    """G's elements, in element order, as ``MatrixMod``s."""
    return [MatrixMod.from_flat(G.ring, G.dim, row) for row in elements(G).tolist()]


def numbered(space, rows, generators=()) -> MatrixGroup:
    """The group of the distinct reduced row-major ``rows``, in their order,
    each of its rows numbered among that row's distinct vectors
    (``_numbering``) and kept as one batch of row ids."""
    d = space.dim
    dtype = gm._storage_dtype(space.ring.modulus, d)
    arr = np.asarray(rows, dtype=dtype).reshape(-1, d * d)
    pairs = [gm._numbering(arr[:, i * d : i * d + d], space.ring.modulus) for i in range(d)]
    batch = [ids for _, ids in pairs]
    return MatrixGroup(space, generators, [c for c, _ in pairs], gm._stored([batch]), len(arr))


def reference_reduce(G, level) -> list:
    """G's image mod l^level as row-major tuples of Python ints: every
    element decoded, reduced, and kept at its first occurrence in element
    order."""
    p = G.ring.ell**level
    return list(dict.fromkeys(map(tuple, (elements(G) % p).tolist())))


def reference_scan(G, masks) -> list:
    """The row ids, as one batch, of G's elements whose row i passes
    ``masks[i]`` for every i, in element order: the full enumeration
    (``G.batches`` under masks every vector passes) filtered batch by batch
    on every row at once.  Row ids of uint8 when no element passes, as
    ``MatrixGroup._scan`` gives them."""
    kept = []
    for ids in G.batches(gm._every(G.columns)):
        keep = np.ones(len(ids[0]), dtype=bool)
        for mask, r in zip(masks, ids):
            keep &= mask.take(r)
        if keep.any():
            kept.append([r[keep] for r in ids])
    if not kept:
        return [np.zeros(0, dtype=np.uint8) for _ in masks]
    return [np.concatenate(parts) for parts in zip(*kept)]


def _gl2_array(ell: int) -> np.ndarray:
    # widened: the oracle subtracts and multiplies entries, and unsigned storage wraps
    return elements(gl2_group(ResidueRing(ell, 1))).astype(np.int64).reshape(-1, 2, 2)


def stabilizer_brute_force(ell: int, cap: int = 200_000_000) -> list:
    """Reference search: scan every canonical triple for the fixing property."""
    ring = ResidueRing(ell, 1)
    C = _gl2_array(ell)
    # canonical a and b: first nonzero entry (row-major) is 1
    A = C[(C[:, 0, 0] == 1) | ((C[:, 0, 0] == 0) & (C[:, 0, 1] == 1))]
    if len(A) * len(A) * len(C) > cap:
        raise CapExceeded("brute-force scan too large")
    targets = []
    for (i, j, k) in FIX_TARGETS:
        t = np.zeros((2, 2, 2), dtype=np.int64)
        t[i, j, k] = 1
        targets.append(((i, j, k), t))
    found = set()
    for a in A:
        for b in A:
            mask = np.ones(len(C), dtype=bool)
            for (i, j, k), t in targets:
                u, v, W = a[:, i], b[:, j], C[:, :, k]
                lhs = np.einsum("p,q,nr->npqr", u, v, W)
                mask &= (((lhs - t[None]) % ell) == 0).all(axis=(1, 2, 3))
                if not mask.any():
                    break
            for ic in np.nonzero(mask)[0]:
                R = rho(
                    MatrixMod(ring, a.tolist()),
                    MatrixMod(ring, b.tolist()),
                    MatrixMod(ring, C[ic].tolist()),
                )
                found.add(R.flat())
    return [MatrixMod.from_flat(ring, 8, f) for f in sorted(found)]


def reference_row_orbits(rows, mats, mod: int, cap: int, stage: str) -> list:
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
