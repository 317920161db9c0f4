import random

import pytest

from gspimage import galois_model as gm
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.mumford import rho
from gspimage.torsion import subgroup_from_generators


def symplectic_transvection(S, v):
    """x -> x + form(x, v) v, a similitude with multiplier 1."""
    w = S.form.apply(v)
    n = S.dim
    return MatrixMod(S.ring, [[(i == j) + v[i] * w[j] for j in range(n)] for i in range(n)])


def diagonal_similitude(S, lam):
    """diag(lam,..,lam,1,..,1): multiplier lam for the standard antidiagonal form."""
    return MatrixMod.diagonal(S.ring, [lam] * S.g + [1] * S.g)


def random_matrix(ring, dim, rng):
    return MatrixMod(
        ring, [[rng.randrange(ring.modulus) for _ in range(dim)] for _ in range(dim)]
    )


def random_invertible(ring, dim, rng):
    while True:
        M = random_matrix(ring, dim, rng)
        if M.is_invertible:
            return M


def random_similitude(space, rng, transvections=4):
    """Random element of GSp for a standard-form space: a product of
    symplectic transvections times a diagonal similitude."""
    M = MatrixMod.identity(space.ring, space.dim)
    for _ in range(transvections):
        v = [rng.randrange(space.ring.modulus) for _ in range(space.dim)]
        M = M @ symplectic_transvection(space, v)
    lam = 0
    while not space.ring.is_unit(lam):
        lam = rng.randrange(1, space.ring.modulus)
    return M @ diagonal_similitude(space, lam)


def random_subgroup(ring, dim, rng, max_order=5000):
    while True:
        k = rng.randrange(1, dim + 1)
        gens = []
        for _ in range(k):
            shift = ring.ell ** rng.randrange(ring.level)
            gens.append(
                tuple(rng.randrange(ring.modulus) * shift % ring.modulus for _ in range(dim))
            )
        H = subgroup_from_generators(gens, ring, ambient_dim=dim)
        if H.order <= max_order:
            return H


def tensor_generators(ell):
    """rho(g, I, I), rho(I, g, I) and rho(I, I, g) for g in generators of
    GL2(F_l), so they generate the tensor-cube image: gl2_standard_generators
    at odd l, and at l = 2, which it refuses, the two transvections
    (GL2(F_2) = SL2(F_2))."""
    ring = ResidueRing(ell, 1)
    I2 = MatrixMod.identity(ring, 2)
    if ell == 2:
        gl2 = [MatrixMod(ring, [[1, 1], [0, 1]]), MatrixMod(ring, [[1, 0], [1, 1]])]
    else:
        gl2 = gm.gl2_standard_generators(ring)
    return [rho(*(g if i == place else I2 for i in range(3))) for place in range(3) for g in gl2]


def seen_set_strategies(monkeypatch, budget=3**16):
    """Run the loop body once per BFS seen set.  The default budget of 3^16
    keys lets every BFS of ``test_closure.CASES`` use the key-indexed table;
    ``budget=None`` keeps the package's.  ``_seen_set`` forced to the sorted
    set gives the other.  Key spaces past the budget take the sorted set
    both times.  A loop run to its end leaves ``_seen_set`` as it found it,
    so that a second loop on the same monkeypatch runs the table again."""
    table = gm._seen_set
    if budget is not None:
        monkeypatch.setattr(gm, "_DENSE_KEYS", budget)
    for kind, pick in (("table", table), ("sorted", lambda size, key: gm._SeenSorted(key))):
        monkeypatch.setattr(gm, "_seen_set", pick)
        yield kind
    monkeypatch.setattr(gm, "_seen_set", table)


def table_adds(monkeypatch) -> list:
    """Spy on the key-indexed seen set: the returned list gets a [width,
    adds] pair for each BFS level it serves, the frontier's width and the
    number of ``_SeenTable.add`` calls the level took.  ``_bfs`` asks
    ``chunk`` once a level, before the level's adds."""
    levels, chunk, add = [], gm._SeenTable.chunk, gm._SeenTable.add

    def chunk_spy(self, width):
        levels.append([width, 0])
        return chunk(self, width)

    def add_spy(self, *args):
        levels[-1][1] += 1
        return add(self, *args)

    monkeypatch.setattr(gm._SeenTable, "chunk", chunk_spy)
    monkeypatch.setattr(gm._SeenTable, "add", add_spy)
    return levels


def spy_decodes(monkeypatch) -> list:
    """Spy on ``MatrixGroup._decode``, the one place a group's elements are
    decoded from its row ids: the returned list gets a (group, element
    count) pair for every call."""
    decoded, real = [], gm.MatrixGroup._decode

    def spy(self, ids):
        decoded.append((self, len(ids[0])))
        return real(self, ids)

    monkeypatch.setattr(gm.MatrixGroup, "_decode", spy)
    return decoded


def per_group(decoded) -> list:
    """The (group, elements decoded) totals of a ``spy_decodes`` list, in
    the order of each group's first decode."""
    totals = {}
    for X, n in decoded:
        totals[X] = totals.get(X, 0) + n
    return list(totals.items())


def spy_keys(monkeypatch) -> list:
    """Spy on ``_radix_keys``: the returned list gets every key array it
    makes, for ``_bfs``, ``reduce_level`` and ``_numbering`` alike."""
    made, real = [], gm._radix_keys
    monkeypatch.setattr(gm, "_radix_keys", lambda *args: made.append(real(*args)) or made[-1])
    return made


@pytest.fixture
def rng():
    return random.Random(0x5EED)
