"""The storage contract of a ``MatrixGroup``'s decoded blocks: narrow
unsigned storage, kernels that never overflow.

Each group keeps its residues in the smallest unsigned dtype that holds a
residue mod l^n inside the int64 kernel guard, object dtype past it.  The
multiplier kernel widens one block at a time; the fixing test multiplies
each row's vectors by the reduced fixed vectors in the kernel dtype (int64
inside the guard, Python ints past it), and level reduction takes
remainders in the storage dtype.
Their results must equal scans over ``MatrixMod`` elements even where
entries near ``mod - 1`` would overflow narrow arithmetic, or where the
modulus itself does not fit the storage dtype.
"""

import functools
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import close, filtered_subgroup, stabilizer
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import multiplier, standard_form
from gspimage.torsion import subgroup_from_generators

from conftest import per_group, seen_set_strategies, spy_decodes
from oracles import elements, matrices, numbered, reference_reduce, reference_scan
from test_closure import CASES

# (ell, level) -> storage dtype of a group of 2x2 matrices
BOUNDARIES = [
    (251, 1, np.uint8),
    (2, 8, np.uint8),  # 256
    (257, 1, np.uint16),
    (2, 16, np.uint16),  # 65536
    (65537, 1, np.uint32),
    (3, 19, np.uint32),
    (3, 20, object),  # past the int64 guard
]


def _signed_permutations(ring):
    """The eight signed 2x2 permutation matrices: entries 0, 1 and mod - 1."""
    S = standard_form(1, ring)
    m = ring.modulus
    gens = [MatrixMod(ring, [[m - 1, 0], [0, 1]]), MatrixMod(ring, [[0, 1], [1, 0]])]
    return S, close(S, gens)


@pytest.mark.parametrize("ell, level, dtype", BOUNDARIES)
def test_storage_dtype_and_tolist_at_boundary_moduli(ell, level, dtype):
    ring = ResidueRing(ell, level)
    S, G = _signed_permutations(ring)
    assert elements(G).dtype == dtype
    assert G.order == 8
    assert elements(stabilizer(G, subgroup_from_generators([(1, 1)], ring))).dtype == dtype
    assert elements(numbered(S, [M.flat() for M in matrices(G)])).dtype == dtype
    rows = elements(G).tolist()
    assert max(max(row) for row in rows) == ring.modulus - 1
    assert all(type(x) is int for row in rows for x in row)
    assert json.loads(json.dumps(rows)) == [list(M.flat()) for M in matrices(G)]


@pytest.mark.parametrize("ell, level, dtype", BOUNDARIES)
def test_narrow_kernels_match_matrixmod_scans(ell, level, dtype, monkeypatch):
    ring = ResidueRing(ell, level)
    S, G = _signed_permutations(ring)
    m, members = ring.modulus, matrices(G)
    assert G.multiplier_image().tolist() == sorted({multiplier(M, S) for M in members})
    assert G.multiplier_image().tolist() == sorted({1, m - 1})
    v = (1, m - 1)
    H = subgroup_from_generators([v], ring)
    assert matrices(stabilizer(G, H)) == [M for M in members if M.apply(v) == v]
    p = ring.ell
    F = filtered_subgroup(G, [H], [1])
    assert matrices(F) == [M for M in members if all(x % p == y % p for x, y in zip(M.apply(v), v))]
    expected = reference_reduce(G, 1)
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(1)
        assert [M.flat() for M in matrices(R)] == expected


@pytest.mark.parametrize("vector", ["e1", "e2", "1,m-1"])
@pytest.mark.parametrize("ell, level, dtype", BOUNDARIES)
def test_fixing_test_matches_matrixmod_scans_at_boundary_moduli(ell, level, dtype, vector):
    # for e1 at 2^8 and 2^16 the sum bound fits the storage dtype but the
    # modulus does not, so the remainder must be taken in a wider dtype
    ring = ResidueRing(ell, level)
    S, G = _signed_permutations(ring)
    m = ring.modulus
    v = {"e1": (1, 0), "e2": (0, 1), "1,m-1": (1, m - 1)}[vector]
    H = subgroup_from_generators([v], ring)
    T, members = stabilizer(G, H), matrices(G)
    assert elements(T).dtype == dtype
    assert matrices(T) == [M for M in members if M.apply(v) == v]
    for cut in range(1, level + 1):
        p = ell**cut
        F = filtered_subgroup(G, [H], [cut])
        assert matrices(F) == [
            M for M in members if all((x - y) % p == 0 for x, y in zip(M.apply(v), v))
        ]


@pytest.mark.parametrize("ell, level, dtype", BOUNDARIES)
def test_reduction_to_the_top_level_keeps_the_group(ell, level, dtype, monkeypatch):
    # at 2^8 and 2^16 the modulus does not fit the storage dtype, so no
    # remainder may be taken there: the entries are already reduced
    _, G = _signed_permutations(ResidueRing(ell, level))
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(level)
        assert elements(R).dtype == dtype
        assert elements(R).tolist() == elements(G).tolist()


@functools.lru_cache(maxsize=None)
def _fixing_cases():
    """Groups with their elements in order, for the fixing-test property:
    GL2(Z/9), the GSp4 self-product over Z/9, the GSp4 cm torus over Z/9,
    and the signed permutations over Z/3^20, stored past the int64 guard."""
    ring = ResidueRing(3, 2)
    groups = (
        gm.gl2_group(ring),
        gm.scenario_selfproduct(3, 2)[0],
        gm.scenario_cm(2, 3, 2)[0],
        _signed_permutations(ResidueRing(3, 20))[1],
    )
    return [(G, matrices(G)) for G in groups]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fixing_chains_match_matrixmod_scans(data):
    G, members = data.draw(st.sampled_from(_fixing_cases()))
    ring, d = G.ring, G.dim
    ell, mod = ring.ell, ring.modulus
    entry = st.sampled_from([0, ell, mod - ell, 1, mod - 1]) | st.integers(0, mod - 1)
    vector = st.lists(entry, min_size=d, max_size=d).map(tuple)
    gens1 = data.draw(st.lists(vector, min_size=1, max_size=3))
    # the second fixer lies in the first: combinations of its generators
    coeffs = data.draw(
        st.lists(st.lists(entry, min_size=len(gens1), max_size=len(gens1)), min_size=1, max_size=3)
    )
    gens2 = [tuple(sum(c * v[k] for c, v in zip(cs, gens1)) % mod for k in range(d)) for cs in coeffs]
    conditions = [(ell, gens1), (ell**2, gens2)]

    def fixes(M):
        return all(
            all((x - y) % p == 0 for x, y in zip(M.apply(v), v)) for p, vs in conditions for v in vs
        )

    expected = [i for i, M in enumerate(members) if fixes(M)]
    # G's elements are distinct, so the ordered list fixes the indices
    assert matrices(gm._fixing_scan(G, conditions)) == [members[i] for i in expected]
    H1 = subgroup_from_generators(gens1, ring, ambient_dim=d)
    H2 = subgroup_from_generators(gens2, ring, ambient_dim=d)
    F = filtered_subgroup(G, [H1, H2], [1, 2])
    assert matrices(F) == [members[i] for i in expected]
    T = stabilizer(G, H1)
    assert matrices(T) == [M for M in members if all(M.apply(v) == v for v in gens1)]


def test_reduction_keeps_first_occurrences_across_key_blocks(monkeypatch):
    # 3888 elements reduce to the 48 of GL2(F_3), their first occurrences
    # spread over many blocks of 7 keys
    G = gm.gl2_group(ResidueRing(3, 2))
    expected = reference_reduce(G, 1)
    monkeypatch.setattr(gm, "_BATCH", 7)
    for _ in seen_set_strategies(monkeypatch):
        assert [M.flat() for M in matrices(G.reduce_level(1))] == expected


def test_narrow_kernels_on_gl2_mod_17():
    # uint8 storage; 16 * 16 = 256 already wraps uint8 arithmetic
    ring = ResidueRing(17, 1)
    G = gm.gl2_group(ring)
    assert elements(G).dtype == np.uint8
    rows = elements(G).tolist()
    assert G.multiplier_image().tolist() == sorted({(a * d - b * c) % 17 for a, b, c, d in rows})
    v = (16, 16)
    T = stabilizer(G, subgroup_from_generators([v], ring))
    assert elements(T).tolist() == [
        [a, b, c, d] for a, b, c, d in rows if ((a + b) % 17, (c + d) % 17) == (1, 1)
    ]
    assert T.multiplier_image().tolist() == list(range(1, 17))


def _peak_bytes(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_allocate_no_group_sized_int64_array():
    (G, _), peak = _peak_bytes(lambda: gm.scenario_cm(2, 5, 3))
    assert G.order == 10**6 and next(G.blocks()).dtype == np.uint8
    # the group array (15.3 MiB) and no group-sized index or gather on top
    assert peak < G.order * 16 + 2**20
    gl2, peak = _peak_bytes(lambda: gm.gl2_group(ResidueRing(3, 3)))
    assert next(gl2.blocks()).dtype == np.uint8
    assert peak < gl2.order * 4 * 8  # below the group as int64
    (sp, _), peak = _peak_bytes(lambda: gm.scenario_selfproduct(3, 3))
    assert next(sp.blocks()).dtype == np.uint8
    assert peak < sp.order * 16 * 8


def test_membership_scans_blocks_without_joining_the_group(monkeypatch):
    # membership is one scan of the row ids, with a mask per row of the
    # vectors equal to that row of M: nothing is decoded
    R = ResidueRing(5, 3)
    G, _ = gm.scenario_cm(2, 5, 3)
    decoded = spy_decodes(monkeypatch)
    swap = MatrixMod(R, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for _ in _in_blocks_of_default_and_seven(monkeypatch):
        found, peak = _peak_bytes(lambda: MatrixMod.identity(R, 4) in G)
        assert found and decoded == []
        assert peak < 2**20  # the joined torus is 15.3 MiB, its comparison 16.2
        # a non-member whose first row is no vector of the torus's first row
        found, peak = _peak_bytes(lambda: swap in G)
        assert not found and decoded == []
        assert peak < 2**20


def _membership_fixtures():
    for name in sorted(CASES):
        S, gens = CASES[name][0]()
        yield name, lambda S=S, gens=gens: close(S, gens)
    yield "gl2_mod9", lambda: gm.gl2_group(ResidueRing(3, 2))
    yield "cm_5_2", lambda: gm.scenario_cm(2, 5, 2)[0]
    yield "selfproduct_3_2", lambda: gm.scenario_selfproduct(3, 2)[0]


@pytest.mark.parametrize("batch", [None, 7])
def test_membership_matches_the_joined_array_comparison(batch, monkeypatch):
    if batch is not None:  # members then lie past the first block
        monkeypatch.setattr(gm, "_BATCH", batch)
    for name, build in _membership_fixtures():
        G, joined = build(), elements(build())
        mod, d = G.ring.modulus, G.dim
        picks = (0, 1, G.order // 2, G.order - 1)
        candidates, crossed = [], []
        for i in picks:
            flat = joined[i].tolist()
            candidates.append(flat)
            for k in (0, d * d - 1):  # one entry moved off a member
                candidates.append(flat[:k] + [(flat[k] + 1) % mod] + flat[k + 1 :])
        for i, j in itertools.permutations(picks, 2):
            # every row is a row of a member, from two members in turn: each
            # row's mask has a hit, the tuple of ids need not be an element
            for cut in range(1, d):
                crossed.append(joined[i, : cut * d].tolist() + joined[j, cut * d :].tolist())
        for flat in candidates + crossed:
            M = MatrixMod.from_flat(G.ring, d, flat)
            old = bool((joined == np.array(flat, dtype=joined.dtype)).all(axis=1).any())
            assert (M in G) is old, (name, flat)
        outside = [flat for flat in crossed if not (joined == flat).all(axis=1).any()]
        assert outside, name  # the crossed rows include non-members
        # over another ring, and of another size
        flat = joined[0].tolist()
        assert MatrixMod.from_flat(ResidueRing(G.ring.ell, G.ring.level + 1), d, flat) not in G
        assert MatrixMod.identity(G.ring, d + 1) not in G


def _in_blocks_of_default_and_seven(monkeypatch):
    """Run the loop body with the default ``_BATCH``, then with 7, where a
    block splits inside one multiplier of the cm torus and inside the
    elements of one GL2 first row."""
    for batch in (gm._BATCH, 7):
        monkeypatch.setattr(gm, "_BATCH", batch)
        yield batch


@pytest.mark.parametrize(
    "g, ell, level",
    [(1, 3, 1), (1, 5, 3), (2, 3, 1), (2, 5, 2), (3, 3, 1), (3, 3, 2), (1, 257, 1)],
)
def test_cm_torus_rows_come_in_lambda_then_d_order(g, ell, level, monkeypatch):
    ring = ResidueRing(ell, level)
    n2, mod = 2 * g, ring.modulus
    expected = []
    for lam, *ds in itertools.product(ring.units(), repeat=g + 1):
        diag = ds + [lam * ring.inverse(d) % mod for d in reversed(ds)]
        row = [0] * (n2 * n2)
        row[:: n2 + 1] = diag
        expected.append(row)
    for _ in _in_blocks_of_default_and_seven(monkeypatch):
        G, _ = gm.scenario_cm(g, ell, level)
        assert elements(G).dtype == (np.uint16 if mod > 256 else np.uint8)
        assert elements(G).tolist() == expected


def _lexicographic_gl2(ell, level):
    mod = ell**level
    return [
        list(row)
        for row in itertools.product(range(mod), repeat=4)
        if (row[0] * row[3] - row[1] * row[2]) % ell
    ]


@pytest.mark.parametrize(
    "ell, level", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
)
def test_gl2_rows_come_in_lexicographic_order(ell, level, monkeypatch):
    expected = _lexicographic_gl2(ell, level)
    for _ in _in_blocks_of_default_and_seven(monkeypatch):
        assert elements(gm.gl2_group(ResidueRing(ell, level))).tolist() == expected


@pytest.mark.parametrize("ell, level", [(3, 1), (3, 2), (5, 1)])
def test_selfproduct_rows_are_diagonal_blocks_in_gl2_order(ell, level, monkeypatch):
    # diag-block(g, g) for g over the lexicographic GL2 rows (a, b, c, d)
    expected = [
        [a, b, 0, 0, c, d, 0, 0, 0, 0, a, b, 0, 0, c, d]
        for a, b, c, d in _lexicographic_gl2(ell, level)
    ]
    for _ in _in_blocks_of_default_and_seven(monkeypatch):
        G, _ = gm.scenario_selfproduct(ell, level)
        assert elements(G).dtype == np.uint8
        assert elements(G).tolist() == expected


def test_keys_and_reduction_allocate_no_group_sized_int64_array(monkeypatch):
    # numbering the group's whole rows keys them in the mixed radix of
    # 27^4, int32; the peak is that of making the keys
    gl2 = gm.gl2_group(ResidueRing(3, 3))
    int64_bytes = gl2.order * 4 * 8  # 9.6 MiB
    made, real = [], gm._radix_keys

    def spy(*args):
        made.append(_peak_bytes(lambda: real(*args)))
        return made[-1][0]

    monkeypatch.setattr(gm, "_radix_keys", spy)
    columns, ids = gm._numbering(elements(gl2), 27)
    ((keys, peak),) = made
    assert keys.dtype == np.int32 and len(keys) == gl2.order
    assert columns.shape == (4, gl2.order) and ids.tolist() == list(range(gl2.order))
    assert peak < int64_bytes
    G2, peak = _peak_bytes(lambda: gl2.reduce_level(2))
    assert G2.order == 3888
    assert peak < 0.75 * int64_bytes


def _spy_row_orbits(monkeypatch):
    made, real = [], gm._row_orbits
    monkeypatch.setattr(gm, "_row_orbits", lambda *args: made.append(real(*args)) or made[-1])
    return made


def test_closure_allocates_a_seen_table_only_inside_its_budget(monkeypatch):
    # the seen table is sized by the product of the row orbits, before it is
    # allocated.  GL2(Z/27): e1 and e2 share one orbit, the 648 vectors of
    # order 27, so the key space is 648^2
    ring = ResidueRing(3, 3)
    S, gens = standard_form(1, ring), gm.gl2_standard_generators(ring)
    made = _spy_row_orbits(monkeypatch)
    G, peak = _peak_bytes(lambda: close(S, gens))
    assert G.order == gm.gl2_order(3, 3)
    assert peak < 16 * 2**20  # the 648^2-entry table (1.6 MiB) included
    space = math.prod(len(act) for _, act, _ in made[-1])
    assert space == 648**2
    expected = elements(G).tolist()
    tables = []

    class Spy(gm._SeenTable):
        def __init__(self, size, start_key):
            tables.append(size)
            super().__init__(size, start_key)

    monkeypatch.setattr(gm, "_SeenTable", Spy)
    for budget in (space - 1, space):
        monkeypatch.setattr(gm, "_DENSE_KEYS", budget)
        assert elements(close(S, gens)).tolist() == expected
        seen, peak = _peak_bytes(lambda: gm._seen_set(space, np.zeros(1, dtype=np.int64)))
        assert (peak >= space * 4) == (budget == space) == isinstance(seen, Spy)
    assert tables == [space, space]  # inside the budget only: one closure, one direct call


def test_row_action_table_is_checked_against_the_budget_before_allocation(monkeypatch):
    # a row-action table holds one row orbit, whose length is checked against
    # the cap as it grows, before the table is built: GL2(Z/27) needs one
    # table of 648 vectors, refused at cap=647
    ring = ResidueRing(3, 3)
    identity = MatrixMod.identity(ring, 2).rows
    mats = [g.rows for g in gm.gl2_standard_generators(ring)]
    with pytest.raises(gm.CapExceeded, match="closure exceeds cap=647: "):
        gm._row_orbits(identity, mats, 27, 647, "closure")
    (vectors, act, a), (same, same_act, b) = gm._row_orbits(identity, mats, 27, 648, "closure")
    assert same is vectors and same_act is act and len(vectors) == 648
    assert act.shape == (648, 3) and act.dtype == np.int32
    assert vectors[a] == (1, 0) and vectors[b] == (0, 1)
    # GSp4 over Z/27: packed entries would take two words (27^16 > 2^63), but
    # the row orbits (6, 27, 2 and 3 vectors) give 972 keys, one word each
    S4, gens4 = CASES["gsp4_z27"][0]()
    made = _spy_row_orbits(monkeypatch)
    assert close(S4, gens4).order == 486
    assert [act.shape for _, act, _ in made[0]] == [(6, 4), (27, 4), (2, 4), (3, 4)]
    assert 27**16 > 2**63 and math.prod(len(act) for _, act, _ in made[0]) == 972


def test_row_action_fills_only_the_rows_it_reaches(monkeypatch):
    # one transvection over Z/243: the closure's orbits are the 243 vectors
    # (1, c) and e2 alone, the orbit of H = <e2> the 243 vectors (c, 1);
    # each table holds its orbit, not all 243^2 rows
    ring = ResidueRing(3, 5)
    S, u = standard_form(1, ring), MatrixMod(ring, [[1, 1], [0, 1]])
    made = _spy_row_orbits(monkeypatch)
    assert close(S, [u]).order == 243
    assert gm.orbit_degree_report(S, [u], subgroup_from_generators([(0, 1)], ring)).deg_KH == 243
    (e1, act1, _), (e2, act2, _) = made[0]
    ((orbit, act, _),) = made[1]
    assert e1 == [(1, c) for c in range(243)] and e2 == [(0, 1)]
    assert orbit == [(c, 1) for c in range(243)]
    assert act1.shape == act.shape == (243, 1) and act2.shape == (1, 1)
    assert act1[:, 0].tolist() == act[:, 0].tolist() == [*range(1, 243), 0]


def test_fixing_test_on_cm_torus_allocates_no_block_or_group_sized_temporary():
    # one block of 4096 rows widened to int64 is 512 KiB, a mask over the
    # group 10^6 bytes; the test needs neither
    G, H = gm.scenario_cm(2, 5, 3)
    assert next(G.blocks()).dtype == np.uint8
    T, peak = _peak_bytes(lambda: gm._fixing_scan(G, [(G.ring.modulus, H.basis)]))
    # the identity alone, G's first element
    assert elements(T).tolist() == next(G.blocks())[:1].tolist()
    assert peak < gm._BATCH * 16 * 8 // 2
    assert peak < G.order // 4


def test_report_on_cm_torus_scans_no_group_sized_array():
    # lambda(G) comes from the g + 1 recorded generators, and the stabilizer
    # test keeps only the indices of its hits; a scan of every element's
    # multiplier peaked at 15.3 MiB
    G, H = gm.scenario_cm(2, 5, 3)
    rep, peak = _peak_bytes(lambda: gm.build_degree_report(G, H))
    assert rep.deg_KH == G.order
    assert peak < 4 * 2**20


# -- built groups are scanned block by block ----------------------------------


def test_report_and_stabilizer_never_join_a_built_group(monkeypatch):
    decoded = spy_decodes(monkeypatch)
    G, H = gm.scenario_cm(2, 5, 3)
    assert gm.build_degree_report(G, H).deg_KH == G.order == 10**6
    # lambda(T) is read from T's one element; G is not decoded
    assert [(X is G, n) for X, n in decoded] == [(False, 1)]
    decoded.clear()
    identity = MatrixMod.identity(G.ring, 4).flat()
    T = stabilizer(G, H)
    assert [M.flat() for M in matrices(T)] == [identity]
    assert decoded == [(T, 1)]  # T's one element decoded from its ids; G is not decoded
    # level reduction reads row ids
    assert G.reduce_level(2).order == 20**3
    assert G.reduce_level(1).order == 4**3
    assert decoded == [(T, 1)]
    # blocks stream: the first decodes one slice, not the group
    assert tuple(next(G.blocks())[0].tolist()) == identity
    assert decoded == [(T, 1), (G, gm._BATCH)]


def test_a_group_holds_nothing_it_decodes():
    # blocks are decoded on each read and the group keeps none: GL2(Z/27)'s
    # 314,928 elements take 1.2 MiB joined.  The first block decodes one
    # slice, not the 10^6-element cm torus (15.3 MiB joined)
    G = gm.gl2_group(ResidueRing(3, 3))
    tracemalloc.start()
    try:
        a = elements(G)
        assert a.nbytes == G.order * 4
        del a
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024
    C, _ = gm.scenario_cm(2, 5, 3)
    first, peak = _peak_bytes(lambda: next(C.blocks())[0].tolist())
    assert first == list(MatrixMod.identity(C.ring, 4).flat())
    assert peak < 2**20


def test_stabilizer_of_a_closure_never_joins_it(monkeypatch):
    # a closure keeps its BFS levels as row ids, and the stabilizer scans
    # those ids, as it does a builder's
    decoded = spy_decodes(monkeypatch)
    ring = ResidueRing(3, 3)
    G = close(standard_form(1, ring), gm.gl2_standard_generators(ring))
    T = stabilizer(G, subgroup_from_generators([(1, 0)], ring))
    assert decoded == []
    assert (G.order, T.order) == (gm.gl2_order(3, 3), 486)
    # M e1 = e1: the first column of M is (1, 0)
    rows = elements(T).tolist()
    assert rows == [row for row in elements(G).tolist() if (row[0], row[2]) == (1, 0)]
    assert per_group(decoded) == [(T, 486), (G, G.order)]


def test_reduction_to_the_top_level_builds_no_seen_set(monkeypatch):
    # a group's elements are distinct, so at the top level there is nothing
    # to deduplicate: the group itself comes back, unread
    made, real = [], gm._seen_set
    monkeypatch.setattr(gm, "_seen_set", lambda *args: made.append(args) or real(*args))
    decoded = spy_decodes(monkeypatch)
    G, _ = gm.scenario_selfproduct(3, 3)
    assert G.reduce_level(3) is G
    assert made == [] and decoded == []
    # below it, one seen set finds the first occurrences
    assert gm.scenario_selfproduct(3, 2)[0].reduce_level(1).order == gm.gl2_order(3, 1)
    assert len(made) == 1


def test_reduction_keys_row_ids_not_rows(monkeypatch):
    # the cm torus mod 5^2 has 20 units, so each of its four rows reduces to
    # 20 vectors and the seen set keys 20^4 tuples of row ids (whole rows
    # would be keyed in a 25^16 space), inside the key-indexed table
    made, real = [], gm._seen_set
    monkeypatch.setattr(gm, "_seen_set", lambda *args: made.append(args) or real(*args))
    decoded = spy_decodes(monkeypatch)
    G, _ = gm.scenario_cm(2, 5, 3)
    R = G.reduce_level(2)
    assert R.order == 20**3
    assert [size for size, _ in made] == [20**4]
    assert decoded == []
    # the first unit of each class mod 25 is its least representative, so
    # the first occurrences are the torus mod 25, in its own order
    assert elements(R).tolist() == elements(gm.scenario_cm(2, 5, 2)[0]).tolist()


@pytest.mark.parametrize("scan", ["report", "stabilizer"])
@pytest.mark.parametrize("family", ["cm", "selfproduct"])
def test_building_and_scanning_hold_a_block_not_the_group(family, scan):
    # joined, the cm torus at l^n = 125 (10^6 elements) takes 15.3 MiB and
    # the self-product over Z/25 (300,000 elements) 4.6 MiB; a scan holds
    # one block of rows at a time, and the hits
    build = {
        "cm": lambda: gm.scenario_cm(2, 5, 3),
        "selfproduct": lambda: gm.scenario_selfproduct(5, 2),
    }
    run = {"report": gm.build_degree_report, "stabilizer": stabilizer}
    _, peak = _peak_bytes(lambda: run[scan](*build[family]()))
    assert peak < 2 * 2**20


def _numbered(kind):
    """A group numbered from an element list (``oracles.numbered``):
    GL2(Z/9) shuffled, no element at all, or the signed permutations over
    Z/3^20 (object dtype) shuffled."""
    if kind == "empty":
        return numbered(standard_form(1, ResidueRing(3, 2)), [])
    if kind == "gl2":
        G = gm.gl2_group(ResidueRing(3, 2))
    else:
        _, G = _signed_permutations(ResidueRing(3, 20))
    rows = elements(G).tolist()
    random.Random(kind).shuffle(rows)
    return numbered(G.space, rows)


# builder, its arguments: every builder at small sizes, l = 2 for GL2 among
# them, and groups numbered from their elements
BUILT = [
    *((gm.gl2_group, (ResidueRing(*r),)) for r in [(2, 1), (2, 3), (3, 2), (5, 1)]),
    *((gm.scenario_cm, args) for args in [(1, 3, 2), (1, 5, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)]),
    *((gm.scenario_selfproduct, args) for args in [(3, 1), (3, 2), (5, 1)]),
    *((_numbered, (kind,)) for kind in ["gl2", "empty", "level20"]),
]


@functools.lru_cache(maxsize=None)
def _built(case):
    """A copy of ``BUILT[case]``'s group, built at the default ``_BATCH``,
    its elements, in order, and their distinct multipliers, ascending."""
    build, args = BUILT[case]
    G = build(*args)
    G = G[0] if isinstance(G, tuple) else G
    members = matrices(G)
    return G, members, sorted({multiplier(M, G.space) for M in members})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_scans_of_unjoined_groups_match_joined_and_matrixmod_scans(data):
    case = data.draw(st.integers(0, len(BUILT) - 1))
    copy, members, lambdas = _built(case)
    build, args = BUILT[case]
    ring, d = copy.ring, copy.dim
    ell, mod = ring.ell, ring.modulus
    entry = st.sampled_from([0, ell, mod - ell, 1, mod - 1]) | st.integers(0, mod - 1)
    vector = st.lists(entry, min_size=d, max_size=d).map(tuple)
    gens1 = data.draw(st.lists(vector, min_size=1, max_size=3))
    coeffs = data.draw(
        st.lists(st.lists(entry, min_size=len(gens1), max_size=len(gens1)), min_size=1, max_size=3)
    )
    # the second fixer lies in the first: combinations of its generators
    gens2 = [tuple(sum(c * v[k] for c, v in zip(cs, gens1)) % mod for k in range(d)) for cs in coeffs]
    H1 = subgroup_from_generators(gens1, ring, ambient_dim=d)
    H2 = subgroup_from_generators(gens2, ring, ambient_dim=d)
    conditions = [(ell, gens1), (ell ** min(2, ring.level), gens2)]

    def fixes(M, conds):
        return all(
            all((x - y) % p == 0 for x, y in zip(M.apply(v), v)) for p, vs in conds for v in vs
        )

    def rows(X):  # read through blocks: a trivial H gives back G itself
        return [tuple(row) for block in X.blocks() for row in block.tolist()]

    expected = [i for i, M in enumerate(members) if fixes(M, conditions)]
    fixed = [M.flat() for M in members if fixes(M, [(mod, gens1)])]
    # blocks of a few rows, of one run or many, and of about the default size
    batch = data.draw(st.sampled_from([7, 100, 1000, gm._BATCH]))
    with mock.patch.object(gm, "_BATCH", batch), pytest.MonkeyPatch.context() as mp:
        G = build(*args)
        G = G[0] if isinstance(G, tuple) else G
        decoded = spy_decodes(mp)  # after building: _numbered decodes its source
        # G's elements are distinct, so the ordered list fixes the indices
        assert matrices(gm._fixing_scan(G, conditions)) == [members[i] for i in expected]
        for X in (G, copy):
            assert rows(stabilizer(X, H1)) == fixed
            filtered = filtered_subgroup(X, [H1, H2], [1, 2])
            assert rows(filtered) == [members[i].flat() for i in expected]
        assert G.multiplier_image().tolist() == copy.multiplier_image().tolist() == lambdas
        # G is decoded once by multiplier_image, and once more where T is G
        assert dict(per_group(decoded))[G] == G.order * (2 if H1.is_trivial() else 1)


def _masks(data, G):
    """Masks over G's row vectors, drawn: every vector passing, none, one
    vector per row (an element's rows, or any), or each vector at random
    with a drawn density."""
    sizes = [c.shape[1] for c in G.columns]
    kind = data.draw(st.sampled_from(["all", "none", "element", "single", "random"]))
    if kind in ("all", "none"):
        return [np.full(n, kind == "all") for n in sizes]
    if kind == "element" and G.order:
        at = data.draw(st.integers(0, G.order - 1))
        picks = [int(r[at]) for r in reference_scan(G, gm._every(G.columns))]
    else:
        picks = [data.draw(st.integers(0, max(n - 1, 0))) for n in sizes]
    if kind in ("element", "single"):
        return [np.arange(n) == i for n, i in zip(sizes, picks)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
    return [rng.random(n) < density for n in sizes]


@pytest.mark.parametrize("case", range(len(BUILT)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_scans_match_the_reference_scan(case, data):
    # every builder answers a scan from its own parametrization; the
    # reference filters its full enumeration.  Ids, order and dtypes agree
    # at the default _BATCH and at 7, where a batch splits one multiplier
    # of the cm torus and the partners of one GL2 first row
    build, args = BUILT[case]
    masks = None
    for batch in (gm._BATCH, 7):
        with mock.patch.object(gm, "_BATCH", batch):
            G = build(*args)
            G = G[0] if isinstance(G, tuple) else G
            masks = masks or _masks(data, G)
            got, want = G._scan(masks), reference_scan(G, masks)
        assert [r.tolist() for r in got] == [r.tolist() for r in want]
        assert [r.dtype for r in got] == [r.dtype for r in want]
        # membership stops at the first batch with a hit
        assert any(len(ids[0]) for ids in G.batches(masks)) is (len(want[0]) > 0)


def _spy_batches(G) -> list:
    """Spy on G's batch source: the returned list gets, for every call,
    whether its masks pass every vector (the full enumeration) and the
    length of each batch it yields."""
    calls, real = [], G.batches

    def spy(masks):
        calls.append((all(m.all() for m in masks), []))
        for ids in real(masks):
            calls[-1][1].append(len(ids[0]))
            yield ids

    G.batches = spy
    return calls


def test_membership_on_a_built_group_never_runs_its_full_enumeration():
    # the cm torus at l^n = 125 answers M in G from M's rows: each row's
    # mask passes one unit, so one element is written, or none
    G, _ = gm.scenario_cm(2, 5, 3)
    R = G.ring
    calls = _spy_batches(G)
    assert MatrixMod.identity(R, 4) in G
    assert calls == [(False, [1])]
    # rows 0-2 of the identity and row 3 of diag(1, 1, 2, 2): every row is
    # a row of a member, but d_1 d_4 = 2 and d_2 d_3 = 1
    crossed = MatrixMod.diagonal(R, [1, 1, 1, 2])
    assert MatrixMod.diagonal(R, [1, 1, 2, 2]) in G and crossed not in G
    assert calls[1:] == [(False, [1]), (False, [])]


def test_pruned_cm_scan_near_the_cap_allocates_nothing_group_sized():
    # at g = 1 and l = 3001 the torus has phi^2 = 9 * 10^6 elements, its
    # row ids take 36 MB and a phi x phi ratio table 9 * 10^6 entries.  The
    # stabilizer of H = <(1, 1)> and a membership write one element each,
    # from ratios of the 3000 multipliers' one candidate
    G, H = gm.scenario_cm(1, 3001)
    assert G.order == 3000**2 <= gm.DEFAULT_CAP
    calls = _spy_batches(G)
    T, peak = _peak_bytes(lambda: stabilizer(G, H))
    assert elements(T).tolist() == [[1, 0, 0, 1]]
    assert peak < 2**20
    found, peak = _peak_bytes(lambda: MatrixMod.diagonal(G.ring, [5, 7]) in G)
    assert found and peak < 2**20
    assert calls == [(False, [1]), (False, [1])]


# -- level reduction stops at [G : K] images -----------------------------------


def _closure_of(ell, level, *generators):
    """The closure of ``generators`` in GL2(Z/l^level), or of GL2's standard
    generators when none are given."""
    S = standard_form(1, ResidueRing(ell, level))
    gens = [MatrixMod(S.ring, g) for g in generators] or gm.gl2_standard_generators(S.ring)
    return close(S, gens)


# every group of BUILT, the GL2(Z/27) closure, the unipotents [[1, 3k], [0, 1]]
# over Z/9 (one image mod 3: K is the group) and <diag(-1, 1)> over Z/9
# (an injective reduction: K is trivial)
REDUCED = [
    *BUILT,
    (_closure_of, (3, 3)),
    (_closure_of, (3, 2, [[1, 3], [0, 1]])),
    (_closure_of, (3, 2, [[8, 0], [0, 1]])),
]


@pytest.mark.parametrize("case", range(len(REDUCED)))
def test_reduction_matches_the_reference_at_every_level(case, monkeypatch):
    # the sweep stops at [G : K] images; they are the first occurrences of
    # the whole sweep, in order, at every level below the top, under both
    # seen sets and in slices of the default _BATCH and of 7
    build, args = REDUCED[case]
    G = build(*args)
    G = G[0] if isinstance(G, tuple) else G
    identity = np.array(MatrixMod.identity(G.ring, G.dim).flat())
    for level in range(1, G.ring.level):
        p = G.ring.ell**level
        expected = reference_reduce(G, level)
        kernel = int((elements(G) % p == identity).all(axis=1).sum())
        for _ in _in_blocks_of_default_and_seven(monkeypatch):
            for _ in seen_set_strategies(monkeypatch):
                R = G.reduce_level(level)
                assert [tuple(row) for row in elements(R).tolist()] == expected
                assert R.order == len(expected) and R.order * kernel == G.order


def _spy_slices(monkeypatch) -> list:
    """Spy on ``MatrixGroup._slices``: the returned list gets, for every
    call, the number of slices its reader took."""
    read, real = [], gm.MatrixGroup._slices

    def spy(self):
        read.append(0)
        for ids in real(self):
            read[-1] += 1
            yield ids

    monkeypatch.setattr(gm.MatrixGroup, "_slices", spy)
    return read


@pytest.mark.parametrize("family", ["gl2", "cm", "unipotent", "sign"])
def test_reduction_sweeps_only_until_its_image_is_complete(family, monkeypatch):
    # GL2(Z/27) -> GL2(F_3) read 6 of its 81 slices when this was written,
    # and the cm torus at 5^3 -> level 1 read 10 of its 300.  One image
    # ends the sweep in its first slice; a trivial kernel reads them all
    G, bound = {
        "gl2": lambda: (gm.gl2_group(ResidueRing(3, 3)), 12),
        "cm": lambda: (gm.scenario_cm(2, 5, 3)[0], 20),
        "unipotent": lambda: (_closure_of(3, 2, [[1, 3], [0, 1]]), 1),
        "sign": lambda: (_closure_of(3, 2, [[8, 0], [0, 1]]), None),
    }[family]()
    total = sum(1 for _ in G._slices())
    read = _spy_slices(monkeypatch)
    calls = _spy_batches(G)
    R = G.reduce_level(1)
    assert read == [total] if bound is None else len(read) == 1 and read[0] <= bound
    if family in ("gl2", "cm"):
        assert read[0] < total and R.order == {"gl2": 48, "cm": 4**3}[family]
        # the kernel scan asks the builder for masks that pass fewer than
        # every vector, and only the sweep for its full enumeration, cut short
        assert [full for full, _ in calls] == [False, True]
        assert sum(calls[1][1]) < G.order


def test_reduction_refuses_a_set_that_is_no_group():
    # GL2(Z/9) without one element: 3887 elements, and neither the 81 of its
    # kernel mod 3 nor 80 (the identity dropped) divides 3887
    G = gm.gl2_group(ResidueRing(3, 2))
    rows = elements(G).tolist()
    identity = rows.index([1, 0, 0, 1])
    for drop in (identity, identity + 1):
        S = numbered(G.space, rows[:drop] + rows[drop + 1 :])
        assert S.order == 3887
        with pytest.raises(ValueError, match="not a group: the kernel mod 3 has 8[01] of 3887"):
            S.reduce_level(1)
    # the identity and one coset of the kernel mod 3: |K| = 1 divides the 82
    # elements, but they reduce to 2 images, not 82
    coset = [r for r in rows if [x % 3 for x in r] == [2, 0, 0, 1]]
    S = numbered(G.space, [[1, 0, 0, 1]] + coset)
    with pytest.raises(ValueError, match=r"not a group: 2 images mod 3, not \[G : K\] = 82"):
        S.reduce_level(1)
