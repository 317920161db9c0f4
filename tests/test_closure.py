"""The frontier-batched closure against the one-product-at-a-time search.

``reference_close`` is the tuple breadth-first search the array closure
replaced; it is kept here as the oracle for element order and cap behaviour,
under every seen set and product step (``conftest.bfs_strategies``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import CapExceeded, close, gl2_standard_generators
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import multiplier, standard_form, symplectic_transvection
from gspimage.torsion import subgroup_from_generators

from conftest import bfs_strategies, random_similitude, seen_set_strategies


def _mul_flat(x: tuple, y: tuple, n: int, m: int) -> tuple:
    out = []
    for i in range(n):
        row = x[i * n : (i + 1) * n]
        for j in range(n):
            s = 0
            for k in range(n):
                s += row[k] * y[k * n + j]
            out.append(s % m)
    return tuple(out)


def reference_close(space, generators, cap=gm.DEFAULT_CAP) -> list:
    """Flat element tuples in breadth-first discovery order."""
    n = space.dim
    m = space.ring.modulus
    gen_flats = [g.flat() for g in generators]
    ident = MatrixMod.identity(space.ring, n).flat()
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gf in gen_flats:
                y = _mul_flat(x, gf, n, m)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure exceeds cap={cap}")
                    seen.add(y)
                    ordered.append(y)
                    nxt.append(y)
        frontier = nxt
    return ordered


def _gl2_mod9():
    ring = ResidueRing(3, 2)
    return standard_form(1, ring), gl2_standard_generators(ring)


def _gsp4_f3_subgroup():
    ring = ResidueRing(3, 1)
    S = standard_form(2, ring)
    gens = [
        symplectic_transvection(S, (0, 1, 1, 0)),
        symplectic_transvection(S, (1, 0, 0, 1)),
        MatrixMod.diagonal(ring, [2, 2, 1, 1]),
    ]
    return S, gens


def _gsp4_z27_subgroup():
    # entries fit uint8, but 27^16 > 2^63, so the packed keys are multi-word voids
    ring = ResidueRing(3, 3)
    S = standard_form(2, ring)
    gens = [
        symplectic_transvection(S, (3, 0, 0, 0)),
        symplectic_transvection(S, (0, 0, 0, 3)),
        symplectic_transvection(S, (0, 1, 0, 0)),
        MatrixMod.diagonal(ring, [-1, 1, -1, 1]),
    ]
    return S, gens


def _three_adic_level20():
    # past the int64 guard: object-dtype arrays
    ring = ResidueRing(3, 20)
    m, t = ring.modulus, 3**17
    gens = [
        MatrixMod(ring, [[1, t], [0, 1]]),
        MatrixMod(ring, [[1, 0], [t, 1]]),
        MatrixMod(ring, [[m - 1, 0], [0, 1]]),
        MatrixMod(ring, [[0, 1], [m - 1, 0]]),
    ]
    return standard_form(1, ring), gens


CASES = {
    "gl2_mod9": (_gl2_mod9, np.uint8, np.int64, 3888),
    "gsp4_f3": (_gsp4_f3_subgroup, np.uint8, np.int64, 1152),
    "gsp4_z27": (_gsp4_z27_subgroup, np.uint8, np.void, 486),
    "level20": (_three_adic_level20, object, np.void, 5832),
}


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_close_matches_reference_order(case, chunk, monkeypatch):
    build, arr_dtype, key_type, order = CASES[case]
    if chunk is not None:  # frontiers then span several batches
        monkeypatch.setattr(gm, "_BATCH", chunk)
    S, gens = build()
    expected = reference_close(S, gens)
    for _ in bfs_strategies(monkeypatch):
        G = close(S, gens)
        assert G.array.dtype == arr_dtype
        assert gm._pack(G.array, S.ring.modulus).dtype.type is key_type
        assert G.order == order
        assert [tuple(row) for row in G.array.tolist()] == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_close_cap_fires_at_reference_count(case, monkeypatch):
    build, _, _, order = CASES[case]
    S, gens = build()
    with pytest.raises(CapExceeded):
        reference_close(S, gens, cap=order - 1)
    messages = set()
    for _ in bfs_strategies(monkeypatch):
        assert close(S, gens, cap=order).order == order
        with pytest.raises(CapExceeded) as info:
            close(S, gens, cap=order - 1)
        found = re.fullmatch(
            rf"closure exceeds cap={order - 1}: (\d+) elements through BFS depth (\d+)",
            str(info.value),
        )
        assert found
        elements, depth = int(found[1]), int(found[2])
        assert 1 <= elements <= order - 1
        assert depth < elements  # each completed level added at least one element
        messages.add(str(info.value))
    assert len(messages) == 1  # every seen set and product step stops at the same point


def _bfs_by_step(start, mats, mod, units):
    """``_bfs`` under the row-action step and under the matrix step, by
    step: the points as rows, the level lengths and the Schreier scalars,
    or the CapExceeded message."""
    out = {}
    for step in ("keys", "matrix"):
        with pytest.MonkeyPatch.context() as mp:
            if step == "matrix":
                mp.setattr(gm, "_row_action", lambda *args: None)
            try:
                levels, scalars = gm._bfs(start, mats, mod, 3000, "orbit", units)
            except CapExceeded as exc:
                out[step] = str(exc)
                continue
        points = np.concatenate(levels)
        if points.ndim == 1:  # one-word keys
            points = gm._unpack(points, mod, start.shape[1], np.int64)
        out[step] = (points.tolist(), [len(rows) for rows in levels], scalars)
    return out


@settings(max_examples=40, deadline=None)
@given(
    g=st.sampled_from([1, 2]),
    level=st.sampled_from([2, 3]),
    ngens=st.integers(1, 3),
    k=st.integers(1, 3),
    rng=st.randoms(use_true_random=False),
)
def test_row_action_step_matches_matrix_step(g, level, ngens, k, rng):
    # GL2 and GSp4 over Z/9 and Z/27: the closure (the identity under
    # x -> x @ m) and the orbit of k random rows under x -> x @ m^T with its
    # Schreier scalars; GSp4 closures over Z/27 have multi-word keys
    space = standard_form(g, ResidueRing(3, level))
    d, mod = space.dim, space.ring.modulus
    gens = [random_similitude(space, rng) for _ in range(ngens)]
    mats = np.array([M.rows for M in gens], dtype=np.int64)
    lam = [multiplier(M, space).value for M in gens]
    units = tuple(np.array(u, dtype=np.int64) for u in (lam, [space.ring.inverse(x) for x in lam]))
    rows = np.array([[rng.randrange(mod) for _ in range(k * d)]], dtype=np.uint8)
    identity = np.eye(d, dtype=np.uint8).reshape(1, -1)
    for start, act, scalars in ((identity, mats, None), (rows, mats.transpose(0, 2, 1), units)):
        npoint = start.shape[1] // d
        keyed = gm._row_action(act, mod, npoint) is not None
        assert keyed == (mod ** (npoint * d) < 2**63)
        out = _bfs_by_step(start, act, mod, scalars)
        assert out["keys"] == out["matrix"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_first_occurrences_match_sorted(data):
    size = data.draw(st.integers(1, 1 << 16))
    pool = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12))
    keys = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64)
    seen = sorted(data.draw(st.sets(st.sampled_from(pool))))  # keys already points
    table = np.full(size, -1, dtype=np.int32)
    table[seen] = np.arange(len(seen))
    distinct, first = np.unique(keys, return_index=True)
    expected = np.sort(first[~np.isin(distinct, seen)])
    found = gm._first_unseen(table, keys)
    assert found.tolist() == expected.tolist()
    assert table[seen].tolist() == list(range(len(seen)))  # seen entries untouched


@pytest.mark.parametrize("case", sorted(CASES))
def test_close_without_generators_is_trivial(case):
    build, arr_dtype, _, _ = CASES[case]
    S, _ = build()
    G = close(S, [])
    assert G.array.dtype == arr_dtype
    assert G.order == 1
    assert list(G) == [MatrixMod.identity(S.ring, S.dim)]


@pytest.mark.parametrize(
    "mod, width, key_type",
    [
        (27, 4, np.int64),
        (27, 16, np.void),
        (3**20, 4, np.void),
        (3**39, 1, np.int64),
        (3**39, 4, np.void),  # 3^39 is the largest power of 3 below 2^63
    ],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pack_keys_equal_exactly_when_rows_equal(mod, width, key_type, data):
    entry = st.sampled_from([0, 1, mod // 3, mod - 1]) | st.integers(0, mod - 1)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=12)
    )
    for dtype in (np.int64, object):
        keys = gm._pack(np.array(rows, dtype=dtype), mod)
        assert keys.dtype.type is key_type
        assert keys.shape == (len(rows),)
        for i, row in enumerate(rows):
            assert (keys == keys[i]).tolist() == [other == row for other in rows]


@pytest.mark.parametrize("case", ["gsp4_z27", "level20"])
def test_multiword_keys_in_group_checks(case):
    S, gens = CASES[case][0]()
    G = close(S, gens)
    assert gm._pack(G.array, S.ring.modulus).dtype.type is np.void
    elements = list(G)[:40]
    assert gm.MatrixGroup.from_elements(S, elements).order == 40
    with pytest.raises(ValueError, match="duplicate"):
        gm.MatrixGroup.from_elements(S, elements + [elements[17]])
    sub = close(S, gens[:2])
    assert 1 < sub.order < G.order
    assert G.contains_group(sub)
    assert not sub.contains_group(G)
    assert not gm.MatrixGroup.from_elements(S, [elements[0]]).contains_group(
        gm.MatrixGroup.from_elements(S, elements[1:3])
    )


def test_group_array_is_read_only():
    S, gens = _gl2_mod9()
    G = close(S, gens)
    with pytest.raises(ValueError):
        G.array[0, 0] = 5


def test_object_path_multipliers_match_elementwise():
    S, gens = _three_adic_level20()
    G = close(S, gens)
    assert G.multipliers() == tuple(multiplier(M, S).value for M in G)


def test_object_path_stabilizer_and_reduction_match_scans(monkeypatch):
    S, gens = _three_adic_level20()
    G = close(S, gens)
    ring = S.ring
    H = subgroup_from_generators([(1, 0), (0, 3**12)], ring)
    T = gm.stabilizer(G, H)
    assert list(T) == [M for M in G if all(M.apply(v) == v for v in H.basis)]
    fix = subgroup_from_generators([(1, 0)], ring)
    F = gm.filtered_subgroup(G, [fix], [18])
    p = 3**18
    assert list(F) == [
        M for M in G if all(x % p == v % p for x, v in zip(M.apply((1, 0)), (1, 0)))
    ]
    seen, expected = set(), []
    for M in G:
        f = M.reduce_level(19).flat()
        if f not in seen:
            seen.add(f)
            expected.append(f)
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(19)
        assert R.array.dtype == np.uint32  # 3^19 is inside the int64 guard
        assert [M.flat() for M in R] == expected
