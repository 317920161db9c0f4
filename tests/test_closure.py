"""The frontier-batched closure against the one-product-at-a-time search.

``reference_close`` is the tuple breadth-first search the array closure
replaced; it is kept here as the oracle for element order and cap behaviour,
under every seen set (``conftest.seen_set_strategies``).  ``reference_orbit``
is the same search for any start matrix, level by level, with Schreier
scalars: the oracle for ``_bfs`` itself.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import CapExceeded, close, gl2_standard_generators
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import multiplier, standard_form
from gspimage.torsion import full_subgroup, subgroup_from_generators

from conftest import diagonal_similitude, seen_set_strategies, symplectic_transvection


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
    for _ in seen_set_strategies(monkeypatch):
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
    for _ in seen_set_strategies(monkeypatch):
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
    assert len(messages) == 1  # every seen set stops at the same point


def reference_orbit(rows, mats, mod, cap, stage, lams=None):
    """The breadth-first orbit of the matrix with rows ``rows`` under
    x -> x @ m mod ``mod``, one product at a time and level by level.

    Returns the points (tuples of rows) in discovery order, the length of
    each level (the last one 0) and, given one unit ``lams[i]`` per matrix,
    the sorted distinct Schreier scalars lam_i lambda_x / lambda_y other
    than 1 (else none).  Raises the CapExceeded of ``_bfs`` when a level
    would pass ``cap``.
    """

    def times(x, m):
        return tuple(
            tuple(sum(a * m[k][j] for k, a in enumerate(v)) % mod for j in range(len(m)))
            for v in x
        )

    start = tuple(map(tuple, rows))
    units = lams or [1] * len(mats)
    lam_of, points, lengths, frontier, scalars = {start: 1}, [start], [1], [start], set()
    while frontier:
        count, new = len(points), []
        for x in frontier:
            for m, lam in zip(mats, units):
                y = times(x, m)
                if y not in lam_of:
                    if len(points) == cap:
                        noun = "elements" if stage == "closure" else "points"
                        raise CapExceeded(
                            f"{stage} exceeds cap={cap}: {count} {noun}"
                            f" through BFS depth {len(lengths) - 1}"
                        )
                    lam_of[y] = lam_of[x] * lam % mod
                    points.append(y)
                    new.append(y)
                s = lam * lam_of[x] * pow(lam_of[y], -1, mod) % mod
                if s != 1:
                    scalars.add(s)
        lengths.append(len(new))
        frontier = new
    return points, lengths, sorted(scalars) if lams else []


def _expected_bfs(rows, mats, mod, cap, stage, lams=None):
    """``reference_orbit``'s result or cap message, where the first row
    whose own orbit passes the cap gives the message, as in ``_bfs``."""
    try:
        for row in rows:
            reference_orbit([row], mats, mod, cap, stage)
        return reference_orbit(rows, mats, mod, cap, stage, lams)
    except CapExceeded as exc:
        return str(exc)


def _bfs_result(rows, mats, mod, cap, stage, units=None):
    """``_bfs``'s points (tuples of rows), level lengths and scalars, or
    its cap message."""
    try:
        levels, orbits, scalars = gm._bfs(rows, mats, mod, cap, stage, units)
    except CapExceeded as exc:
        return str(exc)
    points = [
        tuple(orbits[i][a] for i, a in enumerate(column))
        for ids in levels
        for column in ids.T.tolist()
    ]
    return points, [ids.shape[1] for ids in levels], scalars


def _random_generator(space, rng):
    """Transvections by vectors divisible by a random power of l, times a
    diagonal similitude: groups from a few elements to far past any cap."""
    ring = space.ring
    mod, ell = ring.modulus, ring.ell
    M = MatrixMod.identity(ring, space.dim)
    for _ in range(rng.randrange(3)):
        shift = ell ** rng.randrange(ring.level)
        M = M @ symplectic_transvection(
            space, [rng.randrange(mod) * shift % mod for _ in range(space.dim)]
        )
    unit = rng.randrange(mod // ell) * ell + rng.randrange(1, ell)
    return M @ diagonal_similitude(space, rng.choice([1, mod - 1, unit]))


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5]),
    level=st.sampled_from([1, 2, 3, 4, 5, 6, 20]),
    g=st.sampled_from([1, 2]),
    ngens=st.integers(0, 3),
    k=st.integers(1, 3),
    cap=st.sampled_from([30, 300, 3000]),
    rng=st.randoms(use_true_random=False),
)
def test_bfs_matches_tuple_reference(ell, level, g, ngens, k, cap, rng):
    # GL2 and GSp4: the closure (the identity under x -> x @ m) and the orbit
    # of k random rows under x -> x @ m^T with its Schreier scalars, under
    # both seen sets; a search that ends inside the cap runs again at caps
    # of its size and one less
    space = standard_form(g, ResidueRing(ell, level))
    d, mod = space.dim, space.ring.modulus
    gens = [_random_generator(space, rng) for _ in range(ngens)]
    lams = [multiplier(M, space) for M in gens]
    rows = [tuple(rng.randrange(mod) for _ in range(d)) for _ in range(k)]
    identity = MatrixMod.identity(space.ring, d).rows
    searches = [
        ("closure", identity, [M.rows for M in gens], None, None),
        ("orbit", rows, [tuple(zip(*M.rows)) for M in gens], lams, lams),
    ]
    for stage, start, mats, scalars, units in searches:
        expected = _expected_bfs(start, mats, mod, cap, stage, scalars)
        caps = [cap]
        if not isinstance(expected, str):
            caps += [n for n in (len(expected[0]), len(expected[0]) - 1) if n]
        if stage == "closure":
            if isinstance(expected, str):
                with pytest.raises(CapExceeded):
                    reference_close(space, gens, cap)
            else:
                assert [sum(p, ()) for p in expected[0]] == reference_close(space, gens, cap)
        for c in caps:
            want = _expected_bfs(start, mats, mod, c, stage, scalars)
            with pytest.MonkeyPatch.context() as mp:  # hypothesis tests take no monkeypatch fixture
                for _ in seen_set_strategies(mp, budget=None):
                    assert _bfs_result(start, mats, mod, c, stage, units) == want


@pytest.mark.parametrize("level, lam_dtype", [(20, np.uint64), (21, object)])
def test_bfs_scalars_in_both_schreier_dtypes(level, lam_dtype, monkeypatch):
    # lambda_x is held in uint64 while (3^n - 1)^2 < 2^64 (n = 20) and in
    # Python ints past it (n = 21).  The level-20 generators of
    # _three_adic_level20, lifted; H = <e1>: T holds diag(1, -1), so the
    # scalars are not all 1
    mod, t = 3**level, 3**17
    assert gm._unsigned_dtype((mod - 1) ** 2) == lam_dtype
    space = standard_form(1, ResidueRing(3, level))
    rows = [[[1, t], [0, 1]], [[1, 0], [t, 1]], [[mod - 1, 0], [0, 1]], [[0, 1], [mod - 1, 0]]]
    gens = [MatrixMod(space.ring, r) for r in rows]
    lams = [multiplier(M, space) for M in gens]
    mats = [tuple(zip(*M.rows)) for M in gens]
    want = _expected_bfs([(1, 0)], mats, mod, gm.DEFAULT_CAP, "orbit", lams)
    assert want[2] == [mod - 1]
    for _ in seen_set_strategies(monkeypatch):
        assert _bfs_result([(1, 0)], mats, mod, gm.DEFAULT_CAP, "orbit", lams) == want


def test_thin_search_with_a_mismatched_scalar_on_every_level(monkeypatch):
    # <diag(2,1), diag(1,2)> in GL2(Z/125), H = <e1>: the orbit is the 100
    # unit multiples of e1, one new point per level, and on every level
    # diag(1,2) fixes its point with step value 2 lambda_x != lambda_x
    ring = ResidueRing(5, 3)
    S = standard_form(1, ring)
    gens = [MatrixMod.diagonal(ring, [2, 1]), MatrixMod.diagonal(ring, [1, 2])]
    H = subgroup_from_generators([(1, 0)], ring)
    lams = [multiplier(M, S) for M in gens]
    mats = [tuple(zip(*M.rows)) for M in gens]
    want = _expected_bfs([(1, 0)], mats, 125, gm.DEFAULT_CAP, "orbit", lams)
    assert want[1] == [1] * 100 + [0]
    assert want[2] == [2]
    for _ in seen_set_strategies(monkeypatch):
        assert _bfs_result([(1, 0)], mats, 125, gm.DEFAULT_CAP, "orbit", lams) == want
        G = close(S, gens)
        assert [tuple(row) for row in G.array.tolist()] == reference_close(S, gens)
        report = gm.orbit_degree_report(S, gens, H)
        assert report == gm.build_degree_report(G, H)
        assert (report.deg_KH, report.deg_cyclo_intersection) == (100, 1)


def _random_fixed_vectors(kind, ring, d, rng):
    """Rows for H: none, one vector, several, or non-primitive ones, each a
    multiple of l^k for some 0 < k < level (0 at level 1)."""
    if kind == "trivial":
        return []
    count = 1 if kind == "one" else rng.randrange(2 if kind == "several" else 1, d + 1)
    vectors = []
    for _ in range(count):
        k = rng.randrange(1, max(2, ring.level)) if kind == "non-primitive" else 0
        vectors.append(tuple(rng.randrange(ring.modulus) * ring.ell**k % ring.modulus for _ in range(d)))
    return vectors


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5]),
    level=st.sampled_from([1, 2, 3, 4, 5, 6, 20]),
    g=st.sampled_from([1, 2]),
    ngens=st.integers(0, 3),
    kind=st.sampled_from(["trivial", "one", "several", "non-primitive"]),
    cap=st.sampled_from([30, 300, 3000]),
    rng=st.randoms(use_true_random=False),
)
def test_close_fixing_matches_stabilizer_of_close(ell, level, g, ngens, kind, cap, rng):
    # GL2 and GSp4 generator sets (object keys at level 20): the filtered
    # closure is the stabilizer of the closure, element for element, with
    # the same dtype and generators, and the same cap message, under both
    # seen sets; a closure inside the cap runs again at caps of its size
    # and one less
    space = standard_form(g, ResidueRing(ell, level))
    ring, d = space.ring, space.dim
    gens = [_random_generator(space, rng) for _ in range(ngens)]
    H = subgroup_from_generators(_random_fixed_vectors(kind, ring, d, rng), ring, ambient_dim=d)

    def outcome(c, fixing=None):
        try:
            return close(space, gens, c, fixing=fixing)
        except CapExceeded as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as mp:  # hypothesis tests take no monkeypatch fixture
        for _ in seen_set_strategies(mp, budget=None):
            G = outcome(cap)
            caps = [cap] if isinstance(G, str) else [cap] + [n for n in (G.order, G.order - 1) if n]
            for c in caps:
                G, F = outcome(c), outcome(c, H)
                if isinstance(G, str):
                    assert F == G
                    continue
                T = gm.stabilizer(G, H)
                assert F.array.dtype == T.array.dtype
                assert F.array.tolist() == T.array.tolist()
                assert F.generators == T.generators


def test_close_fixing_rejects_mismatched_subgroup():
    S, gens = _gl2_mod9()
    with pytest.raises(ValueError, match="different rings"):
        close(S, gens, fixing=subgroup_from_generators([(1, 0)], ResidueRing(3, 1)))
    with pytest.raises(ValueError, match="ambient dimension"):
        close(S, gens, fixing=subgroup_from_generators([(1, 0, 0, 0)], S.ring))


def test_close_on_object_keys_matches_reference(monkeypatch):
    # <r I, r^38 I> in GSp6(Z/3^7), r a primitive root: the 1458 unit
    # scalars.  Each row orbit is the 1458 unit multiples of e_i, so the key
    # space 1458^6 is past 2^63 and the keys are Python ints
    ring = ResidueRing(3, 7)
    S = standard_form(3, ring)
    r = gm._primitive_root(ring)
    gens = [MatrixMod.diagonal(ring, [pow(r, e, ring.modulus)] * 6) for e in (1, 38)]
    assert 1458**6 > 2**63
    starts, real = [], gm._seen_set
    monkeypatch.setattr(gm, "_seen_set", lambda size, key: starts.append(key) or real(size, key))
    G = close(S, gens)
    assert [key.dtype for key in starts] == [object]
    assert G.order == 1458
    assert [tuple(row) for row in G.array.tolist()] == reference_close(S, gens)
    # the orbit of H's basis e_1..e_6 runs on the same keys, with lookups
    H = full_subgroup(ring, 6)
    assert gm.orbit_degree_report(S, gens, H) == gm.build_degree_report(G, H)
    assert [key.dtype for key in starts] == [object, object]


def test_close_cap_fires_on_a_row_orbit():
    # <r I> in GL2(Z/25), r = 2 a primitive root: the closure and the orbits
    # of e1 and of e2 have 20 points each, so at cap=19 the orbit of e1, the
    # first row, passes the cap before any element is searched
    ring = ResidueRing(5, 2)
    S = standard_form(1, ring)
    gens = [MatrixMod.diagonal(ring, [2, 2])]
    assert close(S, gens, cap=20).order == 20
    with pytest.raises(CapExceeded):
        reference_close(S, gens, cap=19)
    message = "closure exceeds cap=19: 19 elements through BFS depth 18"
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        gm._row_orbits(MatrixMod.identity(ring, 2).rows, [gens[0].rows], 25, 19, "closure")
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        close(S, gens, cap=19)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_first_occurrences_match_sorted(data):
    size = data.draw(st.integers(1, 1 << 16))
    pool = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12))
    keys = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64)
    seen = sorted(data.draw(st.sets(st.sampled_from(pool))))  # keys already points
    table = np.full(size, gm._UNSEEN, dtype=np.int32)
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
def test_multiword_keys_in_group_checks(case, monkeypatch):
    # reduce_level is the one group check on multi-word keys: 16 entries
    # mod 27, and 4 entries mod 3^10 (3^40 > 2^63), pack into two-word void
    # keys.  At the top level all 486 elements stay; the level-20 group
    # reduced to level 10 keeps its first occurrences
    level = {"gsp4_z27": 3, "level20": 10}[case]
    S, gens = CASES[case][0]()
    G = close(S, gens)
    p = S.ring.ell**level
    assert gm._pack(G.array[:1] % p, p).dtype.type is np.void
    expected = list(dict.fromkeys(M.reduce_level(level).flat() for M in G))
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(level)
        assert R.ring.level == level
        assert [M.flat() for M in R] == expected


def test_group_array_is_read_only():
    S, gens = _gl2_mod9()
    G = close(S, gens)
    with pytest.raises(ValueError):
        G.array[0, 0] = 5


def test_object_path_multipliers_match_elementwise():
    S, gens = _three_adic_level20()
    G = close(S, gens)
    assert G.multipliers() == tuple(multiplier(M, S) for M in G)


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
