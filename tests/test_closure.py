"""The frontier-batched closure against the one-product-at-a-time search.

``reference_close`` is the tuple breadth-first search the array closure
replaced; it is kept here as the oracle for element order and cap behaviour,
under every seen set (``conftest.seen_set_strategies``).  ``reference_orbit``
is the same search for any start matrix, level by level, with Schreier
scalars: the oracle for ``_bfs`` itself.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import CapExceeded, close, gl2_standard_generators
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import multiplier, standard_form
from gspimage.torsion import full_subgroup, subgroup_from_generators

from conftest import (
    diagonal_similitude,
    seen_set_strategies,
    spy_decodes,
    spy_keys,
    symplectic_transvection,
    table_adds,
)
from oracles import elements, matrices, reference_reduce


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
    # entries fit uint8, but 27^16 > 2^63, so the packed keys are Python ints
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
    "gl2_mod9": (_gl2_mod9, np.uint8, np.int32, 3888),
    "gsp4_f3": (_gsp4_f3_subgroup, np.uint8, np.int32, 1152),
    "gsp4_z27": (_gsp4_z27_subgroup, np.uint8, object, 486),
    "level20": (_three_adic_level20, object, object, 5832),
}


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_close_matches_reference_order(case, chunk, monkeypatch):
    build, arr_dtype, key_type, order = CASES[case]
    if chunk is not None:  # frontiers then span several table adds
        monkeypatch.setattr(gm, "_BATCH", chunk)
    S, gens = build()
    expected = reference_close(S, gens)
    levels, keys = table_adds(monkeypatch), spy_keys(monkeypatch)
    for _ in seen_set_strategies(monkeypatch):
        G = close(S, gens)
        assert elements(G).dtype == arr_dtype
        # numbering whole elements keys them in the mixed radix of mod^(d*d)
        gm._numbering(elements(G), S.ring.modulus)
        assert keys[-1].dtype == key_type
        assert G.order == order
        assert [tuple(row) for row in elements(G).tolist()] == expected
    assert all(adds == -(-width // gm._BATCH) for width, adds in levels)
    assert (max(adds for _, adds in levels) > 1) == (chunk is not None)


@pytest.mark.parametrize("case", sorted(CASES))
def test_close_cap_fires_at_reference_count(case, monkeypatch):
    build, _, _, order = CASES[case]
    S, gens = build()
    batches = (gm._BATCH, 7)  # at 7 the table's adds split a level
    for cap in (order - 1, order // 2):
        with pytest.raises(CapExceeded):
            reference_close(S, gens, cap=cap)
        messages = set()
        for batch in batches:
            monkeypatch.setattr(gm, "_BATCH", batch)
            for _ in seen_set_strategies(monkeypatch):
                assert close(S, gens, cap=order).order == order
                with pytest.raises(CapExceeded) as info:
                    close(S, gens, cap=cap)
                found = re.fullmatch(
                    rf"closure exceeds cap={cap}: (\d+) elements through BFS depth (\d+)",
                    str(info.value),
                )
                assert found
                elements, depth = int(found[1]), int(found[2])
                assert 1 <= elements <= cap
                assert depth < elements  # each completed level added at least one element
                messages.add(str(info.value))
        assert len(messages) == 1  # every seen set and batch stops at the same point


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
        assert [tuple(row) for row in elements(G).tolist()] == reference_close(S, gens)
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
def test_stabilizer_of_close_matches_reference_filter(ell, level, g, ngens, kind, cap, rng):
    # GL2 and GSp4 generator sets (object keys at level 20): the stabilizer
    # of the closure is the reference closure's elements with M e = e for
    # every basis vector e of H, in closure order and in the storage dtype,
    # and the cap raises exactly where the reference's does, with one
    # message under both seen sets; a closure inside the cap runs again at
    # caps of its size and one less
    space = standard_form(g, ResidueRing(ell, level))
    ring, d, mod = space.ring, space.dim, space.ring.modulus
    gens = [_random_generator(space, rng) for _ in range(ngens)]
    H = subgroup_from_generators(_random_fixed_vectors(kind, ring, d, rng), ring, ambient_dim=d)

    def fixes(flat):
        return all(
            sum(flat[i * d + j] * e[j] for j in range(d)) % mod == e[i] % mod
            for e in H.basis
            for i in range(d)
        )

    def reference(c):
        """The closure's order and its elements fixing H, or None past the cap."""
        try:
            elements = reference_close(space, gens, c)
        except CapExceeded:
            return None
        return len(elements), [list(flat) for flat in elements if fixes(flat)]

    full = reference(cap)
    caps = [cap] if full is None else [cap] + [n for n in (full[0], full[0] - 1) if n]
    expected = {c: reference(c) for c in caps}
    messages = {}
    with pytest.MonkeyPatch.context() as mp:  # hypothesis tests take no monkeypatch fixture
        for _ in seen_set_strategies(mp, budget=None):
            for c in caps:
                try:
                    T = gm.stabilizer(close(space, gens, c), H)
                except CapExceeded as exc:
                    assert expected[c] is None
                    assert messages.setdefault(c, str(exc)) == str(exc)
                    continue
                assert expected[c] is not None
                assert elements(T).dtype == gm._storage_dtype(mod, d)
                assert elements(T).tolist() == expected[c][1]
                assert T.generators == (tuple(gens) if H.is_trivial() else ())


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5]),
    level=st.sampled_from([1, 2, 3, 20]),
    g=st.sampled_from([1, 2]),
    ngens=st.integers(1, 3),
    data=st.data(),
    rng=st.randoms(use_true_random=False),
)
def test_closure_stabilizer_on_row_ids_matches_joined_scan_and_matrixmod_filter(
    ell, level, g, ngens, data, rng
):
    # a closure is tested on row ids, unjoined and joined, and against
    # MatrixMod products, in element order: H of rank 1..d
    # with zero entries, and at level 20 (3^20 and 5^20 past the int64
    # guard) row-orbit vectors of object dtype.  A second condition mod a
    # lower power of l runs the filtered-subgroup scan the same two ways
    space = standard_form(g, ResidueRing(ell, level))
    ring, d, mod = space.ring, space.dim, space.ring.modulus
    gens = [_random_generator(space, rng) for _ in range(ngens)]
    entry = st.sampled_from([0, 1, ell, mod - 1]) | st.integers(0, mod - 1)
    vector = st.lists(entry, min_size=d, max_size=d).map(tuple)
    H = subgroup_from_generators(data.draw(st.lists(vector, min_size=1, max_size=d)), ring, ambient_dim=d)
    coarse = (ell ** data.draw(st.integers(1, level)), data.draw(st.lists(vector, min_size=1, max_size=2)))
    try:
        G, joined = close(space, gens, cap=3000), close(space, gens, cap=3000)
    except CapExceeded:
        return
    members = matrices(joined)
    with pytest.MonkeyPatch.context() as mp:
        decoded = spy_decodes(mp)
        # stored as row ids: one id array per row in each batch, the BFS levels
        levels = G.batches(gm._every(G.columns))
        assert len(G.columns) == d and all(len(ids) == d for ids in levels)
        assert (elements(joined).dtype == object) == (level == 20 and ell > 2)
        # read through blocks: a trivial H gives back G itself
        T = [tuple(row) for block in gm.stabilizer(G, H).blocks() for row in block.tolist()]
        assert T == [M.flat() for M in members if all(M.apply(e) == tuple(e) for e in H.basis)]
        scanned = elements(gm._fixing_scan(joined, [(mod, H.basis)]))
        assert T == [tuple(row) for row in scanned.tolist()]
        conditions = [(mod, H.basis), coarse]
        rows = elements(gm._fixing_scan(G, conditions))
        want_rows = elements(gm._fixing_scan(joined, conditions))
        # the elements are distinct and G's are those of joined, in order (below),
        # so the ordered lists fix the indices
        assert rows.tolist() == want_rows.tolist()
        assert rows.dtype == want_rows.dtype
        # no test, so no selective row: every element passes
        everything = elements(gm._fixing_scan(G, [(mod, [(0,) * d])]))
        assert everything.tolist() == elements(joined).tolist()
        # G itself is decoded only where it is T, and then once
        assert sum(n for X, n in decoded if X is G) == (G.order if H.is_trivial() else 0)


def test_closure_stabilizer_decodes_only_its_elements(monkeypatch):
    # GL2(Z/27), H = <e1>: M e1 = e1 asks for 27 of the 648 vectors in row
    # 0's orbit and 18 in row 1's, so row 1 is gathered first, then row 0
    # over its survivors, and T holds the ids of its 486 elements.  Nothing
    # is decoded until T is read, and then only T's elements.  The 314,928
    # elements take 1.2 MiB decoded, 4 bytes each; beyond the stored levels
    # the scan holds one level's mask gather and its index cast to intp, 9
    # bytes a point of the largest level.  The built cm torus and
    # self-product answer the scan from their parametrization: their T is
    # the identity alone
    ring = ResidueRing(3, 3)
    G = close(standard_form(1, ring), gl2_standard_generators(ring))
    H = subgroup_from_generators([(1, 0)], ring)
    decoded = spy_decodes(monkeypatch)
    tracemalloc.start()
    try:
        T = gm.stabilizer(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.order == 486 and decoded == []
    assert len(elements(T)) == sum(n for _, n in decoded) == 486
    largest = max(len(ids[0]) for ids in G.batches(gm._every(G.columns)))
    assert largest == 42708
    assert peak < 10 * largest < G.order * 4 // 2
    assert all(X is T for X, _ in decoded)  # G is not decoded
    for G, H in (gm.scenario_cm(2, 5, 3), gm.scenario_selfproduct(5, 2)):
        decoded.clear()
        T = gm.stabilizer(G, H)
        assert T.order == 1 and decoded == []
        assert elements(T).tolist() == [list(MatrixMod.identity(G.ring, 4).flat())]
        assert [(X, n) for X, n in decoded] == [(T, 1)]


def test_bfs_checks_each_level_against_the_byte_budget(monkeypatch):
    # GL2(Z/27): a product holds 2 int32 row ids, and its int32 key with the
    # seen test's temporaries is budgeted at four 8-byte words, so 40 bytes.
    # The table's adds take at most _BATCH = 4096 frontier points each, so
    # a full add is 4096 x 3 generators = 12,288 products, 491,520 bytes,
    # first at depth 9, whose 7,635 points are the first frontier past
    # 4096; one byte less, and depth 9 is refused before its first batch is
    # built.  The sorted set adds whole levels: the largest, 42,708 points
    # at depth 12, needs 5,124,960 bytes
    ring = ResidueRing(3, 3)
    S, gens = standard_form(1, ring), gl2_standard_generators(ring)
    batches, real = [], gm._SeenTable.add

    def spy(self, keys, *args):
        batches.append(len(keys))
        return real(self, keys, *args)

    monkeypatch.setattr(gm._SeenTable, "add", spy)
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 491_520)
    G = close(S, gens)
    assert G.order == gm.gl2_order(3, 3)
    widths = [len(ids[0]) for ids in G.batches(gm._every(G.columns))]
    assert gm._BATCH == 4096 and widths[8] <= 4096 < widths[9] == 7635
    assert batches == [3 * min(w - at, 4096) for w in widths for at in range(0, w, 4096)]
    assert max(batches) * 40 == 491_520 and batches.index(max(batches)) == 9
    batches.clear()
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 491_519)
    message = "closure exceeds the BFS level budget of 491519 bytes: depth 9 needs 491520 bytes"
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        close(S, gens)
    assert len(batches) == 9
    monkeypatch.setattr(gm, "_seen_set", lambda size, key: gm._SeenSorted(key))
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 5_124_960)
    assert close(S, gens).order == gm.gl2_order(3, 3)
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 5_124_959)
    message = "closure exceeds the BFS level budget of 5124959 bytes: depth 12 needs 5124960 bytes"
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        close(S, gens)
    # the orbit search checks the same budget: e1 times 3 generators, at 4
    # bytes of row id and 32 of key and temporaries each
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 100)
    message = "orbit exceeds the BFS level budget of 100 bytes: depth 0 needs 108 bytes"
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        gm.orbit_degree_report(S, gens, subgroup_from_generators([(1, 0)], ring))


def test_close_holds_one_add_beyond_its_levels_and_table():
    # GL2(Z/27) on the table: beyond the kept levels (314,928 elements, two
    # uint16 row ids each) and the 648^2 int32 table, the closure holds one
    # add's temporaries, which the level budget puts at 40 bytes a product,
    # _BATCH x 3 generators of them: 491,520 bytes; a level's chunks, held
    # while they are joined, take less (171 KB at depth 12).  It measured
    # 323,560; whole-level adds took 2.7 MB
    ring = ResidueRing(3, 3)
    S, gens = standard_form(1, ring), gl2_standard_generators(ring)
    tracemalloc.start()
    try:
        G = close(S, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(ids.nbytes for ids in G.batches(gm._every(G.columns))) + 648**2 * 4
    assert kept == 2 * 2 * G.order + 1_679_616
    assert 0 < peak - kept < 40 * gm._BATCH * len(gens) == 491_520


def test_stabilizer_of_close_rejects_mismatched_subgroup():
    S, gens = _gl2_mod9()
    G = close(S, gens)
    with pytest.raises(ValueError, match="different rings"):
        gm.stabilizer(G, subgroup_from_generators([(1, 0)], ResidueRing(3, 1)))
    with pytest.raises(ValueError, match="ambient dimension"):
        gm.stabilizer(G, subgroup_from_generators([(1, 0, 0, 0)], S.ring))


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
    assert [tuple(row) for row in elements(G).tolist()] == reference_close(S, gens)
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
    assert elements(G).dtype == arr_dtype
    assert G.order == 1
    assert matrices(G) == [MatrixMod.identity(S.ring, S.dim)]


@pytest.mark.parametrize(
    "mod, width, key_type",
    [
        (27, 4, np.int32),
        (27, 16, object),
        (3**20, 4, object),
        (3**39, 1, np.int64),
        (3**39, 4, object),  # 3^39 is the largest power of 3 below 2^63
    ],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pack_keys_equal_exactly_when_rows_equal(mod, width, key_type, data):
    # the mixed-radix keys ``_numbering`` packs each row into, and the ids
    # it numbers the rows by: object-stored rows are cast to int64 keys
    # where those fit (width 1 mod 3^39)
    entry = st.sampled_from([0, 1, mod // 3, mod - 1]) | st.integers(0, mod - 1)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=12)
    )
    for dtype in (np.int64, object):
        with pytest.MonkeyPatch.context() as mp:
            made = spy_keys(mp)
            columns, ids = gm._numbering(np.array(rows, dtype=dtype), mod)
        (keys,) = made
        assert keys.dtype == key_type
        assert keys.shape == ids.shape == (len(rows),)
        for i, row in enumerate(rows):
            assert (keys == keys[i]).tolist() == [other == row for other in rows]
            assert (ids == ids[i]).tolist() == [other == row for other in rows]
            assert columns[:, ids[i]].tolist() == row


@pytest.mark.parametrize("case", ["gsp4_z27", "level20"])
def test_multiword_keys_in_group_checks(case, monkeypatch):
    # reduce_level is the one group check on keys past 2^63: 16 entries
    # mod 27, and 4 entries mod 3^10 (3^40 > 2^63), pack into Python-int
    # keys.  At the top level all 486 elements stay; the level-20 group
    # reduced to level 10 keeps its first occurrences
    level = {"gsp4_z27": 3, "level20": 10}[case]
    S, gens = CASES[case][0]()
    G = close(S, gens)
    p = S.ring.ell**level
    keys = spy_keys(monkeypatch)
    gm._numbering(elements(G)[:1] % p, p)
    assert keys[-1].dtype == object
    expected = reference_reduce(G, level)
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(level)
        assert R.ring.level == level
        assert [M.flat() for M in matrices(R)] == expected


def test_group_array_is_read_only():
    # a block is decoded afresh on each read: writing into one leaves the group as it was
    S, gens = _gl2_mod9()
    G = close(S, gens)
    before = elements(G).tolist()
    block = next(G.blocks())
    block[0, 0] = 5
    assert elements(G).tolist() == before


def test_object_path_multipliers_match_elementwise():
    S, gens = _three_adic_level20()
    G = close(S, gens)
    assert G.multiplier_image().tolist() == sorted({multiplier(M, S) for M in matrices(G)})


def test_object_path_stabilizer_and_reduction_match_scans(monkeypatch):
    S, gens = _three_adic_level20()
    G = close(S, gens)
    ring = S.ring
    H = subgroup_from_generators([(1, 0), (0, 3**12)], ring)
    T = gm.stabilizer(G, H)
    members = matrices(G)
    assert matrices(T) == [M for M in members if all(M.apply(v) == v for v in H.basis)]
    fix = subgroup_from_generators([(1, 0)], ring)
    F = gm.filtered_subgroup(G, [fix], [18])
    p = 3**18
    assert matrices(F) == [
        M for M in members if all(x % p == v % p for x, v in zip(M.apply((1, 0)), (1, 0)))
    ]
    expected = reference_reduce(G, 19)
    for _ in seen_set_strategies(monkeypatch):
        R = G.reduce_level(19)
        assert elements(R).dtype == np.uint32  # 3^19 is inside the int64 guard
        assert [M.flat() for M in matrices(R)] == expected
