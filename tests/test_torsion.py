from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from gspimage.cli import parse_generator_rows
from gspimage.modring import MatrixMod, ResidueRing, _smith_rect, mat_invert
from gspimage.torsion import (
    full_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)


def _elements(H):
    """The elements of H as a set of tuples, from ``element_array``."""
    return set(map(tuple, H.element_array().tolist()))


def test_cyclic_from_ones_vector():
    ring = ResidueRing(5, 2)
    H = subgroup_from_generators([(1, 1, 1, 1)], ring)
    assert H.orders == (2,)
    assert H.order == 25


def test_full_group_from_standard_basis():
    ring = ResidueRing(3, 1)
    H = subgroup_from_generators([(1, 0), (0, 1)], ring)
    assert H.orders == (1, 1)
    assert H.order == 9


def test_mixed_orders_and_exhaustive_count():
    ring = ResidueRing(3, 2)
    H = subgroup_from_generators([(3, 0), (0, 1)], ring)
    assert H.orders == (2, 1)
    assert H.order == 27
    # exhaustive membership count agrees
    n_in = sum(H.contains((x, y)) for x in range(9) for y in range(9))
    assert n_in == 27
    assert len(_elements(H)) == 27


def test_redundant_generators_are_normalized():
    ring = ResidueRing(2, 2)
    H = subgroup_from_generators([(1, 1), (2, 2), (3, 3)], ring)
    assert H.orders == (2,)
    assert H.order == 4


def test_slice_examples():
    ring9 = ResidueRing(3, 2)
    full = full_subgroup(ring9, 2)
    S1 = full.slice(1)
    assert S1.order == 9
    assert S1.orders == (1, 1)
    assert all(S1.contains((3 * a, 3 * b)) for a in range(3) for b in range(3))

    assert full.slice(0).is_trivial()

    ring27 = ResidueRing(3, 3)
    C = subgroup_from_generators([(1, 4)], ring27)
    S = C.slice(1)
    assert S.orders == (1,)
    expected = subgroup_from_generators([(9, 36)], ring27)
    assert _elements(S) == _elements(expected)
    killed = {v for v in _elements(C) if all(3 * x % 27 == 0 for x in v)}
    assert _elements(S) == killed


def test_slice_size_formula(rng):
    for _ in range(25):
        ell, N, d = rng.choice([2, 3, 5]), rng.randrange(1, 4), rng.randrange(1, 5)
        ring = ResidueRing(ell, N)
        gens = [
            tuple(rng.randrange(ring.modulus) for _ in range(d))
            for _ in range(rng.randrange(1, d + 1))
        ]
        H = subgroup_from_generators(gens, ring, ambient_dim=d)
        for m in range(N + 1):
            S = H.slice(m)
            assert S.order == ell ** sum(min(mi, m) for mi in H.orders)


# Z/3, Z/25, Z/27, and the deep-level ring Z/3^20, whose products pass 2^63
BASIS_RINGS = [ResidueRing(3, 1), ResidueRing(5, 2), ResidueRing(3, 3), ResidueRing(3, 20)]


@given(st.data(), st.sampled_from(BASIS_RINGS), st.sampled_from([2, 4]))
def test_basis_is_l_powers_times_the_columns_of_U_inverse(data, ring, d):
    """With U A V = D the Smith form of the generator matrix A, H's basis
    vector i is l^{s_i} times column i of U^-1, of order l^{N - s_i}, and v
    is in H exactly when U v is divisible by l^{s_i} row by row.  Each
    generator is l^e times a random vector, so that the orders are mixed,
    as in H = <e1, 3^12 e4, 3^16 e2> over Z/3^20."""
    ell, N, m = ring.ell, ring.level, ring.modulus
    vector = st.builds(
        lambda e, xs: tuple(ell**e * x % m for x in xs),
        st.integers(min_value=0, max_value=N),
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=d, max_size=d),
    )
    gens = data.draw(st.lists(vector, max_size=4))
    H = subgroup_from_generators(gens, ring, ambient_dim=d)
    U, D, _ = _smith_rect(ring, [[v[i] for v in gens] for i in range(d)])
    U = MatrixMod(ring, U)
    U_inv = mat_invert(U)
    assert U_inv @ U == MatrixMod.identity(ring, d)
    divisors = [ring.valuation(D[i][i]) if i < len(gens) else N for i in range(d)]
    expected = [
        (tuple(ell**s * U_inv.rows[r][i] % m for r in range(d)), N - s)
        for i, s in enumerate(divisors)
        if s < N
    ]
    assert list(zip(H.basis, H.orders)) == expected
    probes = gens + list(H.basis) + data.draw(st.lists(vector, max_size=4))
    for v in probes:
        in_H = all(x % ell**s == 0 for x, s in zip(U.apply(v), divisors))
        assert H.contains(v) == in_H
    assert all(H.contains(v) for v in gens)


def test_contains_basics():
    ring = ResidueRing(5, 1)
    H = subgroup_from_generators([(1, 1)], ring)
    assert H.contains((0, 0))
    assert H.contains((2, 2))
    assert not H.contains((1, 2))
    T = trivial_subgroup(ring, 2)
    assert T.contains((0, 0))
    assert not T.contains((1, 0))


def test_contains_matches_enumeration(rng):
    for _ in range(30):
        ell, N, d = rng.choice([2, 3, 5]), rng.randrange(1, 4), rng.randrange(1, 4)
        ring = ResidueRing(ell, N)
        gens = [
            tuple(rng.randrange(ring.modulus) for _ in range(d))
            for _ in range(rng.randrange(1, d + 1))
        ]
        H = subgroup_from_generators(gens, ring, ambient_dim=d)
        if H.order > 5000:
            continue
        members = _elements(H)
        assert len(members) == H.order
        for _ in range(50):
            v = tuple(rng.randrange(ring.modulus) for _ in range(d))
            assert H.contains(v) == (v in members)


def test_rebuild_is_idempotent(rng):
    for _ in range(30):
        ell, N, d = rng.choice([2, 3, 5]), rng.randrange(1, 4), rng.randrange(1, 5)
        ring = ResidueRing(ell, N)
        gens = [
            tuple(rng.randrange(ring.modulus) for _ in range(d))
            for _ in range(rng.randrange(1, d + 2))
        ]
        H = subgroup_from_generators(gens, ring, ambient_dim=d)
        H2 = subgroup_from_generators(H.basis, ring, ambient_dim=d)
        assert H2.orders == H.orders
        # equal orders and each basis inside the other: the same subgroup
        assert all(H.contains(b) for b in H2.basis) and all(H2.contains(b) for b in H.basis)


def _all_subspaces(ell, dim):
    """Enumerate every subspace of F_ell^dim via reduced-echelon bases."""
    out = [[]]
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free_cols = [
                [c for c in range(dim) if c > pivots[i] and c not in pivots]
                for i in range(r)
            ]
            slots = [(i, c) for i in range(r) for c in free_cols[i]]
            for vals in product(range(ell), repeat=len(slots)):
                rows = [[0] * dim for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, c), v in zip(slots, vals):
                    rows[i][c] = v
                out.append([tuple(row) for row in rows])
    return out


@pytest.mark.parametrize("ell,count", [(2, 67), (3, 212)])
def test_membership_complete_sweep_dimension_four(ell, count):
    # Gaussian-binomial count of subspaces of F_l^4: 67 for l=2, 212 for l=3
    ring = ResidueRing(ell, 1)
    spaces = _all_subspaces(ell, 4)
    assert len(spaces) == count
    vectors = list(product(range(ell), repeat=4))
    for rows in spaces:
        H = subgroup_from_generators(rows, ring, ambient_dim=4)
        span = set()
        for coeffs in product(range(ell), repeat=len(rows)):
            span.add(
                tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % ell for i in range(4))
            )
        assert H.order == len(span)
        for v in vectors:
            assert H.contains(v) == (v in span)


def test_parse_generator_rows():
    assert parse_generator_rows("[[1,0],[0,1]]") == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        parse_generator_rows("{}")


def test_empty_generators_need_dimension():
    ring = ResidueRing(3, 1)
    with pytest.raises(ValueError):
        subgroup_from_generators([], ring)
    T = subgroup_from_generators([], ring, ambient_dim=3)
    assert T.is_trivial()
    assert T.order == 1
