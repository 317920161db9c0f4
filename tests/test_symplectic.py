import random

import pytest
from hypothesis import given, settings, strategies as st

from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import (
    NotAlternating,
    NotSimilitude,
    OrderTooLarge,
    SymplecticSpace,
    m1,
    m1_exhaustive,
    multiplier,
    standard_form,
    tensor_form,
    weil_pairing,
)
from gspimage.mumford import rho
from gspimage.torsion import full_subgroup, subgroup_from_generators

from conftest import (
    diagonal_similitude,
    random_invertible,
    random_similitude,
    random_subgroup,
    symplectic_transvection,
)

# the 8x8 matrix of the triple tensor form in the lexicographic basis
TENSOR3_FORM = [
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0],
]


def test_standard_form_g1():
    S = standard_form(1, ResidueRing(5, 1))
    assert S.form == MatrixMod(ResidueRing(5, 1), [[0, 1], [-1, 0]])


def test_standard_form_g2():
    r = ResidueRing(7, 1)
    S = standard_form(2, r)
    expected = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    assert S.form == MatrixMod(r, expected)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_standard_form_is_alternating_nondegenerate(g):
    S = standard_form(g, ResidueRing(3, 2))
    assert S.form.transpose() == -S.form
    assert S.form.is_invertible


def test_permuted_unit_diagonal_forms_skip_the_determinant(monkeypatch):
    # standard_form at g = 400 (an 800 x 800 form), the tensor form and the
    # self-product form
    def no_det(self):
        raise AssertionError("determinant called")

    monkeypatch.setattr(MatrixMod, "det", no_det)
    ring = ResidueRing(3, 2)
    assert standard_form(400, ring).dim == 800
    assert tensor_form(3, ring).dim == 8
    psi = [[0, 1], [-1, 0]]
    selfproduct = [[*row, 0, 0] for row in psi] + [[0, 0, *row] for row in psi]
    assert SymplecticSpace(2, MatrixMod(ring, selfproduct), ring).dim == 4


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 3], [-3, 0]],  # one entry per row and column, but not units mod 9
        # row 3 repeats row 2: outside the permutation pattern, and degenerate
        [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]],
    ],
)
def test_degenerate_forms_are_refused(rows):
    ring = ResidueRing(3, 2)
    with pytest.raises(ValueError, match="non-degenerate"):
        SymplecticSpace(len(rows) // 2, MatrixMod(ring, rows), ring)


def test_tensor_form_k1_and_parity():
    r = ResidueRing(3, 1)
    assert tensor_form(1, r).form == MatrixMod(r, [[0, 1], [-1, 0]])
    with pytest.raises(NotAlternating):
        tensor_form(2, r)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_tensor_form_k3_matches_fixture(ell):
    r = ResidueRing(ell, 1)
    S = tensor_form(3, r)
    assert S.form == MatrixMod(r, TENSOR3_FORM)
    assert S.form.rows[1][6] == (-1) % ell  # row 2, column 7 (1-based)


def test_multiplier_identity_and_flip():
    r = ResidueRing(7, 1)
    S = tensor_form(3, r)
    assert multiplier(MatrixMod.identity(r, 8), S) == 1
    flip = MatrixMod.diagonal(r, [1, -1, -1, 1, -1, 1, 1, -1])
    assert multiplier(flip, S) == (-1) % 7


def test_multiplier_not_similitude():
    r = ResidueRing(5, 1)
    S = standard_form(2, r)
    M = MatrixMod(r, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSimilitude):
        multiplier(M, S)


def _tensor_scaling(S, lam):
    """rho(diag(1, lam), I, I): multiplier lam for the triple tensor form."""
    I2 = MatrixMod.identity(S.ring, 2)
    return rho(MatrixMod.diagonal(S.ring, [1, lam]), I2, I2)


# a rank-4 standard form, the triple tensor form, and a standard form at
# level 20, whose entries near 3^20 make products of two entries pass 2^63;
# each with a similitude of any given unit multiplier
MULTIPLIER_SPACES = [
    (standard_form(2, ResidueRing(7, 1)), diagonal_similitude),
    (tensor_form(3, ResidueRing(5, 1)), _tensor_scaling),
    (standard_form(2, ResidueRing(3, 20)), diagonal_similitude),
]


def _plain_multiplier(M, F, ell, m):
    """The unit lambda with M^T F M = lambda F mod m, on plain ints, or None
    if there is none."""
    n = len(F)
    N = [
        [sum(M[k][i] * F[k][l] * M[l][j] for k in range(n) for l in range(n)) % m for j in range(n)]
        for i in range(n)
    ]
    i, j = next((i, j) for i in range(n) for j in range(n) if F[i][j] % m)
    lam = N[i][j] * pow(F[i][j], -1, m) % m
    if lam % ell == 0:
        return None
    return lam if all(N[a][b] == lam * F[a][b] % m for a in range(n) for b in range(n)) else None


@given(st.sampled_from(MULTIPLIER_SPACES), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_multiplier_matches_plain_ints_and_rejects_one_moved_entry(case, rng):
    S, scaling = case
    ring = S.ring
    m, F = ring.modulus, [list(r) for r in S.form.rows]
    # transvections (multiplier 1) times a similitude of multiplier lam
    lam = rng.choice([x for x in range(1, min(m, 200)) if ring.is_unit(x)])
    M = scaling(S, lam)
    for _ in range(3):
        M = symplectic_transvection(S, [rng.randrange(m) for _ in range(S.dim)]) @ M
    rows = [list(r) for r in M.rows]
    assert _plain_multiplier(rows, F, ring.ell, m) == lam
    assert multiplier(M, S) == lam
    # move entry (r, c) by a unit, with c off a unit column j of row r of F M:
    # M^T F M then changes in row c at column j, which lambda F cannot absorb
    r = rng.randrange(S.dim)
    j = next(j for j, x in enumerate((S.form @ M).rows[r]) if ring.is_unit(x))
    c = rng.choice([k for k in range(S.dim) if k != j])
    rows[r][c] = (rows[r][c] + rng.choice([1, 2, m - 1])) % m
    assert _plain_multiplier(rows, F, ring.ell, m) is None
    with pytest.raises(NotSimilitude):
        multiplier(MatrixMod(ring, rows), S)


def test_multiplier_of_tensor_triples_is_det_product():
    for ell in (3, 5):
        ring = ResidueRing(ell, 1)
        S = tensor_form(3, ring)
        rng = random.Random(ell)
        for _ in range(50):
            a = random_invertible(ring, 2, rng)
            b = random_invertible(ring, 2, rng)
            c = random_invertible(ring, 2, rng)
            lam = multiplier(rho(a, b, c), S)
            assert lam == a.det() * b.det() * c.det() % ell


def test_weil_pairing_examples():
    r5 = ResidueRing(5, 1)
    S = standard_form(1, r5)
    assert weil_pairing((1, 0), (0, 1), S, 1) == 1
    assert weil_pairing((2, 3), (2, 3), S, 1) == 0
    r7 = ResidueRing(7, 1)
    T = tensor_form(3, r7)
    e111 = (1, 0, 0, 0, 0, 0, 0, 0)
    e222 = (0, 0, 0, 0, 0, 0, 0, 1)
    assert weil_pairing(e111, e222, T, 1) == 1


def test_weil_pairing_order_too_large():
    r = ResidueRing(5, 2)
    S = standard_form(1, r)
    with pytest.raises(OrderTooLarge):
        weil_pairing((1, 0), (0, 1), S, 1)  # points of order 25 at level 1
    assert weil_pairing((5, 0), (0, 5), S, 1) == 1
    # the pairing's root is primitive of order l
    assert m1(subgroup_from_generators([(5, 0), (0, 5)], r), S) == 1


def test_pairing_value_order_exponent():
    r = ResidueRing(3, 3)
    S = standard_form(1, r)
    assert weil_pairing((3, 0), (0, 1), S, 3) == 3
    # exponent 3 at level 3 has valuation 1: a root of order 3^(3 - 1), which
    # m1 reaches by pairing (0, 3) of order 3^2 with (3, 0)
    assert m1(subgroup_from_generators([(3, 0), (0, 1)], r), S) == 2


@given(
    st.sampled_from([(2, 2), (3, 2), (5, 1), (3, 3)]),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_bilinearity_and_alternation(ln, g, data):
    ell, N = ln
    ring = ResidueRing(ell, N)
    S = standard_form(g, ring)
    n = data.draw(st.integers(min_value=1, max_value=N))
    shift = ell ** (N - n)
    dim = 2 * g
    vec = st.tuples(*[st.integers(min_value=0, max_value=ring.modulus - 1)] * dim)
    P = tuple(x * shift % ring.modulus for x in data.draw(vec))
    P2 = tuple(x * shift % ring.modulus for x in data.draw(vec))
    Q = tuple(x * shift % ring.modulus for x in data.draw(vec))
    Psum = tuple((a + b) % ring.modulus for a, b in zip(P, P2))
    lhs = weil_pairing(Psum, Q, S, n)
    rhs = weil_pairing(P, Q, S, n) + weil_pairing(P2, Q, S, n)
    assert lhs == rhs % ell**n
    assert weil_pairing(P, P, S, n) == 0


def test_equivariance_under_similitudes(rng):
    for _ in range(100):
        ell = rng.choice([2, 3, 5])
        N = rng.randrange(1, 4)
        g = rng.randrange(1, 5)
        ring = ResidueRing(ell, N)
        S = standard_form(g, ring)
        M = random_similitude(S, rng)
        lam = multiplier(M, S)
        n = rng.randrange(1, N + 1)
        shift = ell ** (N - n)
        P = tuple(rng.randrange(ring.modulus) * shift % ring.modulus for _ in range(2 * g))
        Q = tuple(rng.randrange(ring.modulus) * shift % ring.modulus for _ in range(2 * g))
        left = weil_pairing(M.apply(P), M.apply(Q), S, n)
        right = lam * weil_pairing(P, Q, S, n) % ell**n
        assert left == right


def test_m1_cyclic_is_zero(rng):
    for _ in range(20):
        ell, N, g = rng.choice([2, 3, 5]), rng.randrange(1, 4), rng.randrange(1, 3)
        ring = ResidueRing(ell, N)
        v = tuple(rng.randrange(ring.modulus) for _ in range(2 * g))
        H = subgroup_from_generators([v], ring, ambient_dim=2 * g)
        assert m1(H, standard_form(g, ring)) == 0


@pytest.mark.parametrize("ell,n,g", [(5, 1, 1), (3, 2, 2), (2, 3, 1)])
def test_m1_full_group(ell, n, g):
    ring = ResidueRing(ell, n)
    H = full_subgroup(ring, 2 * g)
    assert m1(H, standard_form(g, ring)) == n
    assert m1_exhaustive(H, standard_form(g, ring)) == n


def test_m1_gsp_invariant(rng):
    for _ in range(100):
        ell, N, g = rng.choice([2, 3, 5]), rng.randrange(1, 3), rng.randrange(1, 3)
        ring = ResidueRing(ell, N)
        S = standard_form(g, ring)
        H = random_subgroup(ring, 2 * g, rng, max_order=3000)
        M = random_similitude(S, rng)
        MH = subgroup_from_generators(
            [M.apply(b) for b in H.basis], ring, ambient_dim=2 * g
        )
        assert m1(H, S) == m1(MH, S)


def test_m1_fast_path_matches_oracle(rng):
    for _ in range(50):
        ell, N, g = rng.choice([2, 3, 5]), rng.randrange(1, 4), rng.randrange(1, 3)
        ring = ResidueRing(ell, N)
        S = standard_form(g, ring)
        H = random_subgroup(ring, 2 * g, rng)
        assert m1(H, S) == m1_exhaustive(H, S)


def test_transvection_and_diagonal_similitude():
    ring = ResidueRing(5, 2)
    S = standard_form(2, ring)
    T = symplectic_transvection(S, (1, 2, 3, 4))
    assert multiplier(T, S) == 1
    D = diagonal_similitude(S, 7)
    assert multiplier(D, S) == 7
