import random

import pytest
from hypothesis import given, strategies as st

from gspimage.modring import (
    MatrixMod,
    NotInvertible,
    ResidueRing,
    is_prime,
    mat_invert,
    smith_normal_form,
)

from conftest import random_invertible, random_matrix
from oracles import reference_apply, reference_kron, reference_matmul

RINGS = [ResidueRing(l, n) for l in (2, 3, 5) for n in (1, 2, 3)]


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_ring_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        ResidueRing(6, 1)
    with pytest.raises(ValueError):
        ResidueRing(3, 0)
    with pytest.raises(ValueError):
        ResidueRing(2, 64)


def test_valuation_examples():
    assert ResidueRing(3, 3).valuation(0) == 3
    assert ResidueRing(3, 3).valuation(6) == 1
    assert ResidueRing(5, 2).valuation(10) == 1


@given(
    st.sampled_from(RINGS),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_valuation_product_law(ring, x, y):
    vx, vy = ring.valuation(x), ring.valuation(y)
    assert ring.valuation(x * y) == min(ring.level, vx + vy)


def test_mat_invert_identity_and_diagonal():
    r9 = ResidueRing(3, 2)
    I = MatrixMod.identity(r9, 3)
    assert mat_invert(I) == I
    D = MatrixMod.diagonal(r9, [2, 2])
    assert mat_invert(D) == MatrixMod.diagonal(r9, [5, 5])


# rings with moduli up to 3^20, so that products of entries pass 2^63
MATMUL_RINGS = [
    ResidueRing(ell, level)
    for ell in (2, 3, 5, 13)
    for level in range(1, 32)
    if ell**level <= 3**20
]


@given(st.data(), st.sampled_from(MATMUL_RINGS), st.integers(min_value=1, max_value=8))
def test_matmul_matches_a_triple_loop(data, ring, dim):
    m = ring.modulus
    entries = st.lists(
        st.lists(st.integers(min_value=-m, max_value=2 * m), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    )
    a, b = data.draw(entries), data.draw(entries)
    expected = [
        [sum(a[i][k] * b[k][j] for k in range(dim)) % m for j in range(dim)]
        for i in range(dim)
    ]
    product = MatrixMod(ring, a) @ MatrixMod(ring, b)
    assert product == MatrixMod(ring, expected)
    assert hash(product) == hash(MatrixMod(ring, expected))
    assert product.rows == tuple(map(tuple, expected))


@given(st.data(), st.sampled_from(MATMUL_RINGS), st.integers(min_value=1, max_value=8))
def test_constructor_transpose_and_apply_match_plain_expressions(data, ring, dim):
    m = ring.modulus
    ints = st.integers(min_value=-m, max_value=2 * m)
    rows = data.draw(st.lists(st.lists(ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    vec = data.draw(st.lists(ints, min_size=dim, max_size=dim))
    reduced = tuple(tuple(int(x) % m for x in row) for row in rows)
    M = MatrixMod(ring, rows)
    assert M.rows == reduced
    T = M.transpose()
    assert T.rows == tuple(tuple(reduced[j][i] for j in range(dim)) for i in range(dim))
    assert T == MatrixMod(ring, list(zip(*reduced))) and T.transpose() == M
    assert hash(T) == hash(MatrixMod(ring, list(zip(*reduced))))
    assert M.apply(vec) == tuple(sum(row[k] * vec[k] for k in range(dim)) % m for row in reduced)


# a prime, a prime power whose products pass 2^63, and the Mersenne prime
# 2^61 - 1, whose products pass 2^121
KERNEL_RINGS = [ResidueRing(13, 1), ResidueRing(3, 20), ResidueRing(2**61 - 1, 1)]


@st.composite
def shaped_matrices(draw, ring, dim, shape):
    """A dim x dim matrix over ``ring`` of one shape: dense or diagonal
    (entries anywhere in the ring, 0 included), monomial (a unit in each row
    and column), or dense with some rows and columns zero."""
    m = ring.modulus
    entry = st.one_of(st.sampled_from([0, 1, m - 1]), st.integers(min_value=0, max_value=m - 1))
    unit = entry.filter(ring.is_unit)
    if shape == "diagonal":
        return MatrixMod.diagonal(ring, draw(st.lists(entry, min_size=dim, max_size=dim)))
    if shape == "monomial":
        perm = draw(st.permutations(range(dim)))
        values = draw(st.lists(unit, min_size=dim, max_size=dim))
        return MatrixMod(ring, [[values[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)])
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    if shape == "zero rows and columns":
        gone_rows = draw(st.sets(st.integers(min_value=0, max_value=dim - 1)))
        gone_cols = draw(st.sets(st.integers(min_value=0, max_value=dim - 1)))
        rows = [
            [0 if i in gone_rows or j in gone_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return MatrixMod(ring, rows)


SHAPES = ["dense", "diagonal", "monomial", "zero rows and columns"]


@given(
    st.data(),
    st.sampled_from(KERNEL_RINGS),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(SHAPES),
    st.sampled_from(SHAPES),
)
def test_kernels_match_the_triple_loop_oracle(data, ring, dim, left, right):
    """``@``, ``apply`` and ``kron`` against the triple loops of
    ``oracles``, on matrices of every shape, and on vectors of the same
    shapes (a row of such a matrix); the mixed-ring and dimension errors
    stand."""
    A = data.draw(shaped_matrices(ring, dim, left))
    B = data.draw(shaped_matrices(ring, dim, right))
    vec = data.draw(st.sampled_from(B.rows))
    assert (A @ B).rows == reference_matmul(A, B)
    assert A.apply(vec) == reference_apply(A, vec)
    small = data.draw(shaped_matrices(ring, data.draw(st.integers(min_value=1, max_value=3)), left))
    for X, Y in ((A, small), (small, A)):
        assert X.kron(Y).rows == reference_kron(X, Y)
    other = ResidueRing(5, 1)
    with pytest.raises(ValueError, match="^mixed rings$"):
        A @ MatrixMod.identity(other, dim)
    with pytest.raises(ValueError, match="^mixed rings$"):
        A.kron(MatrixMod.identity(other, dim))
    with pytest.raises(ValueError, match=rf"^dimension mismatch: {dim}x{dim} @ {dim + 1}x{dim + 1}$"):
        A @ MatrixMod.identity(ring, dim + 1)
    mismatch = rf"^dimension mismatch: {dim}x{dim} applied to a vector of length {dim + 1}$"
    with pytest.raises(ValueError, match=mismatch):
        A.apply(vec + (0,))


@given(
    st.data(),
    st.sampled_from(KERNEL_RINGS),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["permutation", "unit diagonal", "unitriangular"]),
)
def test_inverse_and_smith_on_permutation_and_unit_diagonal_inputs(data, ring, dim, shape):
    """``mat_invert`` and the Smith form on invertible inputs whose pivots
    are already 1 (a permutation, an upper unitriangular matrix) or are
    units (a diagonal of units): M^-1 M = M M^-1 = I, and U M V = D with D
    the identity, U and V invertible."""
    m = ring.modulus
    if shape == "permutation":
        perm = data.draw(st.permutations(range(dim)))
        M = MatrixMod(ring, [[int(j == perm[i]) for j in range(dim)] for i in range(dim)])
    elif shape == "unit diagonal":
        units = st.integers(min_value=1, max_value=m - 1).filter(ring.is_unit)
        M = MatrixMod.diagonal(ring, data.draw(st.lists(units, min_size=dim, max_size=dim)))
    else:
        above = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=dim * dim, max_size=dim * dim))
        M = MatrixMod(
            ring, [[1 if i == j else above[i * dim + j] if j > i else 0 for j in range(dim)] for i in range(dim)]
        )
    I = MatrixMod.identity(ring, dim)
    inverse = mat_invert(M)
    assert inverse @ M == I and M @ inverse == I
    U, D, V = smith_normal_form(M)
    assert U @ M @ V == D == I
    assert U.is_invertible and V.is_invertible


@pytest.mark.parametrize("left, right", [(2, 3), (3, 2)])
def test_matmul_rejects_mismatched_dimensions(left, right):
    ring = ResidueRing(5, 1)
    with pytest.raises(ValueError, match=rf"{left}x{left} @ {right}x{right}"):
        MatrixMod.identity(ring, left) @ MatrixMod.identity(ring, right)


@pytest.mark.parametrize("left, right", [(1, 2), (2, 1)])
@pytest.mark.parametrize("op", ["@", "kron"])
def test_arithmetic_rejects_mixed_rings(op, left, right):
    # Z/5 and Z/25 in both operand orders: no result is reduced mod either
    a, b = (MatrixMod(ResidueRing(5, n), [[1, 2], [3, 4]]) for n in (left, right))
    with pytest.raises(ValueError, match="^mixed rings$"):
        {"@": a.__matmul__, "kron": a.kron}[op](b)


@pytest.mark.parametrize("length", [1, 3])
def test_apply_rejects_a_vector_of_another_length(length):
    M = MatrixMod.identity(ResidueRing(5, 1), 2)
    with pytest.raises(ValueError, match=rf"^dimension mismatch: 2x2 applied to a vector of length {length}$"):
        M.apply([1] * length)
    assert M.apply([1, 2]) == (1, 2)


def test_mat_invert_random_4x4():
    ring = ResidueRing(5, 2)
    rng = random.Random(11)
    I = MatrixMod.identity(ring, 4)
    for _ in range(20):
        M = random_invertible(ring, 4, rng)
        N = mat_invert(M)
        assert M @ N == I
        assert N @ M == I


def test_mat_invert_involution():
    rng = random.Random(23)
    for ring in RINGS:
        for _ in range(10):
            M = random_invertible(ring, rng.randrange(1, 5), rng)
            assert mat_invert(mat_invert(M)) == M


INVERSE_RINGS = [ResidueRing(3, 1), ResidueRing(3, 2), ResidueRing(5, 2), ResidueRing(3, 20)]


@given(st.data(), st.sampled_from(INVERSE_RINGS), st.integers(min_value=1, max_value=6))
def test_mat_invert_raises_exactly_when_the_determinant_is_not_a_unit(data, ring, dim):
    """The Smith form behind ``mat_invert`` and the Bareiss determinant
    behind ``is_invertible`` agree on which matrices are invertible; an
    inverse is one on both sides.  Entries l^e x make singular inputs
    common, over Z/3^20 too."""
    ell, m = ring.ell, ring.modulus
    entry = st.builds(
        lambda e, x: ell**e * x % m,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=m - 1),
    )
    rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    M = MatrixMod(ring, rows)
    if not M.is_invertible:
        with pytest.raises(NotInvertible):
            mat_invert(M)
        return
    I = MatrixMod.identity(ring, dim)
    inverse = mat_invert(M)
    assert inverse @ M == I and M @ inverse == I


def test_not_invertible_raises():
    r = ResidueRing(3, 2)
    with pytest.raises(NotInvertible):
        mat_invert(MatrixMod(r, [[3, 0], [0, 1]]))
    assert not MatrixMod(r, [[3, 0], [0, 1]]).is_invertible


def test_smith_identity():
    r = ResidueRing(3, 2)
    I = MatrixMod.identity(r, 2)
    U, D, V = smith_normal_form(I)
    assert (U, D, V) == (I, I, I)


def test_smith_examples():
    r9 = ResidueRing(3, 2)
    for rows, diag in [([[3, 0], [0, 1]], (1, 3)), ([[2, 1], [4, 5]], (1, 3))]:
        M = MatrixMod(r9, rows)
        U, D, V = smith_normal_form(M)
        assert tuple(D.rows[i][i] for i in range(2)) == diag
        assert all(D.rows[i][j] == 0 for i in range(2) for j in range(2) if i != j)
        assert U.is_invertible and V.is_invertible
        assert U @ M @ V == D


def _diag_valuations(ring, D):
    return sorted(ring.valuation(D.rows[i][i]) for i in range(D.dim))


def test_smith_postconditions_random():
    rng = random.Random(37)
    for ring in RINGS:
        for _ in range(25):
            dim = rng.randrange(1, 9)
            M = random_matrix(ring, dim, rng)
            U, D, V = smith_normal_form(M)
            assert U.is_invertible and V.is_invertible
            assert U @ M @ V == D
            vals = [ring.valuation(D.rows[i][i]) for i in range(dim)]
            assert vals == sorted(vals)
            for i in range(dim):
                for j in range(dim):
                    if i != j:
                        assert D.rows[i][j] == 0
                # pure power of l, or zero
                d = D.rows[i][i]
                assert d == 0 or d == ring.ell ** ring.valuation(d)


def test_smith_diagonal_valuations_invariant_under_conjugation():
    # multiplying by invertible matrices on either side preserves the
    # multiset of diagonal valuations
    for ring in RINGS:
        rng = random.Random(1000 * ring.ell + ring.level)
        for _ in range(100):
            dim = rng.randrange(1, 9)
            M = random_matrix(ring, dim, rng)
            P = random_invertible(ring, dim, rng)
            Q = random_invertible(ring, dim, rng)
            _, D1, _ = smith_normal_form(M)
            _, D2, _ = smith_normal_form(P @ M @ Q)
            assert _diag_valuations(ring, D1) == _diag_valuations(ring, D2)


def test_matrix_hash_and_flat_roundtrip():
    r = ResidueRing(5, 1)
    M = MatrixMod(r, [[1, 2], [3, 4]])
    assert MatrixMod.from_flat(r, 2, M.flat()) == M
    assert hash(MatrixMod(r, [[6, 2], [3, 4]])) == hash(M)
    assert M.reduce_level(1) == M
    assert MatrixMod(ResidueRing(5, 2), [[6, 2], [3, 4]]).reduce_level(1) == M


# 3^20, the deep-level modulus, and 3^39, the largest power of 3 below 2^63
@pytest.mark.parametrize("level", [20, 39])
def test_identity_and_negation_equal_the_reduced_construction(level):
    ring = ResidueRing(3, level)
    m = ring.modulus
    rng = random.Random(level)
    rows = [[rng.choice([0, 1, m - 1, rng.randrange(m)]) for _ in range(5)] for _ in range(5)]
    I, A = MatrixMod.identity(ring, 5), MatrixMod(ring, rows)
    for built, constructed in (
        (I, MatrixMod(ring, [[int(i == j) for j in range(5)] for i in range(5)])),
        (-A, MatrixMod(ring, [[-x for x in row] for row in rows])),
        (-I, MatrixMod(ring, [[-int(i == j) for j in range(5)] for i in range(5)])),
    ):
        assert built.rows == constructed.rows
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in built.rows)
        assert hash(built) == hash(constructed)
