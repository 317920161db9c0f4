import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gspimage import galois_model as gm
from gspimage.modring import MatrixMod, NotInvertible, ResidueRing, is_prime
from gspimage.symplectic import multiplier, weil_pairing
from gspimage import mumford as mf
from gspimage.mumford import (
    MumfordReport,
    image_order,
    lagrangian_H,
    pointwise_stabilizer_in_image,
    rho,
    tensor_space,
    verify_mu_s_failure,
)

from conftest import random_invertible, tensor_generators
from oracles import elements, matrices, stabilizer_brute_force


def _flip(ring):
    return MatrixMod.diagonal(ring, [1, -1, -1, 1, -1, 1, 1, -1])


def test_rho_identity():
    ring = ResidueRing(3, 1)
    I2 = MatrixMod.identity(ring, 2)
    assert rho(I2, I2, I2) == MatrixMod.identity(ring, 8)


def test_rho_diag_flip():
    ring = ResidueRing(7, 1)
    d = MatrixMod.diagonal(ring, [1, -1])
    assert rho(d, d, d) == _flip(ring)


def test_rho_requires_invertible():
    ring = ResidueRing(3, 1)
    I2 = MatrixMod.identity(ring, 2)
    with pytest.raises(NotInvertible):
        rho(MatrixMod(ring, [[1, 1], [1, 1]]), I2, I2)


def test_rho_is_a_homomorphism():
    ring = ResidueRing(5, 1)
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (random_invertible(ring, 2, rng) for _ in range(3))
        a2, b2, c2 = (random_invertible(ring, 2, rng) for _ in range(3))
        assert rho(a @ a2, b @ b2, c @ c2) == rho(a, b, c) @ rho(a2, b2, c2)


def test_rho_is_exact_past_the_int64_range():
    # the first prime past 2^21: products of three residues pass 2^63
    ell = 2_097_169
    ring = ResidueRing(ell, 1)
    a = MatrixMod(ring, [[ell - 1, 1], [0, ell - 1]])
    b = MatrixMod(ring, [[ell - 1, ell - 2], [1, ell - 1]])
    c = MatrixMod(ring, [[ell - 2, ell - 1], [ell - 1, 0]])
    R = rho(a, b, c).rows
    for i, j, k, l, m, n in product(range(2), repeat=6):
        exact = a.rows[i][j] * b.rows[k][l] * c.rows[m][n] % ell
        assert R[4 * i + 2 * k + m][4 * j + 2 * l + n] == exact


def test_rho_lands_in_gsp8():
    for ell in (3, 5):
        ring = ResidueRing(ell, 1)
        S = tensor_space(ell)
        rng = random.Random(ell)
        for _ in range(25):
            a, b, c = (random_invertible(ring, 2, rng) for _ in range(3))
            lam = multiplier(rho(a, b, c), S)
            assert lam == a.det() * b.det() * c.det() % ell


@pytest.mark.parametrize("ell", [3, 5])
def test_lagrangian_subgroup(ell):
    H = lagrangian_H(ell)
    S = tensor_space(ell)
    assert H.order == ell**4
    assert H.orders == (1, 1, 1, 1)
    for i, P in enumerate(H.basis):
        for Q in H.basis[i:]:
            assert weil_pairing(P, Q, S, 1) == 0
    from gspimage.symplectic import m1

    assert m1(H, S) == 0


def test_stabilizer_exact_small_primes():
    ring3 = ResidueRing(3, 1)
    assert set(pointwise_stabilizer_in_image(3)) == {
        MatrixMod.identity(ring3, 8),
        _flip(ring3),
    }
    ring2 = ResidueRing(2, 1)
    assert pointwise_stabilizer_in_image(2) == [MatrixMod.identity(ring2, 8)]


def test_stabilizer_is_exactly_the_flip_at_every_prime_below_500():
    # {I, flip}, sorted by entries, at every odd prime; {I} at l = 2
    for ell in filter(is_prime, range(3, 500)):
        ring = ResidueRing(ell, 1)
        assert pointwise_stabilizer_in_image(ell) == sorted(
            [MatrixMod.identity(ring, 8), _flip(ring)], key=MatrixMod.flat
        ), ell
    assert pointwise_stabilizer_in_image(2) == [MatrixMod.identity(ResidueRing(2, 1), 8)]


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_stabilizer_pruned_equals_brute_force(ell):
    assert pointwise_stabilizer_in_image(ell) == stabilizer_brute_force(ell)


@pytest.mark.parametrize("ell", [5, 7])
def test_stabilizer_size_two(ell):
    stab = pointwise_stabilizer_in_image(ell)
    assert len(stab) == 2


def test_stabilizer_elements_fix_H_and_multipliers():
    ell = 5
    S = tensor_space(ell)
    H = lagrangian_H(ell)
    stab = pointwise_stabilizer_in_image(ell)
    mults = set()
    for M in stab:
        for v in map(tuple, H.element_array().tolist()):
            assert M.apply(v) == v
        mults.add(multiplier(M, S))
    assert mults == {1, ell - 1}


def test_image_order_formula_and_enumeration():
    assert image_order(2) == 216
    assert image_order(3) == 27648
    assert image_order(5) == 120 * 120 * 480
    ring = ResidueRing(3, 1)
    I2 = MatrixMod.identity(ring, 2)
    assert rho(I2, I2, I2) == MatrixMod.identity(ring, 8)  # identity is in the image


@pytest.mark.parametrize("ell", [2, 3])
def test_general_engine_twin(ell):
    # the tensor cube through the general engine alone: [G:T] from the orbit
    # of H under the nine generators, T as H's stabilizer in their closure
    S, H = tensor_space(ell), lagrangian_H(ell)
    gens = tensor_generators(ell)
    rep = gm.orbit_degree_report(S, gens, H)
    T = gm.stabilizer(gm.close(S, gens), H)
    assert rep.deg_KH * T.order == image_order(ell)
    assert set(matrices(T)) == set(pointwise_stabilizer_in_image(ell))
    if ell != 2:  # verify_mu_s_failure refuses l = 2
        battery = verify_mu_s_failure([ell])[0]
        assert vars(rep) == {name: getattr(battery, name) for name in vars(rep)}


def test_scalar_orbit_of_a_triple_is_one_fiber():
    # (la a) (x) (mu b) (x) (nu c) = la mu nu (a (x) b (x) c): the (l-1)^2
    # triples of a scalar orbit are distinct and share one image element.
    # With the twin's count of image elements, |GL2|^3 / (l-1)^2, every
    # fiber of rho is then exactly one scalar orbit, at l = 2 and 3
    ell = 7
    ring = ResidueRing(ell, 1)
    rng = random.Random(29)
    units = range(1, ell)

    def scaled(x, M):
        return MatrixMod.diagonal(ring, [x, x]) @ M

    for _ in range(10):
        a, b, c = (random_invertible(ring, 2, rng) for _ in range(3))
        orbit = {
            (scaled(la, a), scaled(mu, b), scaled(pow(la * mu, -1, ell), c))
            for la in units
            for mu in units
        }
        assert len(orbit) == (ell - 1) ** 2
        assert {rho(*t) for t in orbit} == {rho(a, b, c)}


def test_multiplier_image_is_all_units():
    # the multipliers of the image are the products of three GL2 determinants;
    # the report takes lambda(G) from one primitive root
    for ell, rep in zip((3, 5, 7), verify_mu_s_failure([3, 5, 7])):
        arr = elements(gm.gl2_group(ResidueRing(ell, 1))).astype(np.int64)  # widen: uint8 wraps
        dets = {int(x) for x in (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2]) % ell}
        triples = {d1 * d2 * d3 % ell for d1 in dets for d2 in dets for d3 in dets}
        assert triples == set(range(1, ell))
        # |lambda(G)| = |lambda(T)| * intersection degree, lambda(T) = {1, -1}
        assert 2 * rep.deg_cyclo_intersection == len(triples)
        assert not rep.ramified_type  # lambda(G) is all units


def test_verify_mu_s_failure_never_builds_gl2(monkeypatch):
    expected = verify_mu_s_failure([3, 5, 7])

    def boom(*args, **kwargs):
        raise AssertionError("gl2_group called on the mumford path")

    monkeypatch.setattr(mf, "gl2_group", boom)
    assert verify_mu_s_failure([3, 5, 7]) == expected


def test_stabilizer_cap_counts_diagonal_triples():
    # the solver tries the l - 1 candidates beta, so the cap bounds l - 1
    assert len(pointwise_stabilizer_in_image(11, cap=10)) == 2
    with pytest.raises(
        mf.CapExceeded,
        match=r"^tensor-cube stabilizer exceeds cap=9: 10 diagonal candidates at l=11$",
    ):
        pointwise_stabilizer_in_image(11, cap=9)


def test_verify_mu_s_failure_values():
    reports = verify_mu_s_failure([3, 5])
    assert [r.ell for r in reports] == [3, 5]
    for r in reports:
        assert r.m1 == 0
        assert r.stabilizer_size == 2
        assert r.deg_cyclo_intersection == (r.ell - 1) // 2
        assert r.ratio == Fraction((r.ell - 1) // 2)
        assert r.deg_KH == r.image_order // 2
        assert len(r.stabilizer_elements) == 2
        assert isinstance(r, MumfordReport)


def test_verify_mu_s_failure_witness_semantics():
    # with C = 2 the inequality chain is already satisfied at n = 0 for l = 5:
    # 1/2 <= 2 <= 2, both comparisons non-strict
    rep = verify_mu_s_failure([5], mu_c=2)[0]
    assert rep.mu_w_witness_n == 0
    assert verify_mu_s_failure([3])[0].mu_w_witness_n == 0
    # the intersection degree (l-1)/2 is neither c_0 = 1 nor c_1 = l - 1, so
    # only a constant C > 1 finds a witness; C = l - 1 finds it at n = 0
    for ell in (5, 7, 11):
        assert verify_mu_s_failure([ell])[0].mu_w_witness_n is None
        assert verify_mu_s_failure([ell], mu_c=ell - 1)[0].mu_w_witness_n == 0
    with pytest.raises(ValueError, match="C must be >= 1"):
        verify_mu_s_failure([5], mu_c=0)


def test_verify_mu_s_failure_rejects_two():
    with pytest.raises(ValueError):
        verify_mu_s_failure([2])


def test_mumford_report_json_keys():
    rep = verify_mu_s_failure([3])[0]
    d = rep.to_json_dict()
    assert list(d.keys()) == [
        "ell",
        "level",
        "m1",
        "deg_KH",
        "deg_cyclo_intersection",
        "deg_cyclo_at_m1",
        "ratio",
        "mu_w_witness_n",
        "stabilizer_size",
        "stabilizer_elements",
        "image_order",
    ]
    assert d["stabilizer_size"] == 2
    assert (
        all(type(e) is list for e in d["stabilizer_elements"])
        and type(d["stabilizer_elements"]) is list
        and type(d["ratio"]) is str
        and json.loads(json.dumps(d, indent=2)) == d
    )

