"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from gspimage import cli
from gspimage import mumford as mf
from gspimage import galois_model as gm
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import (
    m1,
    m1_exhaustive,
    multiplier,
    standard_form,
    tensor_form,
    weil_pairing,
)
from gspimage.torsion import subgroup_from_generators

from conftest import random_similitude, random_subgroup, tensor_generators
from oracles import elements
from test_symplectic import TENSOR3_FORM


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_mumford_stabilizer_exact():
    timings = {}
    results = {}
    for ell in (2, 3, 5, 7):
        t0 = time.monotonic()
        results[ell] = mf.pointwise_stabilizer_in_image(ell)
        timings[ell] = time.monotonic() - t0
    assert timings[3] <= 10.0
    assert timings[7] <= 300.0
    for ell in (3, 5, 7):
        ring = ResidueRing(ell, 1)
        expected = {
            MatrixMod.identity(ring, 8),
            MatrixMod.diagonal(ring, [1, -1, -1, 1, -1, 1, 1, -1]),
        }
        assert set(results[ell]) == expected, f"stabilizer mismatch at ell={ell}"
    ring2 = ResidueRing(2, 1)
    assert results[2] == [MatrixMod.identity(ring2, 8)]
    _report(1, f"stabilizers exact for l=2,3,5,7 (l=3 {timings[3]:.2f}s, l=7 {timings[7]:.2f}s)")


def test_criterion_2_mu_s_failure_curve(capsys):
    reports = mf.verify_mu_s_failure([3, 5, 7])
    for rep in reports:
        assert rep.m1 == 0
        assert rep.deg_cyclo_intersection == (rep.ell - 1) // 2
    ratios = [rep.ratio for rep in reports]
    assert ratios == [Fraction(1), Fraction(2), Fraction(3)]
    code = cli.main(["sweep", "mumford", "--ell", "3,5,7", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["monotone"] is True
    assert [r["ratio"] for r in doc["reports"]] == ["1", "2", "3"]
    with capsys.disabled():
        _report(2, "m1=0, intersection (l-1)/2, ratio sequence 1,2,3 strictly increasing")


def test_criterion_3_form_fixture():
    for ell in (3, 5, 7):
        ring = ResidueRing(ell, 1)
        S = tensor_form(3, ring)
        assert S.form == MatrixMod(ring, TENSOR3_FORM)
        H = mf.lagrangian_H(ell)
        pairs = 0
        for i, P in enumerate(H.basis):
            for Q in H.basis[i + 1 :]:
                assert weil_pairing(P, Q, S, 1) == 0
                pairs += 1
        assert pairs == 6
    _report(3, "tensor form matches the 8x8 fixture; all six basis pairings vanish")


def test_criterion_4_image_order_oracle():
    # the general engine on the nine generators rho(g, I, I), rho(I, g, I),
    # rho(I, I, g): the orbit of H gives [G:T], the stabilizer of H in the
    # closure gives T
    t0 = time.monotonic()
    assert mf.image_order(3) == 27648
    for ell in (2, 3):
        S, H = mf.tensor_space(ell), mf.lagrangian_H(ell)
        gens = tensor_generators(ell)
        index = gm.orbit_degree_report(S, gens, H).deg_KH
        T = gm.stabilizer(gm.close(S, gens), H)
        assert index * T.order == mf.image_order(ell)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(4, f"image order [G:T] |T| = 216, 27648 from the orbit engine for l=2,3 ({elapsed:.2f}s)")


def test_criterion_5_cm_and_selfproduct():
    for ell, ratio in [(5, 4), (13, 12)]:
        G, H = gm.scenario_cm(2, ell, 1)
        assert gm.stabilizer(G, H).order == 1
        assert m1(H, G.space) == 0
        rep = gm.build_degree_report(G, H)
        assert rep.deg_cyclo_intersection == ell - 1
        assert rep.ratio == Fraction(ratio)
    for ell in (3, 5):
        G, H = gm.scenario_selfproduct(ell, 1)
        assert m1(H, G.space) == 0
        assert gm.build_degree_report(G, H).deg_cyclo_intersection == ell - 1
    _report(5, "cm ratios 4 and 12; self-product intersection degree l-1 at l=3,5")


def test_criterion_6_m1_oracle_equivalence():
    rng = random.Random(20260810)
    combos = [(l, n, g) for l in (2, 3, 5) for n in (1, 2, 3) for g in (1, 2)]
    checked = 0
    while checked < 200:
        ell, n, g = combos[checked % len(combos)]
        ring = ResidueRing(ell, n)
        H = random_subgroup(ring, 2 * g, rng, max_order=5000)
        S = standard_form(g, ring)
        assert m1(H, S) == m1_exhaustive(H, S), (ell, n, g, H.basis)
        checked += 1
    _report(6, "fast-path m1 equals exhaustive m1 on 200 random subgroups")


def test_criterion_7_pairing_laws():
    rng = random.Random(77)
    for _ in range(500):
        ell = rng.choice([2, 3, 5])
        N = rng.randrange(1, 4)
        g = rng.randrange(1, 4)
        ring = ResidueRing(ell, N)
        S = standard_form(g, ring)
        n = rng.randrange(1, N + 1)
        shift = ell ** (N - n)
        mod = ring.modulus
        dim = 2 * g
        P = tuple(rng.randrange(mod) * shift % mod for _ in range(dim))
        P2 = tuple(rng.randrange(mod) * shift % mod for _ in range(dim))
        Q = tuple(rng.randrange(mod) * shift % mod for _ in range(dim))
        mod_n = ell**n
        eP_Q = weil_pairing(P, Q, S, n)
        eP2_Q = weil_pairing(P2, Q, S, n)
        Psum = tuple((a + b) % mod for a, b in zip(P, P2))
        assert weil_pairing(Psum, Q, S, n) == (eP_Q + eP2_Q) % mod_n
        assert weil_pairing(P, P, S, n) == 0
        M = random_similitude(S, rng, transvections=3)
        lam = multiplier(M, S)
        assert (
            weil_pairing(M.apply(P), M.apply(Q), S, n)
            == lam * eP_Q % mod_n
        )
    _report(7, "bilinearity, alternation and equivariance exact on 500 random instances")


def _cyclic_subgroups(ring):
    """Every cyclic subgroup of (Z/l^m)^2, one canonical generator each."""
    ell, m = ring.ell, ring.level
    out = []
    for j in range(1, m + 1):
        shift = ell ** (m - j)
        for t in range(ell**j):
            out.append((shift % ring.modulus, shift * t % ring.modulus))
        for a in range(ell ** (j - 1)):
            out.append((shift * ell * a % ring.modulus, shift % ring.modulus))
    return out


def _power_of(x: int, ell: int) -> bool:
    while x % ell == 0:
        x //= ell
    return x == 1


def _full_degree_KH(full, H) -> int:
    """[K(H):K] in the full GL2 image: the stabilizer index, which must divide."""
    s = full.stabilizer_order(H)
    assert full.order % s == 0
    return full.order // s


def test_criterion_8_congruence_filtration_shadow():
    t0 = time.monotonic()
    # degree ratios for every cyclic H in the full GL2 model
    for ell in (3, 5):
        for m in (1, 2, 3):
            ring = ResidueRing(ell, m)
            G = gm.FullGL2Group(ring)
            gens = _cyclic_subgroups(ring)
            expected = sum(ell ** (j - 1) * (ell + 1) for j in range(1, m + 1))
            assert len(gens) == expected
            for v in gens:
                H = subgroup_from_generators([v], ring, ambient_dim=2)
                dh = _full_degree_KH(G, H)
                dl = _full_degree_KH(G, H.slice(1))
                assert dh % dl == 0
                assert _power_of(dh // dl, ell), (ell, m, v, dh, dl)
    # filtered-subgroup index ratios across levels 2 -> 1
    rng = random.Random(88)
    for ell in (3, 5):
        ring2 = ResidueRing(ell, 2)
        ring1 = ResidueRing(ell, 1)
        G2 = gm.gl2_group(ring2)
        G1 = gm.gl2_group(ring1)
        chains = []
        for _ in range(6):
            v = (rng.randrange(ring2.modulus), rng.randrange(ring2.modulus))
            if v == (0, 0):
                continue
            big = subgroup_from_generators([v], ring2)
            chains.append(([big], [1]))
            if big.exponent == 2:
                chains.append(([big, big.slice(1)], [1, 2]))
        for fixers2, cutoffs in chains:
            fixers1 = [
                subgroup_from_generators(
                    [tuple(x % ell for x in v) for v in Hf.basis], ring1, ambient_dim=2
                )
                for Hf in fixers2
            ]
            F2 = gm.filtered_subgroup(G2, fixers2, cutoffs)
            F1 = gm.filtered_subgroup(G1, fixers1, cutoffs)
            idx2 = G2.order // F2.order
            idx1 = G1.order // F1.order
            assert idx2 % idx1 == 0
            assert _power_of(idx2 // idx1, ell), (ell, cutoffs, idx2, idx1)
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    _report(8, f"degree and filtration index ratios are exact powers of l ({elapsed:.1f}s)")


def test_criterion_9_index_shadow_and_tower_identities():
    pool = [
        gm.gl2_group(ResidueRing(3, 1)),
        gm.gl2_group(ResidueRing(5, 1)),
        gm.gl2_group(ResidueRing(3, 2)),
        gm.scenario_cm(2, 5, 1)[0],
        gm.scenario_cm(2, 5, 2)[0],
        gm.scenario_cm(2, 13, 1)[0],
        gm.scenario_selfproduct(3, 1)[0],
        gm.scenario_selfproduct(5, 1)[0],
        gm.scenario_selfproduct(3, 2)[0],
    ]
    assert all(G.order <= 10**5 for G in pool)
    rng = random.Random(99)
    for trial in range(100):
        G = pool[trial % len(pool)]
        ring = G.ring
        H = random_subgroup(ring, G.dim, rng, max_order=3000)
        T = gm.stabilizer(G, H)
        deg = gm.build_degree_report(G, H).deg_KH
        assert deg * T.order == G.order
        bigger = subgroup_from_generators(
            list(H.basis) + [tuple(rng.randrange(ring.modulus) for _ in range(G.dim))],
            ring,
            ambient_dim=G.dim,
        )
        T2 = gm.stabilizer(G, bigger)
        assert set(map(tuple, elements(T2).tolist())) <= set(map(tuple, elements(T).tolist()))
        assert gm.build_degree_report(G, bigger).deg_KH % deg == 0
        if ring.level == 2:
            piC = G.reduce_level(1)
            piB = T.reduce_level(1)
            assert piC.order % piB.order == 0
            assert (G.order // T.order) % (piC.order // piB.order) == 0
    _report(9, "tower identities, monotonicity and reduction-index divisibility on 100 pairs")
