from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gspimage.modring import MatrixMod, ResidueRing, unit_group_order
from gspimage.symplectic import NotSimilitude, m1, standard_form
from gspimage.torsion import (
    full_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)
from gspimage import galois_model as gm
from gspimage.cli import parse_scenario_text
from gspimage.galois_model import (
    CapExceeded,
    ChainNotIncreasing,
    DegreeReport,
    FullGL2Group,
    build_degree_report,
    close,
    filtered_subgroup,
    gl2_group,
    gl2_standard_generators,
    scenario_cm,
    scenario_selfproduct,
    stabilizer,
)

from conftest import random_similitude, random_subgroup


def test_close_identity_only():
    ring = ResidueRing(5, 1)
    S = standard_form(1, ring)
    G = close(S, [MatrixMod.identity(ring, 2)])
    assert G.order == 1


def test_constructor_roundtrip():
    from gspimage.galois_model import MatrixGroup

    ring = ResidueRing(5, 1)
    S = standard_form(1, ring)
    mats = [MatrixMod.identity(ring, 2), MatrixMod(ring, [[2, 0], [0, 3]])]
    G = MatrixGroup(S, (), [M.flat() for M in mats])
    assert G.order == 2
    assert list(G) == mats
    assert mats[1] in G


def test_close_rejects_non_similitude():
    ring = ResidueRing(5, 1)
    S = standard_form(2, ring)
    bad = MatrixMod(ring, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSimilitude):
        close(S, [bad])


def test_close_gl2_f3_has_order_48():
    ring = ResidueRing(3, 1)
    G = close(standard_form(1, ring), gl2_standard_generators(ring))
    assert G.order == 48
    assert G.order == gl2_group(ring).order


def test_close_cap_exceeded():
    ring = ResidueRing(3, 1)
    with pytest.raises(CapExceeded):
        close(standard_form(1, ring), gl2_standard_generators(ring), cap=10)


def test_cm_scenario_order_and_degrees():
    G, H = scenario_cm(2, 5, 1)
    assert G.order == 64  # (l-1)^(g+1) diagonal similitudes
    T = stabilizer(G, H)
    assert T.order == 1
    rep = build_degree_report(G, H)
    assert rep.deg_KH == 64
    assert m1(H, G.space) == 0
    assert len(G.multiplier_image()) == 4
    assert rep.deg_cyclo_intersection == 4
    assert rep.ratio == Fraction(4)


def test_cm_scenario_ell13():
    G, H = scenario_cm(2, 13, 1)
    assert stabilizer(G, H).order == 1
    assert build_degree_report(G, H).ratio == Fraction(12)


def test_cm_torus_equals_closure_of_generators():
    # BFS closure from three one-parameter generators rebuilds the torus
    ring = ResidueRing(5, 1)
    G, _ = scenario_cm(2, 5, 1)
    gens = [
        MatrixMod.diagonal(ring, [2, 1, 1, pow(2, -1, 5)]),
        MatrixMod.diagonal(ring, [1, 2, pow(2, -1, 5), 1]),
        MatrixMod.diagonal(ring, [1, 1, 2, 2]),
    ]
    C = close(G.space, gens)
    assert C.order == G.order == 64
    assert {M.flat() for M in C} == {M.flat() for M in G}


def test_cm_rejects_even_prime_and_cap():
    with pytest.raises(ValueError):
        scenario_cm(2, 2, 1)
    with pytest.raises(CapExceeded, match=r"^diagonal torus has 1728 elements, cap=100$"):
        scenario_cm(2, 13, 1, cap=100)


def test_cm_cap_refuses_a_huge_torus_at_once():
    # phi(3) = 2, so 2^(10^12 + 1) is never formed: the product stops at the
    # first power of 2 past the cap
    message = r"^diagonal torus has more than 16777216 elements, cap=10000000$"
    with pytest.raises(CapExceeded, match=message):
        scenario_cm(10**12, 3)


def test_selfproduct_scenario():
    G, H = scenario_selfproduct(3, 1)
    assert G.order == 48
    # fixing (1,0,0,1) forces g(1,0)=(1,0) and g(0,1)=(0,1), so g = I
    assert stabilizer(G, H).order == 1
    assert m1(H, G.space) == 0
    assert build_degree_report(G, H).deg_cyclo_intersection == 2


def test_stabilizer_of_trivial_subgroup_is_whole_group():
    G, _ = scenario_cm(2, 5, 1)
    T = stabilizer(G, trivial_subgroup(G.ring, 4))
    assert T.order == G.order


def test_stabilizer_matches_full_scan(rng):
    G, _ = scenario_cm(2, 5, 1)
    for _ in range(10):
        H = random_subgroup(G.ring, 4, rng, max_order=10_000)
        T = stabilizer(G, H)
        brute = [
            M for M in G if all(M.apply(v) == v for v in map(tuple, H.element_array().tolist()))
        ]
        assert list(T) == brute


def test_degree_gl2_f3_line_stabilizer():
    ring = ResidueRing(3, 1)
    G = gl2_group(ring)
    H = subgroup_from_generators([(1, 0)], ring)
    assert stabilizer(G, H).order == 6
    assert build_degree_report(G, H).deg_KH == 8


def test_degree_trivial_subgroup():
    G, _ = scenario_cm(2, 5, 1)
    assert build_degree_report(G, trivial_subgroup(G.ring, 4)).deg_KH == 1


def test_cyclo_degree_examples():
    ring5 = ResidueRing(5, 1)
    G = gl2_group(ring5)
    # m1 of the trivial subgroup is 0, so deg_cyclo_at_m1 is c_0
    assert build_degree_report(G, trivial_subgroup(ring5, 2)).deg_cyclo_at_m1 == 1
    assert len(G.multiplier_image()) == 4
    Gcm, _ = scenario_cm(2, 5, 1)
    assert len(Gcm.multiplier_image()) == 4


def test_cyclo_intersection_trivial_H():
    G, _ = scenario_cm(2, 5, 1)
    assert build_degree_report(G, trivial_subgroup(G.ring, 4)).deg_cyclo_intersection == 1


def test_mu_s_ratio_full_torsion_is_one():
    ring = ResidueRing(5, 1)
    G = gl2_group(ring)
    H = full_subgroup(ring, 2)
    assert build_degree_report(G, H).ratio == Fraction(1)


def test_mu_w_witness_examples():
    G, H = scenario_cm(2, 5, 2)
    assert build_degree_report(G, trivial_subgroup(G.ring, 4), mu_c=1).mu_w_witness_n == 0
    # H of order 25: the stabilizer is trivial, the intersection degree is 20
    rep = build_degree_report(G, H, mu_c=1)
    assert rep.deg_cyclo_intersection == 20
    assert rep.mu_w_witness_n == 2
    with pytest.raises(ValueError, match="C must be >= 1"):
        build_degree_report(G, H, mu_c=Fraction(1, 2))


def test_degree_report_checks_subgroup_divisibility():
    ring = ResidueRing(5, 1)
    assert gm.degree_report(ring, 0, 8, 2, [1, 2, 3, 4], [1, 4]).deg_KH == 4
    with pytest.raises(AssertionError, match="stabilizer order"):
        gm.degree_report(ring, 0, 8, 3, [1, 2, 3, 4], [1, 4])
    with pytest.raises(AssertionError, match="multiplier image"):
        gm.degree_report(ring, 0, 8, 2, [1, 4], [1, 2, 4])


# (ell, level, g) with GSp_2g(Z/l^level) generated by random similitudes
_WITNESS_CASES = [(ell, level, 1) for ell in (3, 5, 7) for level in (1, 2, 3)] + [(3, 1, 2)]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(_WITNESS_CASES),
    ngens=st.integers(1, 2),
    rng=st.randoms(use_true_random=False),
)
def test_mu_w_witness_exists_at_c_l_minus_1(case, ngens, rng):
    # lambda(G) is cyclic for odd l, so C = l - 1 always admits a witness
    ell, level, g = case
    space = standard_form(g, ResidueRing(ell, level))
    gens = [random_similitude(space, rng) for _ in range(ngens)]
    try:
        G = close(space, gens, cap=60_000)
    except CapExceeded:
        assume(False)
    H = random_subgroup(space.ring, space.dim, rng)
    assert build_degree_report(G, H, mu_c=ell - 1).mu_w_witness_n is not None


def test_filtered_subgroup_empty_chain_returns_group():
    G, _ = scenario_cm(2, 5, 1)
    assert filtered_subgroup(G, [], []) is G


def test_filtered_subgroup_gl2_mod9():
    ring = ResidueRing(3, 2)
    G = gl2_group(ring)
    assert G.order == 3888
    fix = subgroup_from_generators([(1, 0)], ring)
    F = filtered_subgroup(G, [fix], [1])
    assert F.order == 486
    assert G.order // F.order == 8
    # level-1 comparison: the index ratio across levels is a power of l
    ring1 = ResidueRing(3, 1)
    G1 = gl2_group(ring1)
    fix1 = subgroup_from_generators([(1, 0)], ring1)
    F1 = filtered_subgroup(G1, [fix1], [1])
    ratio = (G.order // F.order) / (G1.order // F1.order)
    assert ratio == 1  # l^0


def test_filtered_subgroup_two_step_chain():
    ring = ResidueRing(3, 2)
    G = gl2_group(ring)
    big = subgroup_from_generators([(1, 0)], ring)
    small = big.slice(1)  # <(3,0)>
    F = filtered_subgroup(G, [big, small], [1, 2])
    for M in F:
        assert all(x % 3 == y % 3 for x, y in zip(M.apply((1, 0)), (1, 0)))
        assert M.apply((3, 0)) == (3, 0)
    assert G.order % F.order == 0


def test_filtered_subgroup_chain_errors():
    ring = ResidueRing(3, 2)
    G = gl2_group(ring)
    big = subgroup_from_generators([(1, 0)], ring)
    small = big.slice(1)
    with pytest.raises(ChainNotIncreasing):
        filtered_subgroup(G, [big, small], [2, 1])  # cutoffs not increasing
    with pytest.raises(ChainNotIncreasing):
        filtered_subgroup(G, [small, big], [1, 2])  # fixers not decreasing


def test_filtered_subgroup_checks_each_fixers_space_before_the_chain():
    # a fixer over another ring or of another dimension is the same error
    # wherever it stands in the chain, and whatever the cutoffs
    r9, r27 = ResidueRing(3, 2), ResidueRing(3, 3)
    G = gl2_group(r9)
    e9 = subgroup_from_generators([(1, 0)], r9)
    e27 = subgroup_from_generators([(1, 0)], r27)
    wide = subgroup_from_generators([(1, 0, 0, 0)], r9)
    for fixers, cutoffs in [
        ([e9, e27], [1, 2]),
        ([e27, e9], [1, 2]),
        ([e9, wide], [1, 2]),
        ([e9, e27], [2, 1]),
    ]:
        with pytest.raises(ValueError) as info:
            filtered_subgroup(G, fixers, cutoffs)
        assert info.type is ValueError
        assert str(info.value) == "fixer does not live in the group's ambient space"


def test_full_gl2_matches_materialized(rng):
    for ell, lvl in [(3, 1), (3, 2), (5, 1)]:
        ring = ResidueRing(ell, lvl)
        full = FullGL2Group(ring)
        mat = gl2_group(ring)
        assert full.order == mat.order
        # det is onto the units: diag(u, 1) realizes every unit u
        assert len(mat.multiplier_image()) == unit_group_order(ell, lvl)
        for _ in range(10):
            k = rng.randrange(1, 3)
            gens = [
                tuple(rng.randrange(ring.modulus) for _ in range(2)) for _ in range(k)
            ]
            H = subgroup_from_generators(gens, ring, ambient_dim=2)
            assert full.stabilizer_order(H) == stabilizer(mat, H).order
            assert full.order // full.stabilizer_order(H) == build_degree_report(mat, H).deg_KH


def test_full_gl2_trivial_subgroup():
    ring = ResidueRing(5, 3)
    full = FullGL2Group(ring)
    assert full.stabilizer_order(trivial_subgroup(ring, 2)) == full.order
    assert full.order == 5**8 * 480


def test_full_gl2_matches_materialized_level_three(rng):
    # the largest materializable case backing the structured path
    ring = ResidueRing(3, 3)
    full = FullGL2Group(ring)
    mat = gl2_group(ring)
    assert full.order == mat.order == 314928
    for _ in range(6):
        k = rng.randrange(1, 3)
        gens = [tuple(rng.randrange(27) for _ in range(2)) for _ in range(k)]
        H = subgroup_from_generators(gens, ring, ambient_dim=2)
        assert full.stabilizer_order(H) == stabilizer(mat, H).order


def test_reduce_level_is_group_quotient():
    G, _ = scenario_cm(2, 5, 2)
    G1 = G.reduce_level(1)
    assert G1.ring.level == 1
    assert G1.order == 64
    flats = {M.flat() for M in G1}
    for M in G:
        assert M.reduce_level(1).flat() in flats


@pytest.mark.parametrize("level", [0, -1])
def test_reduce_level_rejects_levels_below_one_before_any_work(monkeypatch, level):
    G = gl2_group(ResidueRing(3, 2))

    def no_work(*args, **kwargs):
        raise AssertionError("reduce_level reduced the group before checking the level")

    monkeypatch.setattr(gm, "_batched", no_work)
    with pytest.raises(ValueError, match=f"got {level}"):
        G.reduce_level(level)


def test_index_divisibility_under_reduction(rng):
    # a quotient map sends a subgroup-of-bounded-index to one of dividing index
    ring = ResidueRing(3, 2)
    C = gl2_group(ring)
    for _ in range(10):
        H = random_subgroup(ring, 2, rng, max_order=100)
        B = stabilizer(C, H)
        piC = C.reduce_level(1)
        piB = B.reduce_level(1)
        index_top = C.order // B.order
        assert piC.order % piB.order == 0
        assert index_top % (piC.order // piB.order) == 0


def test_tower_and_monotonicity(rng):
    G, _ = scenario_cm(2, 5, 2)
    for _ in range(20):
        H = random_subgroup(G.ring, 4, rng, max_order=10_000)
        T = stabilizer(G, H)
        deg = build_degree_report(G, H).deg_KH
        assert deg * T.order == G.order
        bigger = subgroup_from_generators(
            list(H.basis) + [tuple(rng.randrange(G.ring.modulus) for _ in range(4))],
            G.ring,
            ambient_dim=4,
        )
        T2 = stabilizer(G, bigger)
        assert set(map(tuple, T2.array.tolist())) <= set(map(tuple, T.array.tolist()))
        assert build_degree_report(G, bigger).deg_KH % deg == 0


def test_multiplier_quotient_shadow(rng):
    # [lambda(U1) : lambda(Um)] divides the prime-to-l part of [U1 : Um]
    ring = ResidueRing(3, 2)
    G = gl2_group(ring)
    for _ in range(10):
        H = random_subgroup(ring, 2, rng, max_order=81)
        U1 = stabilizer(G, H.slice(1))
        Um = stabilizer(G, H)
        lam1 = len({x % 3 for x in U1.multipliers()})
        lamm = len({x % 3 for x in Um.multipliers()})
        assert lam1 % lamm == 0
        index = U1.order // Um.order
        prime_to_l = index
        while prime_to_l % 3 == 0:
            prime_to_l //= 3
        assert prime_to_l % (lam1 // lamm) == 0


def test_degree_report_json_shape():
    G, H = scenario_cm(2, 5, 1)
    rep = build_degree_report(G, H)
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
    ]
    assert d["ratio"] == "4"
    assert isinstance(rep, DegreeReport)


def test_parse_scenario_text():
    data = parse_scenario_text(
        """
        # a comment
        scenario = cm
        ell = 5
        level = 1
        g = 2
        """
    )
    assert data == {"scenario": "cm", "ell": 5, "level": 1, "g": 2}
    with pytest.raises(ValueError):
        parse_scenario_text("scenario = nope")
    with pytest.raises(ValueError):
        parse_scenario_text("ell = 5")
    with pytest.raises(ValueError, match="duplicate scenario key 'ell'"):
        parse_scenario_text("scenario = cm\nell = 5\nell = 7")
    custom = parse_scenario_text(
        'scenario = custom\nell = 3\ng = 1\ngenerators = [[[1,1],[0,1]]]\nH = [[1,0]]'
    )
    assert custom["generators"] == [[[1, 1], [0, 1]]]
    assert custom["H"] == [[1, 0]]


def test_unit_group_order():
    assert unit_group_order(5, 0) == 1
    assert unit_group_order(5, 1) == 4
    assert unit_group_order(5, 2) == 20


def test_membership_is_false_across_rings_and_dimensions():
    # as MatrixMod.__eq__: a matrix or group over another ring, or of
    # another size, is never a member, whatever its entries
    r5, r25 = ResidueRing(5, 1), ResidueRing(5, 2)
    G25, G5 = gl2_group(r25), gl2_group(r5)
    assert MatrixMod.identity(r25, 2) in G25
    assert MatrixMod.identity(r5, 2) in G5
    assert MatrixMod.identity(r5, 2) not in G25
    assert MatrixMod.identity(r25, 2) not in G5
    assert MatrixMod.identity(r5, 3) not in G5
    assert MatrixMod.diagonal(ResidueRing(257, 1), [256, 1]) not in G5  # past uint8
    sub5 = [MatrixMod.identity(r5, 2), MatrixMod.diagonal(r5, [4, 1])]
    assert all(M in G5 for M in sub5)
    assert not any(M in G25 for M in sub5)
    torus, _ = scenario_cm(2, 5, 1)
    assert all(M in torus for M in torus)
    assert not any(M in G5 for M in torus)
    assert not any(M in torus for M in G5)
