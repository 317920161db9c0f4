"""The orbit/Schreier degree report against the materialized one.

``build_degree_report(close(...), H)`` closes G and scans it for the
stabilizer; it is the oracle for ``orbit_degree_report``, which never closes
G.  ``ResidueRing.unit_subgroup_orders`` is checked against a closure inside
the unit group.
"""

import functools
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import (
    CapExceeded,
    build_degree_report,
    close,
    orbit_degree_report,
)
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import standard_form
from gspimage.torsion import full_subgroup, subgroup_from_generators, trivial_subgroup

from conftest import chunked_adds, random_similitude, random_subgroup, seen_set_strategies
from oracles import elements
from test_closure import CASES, reference_close


def _unit_closure_order(gens, modulus) -> int:
    seen, frontier = {1 % modulus}, [1 % modulus]
    while frontier:
        new = {x * s % modulus for x in frontier for s in gens} - seen
        seen |= new
        frontier = list(new)
    return len(seen)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), ell=st.sampled_from([2, 3, 5]), level=st.integers(1, 6))
def test_unit_subgroup_orders_match_closure(data, ell, level):
    ring = ResidueRing(ell, level)
    unit = st.integers(0, ring.modulus - 1).filter(ring.is_unit)
    gens = data.draw(st.lists(unit | st.sampled_from([1, ring.modulus - 1]), max_size=4))
    assert ring.unit_subgroup_orders(gens) == [
        _unit_closure_order(gens, ell**n) for n in range(level + 1)
    ]


def test_unit_subgroup_orders_rejects_non_units():
    with pytest.raises(ValueError):
        ResidueRing(3, 2).unit_subgroup_orders([1, 3])


def _assert_paths_agree(space, gens, H, G):
    expected = {mu_c: build_degree_report(G, H, mu_c) for mu_c in {1, space.ring.ell - 1}}
    with pytest.MonkeyPatch.context() as mp:  # hypothesis tests take no monkeypatch fixture
        for _ in seen_set_strategies(mp, budget=None):
            for mu_c, rep in expected.items():
                assert orbit_degree_report(space, gens, H, mu_c=mu_c) == rep


# (ell, level, g) with GSp_2g(Z/l^level) generated by random similitudes
_ORACLE_CASES = [(ell, level, 1) for ell in (3, 5, 7) for level in (1, 2, 3)] + [(3, 1, 2)]


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(_ORACLE_CASES),
    ngens=st.integers(1, 3),
    kind=st.sampled_from(["random", "trivial", "full"]),
    rng=st.randoms(use_true_random=False),
)
def test_orbit_report_matches_materialized(case, ngens, kind, rng):
    ell, level, g = case
    space = standard_form(g, ResidueRing(ell, level))
    gens = [random_similitude(space, rng) for _ in range(ngens)]
    H = {
        "random": lambda: random_subgroup(space.ring, space.dim, rng),
        "trivial": lambda: trivial_subgroup(space.ring, space.dim),
        "full": lambda: full_subgroup(space.ring, space.dim),
    }[kind]()
    try:
        G = close(space, gens, cap=60_000)
    except CapExceeded:
        assume(False)
    _assert_paths_agree(space, gens, H, G)


def _gl2_two_adic(level):
    ring = ResidueRing(2, level)
    m = ring.modulus
    mats = {
        "u": [[1, 1], [0, 1]],
        "l": [[1, 0], [1, 1]],
        "d3": [[3 % m, 0], [0, 1]],
        "d5": [[5 % m, 0], [0, 1]],
        "neg": [[m - 1, 0], [0, 1]],
        "u2": [[1, 2 % m], [0, 1]],
    }
    return standard_form(1, ring), {k: MatrixMod(ring, v) for k, v in mats.items()}


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "names",
    [
        ("u", "l"),
        ("u", "l", "d3"),
        ("u", "l", "d5"),
        ("u2", "l", "neg"),
        ("d3", "d5", "neg"),
        ("u", "d5"),
    ],
)
@pytest.mark.parametrize("rows", [[(1, 0)], [(0, 1)], [(1, 1)], [(2, 0)], [(1, 0), (0, 1)], []])
def test_orbit_report_two_adic(level, names, rows):
    space, mats = _gl2_two_adic(level)
    H = subgroup_from_generators(rows, space.ring, ambient_dim=2)
    gens = [mats[n] for n in names]
    _assert_paths_agree(space, gens, H, close(space, gens))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_orbit_report_matches_materialized_on_closure_cases(case, chunk, rng, monkeypatch):
    S, gens = CASES[case][0]()
    G = close(S, gens)
    if chunk is not None:  # frontiers then span several adds
        monkeypatch.setattr(gm, "_BATCH", chunk)
    levels = chunked_adds(monkeypatch)
    # three random subgroups, whose orbits may all be thin, and <e1>
    e1 = subgroup_from_generators([(1,) + (0,) * (S.dim - 1)], S.ring)
    for H in [random_subgroup(S.ring, S.dim, rng) for _ in range(3)] + [e1]:
        expected = build_degree_report(G, H)
        for _ in seen_set_strategies(monkeypatch):
            assert orbit_degree_report(S, gens, H) == expected
    assert all(adds == -(-width // gm._BATCH) for width, adds in levels)
    assert (max(adds for _, adds in levels) > 1) == (chunk is not None)


@functools.lru_cache(maxsize=None)
def _reference_elements(case) -> list:
    S, gens = CASES[case][0]()
    return reference_close(S, gens)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    batch=st.sampled_from([1, 2, 7, gm._BATCH]),
    kind=st.sampled_from(["random", "e1"]),
    rng=st.randoms(use_true_random=False),
)
def test_close_and_orbit_report_match_their_oracles_at_every_batch(case, batch, kind, rng):
    # the table's adds take at most _BATCH frontier points, so at 1, 2 and 7
    # a level spans several adds; the element order and the degree report
    # stay those of the one-product-at-a-time search and of the closure,
    # under both seen sets
    S, gens = CASES[case][0]()
    rows = [(1,) + (0,) * (S.dim - 1)] if kind == "e1" else None
    H = subgroup_from_generators(rows, S.ring) if rows else random_subgroup(S.ring, S.dim, rng)
    with pytest.MonkeyPatch.context() as mp:  # hypothesis tests take no monkeypatch fixture
        mp.setattr(gm, "_BATCH", batch)
        levels = chunked_adds(mp)
        for _ in seen_set_strategies(mp):
            G = close(S, gens)
            assert [tuple(row) for row in elements(G).tolist()] == _reference_elements(case)
            assert orbit_degree_report(S, gens, H) == build_degree_report(G, H)
    assert all(adds == -(-width // batch) for width, adds in levels)


def test_orbit_length_is_index_past_the_closure_cap():
    # GL2(Z/125) has 1.875 * 10^8 elements; the orbit of e1 is the 15000
    # vectors of order 125
    ring = ResidueRing(5, 3)
    S = standard_form(1, ring)
    gens = gm.gl2_standard_generators(ring)
    H = subgroup_from_generators([(1, 0)], ring)
    with pytest.raises(CapExceeded, match="closure exceeds"):
        close(S, gens, cap=10**5)
    rep = orbit_degree_report(S, gens, H, cap=15_000)
    full = gm.FullGL2Group(ring)
    assert rep.deg_KH == 15_000 == full.order // full.stabilizer_order(H)
    with pytest.raises(CapExceeded) as info:
        orbit_degree_report(S, gens, H, cap=14_999)
    found = re.fullmatch(
        r"orbit exceeds cap=14999: (\d+) points through BFS depth (\d+)", str(info.value)
    )
    assert found and int(found[1]) <= 14_999


def test_orbit_report_rejects_mismatched_subgroup():
    S, gens = CASES["gsp4_f3"][0]()
    with pytest.raises(ValueError):
        orbit_degree_report(S, gens, trivial_subgroup(ResidueRing(3, 1), 2))


def _primitive_root(ring):
    powers = range(ring.unit_count)
    return next(
        u for u in ring.units() if len({pow(u, k, ring.modulus) for k in powers}) == len(powers)
    )


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from([5, 7, 11, 13]),
    level=st.integers(1, 2),
    i=st.integers(0, 12),
    j=st.integers(0, 12),
    rows=st.sampled_from([[(1, 0)], [(0, 1)], [(1, 1)]]),
)
def test_split_torus_mu_w(ell, level, i, j, rows):
    # G = <diag(r^i, 1), diag(1, r^j)>; with H = <e1>, lambda(T) = <r^j> can
    # be a proper nontrivial subgroup of lambda(G) = <r^gcd(i, j)>
    ring = ResidueRing(ell, level)
    space = standard_form(1, ring)
    r = _primitive_root(ring)
    a, b = pow(r, i, ring.modulus), pow(r, j, ring.modulus)
    gens = [MatrixMod.diagonal(ring, [a, 1]), MatrixMod.diagonal(ring, [1, b])]
    H = subgroup_from_generators(rows, ring)
    G = close(space, gens)
    _assert_paths_agree(space, gens, H, G)
    rep = build_degree_report(G, H, mu_c=1)
    # C = l - 1 always has a witness (the degree_report docstring)
    assert build_degree_report(G, H, mu_c=ell - 1).mu_w_witness_n is not None
    image = G.multiplier_image().tolist()
    cyclo = [len({x % ell**n for x in image}) for n in range(level + 1)]
    if rep.deg_cyclo_intersection not in cyclo:
        assert rep.mu_w_witness_n is None
    else:
        assert rep.mu_w_witness_n == cyclo.index(rep.deg_cyclo_intersection)


@pytest.mark.parametrize("ell, level", [(7, 1), (7, 2), (13, 1)])
def test_split_torus_where_C_one_fails(ell, level):
    # G = <diag(r, 1), diag(1, r^2)>, H = <e1>: lambda(T) = <r^2> has index 2
    # in lambda(G), and 2 is none of the cyclotomic degrees
    ring = ResidueRing(ell, level)
    r = _primitive_root(ring)
    gens = [MatrixMod.diagonal(ring, [r, 1]), MatrixMod.diagonal(ring, [1, r * r])]
    H = subgroup_from_generators([(1, 0)], ring)
    space = standard_form(1, ring)
    _assert_paths_agree(space, gens, H, close(space, gens))
    rep = orbit_degree_report(space, gens, H, mu_c=1)
    # lambda(G) is all units, so the cyclotomic degrees are 1, l - 1, (l - 1) l, ...
    assert rep.deg_KH == ring.unit_count
    assert rep.deg_cyclo_intersection == 2
    assert rep.mu_w_witness_n is None
    assert orbit_degree_report(space, gens, H, mu_c=ell - 1).mu_w_witness_n == 0
