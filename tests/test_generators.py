"""The generators the builders record, and the degree report read from them.

Every builder records a generating set of the group it builds, so
``build_degree_report`` takes lambda(G) from the generators' multipliers.
The closure of the recorded generators must give back the built group, and
the report must equal the one fed the scanned multiplier images of G and T,
the path it replaced, kept here as the oracle.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from gspimage import galois_model as gm
from gspimage.galois_model import build_degree_report, close, degree_report, stabilizer
from gspimage.modring import ResidueRing
from gspimage.symplectic import m1, multiplier
from gspimage.torsion import trivial_subgroup

from conftest import random_subgroup
from oracles import elements

CM_CASES = [(g, ell, level) for g in (1, 2) for ell in (3, 5, 7) for level in (1, 2)]
GL2_CASES = [(3, 1), (3, 2), (5, 1)]


def _assert_generates(G):
    assert G.generators
    C = close(G.space, G.generators, cap=G.order)
    assert C.order == G.order
    assert set(map(tuple, elements(C).tolist())) == set(map(tuple, elements(G).tolist()))


@pytest.mark.parametrize("g, ell, level", CM_CASES)
def test_cm_generators_generate_the_torus(g, ell, level):
    G, _ = gm.scenario_cm(g, ell, level)
    assert len(G.generators) == g + 1
    _assert_generates(G)


@pytest.mark.parametrize("ell, level", GL2_CASES)
def test_selfproduct_generators_generate_the_group(ell, level):
    G, _ = gm.scenario_selfproduct(ell, level)
    _assert_generates(G)


@pytest.mark.parametrize("ell, level", GL2_CASES)
def test_gl2_generators_generate_the_group(ell, level):
    _assert_generates(gm.gl2_group(ResidueRing(ell, level)))


def test_reduce_level_keeps_generators():
    _assert_generates(gm.scenario_cm(2, 5, 2)[0].reduce_level(1))
    _assert_generates(gm.gl2_group(ResidueRing(3, 2)).reduce_level(1))


@functools.cache
def _group(kind, *args):
    if kind == "cm":
        return gm.scenario_cm(*args)[0]
    if kind == "selfproduct":
        return gm.scenario_selfproduct(*args)[0]
    if kind == "gl2":
        return gm.gl2_group(ResidueRing(*args))
    return gm.scenario_cm(2, 5, 2)[0].reduce_level(1)  # "reduced"


_GROUPS = (
    [("cm", *case) for case in CM_CASES]
    + [("selfproduct", ell, level) for ell, level in GL2_CASES]
    + [("gl2", ell, level) for ell, level in GL2_CASES]
    + [("reduced",)]
)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(_GROUPS),
    trivial=st.booleans(),
    mu_c=st.sampled_from([1, 2]),
    rng=st.randoms(use_true_random=False),
)
def test_report_from_generators_matches_scanned_images(case, trivial, mu_c, rng):
    G = _group(*case)
    if trivial:
        H = trivial_subgroup(G.ring, G.dim)
    else:
        H = random_subgroup(G.ring, G.dim, rng)
    T = stabilizer(G, H)
    scanned = degree_report(
        G.ring,
        m1(H, G.space),
        G.order,
        T.order,
        G.multiplier_image().tolist(),
        T.multiplier_image().tolist(),
        mu_c,
    )
    assert build_degree_report(G, H, mu_c) == scanned


def test_report_scans_only_groups_without_generators(monkeypatch):
    G, H = gm.scenario_cm(2, 5, 1)
    scanned = []
    image = gm.MatrixGroup.multiplier_image

    def record(self):
        scanned.append(self)
        return image(self)

    monkeypatch.setattr(gm.MatrixGroup, "multiplier_image", record)
    build_degree_report(G, H)
    assert len(scanned) == 1 and scanned[0] is not G and not scanned[0].generators
    scanned.clear()
    build_degree_report(G, trivial_subgroup(G.ring, G.dim))  # T is G
    assert scanned == []
    F = gm.filtered_subgroup(G, [H], [1])
    build_degree_report(F, trivial_subgroup(G.ring, G.dim))  # T is F, without generators
    assert scanned == [F, F]


def test_each_generator_multiplier_is_computed_once(monkeypatch):
    # the constructor checks each generator and keeps its multiplier; the
    # report reads lambda(G) from those, and close passes its own check's
    calls = []

    def spy(M, S):
        calls.append(M)
        return multiplier(M, S)

    monkeypatch.setattr(gm, "multiplier", spy)
    G, H = gm.scenario_cm(2, 5, 1)
    build_degree_report(G, H)
    assert calls == list(G.generators)
    calls.clear()
    C = close(G.space, G.generators)
    assert calls == list(G.generators) and C.units == G.units
    # reduction keeps the units mod l^level, as a fresh check would give them
    G2, _ = gm.scenario_cm(2, 5, 2)
    calls.clear()
    R = G2.reduce_level(1)
    assert calls == []
    assert R.units == tuple(multiplier(g, R.space) for g in R.generators)
