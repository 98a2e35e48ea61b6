import pytest
from tmeshdim import (IndexOutOfRange, active_mesh, all_levels,
                      check_assumptions, island_components)
from tmeshdim.meshfile import parse_mesh_file

from .helpers import fixture_path, grid, make
from .helpers.randmesh import (blob_region_mesh, island_region_mesh,
                               ring_region_mesh)
from .helpers.snf import relative_homology_ranks


def test_level_index_bounds():
    mesh, profile, _ = grid(2)
    with pytest.raises(IndexOutOfRange):
        active_mesh(mesh, profile, 0)
    with pytest.raises(IndexOutOfRange):
        active_mesh(mesh, profile, 2)


def test_active_regions_are_nested():
    mesh, profile, _ = parse_mesh_file(fixture_path("nested"))
    lvls = all_levels(mesh, profile)
    assert len(lvls) == profile.top + 1
    for a, b in zip(lvls, lvls[1:]):
        assert set(a.faces) <= set(b.faces)
        assert set(a.edges) <= set(b.edges)
    assert set(lvls[-1].faces) == set(mesh.faces)


def test_interior_is_relative_to_the_domain_boundary():
    mesh, profile, _ = island_region_mesh()
    lv = active_mesh(mesh, profile, 1)
    # the island's own boundary edges stay interior: only the domain
    # boundary is quotiented out
    assert len(lv.faces) == 1
    assert len(lv.interior_edges) == 4
    assert len(lv.interior_vertices) == 4
    assert lv.boundary_trace == ()


def test_island_counts_as_relative_component():
    mesh, profile, _ = island_region_mesh()
    lv = active_mesh(mesh, profile, 1)
    assert (lv.c, lv.h) == (1, 0)
    comps = island_components(lv)
    assert [(len(comp), isl) for comp, isl in comps] == [(1, True)]


def test_boundary_blob_has_no_relative_homology():
    mesh, profile, _ = blob_region_mesh()
    lv = active_mesh(mesh, profile, 1)
    assert (lv.c, lv.h) == (0, 0)
    comps = island_components(lv)
    assert [(len(comp), isl) for comp, isl in comps] == [(5, False)]


def test_annulus_island_has_a_relative_cycle():
    mesh, profile, _ = ring_region_mesh()
    lv = active_mesh(mesh, profile, 1)
    assert (lv.c, lv.h) == (1, 1)
    report = check_assumptions(all_levels(mesh, profile))
    assert not report.ok
    assert report.violations == (1,)


def test_top_level_is_the_whole_mesh():
    mesh, profile, _ = ring_region_mesh()
    lv = active_mesh(mesh, profile, profile.top + 1)
    assert set(lv.faces) == set(mesh.faces)
    assert (lv.c, lv.h) == (0, 0)


def test_relative_betti_matches_smith_normal_form():
    for builder in (island_region_mesh, blob_region_mesh, ring_region_mesh):
        mesh, profile, _ = builder()
        for lv in all_levels(mesh, profile):
            assert relative_homology_ranks(lv) == (lv.c, lv.h)


def test_two_islands():
    rects = [(i, j, i + 1, j + 1) for j in range(5) for i in range(5)]
    zero = {(1, 1), (3, 3)}
    deficits = [(0, 0) if (i, j) in zero else (1, 1)
                for j in range(5) for i in range(5)]
    mesh, profile, _ = make(rects, deficits=deficits, r=1)
    lv = active_mesh(mesh, profile, 1)
    assert (lv.c, lv.h) == (2, 0)
    assert relative_homology_ranks(lv) == (2, 0)
    assert sorted(len(comp) for comp, isl in island_components(lv)) == [1, 1]


def test_island_plus_blob_mixture():
    rects = [(i, j, i + 1, j + 1) for j in range(4) for i in range(4)]
    zero = {(1, 1), (0, 3), (1, 3)}
    deficits = [(0, 0) if (i, j) in zero else (1, 1)
                for j in range(4) for i in range(4)]
    mesh, profile, _ = make(rects, deficits=deficits, r=1)
    lv = active_mesh(mesh, profile, 1)
    # one island, one blob glued to the boundary
    assert (lv.c, lv.h) == (1, 0)
    flags = sorted(isl for _, isl in island_components(lv))
    assert flags == [False, True]


def test_fixture_island_level():
    mesh, profile, _ = parse_mesh_file(fixture_path("test2"))
    lv = active_mesh(mesh, profile, 1)
    assert len(lv.faces) == 10
    assert (lv.c, lv.h) == (1, 0)
    assert relative_homology_ranks(lv) == (1, 0)
