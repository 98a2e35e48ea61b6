import pytest
from tmeshdim import (IndexOutOfRange, TMesh, active_mesh, all_levels,
                      check_assumptions, island_components)
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file

from .helpers import fixture_path, fraction_compares, grid, make
from .helpers.randmesh import (blob_region_mesh, island_region_mesh,
                               ring_region_mesh)
from .helpers.snf import relative_homology_ranks
from .test_segment_golden import FIXTURES


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


def rect_order_islands(level):
    """island_components as a search over Rects: the least face left starts
    each component, and its faces are sorted as Rects."""
    mesh = level.mesh
    active, eset = set(level.faces), set(level.interior_edges)
    comps, left = [], set(active)
    while left:
        comp = {min(left)}
        stack = list(comp)
        while stack:
            for e in mesh.face_edges[stack.pop()]:
                for g in mesh.edge_faces[e] if e in eset else ():
                    if g in active and g not in comp:
                        comp.add(g)
                        stack.append(g)
        left -= comp
        verts = {p for f in comp for e in mesh.face_edges[f]
                 for p in e.endpoints()}
        comps.append((tuple(sorted(comp)),
                      not verts & mesh.boundary_vertices))
    return comps


def test_island_components_order_faces_by_their_positions(monkeypatch):
    # a 20 x 20 unit grid whose faces outside the central 10 x 10 block
    # carry the deficit (1, 1); ordering faces as Rects made 7,924 Fraction
    # comparisons over its two levels. By positions in mesh.faces only the
    # check that they come sorted compares Fractions, two per neighbouring
    # pair of the mesh's faces, and it runs once per mesh: a second call
    # compares none
    from .test_mesh import _grid_document

    mesh, profile, _ = parse_mesh_dict(_grid_document(20, 10))
    lvls = all_levels(mesh, profile)
    calls, got = fraction_compares(
        monkeypatch, lambda: [island_components(lv) for lv in lvls])
    assert len(mesh.faces) == 400
    assert 0 < calls <= 2 * len(mesh.faces)
    assert got == [rect_order_islands(lv) for lv in lvls]
    assert [[(len(comp), isl) for comp, isl in comps] for comps in got] \
        == [[(100, True)], [(400, False)]]
    calls, again = fraction_compares(
        monkeypatch, lambda: [island_components(lv) for lv in lvls])
    assert calls == 0
    assert again == got


def test_island_components_sort_the_faces_of_a_hand_built_mesh():
    # a TMesh built by hand with its faces in another order than
    # build_tmesh's gives the components of the sorted one
    runs = [parse_mesh_file(fixture_path(name)) for name in FIXTURES]
    runs += [island_region_mesh(), blob_region_mesh(), ring_region_mesh()]
    for mesh, profile, _ in runs:
        mixed = TMesh(mesh.faces[1::2] + mesh.faces[::2], mesh.edges,
                      mesh.vertices, mesh.edge_faces, mesh.face_edges,
                      mesh.vertex_edges)
        for lv, other in zip(all_levels(mesh, profile),
                             all_levels(mixed, profile)):
            want = rect_order_islands(lv)
            assert island_components(lv) == want
            assert island_components(other) == want
