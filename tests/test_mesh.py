import random
from fractions import Fraction

import pytest
from tmeshdim import (ChainConflictError, DanglingOverrideError,
                      DisconnectedError, InvalidSequenceError, MalformedError,
                      MeshError, MissingZeroError, NotSimplyConnectedError,
                      OverlapError, UnorderedDeficitsError, build_profile,
                      build_smoothness, build_tmesh)
from tmeshdim.mesh import Rect
from tmeshdim.meshfile import parse_mesh_file

from .helpers import fixture_path, grid, make


def test_single_face_counts():
    mesh, profile, smoothness = make([(0, 0, 1, 1)])
    assert len(mesh.faces) == 1
    assert len(mesh.edges) == 4
    assert len(mesh.vertices) == 4
    assert mesh.interior_edges == ()
    assert mesh.interior_vertices == ()
    assert profile.levels == ((0, 0),)
    assert smoothness.edge_r == {}


def test_input_order_independence():
    rects = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 2, 2), (0, 2, 2, 3)]
    a = build_tmesh(rects)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = rects[:]
        rng.shuffle(shuffled)
        b = build_tmesh(shuffled)
        assert a.faces == b.faces
        assert a.edges == b.edges
        assert a.vertices == b.vertices


def test_t_junction_star_and_edge_subdivision():
    # tall cell on the left, two stacked cells on the right
    mesh, _, _ = make([(0, 0, 1, 2), (1, 0, 2, 1), (1, 1, 2, 2)])
    v = (Fraction(1), Fraction(1))
    assert mesh.vertex_class(v) == "t-junction"
    assert len(mesh.vertex_edges[v]) == 3
    # the tall face's right side is split at the junction
    tall = Rect(Fraction(0), Fraction(0), Fraction(1), Fraction(2))
    right = [e for e in mesh.face_edges[tall]
             if e.axis == "v" and e.line == 1]
    assert len(right) == 2


def test_crossing_vertex_class():
    mesh, _, _ = make([(i, j, i + 1, j + 1) for i in range(2)
                       for j in range(2)])
    assert mesh.vertex_class((Fraction(1), Fraction(1))) == "crossing"


def test_overlap_rejected():
    with pytest.raises(OverlapError, match=r"faces\[1\] and faces\[2\]"):
        build_tmesh([(3, 0, 4, 1), (0, 0, 2, 2), (1, 1, 3, 3)])


def _first_overlap_brute(rects):
    for i, a in enumerate(rects):
        for j in range(i + 1, len(rects)):
            b = rects[j]
            if (max(a.x0, b.x0) < min(a.x1, b.x1)
                    and max(a.y0, b.y0) < min(a.y1, b.y1)):
                return i, j
    return None


def test_overlap_report_matches_the_pair_scan():
    # grids of unit cells with a few random rectangles injected at random
    # positions; cells that only touch along a side or a corner must not
    # count as overlapping
    rng = random.Random(11)
    hits = 0
    for _ in range(200):
        k = rng.randint(1, 5)
        rects = [Rect(*(Fraction(c) for c in (i, j, i + 1, j + 1)))
                 for j in range(k) for i in range(k)]
        for _ in range(rng.randint(0, 3)):
            x0 = Fraction(rng.randint(0, 2 * k), 2)
            y0 = Fraction(rng.randint(0, 2 * k), 2)
            x1 = x0 + Fraction(rng.randint(1, 4), 2)
            y1 = y0 + Fraction(rng.randint(1, 4), 2)
            rects.insert(rng.randint(0, len(rects)), Rect(x0, y0, x1, y1))
        rng.shuffle(rects)
        want = _first_overlap_brute(rects)
        try:
            build_tmesh(rects)
        except OverlapError as exc:
            assert want is not None
            i, j = want
            assert str(exc) == (f"faces[{i}] and faces[{j}] overlap: "
                                f"{rects[i]} and {rects[j]}")
            hits += 1
        except MeshError:
            assert want is None
        else:
            assert want is None
    assert hits > 100


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        build_tmesh([(0, 0, 1, 1), (2, 0, 3, 1)])


def test_corner_touch_is_disconnected():
    # sharing one vertex is not a shared edge
    with pytest.raises(DisconnectedError):
        build_tmesh([(0, 0, 1, 1), (1, 1, 2, 2)])


def test_hole_rejected():
    ring = [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1),
            (0, 1, 1, 2), (2, 1, 3, 2),
            (0, 2, 1, 3), (1, 2, 2, 3), (2, 2, 3, 3)]
    with pytest.raises(NotSimplyConnectedError):
        build_tmesh(ring)


def test_degenerate_rectangle_rejected():
    with pytest.raises(MalformedError):
        build_tmesh([(0, 0, 0, 1)])


def test_profile_requires_a_zero_face():
    mesh = build_tmesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    with pytest.raises(MissingZeroError):
        build_profile(mesh, {f: (1, 1) for f in mesh.faces})


def test_profile_rejects_incomparable_deficits():
    mesh = build_tmesh([(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)])
    f0, f1, f2 = mesh.faces
    with pytest.raises(UnorderedDeficitsError):
        build_profile(mesh, {f1: (1, 0), f2: (0, 1)})


def test_diagonal_first_level_chain():
    mesh = build_tmesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    profile = build_profile(mesh, {mesh.faces[1]: (2, 1)})
    assert profile.levels == ((0, 0), (1, 1), (2, 1))
    assert profile.steps == ((1, 1), (1, 0))


def test_explicit_level_sequence_validation():
    mesh = build_tmesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    deficits = {mesh.faces[1]: (1, 1)}
    ok = build_profile(mesh, deficits, explicit_levels=[(0, 0), (0, 1), (1, 1)])
    assert ok.levels == ((0, 0), (0, 1), (1, 1))
    for bad in ([(1, 1)],                       # must start at zero
                [(0, 0), (2, 1)],               # illegal step
                [(0, 0), (1, 0)],               # omits the assigned deficit
                [(0, 0), (1, 1), (2, 1)]):      # overshoots the maximum
        with pytest.raises(InvalidSequenceError):
            build_profile(mesh, deficits, explicit_levels=bad)


def test_induced_edge_and_vertex_deficits_are_minima():
    mesh, profile, _ = make([(0, 0, 1, 1), (1, 0, 2, 1)],
                            deficits=[(0, 0), (1, 1)])
    shared = next(e for e in mesh.interior_edges)
    assert profile.edge_deficit[shared] == (0, 0)
    for v in shared.endpoints():
        assert profile.vertex_deficit[v] == (0, 0)


def test_smoothness_default_and_override():
    mesh, _, smoothness = make([(0, 0, 1, 2), (1, 0, 2, 2)], r=1,
                               overrides=[("v", 1, (0, 2), 2)])
    assert set(smoothness.edge_r.values()) == {2}
    mesh2, _, plain = make([(0, 0, 1, 2), (1, 0, 2, 2)], r=1)
    assert set(plain.edge_r.values()) == {1}


def test_override_must_match_an_edge():
    with pytest.raises(DanglingOverrideError):
        make([(0, 0, 1, 2), (1, 0, 2, 2)], overrides=[("h", 1, (0, 2), 2)])


def test_collinear_touching_edges_must_agree():
    # vertical line at x=1 subdivided at y=1; override only the lower part
    rects = [(0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 2, 1), (1, 1, 2, 2)]
    with pytest.raises(ChainConflictError):
        make(rects, r=1, overrides=[("v", 1, (0, 1), 2)])


def test_vertex_pair_crossed_orders():
    mesh, _, smoothness = make(
        [(i, j, i + 1, j + 1) for i in range(2) for j in range(2)], r=1,
        overrides=[("v", 1, (0, 2), 2)])
    # r_h comes from the vertical line, r_v from the horizontal one
    assert smoothness.vertex_pair[(Fraction(1), Fraction(1))] == (2, 1)


def test_rational_coordinates_stay_exact():
    mesh, _, _ = make([(0, 0, Fraction(1, 3), 1), (Fraction(1, 3), 0, 1, 1)])
    xs = sorted({v[0] for v in mesh.vertices})
    assert xs == [0, Fraction(1, 3), 1]


def test_faces_list_the_mesh_edge_objects():
    # an edge shared by two faces is one object, the one in mesh.edges
    meshes = [parse_mesh_file(fixture_path(name))[0]
              for name in ("test1", "test2", "test3", "new_relations_a",
                           "new_relations_b", "counterexample", "nested")]
    meshes.append(grid(20)[0])
    for mesh in meshes:
        ids = {id(e) for e in mesh.edges}
        assert all(id(e) in ids
                   for es in mesh.face_edges.values() for e in es)
