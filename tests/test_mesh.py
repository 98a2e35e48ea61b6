import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
import tmeshdim
from tmeshdim import (ChainConflictError, DanglingOverrideError,
                      DisconnectedError, InvalidSequenceError, LeveledProfile,
                      MalformedError, MeshError, MissingZeroError,
                      NotSimplyConnectedError, OverlapError,
                      SmoothnessProfile, UnorderedDeficitsError, bounds,
                      build_profile, build_smoothness, build_tmesh)
import tmeshdim.mesh
from tmeshdim.cli import main
from tmeshdim.mesh import MAX_LEVELS, Edge, Rect, Vertex
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file

from .helpers import FIXTURES, fixture_path, grid, make
from .helpers.randmesh import random_split_mesh
from .helpers.refmesh import reference_build_tmesh


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
    assert {e.axis for e in mesh.vertex_edges[v]} == {"h", "v"}
    assert len(mesh.vertex_edges[v]) == 3
    # the tall face's right side is split at the junction
    tall = Rect(Fraction(0), Fraction(0), Fraction(1), Fraction(2))
    right = [e for e in mesh.face_edges[tall]
             if e.axis == "v" and e.line == 1]
    assert len(right) == 2


def test_crossing_vertex_class():
    mesh, _, _ = make([(i, j, i + 1, j + 1) for i in range(2)
                       for j in range(2)])
    star = mesh.vertex_edges[(Fraction(1), Fraction(1))]
    assert len(star) == 4 and {e.axis for e in star} == {"h", "v"}


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
    # the count is of the faces outside the least face's component, also
    # when that component is the smaller part, in either input order
    three = [(0, 0, 1, 1), (2, 0, 3, 1), (2, 1, 3, 2)]
    for rects, n in (([(0, 0, 1, 1), (2, 0, 3, 1)], 1), (three, 2),
                     (three[::-1], 2)):
        with pytest.raises(DisconnectedError, match=f"^{n} faces "
                           "unreachable through shared edges$"):
            build_tmesh(rects)


def test_corner_touch_is_disconnected():
    # sharing one vertex is not a shared edge
    with pytest.raises(DisconnectedError,
                       match="^1 faces unreachable through shared edges$"):
        build_tmesh([(0, 0, 1, 1), (1, 1, 2, 2)])


@pytest.mark.parametrize("adj, want", [
    ([], []),
    ([[]], [[0]]),
    ([[], [], []], [[0], [1], [2]]),
    ([[2], [], [0]], [[0, 2], [1]]),
    ([[3], [2], [1, 4], [0], [2]], [[0, 3], [1, 2, 4]]),
    ([[1, 1], [0, 3, 1], [], [1]], [[0, 1, 3], [2]]),
    ([[4], [3], [], [1, 4], [0, 3]], [[0, 1, 3, 4], [2]]),
])
def test_components_in_order_of_their_least_nodes(adj, want):
    assert tmeshdim.mesh.components(adj) == want


def test_hole_rejected():
    ring = [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1),
            (0, 1, 1, 2), (2, 1, 3, 2),
            (0, 2, 1, 3), (1, 2, 2, 3), (2, 2, 3, 3)]
    with pytest.raises(NotSimplyConnectedError):
        build_tmesh(ring)


def test_degenerate_rectangle_rejected():
    with pytest.raises(MalformedError):
        build_tmesh([(0, 0, 0, 1)])


def injected_grids(seed, draws):
    """Grids of up to 4 x 4 unit cells, a few of them dropped, with up to
    three half-unit-aligned rectangles injected at random places."""
    rng = random.Random(seed)
    for _ in range(draws):
        k = rng.randint(1, 4)
        rects = [(i, j, i + 1, j + 1) for i in range(k) for j in range(k)]
        for _ in range(rng.randint(0, k * k // 3)):
            rects.pop(rng.randrange(len(rects)))
        for _ in range(rng.randint(1, 3)):
            x0 = Fraction(rng.randint(0, 2 * k), 2)
            y0 = Fraction(rng.randint(0, 2 * k), 2)
            rects.insert(rng.randint(0, len(rects)),
                         (x0, y0, x0 + Fraction(rng.randint(1, 4), 2),
                          y0 + Fraction(rng.randint(1, 4), 2)))
        yield rects


def without_the_overlap_check(monkeypatch, inputs, message):
    """The inputs that build_tmesh rejects with a MalformedError naming
    message once its overlap check is taken out."""
    reached = []
    with monkeypatch.context() as patched:
        patched.setattr(tmeshdim.mesh, "_overlapping_pairs",
                        lambda boxes: iter(()))
        for rects in inputs:
            try:
                build_tmesh(rects)
            except MalformedError as exc:
                if message in str(exc):
                    reached.append(rects)
            except MeshError:
                pass
    return reached


def test_an_edge_of_three_faces_is_an_overlap(monkeypatch):
    # two faces on one side of an edge share the strip beside it, so the
    # overlap check rejects every input whose edge would bound more than
    # two faces before build_tmesh counts them; with the overlap check
    # taken out, the count is what rejects them
    stack = [(0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 1, 3)]
    with pytest.raises(OverlapError, match=r"faces\[1\] and faces\[2\]"):
        build_tmesh(stack)
    assert without_the_overlap_check(monkeypatch, [stack],
                                     "bounds 3 faces") == [stack]
    crowded = without_the_overlap_check(
        monkeypatch, list(injected_grids(8, 400)), "bounds")
    assert len(crowded) > 100
    for rects in crowded:
        with pytest.raises(OverlapError):
            build_tmesh(rects)


def test_an_irregular_interior_star_is_an_overlap(monkeypatch):
    # Once no faces overlap, the two faces of an edge lie one on each side
    # of it. A face corner has an edge along each axis, so every vertex has
    # both. Take a vertex p whose edges all bound two faces, with only two
    # edges, say rightward and upward. The face left of the upward edge
    # has it on its right side: if that side runs on below p, it gives p a
    # downward edge; if it ends at p, the face's bottom side gives p a
    # leftward one. So the overlap check leaves every such vertex 3 or 4
    # edges, and the star check in build_tmesh is a guard behind it. Here:
    # every set of up to three rectangles with corners in 0..3 and 400
    # injected grids
    cells = [(x0, y0, x1, y1) for x0, x1 in combinations(range(4), 2)
             for y0, y1 in combinations(range(4), 2)]
    inputs = [list(c) for n in (1, 2, 3) for c in combinations(cells, n)]
    inputs += injected_grids(9, 400)
    built = 0
    for rects in inputs:
        try:
            mesh = build_tmesh(rects)
        except MeshError as exc:
            assert "irregular star" not in str(exc), rects
            continue
        built += 1
        for v in mesh.interior_vertices:
            es = mesh.vertex_edges[v]
            assert len(es) in (3, 4) and {e.axis for e in es} == {"h", "v"}
    assert built > 1000
    # faces stacked on one side of both edges at (0, 0) count them as
    # interior; the overlap check rejects every input that gets there
    stacked = [(0, 0, 1, 1), (0, 0, 1, 2)]
    assert without_the_overlap_check(monkeypatch, [stacked],
                                     "irregular star of 2 edges") == [stacked]
    irregular = without_the_overlap_check(monkeypatch, inputs,
                                          "irregular star")
    assert len(irregular) > 100
    for rects in irregular:
        with pytest.raises(OverlapError):
            build_tmesh(rects)


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


def test_a_profile_past_max_levels_is_refused_before_its_chain(monkeypatch,
                                                               tmp_path):
    # the chain is built one unit step per level, so a deficit of [2^70, 1]
    # would never finish; the steps asked of the builder are counted, so a
    # regression fails here instead of running without end
    steps = []
    real = tmeshdim.mesh._diagonal_first_steps

    def counted(a, b):
        steps.append(max(b[0] - a[0], b[1] - a[1]))
        assert sum(steps) < MAX_LEVELS, (a, b)
        return real(a, b)

    monkeypatch.setattr(tmeshdim.mesh, "_diagonal_first_steps", counted)
    mesh = build_tmesh([(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)])
    _, f1, f2 = mesh.faces
    top = MAX_LEVELS - 1
    profile = build_profile(mesh, {f1: (top - 5, 2), f2: (top, 3)})
    assert len(profile.levels) == MAX_LEVELS
    for deficits, levels in (({f1: (top + 1, 0)}, None),
                             ({f1: (2 ** 70, 1)}, None),
                             ({f1: (1, 1), f2: (2, 2 ** 70)}, None),
                             ({f1: (1, 1)}, [(0, 0)] * (MAX_LEVELS + 1))):
        steps.clear()
        with pytest.raises(InvalidSequenceError, match="exceed the limit"):
            build_profile(mesh, deficits, explicit_levels=levels)
        assert not steps
    doc = {"faces": [{"rect": [0, 0, 1, 1]},
                     {"rect": [1, 0, 2, 1], "deficit": [2 ** 70, 1]}]}
    path = tmp_path / "huge_deficit.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path), "--degrees", "3,3"]) == 1
    assert not steps


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


# --- the rank-based builder against the Fraction-keyed reference ---------

FIXTURE_NAMES = ("test1", "test2", "test3", "new_relations_a",
                 "new_relations_b", "counterexample", "nested")


def fixture_rects(name):
    with open(fixture_path(name)) as f:
        doc = json.load(f)
    return [Rect(*(Fraction(c) for c in face["rect"])) for face in doc["faces"]]


def snapshot(mesh):
    """Every value of the mesh and every incidence dict with its order, as
    text; the boundary sets iterate in an order set by the cell hashes."""
    return {name: repr(value) for name, value in (
        ("faces", mesh.faces), ("edges", mesh.edges),
        ("vertices", mesh.vertices),
        ("edge_faces", list(mesh.edge_faces.items())),
        ("face_edges", list(mesh.face_edges.items())),
        ("vertex_edges", list(mesh.vertex_edges.items())),
        ("boundary_edges", list(mesh.boundary_edges)),
        ("interior_edges", mesh.interior_edges),
        ("boundary_vertices", list(mesh.boundary_vertices)),
        ("interior_vertices", mesh.interior_vertices))}


def outcome(build, rects):
    try:
        return snapshot(build(rects))
    except MeshError as exc:
        return type(exc), str(exc)


def rational_grid(rng, k):
    """Grid of up to k x k cells on random rational cuts, some cells split
    once more (T-junctions), in shuffled order."""
    def cuts():
        inner = {Fraction(c, rng.choice((1, 3, 8)))
                 for c in rng.sample(range(1, 8 * k), k - 1)}
        return sorted(inner | {Fraction(0), Fraction(8 * k)})
    xs, ys = cuts(), cuts()
    rects = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            if rng.random() < 0.3:
                c = (x0 + x1) / 2
                rects += [Rect(x0, y0, c, y1), Rect(c, y0, x1, y1)]
            else:
                rects.append(Rect(x0, y0, x1, y1))
    rng.shuffle(rects)
    return rects


def test_rank_build_matches_the_reference_builder():
    inputs = [fixture_rects(name) for name in FIXTURE_NAMES]
    rng = random.Random(5)
    for _ in range(40):
        faces = list(random_split_mesh(rng, max_faces=30)[0].faces)
        rng.shuffle(faces)
        inputs.append(faces)
    inputs += [rational_grid(rng, k) for k in (1, 2, 3, 5, 8, 8)]
    for rects in inputs:
        want = outcome(reference_build_tmesh, rects)
        assert isinstance(want, dict)
        assert outcome(build_tmesh, rects) == want


def test_rank_build_fails_as_the_reference_builder():
    ring = [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1),
            (0, 1, 1, 2), (2, 1, 3, 2),
            (0, 2, 1, 3), (1, 2, 2, 3), (2, 2, 3, 3)]
    bad = [
        [],
        [(0, 0, 0, 1)],                                  # degenerate
        [(0, 0, 1, 1), (1, 0, 1, 1)],
        [(3, 0, 4, 1), (0, 0, 2, 2), (1, 1, 3, 3)],      # overlapping
        [(0, 0, 1, 1), (0, 0, 1, 1)],
        [(0, 0, 2, 2), (Fraction(1, 2), Fraction(1, 2), 1, 1)],
        [(0, 0, 1, 1), (2, 0, 3, 1)],                    # disconnected
        [(0, 0, 1, 1), (1, 1, 2, 2)],
        [(0, 0, 1, 1), (1, 0, 2, 1), (5, 5, 6, 6), (6, 5, 7, 6)],
        ring,                                            # holed
        ring + [(10, 0, 11, 3), (3, 0, 10, 1)],
    ]
    rng = random.Random(3)
    for _ in range(60):
        rects = [tuple(Fraction(c) for c in (i, j, i + 1, j + 1))
                 for i in range(3) for j in range(3)]
        for _ in range(rng.randint(1, 3)):
            rects.pop(rng.randrange(len(rects)))
        x0, y0 = Fraction(rng.randint(0, 5), 2), Fraction(rng.randint(0, 5), 2)
        rects.insert(rng.randrange(len(rects) + 1),
                     (x0, y0, x0 + Fraction(rng.randint(1, 3), 2),
                      y0 + Fraction(rng.randint(1, 3), 2)))
        bad.append(rects)
    kinds = set()
    for rects in bad:
        want = outcome(reference_build_tmesh, rects)
        assert outcome(build_tmesh, rects) == want, rects
        kinds.add(want[0] if isinstance(want, tuple) else "valid")
    assert {MalformedError, OverlapError, DisconnectedError,
            NotSimplyConnectedError} <= kinds


def test_rank_build_meets_faults_in_input_order():
    """A spec that cannot be read fails as the reference builder fails: the
    first fault in input order wins, whether it is a degenerate rectangle
    or the unreadable spec."""
    floats = Rect(0.0, 0.0, 1.0, 1.0)   # reads, but has no exact pair
    bad = [
        [(0, 0, 0, 1), ("x", 0, 1, 1)],
        [("x", 0, 1, 1), (0, 0, 0, 1)],
        [(0, 0, 1, 1), (1, 1, 1, 2), None],
        [(0, 0, 1, 1), (1, 0, 2)],
        [(0, 0, 0, 1), floats],
        [floats, (0, 0, 0, 1)],
        [(0, 0, 1, 1), (1, 0, "1/0", 1)],
    ]
    for rects in bad:
        got = []
        for build in (reference_build_tmesh, build_tmesh):
            with pytest.raises(Exception) as info:
                build(rects)
            got.append((info.type, str(info.value)))
        assert got[0] == got[1], rects


# --- cell hashes ----------------------------------------------------------

def test_cell_hash_is_the_field_tuple_hash():
    mesh = grid(3)[0]
    for e in mesh.edges:
        assert hash(e) == hash((e.axis, e.line, e.lo, e.hi))
        fresh = Edge(e.axis, Fraction(e.line), Fraction(e.lo), Fraction(e.hi))
        assert fresh == e and hash(fresh) == hash(e) and fresh is not e
        assert mesh.edge_faces[fresh] == mesh.edge_faces[e]
    for f in mesh.faces:
        assert hash(f) == hash((f.x0, f.y0, f.x1, f.y1))
        assert mesh.face_edges[Rect(*(Fraction(c) for c in (
            f.x0, f.y0, f.x1, f.y1)))] == mesh.face_edges[f]
    one = Fraction(1)
    assert mesh.edge_faces[Edge("v", one, Fraction(0), one)] == (
        Rect(Fraction(0), Fraction(0), one, one),
        Rect(one, Fraction(0), Fraction(2), one))
    # int and Fraction fields are equal values with equal hashes
    assert hash(Edge("v", 1, 0, 1)) == hash(Edge("v", one, Fraction(0), one))
    moved = dataclasses.replace(mesh.edges[0], hi=Fraction(7))
    assert hash(moved) == hash((moved.axis, moved.line, moved.lo, 7))
    # the cached hash is no field: repr, equality and order are unchanged
    e = mesh.edges[0]
    assert repr(e) == (f"Edge(axis={e.axis!r}, line={e.line!r}, "
                       f"lo={e.lo!r}, hi={e.hi!r})")
    assert [f.name for f in dataclasses.fields(Edge)] == [
        "axis", "line", "lo", "hi"]
    assert sorted(mesh.edges, key=lambda e: (e.axis, e.line, e.lo, e.hi)) \
        == sorted(mesh.edges) == list(mesh.edges)


def _grid_document(n, block):
    """An n x n unit grid document with default r = 1, whose faces outside
    the central block x block carry the deficit [1, 1]."""
    lo, hi = (n - block) // 2, (n + block) // 2
    faces = []
    for x in range(n):
        for y in range(n):
            face = {"rect": [x, y, x + 1, y + 1]}
            if not (lo <= x < hi and lo <= y < hi):
                face["deficit"] = [1, 1]
            faces.append(face)
    return {"faces": faces, "smoothness": {"default": 1}}


def test_each_cell_hashes_its_fractions_once(monkeypatch):
    # the parse hashes each of the 21 coordinate values once, and
    # build_tmesh each distinct x and y once; every cell takes its hash from
    # those, and bounds looks every vertex up by the mesh's own objects.
    # Before cells took their hash from the coordinate hashes the parse made
    # 4,162 calls, and before vertices kept their hash it made 9,252 and
    # the cold bounds 21,674; the 44 left in bounds are the segment keys of
    # the analyses (SegmentIndex.of)
    calls = 0
    plain = Fraction.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return plain(self)

    doc = _grid_document(20, 10)
    monkeypatch.setattr(Fraction, "__hash__", counting)
    mesh, profile, smoothness = parse_mesh_dict(doc)
    parsed, calls = calls, 0
    bounds(mesh, profile, smoothness, (3, 3))
    monkeypatch.undo()
    faces, edges, vertices = (len(mesh.faces), len(mesh.edges),
                              len(mesh.vertices))
    assert (faces, edges, vertices) == (400, 840, 441)
    assert parsed <= 21 + 2 * 21 == 63
    assert calls <= 44


def test_the_parse_hashes_each_coordinate_value_once_and_compares_none(
        monkeypatch):
    # on the 20 x 20 and the 80 x 80 grid the parse hashes each coordinate
    # value once, and build_tmesh each distinct x and y once; the only
    # Fraction comparisons are _ranked's sort of the distinct values. On
    # these grids the parse used to make 4,162 and 64,642 hashes and 1,640
    # and 25,760 comparisons. A smoothness override hashes no Fraction
    # either, and compares its span with the ends of each interior edge of
    # its line; on the 20 x 20 grid it used to make 824 hashes
    counts = {"hash": 0, "compare": 0, "ranked": 0}
    ranking = False

    def counted(name, plain):
        def counting(*args):
            counts[name if name == "hash" or not ranking else "ranked"] += 1
            return plain(*args)
        return counting

    def ranked(values):
        nonlocal ranking
        ranking = True
        try:
            return plain_ranked(values)
        finally:
            ranking = False

    plain_ranked = tmeshdim.mesh._ranked
    override = dict(_grid_document(20, 10), smoothness={
        "default": 1, "overrides": [
            {"orientation": "v", "line": 10, "span": [0, 20], "r": 2}]})
    for n, doc, most in ((20, _grid_document(20, 10), 63),
                         (80, _grid_document(80, 40), 243),
                         (20, override, 63)):
        counts.update(hash=0, compare=0, ranked=0)
        monkeypatch.setattr(Fraction, "__hash__",
                            counted("hash", Fraction.__hash__))
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name,
                                counted("compare", getattr(Fraction, name)))
        monkeypatch.setattr(tmeshdim.mesh, "_ranked", ranked)
        mesh, _, smoothness = parse_mesh_dict(doc)
        monkeypatch.undo()
        assert len(mesh.faces) == n * n
        assert counts["hash"] <= (n + 1) + 2 * (n + 1) == most
        on_line = [e for e in mesh.interior_edges if doc is override
                   and (e.axis, e.line) == ("v", 10)]
        assert [smoothness.edge_r[e] for e in on_line] == [2] * (
            n if doc is override else 0)
        assert counts["compare"] <= 2 * len(on_line)
        assert 0 < counts["ranked"] <= 2 * (n + 1) * (n + 1).bit_length()


def test_parsed_cells_are_the_cells_built_by_hand():
    # every face, edge and vertex the parse makes equals, orders and hashes
    # as one built by hand from fresh Fractions, on every fixture, on both
    # large-grid meshes and on a document of p/q and negative coordinates
    from .test_segments import large_grid_meshes

    def fresh(c):
        return Fraction(c.numerator, c.denominator)

    meshes = [parse_mesh_file(fixture_path(name))[0] for name in FIXTURE_NAMES]
    meshes += [triple[0] for triple in large_grid_meshes()]
    # 2 and "2" parse to two equal Fractions, which build_tmesh merges
    meshes.append(parse_mesh_dict({"faces": [
        {"rect": ["-1/3", 0, "1/2", "7/4"]},
        {"rect": ["1/2", 0, 2, "7/4"]},
        {"rect": ["-1/3", "7/4", "2", 3]}]})[0])
    assert len(meshes[-1].edges) == 10
    cells = 0
    for mesh in meshes:
        for f in mesh.faces:
            twin = Rect(fresh(f.x0), fresh(f.y0), fresh(f.x1), fresh(f.y1))
            assert type(f) is Rect and twin == f and hash(twin) == hash(f)
            assert not (twin < f or f < twin) and repr(twin) == repr(f)
        for e in mesh.edges:
            twin = Edge(e.axis, fresh(e.line), fresh(e.lo), fresh(e.hi))
            assert type(e) is Edge and twin == e and hash(twin) == hash(e)
            assert not (twin < e or e < twin) and repr(twin) == repr(e)
        for v in mesh.vertices:
            twin = Vertex(fresh(v[0]), fresh(v[1]))
            assert type(v) is Vertex and twin == v and hash(twin) == hash(v)
            assert hash(tuple(twin)) == hash(v)
        cells += len(mesh.faces) + len(mesh.edges) + len(mesh.vertices)
    assert cells == 3966


def _fresh(v):
    return (Fraction(v[0].numerator, v[0].denominator),
            Fraction(v[1].numerator, v[1].denominator))


def test_a_built_vertex_is_its_plain_tuple():
    mesh, profile, smoothness = parse_mesh_file(fixture_path("test1"))
    own = {id(v) for v in mesh.vertices}
    for v in mesh.vertices:
        fresh = _fresh(v)
        assert type(fresh) is tuple and fresh is not v
        assert v == fresh and hash(v) == hash(fresh)
        assert repr(v) == repr(fresh) and str(v) == str(fresh)
        assert mesh.vertex_edges[fresh] is mesh.vertex_edges[v]
        assert (fresh in mesh.boundary_vertices) == (
            v in mesh.boundary_vertices)
        assert profile.vertex_deficit[fresh] == profile.vertex_deficit[v]
        if v in mesh.interior_vertices:
            assert smoothness.vertex_pair[fresh] == smoothness.vertex_pair[v]
        for twin in (copy.copy(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert twin == v and hash(twin) == hash(v)
    assert mesh.vertices == tuple(sorted(_fresh(v) for v in mesh.vertices))
    assert json.dumps(Vertex(1, 2)) == json.dumps((1, 2)) == "[1, 2]"
    # build_tmesh takes a vertex's hash from its two coordinates' hashes;
    # -1 is the one value whose hash is not itself
    third, big = Fraction(-1, 3), Fraction(10 ** 30, 7)
    odd = build_tmesh([(-1, -2, third, 2 ** 70), (third, -2, big, 2 ** 70),
                       (-1, 2 ** 70, big, 2 ** 70 + 1)])
    assert all(type(v) is Vertex and hash(v) == hash(_fresh(v))
               for v in odd.vertices)
    # an edge of build_tmesh gives the mesh's own vertices; one built by
    # hand, copied or unpickled gives equal plain tuples
    for e in mesh.edges:
        assert all(id(p) in own for p in e.endpoints())
        for twin in (Edge(e.axis, e.line, e.lo, e.hi), copy.deepcopy(e),
                     pickle.loads(pickle.dumps(e))):
            ends = twin.endpoints()
            assert ends == e.endpoints()
            assert all(type(p) is tuple for p in ends)


def _hand_built(mesh, profile, smoothness):
    """The triple rebuilt as tests/helpers/refmesh.py builds a mesh: plain
    tuple vertices and fresh Edge values in every map."""
    ref = reference_build_tmesh(mesh.faces)
    assert all(type(v) is tuple for v in ref.vertices)
    assert all(type(p) is tuple for e in ref.edges for p in e.endpoints())
    return ref, LeveledProfile(
        profile.face_deficit,
        {e: profile.edge_deficit[e] for e in ref.edges},
        {v: profile.vertex_deficit[v] for v in ref.vertices},
        profile.deficit_set, profile.levels, profile.steps), \
        SmoothnessProfile(
            {e: smoothness.edge_r[e] for e in ref.interior_edges},
            {v: smoothness.vertex_pair[v] for v in ref.interior_vertices})


def test_copied_and_hand_built_triples_report_as_the_built_one():
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".json"):
            continue
        triple = parse_mesh_file(os.path.join(FIXTURES, name))
        for twin in (pickle.loads(pickle.dumps(triple)),
                     copy.deepcopy(triple)):
            assert bounds(*twin, (4, 4)) == bounds(*triple, (4, 4))
        hand = _hand_built(*triple)
        for m in product(range(2, 7), repeat=2):
            assert bounds(*hand, m) == bounds(*triple, m), (name, m)


def test_copied_and_pickled_cells_hash_afresh():
    mesh = grid(2)[0]
    cells = list(mesh.edges) + list(mesh.faces)
    for cell in cells:
        for twin in (copy.copy(cell), copy.deepcopy(cell),
                     pickle.loads(pickle.dumps(cell))):
            assert twin == cell and hash(twin) == hash(cell)
    # a process with another string-hash salt must hash what it unpickles
    # with its own salt: Edge's hash covers the str axis
    probe = (
        "import pickle, sys\n"
        "cells = pickle.loads(sys.stdin.buffer.read())\n"
        "fields = [(c.axis, c.line, c.lo, c.hi) if hasattr(c, 'axis') "
        "else (c.x0, c.y0, c.x1, c.y1) for c in cells]\n"
        "assert [hash(c) for c in cells] == [hash(t) for t in fields]\n"
        "table = {c: k for k, c in enumerate(cells)}\n"
        "assert all(table[c] == k for k, c in enumerate(pickle.loads("
        "pickle.dumps(cells))))\n"
        "print(hash('h'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        tmeshdim.__file__)))
    seen = set()
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             input=pickle.dumps(cells), capture_output=True,
                             check=True)
        seen.add(out.stdout)
    assert len(seen) == 2  # the two salts do hash "h" differently


# --- smoothness overrides against the all-edge matcher ---------------------

def reference_override_match(mesh, default_r, overrides):
    """edge_r as the override matcher before the per-line index set it:
    each override scans every interior edge."""
    edge_r = {e: int(default_r) for e in mesh.interior_edges}
    for axis, line, span, r in overrides:
        line = Fraction(line)
        lo, hi = Fraction(span[0]), Fraction(span[1])
        hit = False
        for e in mesh.interior_edges:
            if e.axis == axis and e.line == line and lo <= e.lo and e.hi <= hi:
                edge_r[e] = int(r)
                hit = True
        if not hit:
            raise DanglingOverrideError(
                f"override ({axis}, {line}, [{lo}, {hi}]) matches no "
                "interior edge")
    return edge_r


def random_overrides(rng, mesh):
    """Whole-line spans, spans over part of a line and spans off every
    interior edge, some with int coordinates."""
    lines = sorted({(e.axis, e.line) for e in mesh.interior_edges})
    coords = sorted({c for v in mesh.vertices for c in v})
    out = []
    for _ in range(rng.randint(1, 6)):
        axis, line = rng.choice(lines)
        lo, hi = sorted(rng.sample(coords, 2))
        kind = rng.random()
        if kind < 0.5:
            lo, hi = coords[0], coords[-1]
        elif kind < 0.7:
            line = rng.choice(coords)
        out.append((axis, int(line) if line.denominator == 1 else line,
                    (lo, hi), rng.randint(0, 3)))
    return out


def test_overrides_match_the_edges_the_all_edge_scan_matches():
    rng = random.Random(17)
    meshes = [grid(k)[0] for k in (2, 3, 6)]
    meshes += [random_split_mesh(rng, max_faces=30)[0] for _ in range(20)]
    seen = {"ok": 0, "dangling": 0, "chain": 0}
    for mesh in meshes:
        for _ in range(10):
            overrides = random_overrides(rng, mesh)
            try:
                want = reference_override_match(mesh, 1, overrides)
            except DanglingOverrideError as exc:
                with pytest.raises(DanglingOverrideError) as got:
                    build_smoothness(mesh, 1, overrides)
                assert str(got.value) == str(exc)
                seen["dangling"] += 1
                continue
            try:
                got = build_smoothness(mesh, 1, overrides)
            except ChainConflictError:
                # raised after matching: the reference's edge_r must
                # conflict too
                assert any(len({want[e] for e in es
                                if e.axis == axis and e in want}) > 1
                           for es in mesh.vertex_edges.values()
                           for axis in "hv")
                seen["chain"] += 1
                continue
            assert list(got.edge_r.items()) == list(want.items())
            seen["ok"] += 1
    # an override on every interior line of a grid
    mesh = grid(12)[0]
    overrides = [(axis, line, (0, 12), (k * 7) % 4) for k, (axis, line) in
                 enumerate(sorted({(e.axis, e.line)
                                   for e in mesh.interior_edges}))]
    assert len(overrides) == 22
    assert list(build_smoothness(mesh, 1, overrides).edge_r.items()) == list(
        reference_override_match(mesh, 1, overrides).items())
    assert min(seen.values()) > 20, seen
