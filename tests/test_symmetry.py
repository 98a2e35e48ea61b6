"""Swapping the x and y axes (with the deficits, the level sequence and the
bi-degree) leaves the dimension report unchanged."""

import json
import random

from tmeshdim import bounds
from tmeshdim.meshfile import parse_mesh_dict

from .helpers import fixture_path, make
from .helpers.randmesh import random_split_mesh

# test3 at (6,6) is left out: its exhaustive ordering search alone takes
# several seconds per report
FIXTURE_DEGREES = {
    "test1": [(3, 3), (6, 3), (2, 3)],
    "test2": [(4, 4), (6, 3)],
    "new_relations_a": [(3, 3), (4, 4)],
    "new_relations_b": [(4, 4), (6, 6)],
    "counterexample": [(5, 5), (6, 4), (6, 3), (3, 6), (5, 6), (2, 6),
                       (3, 5), (4, 6), (2, 2), (6, 2), (4, 2)],
    "nested": [(4, 4), (6, 4), (2, 6), (4, 6), (5, 4)],
}


def transpose(doc):
    """The mesh document mirrored in the diagonal x = y."""
    faces = []
    for face in doc["faces"]:
        x0, y0, x1, y1 = face["rect"]
        out = dict(face, rect=[y0, x0, y1, x1])
        if "deficit" in face:
            out["deficit"] = face["deficit"][::-1]
        faces.append(out)
    out = dict(doc, faces=faces)
    if "levels" in doc:
        out["levels"] = [pair[::-1] for pair in doc["levels"]]
    if "smoothness" in doc:
        flip = {"h": "v", "v": "h"}
        out["smoothness"] = dict(doc["smoothness"], overrides=[
            dict(ov, orientation=flip[ov["orientation"]])
            for ov in doc["smoothness"].get("overrides", [])])
    return out


def transposed(mesh, profile, r):
    """A random_split_mesh triple mirrored in the diagonal x = y."""
    return make([(f.y0, f.x0, f.y1, f.x1) for f in mesh.faces],
                deficits=[profile.face_deficit[f][::-1] for f in mesh.faces],
                r=r, levels=[lv[::-1] for lv in profile.levels])


def invariant_part(rep):
    """Every report field except the geometric segment keys and what the
    upper bound decides (upper, clamped, per-level h0 ideal, slack notes)."""
    return (rep.chi, rep.chi_direct, rep.assumption_ok, rep.violations,
            rep.config1, rep.case_b_levels, rep.lower_general,
            rep.lower_special, rep.certified, rep.exact, rep.oracle,
            tuple((r.index, r.c, r.h, r.dim_m, r.h0_constant,
                   r.segment_count, r.strategy) for r in rep.rows))


def upper_part(rep):
    return (rep.upper, rep.clamped, rep.notes,
            tuple(r.h0_ideal for r in rep.rows))


def test_axis_swap_leaves_fixture_reports_unchanged():
    for name, degrees in FIXTURE_DEGREES.items():
        with open(fixture_path(name)) as f:
            doc = json.load(f)
        mesh = parse_mesh_dict(doc)
        swapped = parse_mesh_dict(transpose(doc))
        for m in degrees:
            a = bounds(*mesh, m)
            b = bounds(*swapped, m[::-1])
            assert invariant_part(a) == invariant_part(b), (name, m)
            assert upper_part(a) == upper_part(b), (name, m)


def unequal_deficits_doc():
    """4x4 grid: a zero-deficit 2x2 island, (0,1) around it, (1,2) in one
    corner, an explicit level path and a C^2 vertical line."""
    faces = []
    for j in range(4):
        for i in range(4):
            face = {"rect": [i, j, i + 1, j + 1]}
            if (i, j) == (3, 3):
                face["deficit"] = [1, 2]
            elif not (1 <= i <= 2 and 1 <= j <= 2):
                face["deficit"] = [0, 1]
            faces.append(face)
    return {"faces": faces,
            "smoothness": {"default": 1, "overrides": [
                {"orientation": "v", "line": 2, "span": [0, 4], "r": 2}]},
            "levels": [[0, 0], [0, 1], [1, 1], [1, 2]]}


def test_axis_swap_with_unequal_deficits_and_an_override():
    doc = unequal_deficits_doc()
    mesh = parse_mesh_dict(doc)
    swapped = parse_mesh_dict(transpose(doc))
    for m in [(1, 2), (4, 2), (3, 3)]:
        a = bounds(*mesh, m, with_oracle=True)
        b = bounds(*swapped, m[::-1], with_oracle=True)
        assert invariant_part(a) == invariant_part(b), m
        assert upper_part(a) == upper_part(b), m
        assert a.rows[0].segment_count == 6


def test_axis_swap_on_random_meshes_moves_only_the_greedy_upper_bound():
    rng = random.Random(7)
    cases = changed = 0
    for _ in range(60):
        mesh, profile, smoothness, r = random_split_mesh(rng)
        swapped = transposed(mesh, profile, r)
        for m0 in range(r + 1, 6):
            for m1 in range(r + 1, 6):
                a = bounds(mesh, profile, smoothness, (m0, m1),
                           ordering="greedy")
                b = bounds(*swapped, (m1, m0), ordering="greedy")
                assert invariant_part(a) == invariant_part(b), (m0, m1)
                cases += 1
                changed += upper_part(a) != upper_part(b)
    # greedy ordering prefers one axis, so the transposed mesh may get
    # another (still valid) upper bound; a symmetric ordering search
    # brings this count to 0
    assert (cases, changed) == (778, 12)
