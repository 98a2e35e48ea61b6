"""The exact constraint-rank oracle and the polynomial span oracle."""

import json
from fractions import Fraction as F

from tmeshdim import oracle_spline_dim, span_dim, span_quotient_dim
from tmeshdim.meshfile import parse_mesh_dict
from tmeshdim.oracle import power_grid

from .helpers import fixture_path, grid, make, single_face
from .helpers.univariate import tensor_grid_dim, univariate_spline_dim


def test_span_of_a_principal_ideal():
    gen = power_grid("s", F(1, 2), 2)
    assert span_dim([gen], (3, 3)) == 8


def test_span_of_two_quadratic_powers():
    gens = [power_grid("t", F(1, 3), 2), power_grid("t", F(2, 3), 2)]
    assert span_dim(gens, (3, 3)) == 16


def test_span_of_nothing():
    assert span_dim([], (3, 3)) == 0


def test_span_quotient_degenerate_boxes():
    assert span_quotient_dim([power_grid("t", F(1), 1)], (-1, 3), (0, 0)) == 0
    assert span_quotient_dim([({(0, 0): 1}, (0, 0))], (2, 2), (-1, 2)) == 9


def test_single_face_dimension_is_the_full_box():
    mesh, profile, smoothness = single_face()
    assert oracle_spline_dim(mesh, profile, smoothness, (3, 3)) == 16
    assert oracle_spline_dim(mesh, profile, smoothness, (0, 0)) == 1
    assert oracle_spline_dim(mesh, profile, smoothness, (2, 5)) == 18


def test_two_by_two_grid_c1_cubics():
    mesh, profile, smoothness = grid(2, r=1)
    assert oracle_spline_dim(mesh, profile, smoothness, (3, 3)) == 36


def test_tensor_grids_match_univariate_products():
    for k in (2, 3):
        for r in (0, 1, 2):
            mesh, profile, smoothness = grid(k, r=r)
            for m in ((2, 3), (4, 4)):
                if min(m) <= r:
                    continue
                assert (oracle_spline_dim(mesh, profile, smoothness, m)
                        == tensor_grid_dim(k, r, m))


def test_univariate_count_sanity():
    # C^1 cubics on two pieces: 8 coefficients minus 2 matching conditions
    assert univariate_spline_dim(3, 1, 1) == 6
    assert univariate_spline_dim(2, 2, 3) == 3
    assert univariate_spline_dim(-1, 0, 2) == 0


def test_edge_subdivision_leaves_the_rank_alone():
    """Splitting a cell with full-degree contact re-imposes the x=1
    smoothness once per collinear piece; the dimension must not move."""
    m = (3, 3)
    plain = make([(0, 0, 1, 1), (1, 0, 2, 1)], r=1)
    want = univariate_spline_dim(3, 1, 1) * univariate_spline_dim(3, 1, 0)
    assert oracle_spline_dim(*plain, m) == want
    split = make([(0, 0, 1, 1), (1, 0, 2, F(1, 2)), (1, F(1, 2), 2, 1)], r=1,
                 overrides=[("h", F(1, 2), (1, 2), m[1])])
    assert oracle_spline_dim(*split, m) == want


def test_affine_rescaling_preserves_dimension():
    rects = [(0, 0, 1, 2), (1, 0, 2, 1), (1, 1, 2, 2)]
    deficits = [(0, 0), (0, 0), (1, 1)]

    def scaled(sx, tx, sy, ty):
        moved = [(sx * x0 + tx, sy * y0 + ty, sx * x1 + tx, sy * y1 + ty)
                 for x0, y0, x1, y1 in rects]
        return make(moved, deficits=deficits, r=1)

    base = oracle_spline_dim(*scaled(1, 0, 1, 0), (4, 4))
    for sx, tx, sy, ty in ((2, F(1, 3), 1, 0), (F(1, 7), -2, 3, F(5, 2)),
                           (F(2, 5), 0, F(1, 2), 100)):
        assert oracle_spline_dim(*scaled(sx, tx, sy, ty), (4, 4)) == base


def test_deficit_empties_a_face():
    # at m=(1,1) a (2,2)-deficit face carries the zero polynomial, and the
    # continuity condition pins its neighbor's trace along the shared line
    mesh, profile, smoothness = make([(0, 0, 1, 1), (1, 0, 2, 1)],
                                     deficits=[(0, 0), (2, 2)], r=0)
    assert oracle_spline_dim(mesh, profile, smoothness, (1, 1)) == 2


def test_counterexample_keeps_81_when_one_strip_line_moves():
    """The 81 at (5,5) does not need the vertical lines of the middle strip
    exactly at 1/3, 1/2 and 2/3: moving any one of them keeps it."""
    with open(fixture_path("counterexample")) as f:
        doc = json.load(f)
    moves = [(F(1, 2), F(2, 5)), (F(1, 2), F(3, 5)), (F(1, 2), F(4, 9)),
             (F(1, 2), F(51, 100)), (F(1, 3), F(1, 4)), (F(1, 3), F(3, 10)),
             (F(2, 3), F(3, 4)), (F(2, 3), F(7, 10))]
    for old, new in moves:
        # x coordinates sit at even places of [x0, y0, x1, y1]
        faces = [dict(face, rect=[str(new) if k % 2 == 0 and F(c) == old
                                  else c for k, c in enumerate(face["rect"])])
                 for face in doc["faces"]]
        assert faces != doc["faces"]
        mesh = parse_mesh_dict(dict(doc, faces=faces))
        assert oracle_spline_dim(*mesh, (5, 5)) == 81, (old, new)
