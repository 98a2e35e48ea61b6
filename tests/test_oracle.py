"""The exact constraint-rank oracle and the polynomial span oracle."""

import json
import os
import random
from fractions import Fraction as F
from math import ceil, comb, floor

import tmeshdim.oracle
from tmeshdim import (build_smoothness, oracle_spline_dim, span_dim,
                      span_quotient_dim)
from tmeshdim.linalg import rank_sparse
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file
from tmeshdim.oracle import power_grid, remainder_rows

from .helpers import FIXTURES, fixture_path, grid, make, single_face
from .helpers.taylor import taylor_spline_dim
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


def test_power_grid_is_an_integer_multiple_of_the_rational_expansion():
    # (q x - p)^d is q^d (x - p/q)^d, so the two grids span the same space
    rng = random.Random(5)
    for _ in range(40):
        knot = F(rng.randint(-30, 30), rng.randint(1, 9))
        q = knot.denominator
        for degree in range(7):
            for direction in ("s", "t"):
                grid, _ = power_grid(direction, knot, degree)
                assert all(type(c) is int for c in grid.values())
                want = {}
                for k in range(degree + 1):
                    c = comb(degree, k) * (-knot) ** (degree - k)
                    if c:
                        exps = (0, k) if direction == "t" else (k, 0)
                        want[exps] = q ** degree * c
                assert grid == want, (knot, degree, direction)


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


def _spy_rows(monkeypatch):
    """The row lists oracle_spline_dim hands to rank_sparse, each checked
    to hold nonzero int entries only."""
    seen = []

    def spy(rows):
        for row in rows:
            assert row and all(type(v) is int and v for v in row.values())
        seen.append(rows)
        return rank_sparse(rows)

    monkeypatch.setattr(tmeshdim.oracle, "rank_sparse", spy)
    return seen


def _cuts(lo, hi):
    """Every rational with denominator <= 12 strictly inside (lo, hi)."""
    return sorted({F(n, d) for d in range(1, 13)
                   for n in range(floor(lo * d) + 1, ceil(hi * d))})


def _chain_mesh(rng):
    """(mesh, profile, smoothness): splits of a box with a signed corner,
    denominators up to 12, deficits from one random chain up to (2, 2) and
    an order of 0..4 on each line."""
    x0, y0 = (F(rng.randint(-24, 12), rng.randint(1, 12)) for _ in "xy")
    box = (x0, y0, x0 + rng.randint(1, 3), y0 + rng.randint(1, 3))
    cells = [box]
    target = rng.randint(2, 9)
    for _ in range(100):
        if len(cells) == target:
            break
        k = rng.randrange(len(cells))
        a0, b0, a1, b1 = cells[k]
        vertical = rng.random() < 0.5
        cuts = _cuts(a0, a1) if vertical else _cuts(b0, b1)
        if cuts:
            c = rng.choice(cuts)
            cells[k:k + 1] = ([(a0, b0, c, b1), (c, b0, a1, b1)] if vertical
                              else [(a0, b0, a1, c), (a0, c, a1, b1)])
    top = (rng.randint(0, 2), rng.randint(0, 2))
    chain = [(0, 0)]
    while chain[-1] != top:
        a, b = chain[-1]
        chain.append(rng.choice([d for d in ((a + 1, b), (a, b + 1),
                                             (a + 1, b + 1))
                                 if d[0] <= top[0] and d[1] <= top[1]]))
    deficits = [rng.choice(chain) for _ in cells]
    deficits[rng.randrange(len(cells))] = (0, 0)
    mesh, profile, _ = make(cells, deficits=deficits)
    lines = sorted({(e.axis, e.line) for e in mesh.interior_edges})
    overrides = [(axis, line,
                  (box[0], box[2]) if axis == "h" else (box[1], box[3]),
                  rng.randint(0, 4))
                 for axis, line in lines if rng.random() < 0.6]
    return mesh, profile, build_smoothness(mesh, rng.randint(0, 4), overrides)


def test_oracle_matches_the_taylor_row_reference(monkeypatch):
    # remainder rows on translated lines against Taylor rows on the lines
    # as given: r up to 4 line by line, r at or above a piece's degree and
    # faces emptied by their deficit, on random meshes at random m
    rows = _spy_rows(monkeypatch)
    rng = random.Random(2031)
    emptied = high_r = 0
    for _ in range(80):
        mesh, profile, smoothness = _chain_mesh(rng)
        for _ in range(4):
            m = (rng.randint(0, 6), rng.randint(0, 6))
            assert (oracle_spline_dim(mesh, profile, smoothness, m)
                    == taylor_spline_dim(mesh, profile, smoothness, m))
            emptied += any(d[0] > m[0] or d[1] > m[1]
                           for d in profile.face_deficit.values())
            high_r += any(r >= min(m) for r in smoothness.edge_r.values())
    assert len(rows) == 320 and emptied > 40 and high_r > 100


def _remainder(a, knot, r):
    """Coefficients of x^a mod (x - knot)^(r+1), by long division."""
    divisor = [comb(r + 1, k) * (-knot) ** (r + 1 - k) for k in range(r + 2)]
    rem = [F(0)] * a + [F(1)]
    for top in range(a, r, -1):
        c = rem[top]
        for k in range(r + 2):
            rem[top - r - 1 + k] -= c * divisor[k]
    return (rem + [F(0)] * (r + 1))[:r + 1]


def _taylor_rows(p, q, deg, r):
    return [{a: comb(a, j) * p ** (a - j) * q ** (deg - a)
             for a in range(j, deg + 1) if p or a == j}
            for j in range(r + 1)]


def test_remainder_rows_are_the_scaled_remainders():
    for p in range(-9, 10):
        for q in range(1, 9):
            knot = F(p, q)
            rems = {}
            for deg in range(8):
                for r in range(deg + 1):
                    block = remainder_rows(p, q, deg, r)
                    assert len(block) == r + 1
                    got = []
                    for j, (lead, tail) in enumerate(block):
                        assert all(type(c) is int and c for c in tail)
                        assert len(tail) == (deg - r if p else 0)
                        row = {j: lead, **dict(enumerate(tail, r + 1))}
                        for a in range(deg + 1):
                            if (a, r) not in rems:
                                rems[a, r] = _remainder(a, knot, r)
                            assert row.get(a, 0) == q ** (deg - j) \
                                * rems[a, r][j], (p, q, deg, r, j, a)
                        got.append(row)
                    taylor = _taylor_rows(p, q, deg, r)
                    assert rank_sparse(got) == r + 1
                    assert rank_sparse(taylor) == r + 1
                    assert rank_sparse(got + taylor) == r + 1


def test_fixture_headline_matrices_keep_rows_and_shed_entries(monkeypatch):
    # the rows are those of the Taylor assembly, 2,260 over the seven
    # headlines; their entries were 16,365
    rows = _spy_rows(monkeypatch)
    for name in sorted(n[:-5] for n in os.listdir(FIXTURES)
                       if n.endswith(".json")):
        with open(os.path.join(FIXTURES, "expected", name + ".json")) as f:
            m = tuple(json.load(f)["rows"][0]["m"])
        oracle_spline_dim(*parse_mesh_file(fixture_path(name)), m)
    assert len(rows) == 7
    assert sum(map(len, rows)) == 2260
    assert sum(len(row) for mat in rows for row in mat) <= 10090
