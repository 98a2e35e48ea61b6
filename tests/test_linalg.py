"""rank_sparse against a dense Fraction Gaussian elimination."""

import copy
import json
import os
import random
from fractions import Fraction
from math import lcm

import pytest
import tmeshdim.oracle
from tmeshdim import oracle_spline_dim
from tmeshdim.linalg import rank_sparse
from tmeshdim.meshfile import parse_mesh_file

from .helpers import FIXTURES, fixture_path
from .helpers.randmesh import random_split_mesh


def dense_rank(rows):
    """Rank by plain Gaussian elimination over Fraction, on dense rows."""
    cols = sorted({c for row in rows for c in row})
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] / mat[rank][j]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _entry(rng, fractions):
    v = rng.choice([n for n in range(-6, 7) if n])
    if fractions and rng.random() < 0.3:
        return Fraction(v, rng.randint(2, 9))
    return v


def integer_rows(rows):
    """Each row times the lcm of its entries' denominators: the same rank,
    in the integer form rank_sparse takes."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row.values()))
        out.append({c: int(v * den) for c, v in row.items()})
    return out


def random_matrix(rng):
    """Sparse rows with zero, duplicate, scaled and dependent rows mixed in;
    about half the matrices hold Fraction entries."""
    ncols = rng.randint(1, 12)
    fractions = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(0, 10)):
        cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
        rows.append({c: _entry(rng, fractions) for c in cols})
    extra = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("zero", "duplicate", "scaled", "combination"))
        if kind == "zero" or not rows:
            extra.append(rng.choice(({}, {rng.randrange(ncols): 0})))
        elif kind == "duplicate":
            extra.append(dict(rng.choice(rows)))
        elif kind == "scaled":
            s = rng.choice((-3, -1, 2, 5, Fraction(-2, 3), Fraction(7, 4)))
            extra.append({c: s * v for c, v in rng.choice(rows).items()})
        else:
            out = {}
            for row in rng.sample(rows, min(len(rows), rng.randint(2, 3))):
                s = _entry(rng, fractions)
                for c, v in row.items():
                    out[c] = out.get(c, 0) + s * v
            extra.append(out)
    rows += extra
    rng.shuffle(rows)
    return rows


def incidence_matrix(rng):
    """Edge-vertex incidence rows (+1 at the head, -1 at the tail) of a
    random multigraph; its rank is vertices minus components."""
    n = rng.randint(1, 12)
    return [{a: -1, b: 1} if a != b else {a: 1}
            for a, b in ((rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(0, 20)))]


def test_rank_matches_dense_elimination():
    rng = random.Random(11)
    for _ in range(600):
        rows = random_matrix(rng)
        assert rank_sparse(integer_rows(rows)) == dense_rank(rows), rows


def test_rank_of_incidence_matrices():
    rng = random.Random(12)
    for _ in range(300):
        rows = incidence_matrix(rng)
        assert rank_sparse(rows) == dense_rank(rows), rows


def test_rank_of_large_dependent_integer_matrices():
    # wide rows and big entries force long chains of fill-in and of the
    # gcd division; every second row is a combination of earlier ones
    rng = random.Random(13)
    for _ in range(20):
        ncols = rng.randint(10, 30)
        rows = []
        for k in range(rng.randint(10, 40)):
            if k % 2 and rows:
                row = {}
                for base in rng.sample(rows, min(len(rows), 3)):
                    s = rng.randint(-10 ** 6, 10 ** 6)
                    for c, v in base.items():
                        row[c] = row.get(c, 0) + s * v
            else:
                row = {c: rng.randint(-10 ** 9, 10 ** 9)
                       for c in rng.sample(range(ncols), rng.randint(1, 6))}
            rows.append(row)
        assert rank_sparse(rows) == dense_rank(rows)


def test_rank_does_not_depend_on_row_order_and_leaves_rows_alone():
    rng = random.Random(14)
    for _ in range(200):
        rows = integer_rows(random_matrix(rng)) + incidence_matrix(rng)
        before = copy.deepcopy(rows)
        want = rank_sparse(rows)
        assert rows == before
        for _ in range(3):
            rng.shuffle(rows)
            assert rank_sparse(rows) == want


def test_rank_of_small_cases():
    assert rank_sparse([]) == 0
    assert rank_sparse([{}, {3: 0}]) == 0
    assert rank_sparse([{0: 1, 1: 6}, {0: 1, 1: 6}]) == 1
    with pytest.raises(TypeError):
        rank_sparse([{0: Fraction(1, 3), 1: 2}, {0: 1, 1: 6}])
    assert rank_sparse([{0: 2, 1: -4}, {0: -3, 1: 6}, {1: 5}]) == 2
    assert rank_sparse(iter([{0: 1}, {1: 1}, {0: 1, 1: 1}])) == 2


def test_fraction_in_a_row_that_cancels_raises():
    # with the integer row as pivot the other row cancels to nothing, so
    # only the check on the input rows sees its Fraction
    rows = [{0: 1, 1: Fraction(1, 3)}, {0: 3, 1: 1}]
    for order in (rows, rows[::-1]):
        with pytest.raises(TypeError):
            rank_sparse(order)


def transpose(rows):
    out = {}
    for k, row in enumerate(rows):
        for c, v in row.items():
            out.setdefault(c, {})[k] = v
    return list(out.values())


def oracle_matrices(monkeypatch, meshes):
    """The matrices oracle_spline_dim ranks for each (mesh triple, m)."""
    seen = []

    def keep(rows):
        seen.append(rows)
        return rank_sparse(rows)

    monkeypatch.setattr(tmeshdim.oracle, "rank_sparse", keep)
    for triple, m in meshes:
        oracle_spline_dim(*triple, m)
    monkeypatch.undo()
    return seen


def test_rank_of_oracle_matrices_equals_rank_of_their_transposes(
        monkeypatch):
    # the transpose is eliminated through other pivots, with other integer
    # growth; the fixtures at their headline bi-degrees and degree (10,10)
    # on random meshes reach well past the golden values' degree 7
    meshes = []
    for name in sorted(n[:-5] for n in os.listdir(FIXTURES)
                       if n.endswith(".json")):
        with open(os.path.join(FIXTURES, "expected", name + ".json")) as f:
            m = tuple(json.load(f)["rows"][0]["m"])
        meshes.append((parse_mesh_file(fixture_path(name)), m))
    rng = random.Random(43)
    meshes += [(random_split_mesh(rng)[:3], (10, 10)) for _ in range(3)]
    mats = oracle_matrices(monkeypatch, meshes)
    assert len(mats) == 10
    assert max(len(rows) for rows in mats) > 900
    for rows in mats:
        assert rank_sparse(rows) == rank_sparse(transpose(rows))
