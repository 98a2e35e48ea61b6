"""Seeded workloads: the mesh documents handed to the library and the cases
run against them.

A case is one bi-degree report for one mesh. Cases come in rounds and a run
stops only between rounds: a round is a fixed set of cases on fixtures-auto,
one mesh's whole degree sweep on random-oracle, and one case of the
half-plane grid with two of the island grid on large-grid. The library
receives only JSON mesh documents.
"""

import itertools
import json
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

DEFAULT_SEED = 1729


class Case(NamedTuple):
    id: str
    mesh: int             # index into the workload's documents
    m: tuple
    mode: str             # "auto", "auto+oracle" or "greedy+oracle"
    expected: Optional[str] = None   # frozen machine report to match


class Workload(NamedTuple):
    docs: list
    setup_reps: int       # set-ups per run; setup_s is their median
    seeded: bool          # whether the cases depend on the seed
    rounds: Callable      # () -> endless iterator of lists of cases


# --- fixtures-auto --------------------------------------------------------

# Bi-degrees each fixture runs in every round. The first is its headline,
# as listed in fixtures/README.md; it also runs the oracle and its machine
# report must equal fixtures/expected/ byte for byte.
#
# Every round runs these same cases, so the median and the tail depend on
# this mix and the number of rounds only. One case of each took
# (2.66 GHz Xeon core): test3 4.7 s; nested 0.9-1.4 s; the test2 and
# counterexample headlines about 0.3 s; the ten other counterexample cases
# 104-127 ms; test1 25-30 ms (84 ms at its headline); the rest 3-40 ms.
# A round of 26 cases takes 10-11 s at the reference host speed, so a run
# of 25 s holds 3 rounds.
# Eight cases sit below the counterexample cluster and eight above it,
# which keeps the median in that cluster: cases of 30 ms or less swing by
# up to 2x with the load on the host, cases of 0.1 s and more far less.
# The tail percentile needs ten cases beyond it; in 3 rounds, test3 and
# the nested headline fill 6 of those places, and the four other
# nested cases hold the rest, so the tail lands among them.
ROUND = {
    "test1": [(3, 3), (6, 3), (2, 3)],
    "test2": [(4, 4), (6, 3)],
    "test3": [(6, 6)],
    "new_relations_a": [(3, 3), (4, 4)],
    "new_relations_b": [(4, 4), (6, 6)],
    "counterexample": [(5, 5), (6, 4), (6, 3), (3, 6), (5, 6), (2, 6),
                       (3, 5), (4, 6), (2, 2), (6, 2), (4, 2)],
    "nested": [(4, 4), (6, 4), (2, 6), (4, 6), (5, 4)],
}


def fixtures_auto(root, seed, interior_edges):
    fixture_dir = os.path.join(root, "src", "tmeshdim", "fixtures")
    docs = []
    cases = []
    for k, (name, degrees) in enumerate(sorted(ROUND.items())):
        with open(os.path.join(fixture_dir, name + ".json")) as f:
            docs.append(json.load(f))
        (a, b), rest = degrees[0], degrees[1:]
        cases.append(Case(f"{name}@{a},{b}+oracle", k, (a, b), "auto+oracle",
                          os.path.join(fixture_dir, "expected",
                                       name + ".json")))
        cases += [Case(f"{name}@{a},{b}", k, (a, b), "auto")
                  for a, b in rest]

    def rounds():
        # the seed only orders the cases within a round
        rng = random.Random(seed)
        while True:
            batch = cases[:]
            rng.shuffle(batch)
            yield batch

    return Workload(docs, 30, False, rounds)


# --- random-oracle --------------------------------------------------------

# every rational with denominator <= 8 strictly inside (0, 2)
_CUTS = sorted({Fraction(p, q) for q in range(1, 9)
                for p in range(1, 2 * q)})

# meshes parsed at set-up; a run of 25 s gets through 40 to 47 of them
RANDOM_POOL = 64

# Cost per mesh grows with its interior edge count and varies about
# twentyfold across the generator's output, so a plain sample of the 40 or
# so meshes a run gets through makes throughput depend on the seed, and the
# tail, which the few largest meshes set, depends on it most. The pool is
# stratified instead, by r and by interior edge count range [lo, hi) below,
# in the shares the strata have in the generator's natural output. The
# ranges are narrowest at the top, where the tail comes from.
EDGE_RANGES = ((0, 5), (5, 7), (7, 9), (9, 11), (11, 13), (13, 16),
               (16, 18), (18, 20), (20, 22), (22, 1000))

# Share of each (edge range index, r) stratum among 4000 meshes drawn with
# _random_split_doc on seeds 1000-1004 and kept when every level has h = 0,
# as the acceptance suite keeps them (3521 further draws had h != 0).
STRATUM_SHARES = {
    (0, 1): 0.04900, (1, 1): 0.08150, (2, 1): 0.06475, (3, 1): 0.05800,
    (4, 1): 0.05250, (5, 1): 0.05975, (6, 1): 0.03325, (7, 1): 0.03175,
    (8, 1): 0.02550, (9, 1): 0.02625,
    (0, 2): 0.04500, (1, 2): 0.08400, (2, 2): 0.07925, (3, 2): 0.06225,
    (4, 2): 0.06150, (5, 2): 0.05875, (6, 2): 0.03700, (7, 2): 0.03100,
    (8, 2): 0.02975, (9, 2): 0.02925,
}


def _random_split_doc(rng, max_faces=12):
    """Hierarchical splits of [0,2]^2 into at most max_faces faces with
    deficits in {(0,0), (1,1)} and default smoothness r in {1, 2}.

    A copy of the acceptance suite's generator, drawing from rng in the
    same order.
    """
    cells = [(Fraction(0), Fraction(0), Fraction(2), Fraction(2))]
    target = rng.randint(4, max_faces)
    guard = 0
    while len(cells) < target and guard < 200:
        guard += 1
        k = rng.randrange(len(cells))
        x0, y0, x1, y1 = cells[k]
        if rng.random() < 0.5:
            cands = [c for c in _CUTS if x0 < c < x1]
            if not cands:
                continue
            c = rng.choice(cands)
            cells[k:k + 1] = [(x0, y0, c, y1), (c, y0, x1, y1)]
        else:
            cands = [c for c in _CUTS if y0 < c < y1]
            if not cands:
                continue
            c = rng.choice(cands)
            cells[k:k + 1] = [(x0, y0, x1, c), (x0, c, x1, y1)]

    deficits = [(1, 1) if rng.random() < 0.4 else (0, 0) for _ in cells]
    if all(d == (1, 1) for d in deficits):
        deficits[rng.randrange(len(deficits))] = (0, 0)
    r = rng.choice((1, 2))
    faces = []
    for cell, d in zip(cells, deficits):
        face = {"rect": [str(c) for c in cell]}
        if d != (0, 0):
            face["deficit"] = list(d)
        faces.append(face)
    return {"faces": faces, "smoothness": {"default": r}}, r


def random_oracle(root, seed, interior_edges):
    rng = random.Random(seed)
    drawn = {stratum: [] for stratum in STRATUM_SHARES}

    def take(stratum):
        # keep every usable draw for its own stratum, so rare strata cost
        # no more draws than they need
        while not drawn[stratum]:
            doc, r = _random_split_doc(rng)
            n = interior_edges(doc)
            # None when some level has relative cycles: such meshes get
            # diagnostics only, no bounds
            if n is not None:
                k = next(k for k, (lo, hi) in enumerate(EDGE_RANGES)
                         if lo <= n < hi)
                drawn[(k, r)].append((doc, r))
        return drawn[stratum].pop(0)

    order = list(STRATUM_SHARES)
    rng.shuffle(order)
    taken = dict.fromkeys(order, 0)
    docs = []
    cases = []
    for k in range(RANDOM_POOL):
        # the stratum furthest behind its share: every prefix of the pool,
        # and so every run, holds each stratum within one mesh of its share
        stratum = max(order, key=lambda s: STRATUM_SHARES[s] * (k + 1)
                      - taken[s])
        taken[stratum] += 1
        doc, r = take(stratum)
        docs.append(doc)
        cases.append([Case(f"mesh{k}@{a},{b}", k, (a, b), "greedy+oracle")
                      for a in range(r + 1, 6) for b in range(r + 1, 6)])

    def rounds():
        return itertools.cycle(cases)

    return Workload(docs, 10, True, rounds)


# --- large-grid -----------------------------------------------------------

GRID = 20


def _grid_doc(zero, r):
    faces = []
    for j in range(GRID):
        for i in range(GRID):
            face = {"rect": [i, j, i + 1, j + 1]}
            if (i, j) not in zero:
                face["deficit"] = [1, 1]
            faces.append(face)
    return {"faces": faces, "smoothness": {"default": r}}


def _half_plane(rng):
    """Zero-deficit half of the grid behind a straight cut from one side."""
    cut = rng.randint(GRID // 2 - 1, GRID // 2 + 1)
    side = rng.randrange(4)
    return {(i, j) for i in range(GRID) for j in range(GRID)
            if (i, GRID - 1 - i, j, GRID - 1 - j)[side] < cut}


def _island(rng):
    """Central a x b zero-deficit block off the boundary with a + b = 16:
    18 interior segments at level 1, past the exhaustive limit. A fixed
    perimeter keeps the cost of a case nearly independent of the seed."""
    a = rng.randint(6, 10)
    b = 16 - a
    x0 = rng.randint(2, GRID - 2 - a)
    y0 = rng.randint(2, GRID - 2 - b)
    return {(i, j) for i in range(x0, x0 + a) for j in range(y0, y0 + b)}


def large_grid(root, seed, interior_edges):
    rng = random.Random(seed)
    docs = []
    schedules = []
    # Two island cases per half-plane case: whichever mesh is slower, the
    # median and the tail percentile then fall inside one mesh's cluster of
    # case times, not in the gap between the two. Each pattern has its own
    # fixed r, so the seed moves the geometry but not the degree range.
    for name, pattern, per, r in (("half", _half_plane, 1, 2),
                                  ("island", _island, 2, 1)):
        while True:
            doc = _grid_doc(pattern(rng), r)
            if interior_edges(doc) is not None:
                break
        k = len(docs)
        docs.append(doc)
        degrees = [(a, b) for a in range(r + 1, r + 6)
                   for b in range(r + 1, r + 6)]
        rng.shuffle(degrees)
        schedules.append((per, [Case(f"{name}@{a},{b}", k, (a, b), "auto")
                                for a, b in degrees]))

    def rounds():
        streams = [(per, itertools.cycle(cases)) for per, cases in schedules]
        while True:
            yield [case for per, it in streams
                   for case in itertools.islice(it, per)]

    return Workload(docs, 5, True, rounds)


WORKLOADS = {
    "fixtures-auto": fixtures_auto,
    "random-oracle": random_oracle,
    "large-grid": large_grid,
}
