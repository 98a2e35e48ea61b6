"""Golden values of the constraint-rank oracle.

oracle_golden.json holds oracle_spline_dim for every fixture at every
bi-degree in 2..6 x 2..6, for test2 at (7,7), and for 30 seeded random
split meshes at their sweep bi-degrees (each m0, m1 in r+1..5). It pins any
rewrite of the oracle's assembly or of the exact rank to the values the
original implementation produced.

Re-record (only after checking that a change of values is intended):

    PYTHONPATH=src python -m tests.test_oracle_golden --record
"""

import json
import os
import random
import sys

from tmeshdim import oracle_spline_dim
from tmeshdim.meshfile import parse_mesh_file

from .helpers import fixture_path
from .helpers.randmesh import random_split_mesh

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "oracle_golden.json")
FIXTURES = ("test1", "test2", "test3", "new_relations_a", "new_relations_b",
            "counterexample", "nested")
DEGREES = [(a, b) for a in range(2, 7) for b in range(2, 7)]


def values():
    out = {}
    for name in FIXTURES:
        mesh = parse_mesh_file(fixture_path(name))
        for m in DEGREES + ([(7, 7)] if name == "test2" else []):
            out[f"{name} {m[0]},{m[1]}"] = oracle_spline_dim(*mesh, m)
    rng = random.Random(31)
    for k in range(30):
        mesh, profile, smoothness, r = random_split_mesh(rng)
        for m0 in range(r + 1, 6):
            for m1 in range(r + 1, 6):
                out[f"random {k} {m0},{m1}"] = oracle_spline_dim(
                    mesh, profile, smoothness, (m0, m1))
    return out


def test_oracle_matches_the_golden_values():
    with open(GOLDEN) as f:
        want = json.load(f)
    got = values()
    assert got.keys() == want.keys()
    bad = [case for case in want if got[case] != want[case]]
    assert not bad, f"{len(bad)} oracle values changed, first: {bad[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_oracle_golden --record")
    with open(GOLDEN, "w") as f:
        json.dump(values(), f, indent=1, sort_keys=True)
        f.write("\n")
