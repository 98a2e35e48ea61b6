"""Golden digests of the segment calculus on every fixture level.

For each fixture, level, bi-degree in 2..6 x 2..6 and ordering strategy
(input, greedy, auto) the digest covers the chosen sequence, the weights,
gamma, upsilon, theta, lam, the generators and h0_ideal_upper. The data in
segment_golden.json pins any rewrite of the ordering search or of the
contribution rules to the values the original implementation produced.
The weights, lam and the generators are the library's (ContributionSets'
terms); gamma, upsilon and theta, which the library keeps only folded into
rule keys, come from the key-level reference rules under the same order.

The fixtures give every line the same smoothness, which leaves the rules'
comparisons of r values untested, so six of them also run with a seeded
random r in 0..2 on each interior line.

Re-record (only after checking that a change of values is intended):

    PYTHONPATH=src python -m tests.test_segment_golden --record
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from tmeshdim import (AssumptionViolated, all_levels, analyze_segments,
                      build_smoothness, contribution_sets, h0_ideal_upper,
                      order_segments)
from tmeshdim.meshfile import parse_mesh_file

from .helpers import fixture_path
from .helpers.rules import crossings, keyed_terms, reference_sets

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "segment_golden.json")
FIXTURES = ("test1", "test2", "test3", "new_relations_a", "new_relations_b",
            "counterexample", "nested")
DEGREES = [(a, b) for a in range(2, 7) for b in range(2, 7)]
STRATEGIES = ("input", "greedy", "auto")
# fixtures rerun with mixed smoothness (the seed is the place in this
# tuple); new_relations_a is left out because it has a single interior
# segment
MIXED_R = ("test1", "test2", "new_relations_b", "counterexample", "nested",
           "test3")


def _plain(x):
    """Fractions as strings, tuples as lists, so json.dumps is canonical."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    return x


def _by_key(d):
    return [[_plain(k), _plain(v)] for k, v in sorted(d.items())]


def case_digest(an, strategy, m):
    ordr = order_segments(an, strategy, m)
    sets = contribution_sets(an, ordr, m)
    try:
        h0 = h0_ideal_upper(sets)
    except AssumptionViolated:
        h0 = None
    sequence = [an.index.keys[k] for k in ordr.order]
    keyed = keyed_terms(sets)
    gamma, upsilon, theta, _ = reference_sets(an, sequence, m)
    crossed = crossings(an)
    doc = {"strategy": ordr.strategy, "sequence": _plain(sequence),
           "weights": _by_key({k: w for k, (_, w, _) in keyed.items()}),
           "gamma": _by_key({k: [c for c in crossed[k] if c[0] in gamma[k]]
                             for k in gamma}),
           "upsilon": _by_key({k: sorted(v) for k, v in upsilon.items()}),
           "theta": _by_key({k: sorted(v) for k, v in theta.items()}),
           "lam": _by_key({k: lam for k, (lam, _, _) in keyed.items()}),
           "generators": _by_key({k: g for k, (_, _, g) in keyed.items()}),
           "h0": h0}
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mixed_r(mesh, seed):
    """Smoothness with a seeded random r in 0..2 on each interior line."""
    spans = {}
    for e in mesh.interior_edges:
        lo, hi = spans.get((e.axis, e.line), (e.lo, e.hi))
        spans[e.axis, e.line] = (min(lo, e.lo), max(hi, e.hi))
    rng = random.Random(seed)
    return build_smoothness(mesh, 0, [(axis, line, span, rng.choice((0, 1, 2)))
                                      for (axis, line), span
                                      in sorted(spans.items())])


def digests():
    runs = [(name, name, None) for name in FIXTURES]
    runs += [(name + " mixed-r", name, seed)
             for seed, name in enumerate(MIXED_R)]
    out = {}
    for label, name, seed in runs:
        mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
        if seed is not None:
            smoothness = mixed_r(mesh, seed)
        for lv in all_levels(mesh, profile):
            an = analyze_segments(lv, smoothness)
            for strategy in STRATEGIES:
                out[f"{label} L{lv.index} {strategy}"] = [
                    case_digest(an, strategy, m) for m in DEGREES]
    return out


def test_segment_calculus_matches_the_golden_digests():
    with open(GOLDEN) as f:
        want = json.load(f)
    got = digests()
    assert got.keys() == want.keys()
    bad = [f"{case} at m = {m}"
           for case in want
           for m, a, b in zip(DEGREES, got[case], want[case]) if a != b]
    assert not bad, f"{len(bad)} digests changed, first: {bad[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_segment_golden --record")
    with open(GOLDEN, "w") as f:
        json.dump(digests(), f, indent=1, sort_keys=True)
        f.write("\n")
