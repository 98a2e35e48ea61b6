"""Order-preserving coordinate warps leave the combinatorial report
unchanged: the bounds and the certificate see only the order of the mesh
lines, not where they sit. When the smoothness varies from line to line,
the upper bound can move and the rest of the report cannot. Reflections
reverse that order and leave the whole report unchanged, the oracle
included, up to the segment keys."""

import dataclasses
import json
import random
from fractions import Fraction

from tmeshdim import bounds
from tmeshdim.meshfile import parse_mesh_dict

from .helpers import fixture_path
from .test_segment_golden import MIXED_R, mixed_r

# headline bi-degrees; test3 is left out because its exhaustive ordering
# search alone takes several seconds per report
HEADLINES = {"test1": (3, 3), "test2": (4, 4), "new_relations_a": (3, 3),
             "new_relations_b": (4, 4), "counterexample": (5, 5),
             "nested": (4, 4)}


def _cubic(t):
    return t * t * t + t


def _relabel(values, rng):
    """Send the sorted values to a strictly increasing sequence of random
    rationals."""
    out = {}
    at = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    for v in sorted(values):
        out[v] = at
        at += Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return out.__getitem__


def warp(doc, fx, fy):
    """The document with every x coordinate sent through fx and every y
    coordinate through fy, smoothness overrides included. fx and fy are
    monotone; a decreasing one swaps the ends of each rectangle side and
    of each override span."""
    def s(f, c):
        return str(f(Fraction(c)))

    def span(f, lo, hi):
        return sorted((s(f, lo), s(f, hi)), key=Fraction)

    faces = []
    for face in doc["faces"]:
        x0, y0, x1, y1 = face["rect"]
        (a0, a1), (b0, b1) = span(fx, x0, x1), span(fy, y0, y1)
        faces.append(dict(face, rect=[a0, b0, a1, b1]))
    out = dict(doc, faces=faces)
    if "smoothness" in doc:
        overrides = []
        for ov in doc["smoothness"].get("overrides", []):
            # a horizontal override sits on a y line and spans x values
            line_f, span_f = (fy, fx) if ov["orientation"] == "h" \
                else (fx, fy)
            overrides.append(dict(ov, line=s(line_f, ov["line"]),
                                  span=span(span_f, *ov["span"])))
        out["smoothness"] = dict(doc["smoothness"], overrides=overrides)
    return out


def _coordinates(doc):
    xs, ys = set(), set()
    for face in doc["faces"]:
        x0, y0, x1, y1 = (Fraction(c) for c in face["rect"])
        xs |= {x0, x1}
        ys |= {y0, y1}
    for ov in doc.get("smoothness", {}).get("overrides", []):
        line, span = Fraction(ov["line"]), {Fraction(c) for c in ov["span"]}
        if ov["orientation"] == "h":
            ys.add(line)
            xs |= span
        else:
            xs.add(line)
            ys |= span
    return xs, ys


def combinatorial_part(rep):
    rows = tuple((r.index, r.c, r.h, r.dim_m, r.h0_constant, r.h0_ideal)
                 for r in rep.rows)
    return (rep.chi, rep.chi_direct, rep.lower_general, rep.lower_special,
            rep.upper, rep.clamped, rep.certified, rows)


def test_order_preserving_warps_keep_the_report():
    rng = random.Random(5)
    for name, m in HEADLINES.items():
        with open(fixture_path(name)) as f:
            doc = json.load(f)
        xs, ys = _coordinates(doc)
        base = bounds(*parse_mesh_dict(doc), m)
        for fx, fy in ((_cubic, lambda t: 3 * t + t * t / 2),
                       (_relabel(xs, rng), _relabel(ys, rng))):
            rep = bounds(*parse_mesh_dict(warp(doc, fx, fy)), m)
            assert combinatorial_part(rep) == combinatorial_part(base), name
            if base.certified:
                assert rep.exact == base.exact, name


def _negate(t):
    return -t


def _identity(t):
    return t


def _mirror(t):
    # the reflection in t = 1/4, which puts lines on both sides of 0
    return Fraction(1, 2) - t


def _without_keys(rep):
    """The report with each level's ordering and weights, which name
    segments by their coordinates, replaced by the (axis, weight) pairs."""
    rows = tuple(dataclasses.replace(
        r, ordering=(), weights=sorted((k[0], w) for k, w in r.weights))
        for r in rep.rows)
    return dataclasses.replace(rep, rows=rows)


def test_reflections_keep_the_report():
    for name, m in HEADLINES.items():
        with open(fixture_path(name)) as f:
            doc = json.load(f)
        base = bounds(*parse_mesh_dict(doc), m, with_oracle=True)
        for fx, fy in ((_negate, _identity), (_identity, _negate),
                       (_negate, _negate), (_mirror, _mirror)):
            rep = bounds(*parse_mesh_dict(warp(doc, fx, fy)), m,
                         with_oracle=True)
            assert _without_keys(rep) == _without_keys(base), name


def mixed_r_document(name, seed):
    """The fixture's document with test_segment_golden.mixed_r's smoothness
    written as overrides, one per interior line over the span of its
    interior edges, so that warp moves them with the lines."""
    with open(fixture_path(name)) as f:
        doc = json.load(f)
    mesh, profile, _ = parse_mesh_dict(doc)
    spans = {}
    for e in mesh.interior_edges:
        lo, hi = spans.get((e.axis, e.line), (e.lo, e.hi))
        spans[e.axis, e.line] = (min(lo, e.lo), max(hi, e.hi))
    rng = random.Random(seed)
    overrides = [{"orientation": axis, "line": str(line),
                  "span": [str(lo), str(hi)], "r": rng.choice((0, 1, 2))}
                 for (axis, line), (lo, hi) in sorted(spans.items())]
    out = dict(doc, smoothness={"default": 0, "overrides": overrides})
    assert parse_mesh_dict(out)[2].edge_r == mixed_r(mesh, seed).edge_r
    return out, profile.levels[-1]


def position_free_part(rep):
    return (rep.chi, rep.chi_direct, rep.lower_general, rep.lower_special,
            rep.certified, rep.exact)


def test_warps_under_mixed_smoothness_keep_all_but_the_upper_bound():
    # when r varies from line to line, a term's span can depend on where
    # the knots sit, so upper may move under a warp; chi, the lower bounds
    # and the certificate see only the order of the lines. Checked at
    # bi-degrees at or above the top deficit, where the bounds hold
    rng = random.Random(14)
    certified = 0
    for seed, name in enumerate(MIXED_R):
        doc, top = mixed_r_document(name, seed)
        xs, ys = _coordinates(doc)
        warped = [warp(doc, _cubic, lambda t: 3 * t + t * t / 2)]
        warped += [warp(doc, _relabel(xs, rng), _relabel(ys, rng))
                   for _ in range(2)]
        for step in ((0, 0), (1, 2), (3, 1), (2, 2)):
            m = top[0] + step[0], top[1] + step[1]
            base = bounds(*parse_mesh_dict(doc), m, ordering="greedy")
            certified += base.certified
            for other in warped:
                rep = bounds(*parse_mesh_dict(other), m, ordering="greedy")
                assert position_free_part(rep) == position_free_part(base), \
                    (name, m)
    assert certified > 0


def test_a_warp_moves_the_upper_bound_under_mixed_smoothness():
    # test1 with mixed_r's seed-0 smoothness at (4, 2), greedy: with its
    # horizontal lines at y = 2, 3, 4 one term's generators are equally
    # spaced and span less, so upper is 26; moving y = 3 to 13/4 gives 24.
    # The dimension is 20 in both
    doc, _ = mixed_r_document("test1", 0)
    moved = warp(doc, _identity,
                 lambda t: Fraction(13, 4) if t == 3 else t)
    for d, upper in ((doc, 26), (moved, 24)):
        rep = bounds(*parse_mesh_dict(d), (4, 2), ordering="greedy",
                     with_oracle=True)
        assert (rep.upper, rep.oracle, rep.certified) == (upper, 20, False)
