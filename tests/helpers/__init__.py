"""Shared builders for the test suite."""

import os
from fractions import Fraction

import tmeshdim as _pkg
from tmeshdim import build_profile, build_smoothness, build_tmesh
from tmeshdim.mesh import Rect

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(_pkg.__file__)),
                        "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".json")


def make(rects, deficits=None, r=0, overrides=(), levels=None):
    """(mesh, profile, smoothness) from raw rectangles.

    deficits, when given, lists one bidegree pair per rectangle in input
    order; the canonical complex keeps the input rectangles as its faces.
    """
    keyed = [Rect(*(Fraction(c) for c in rc)) for rc in rects]
    mesh = build_tmesh(keyed)
    dmap = {}
    if deficits:
        for rect, d in zip(keyed, deficits):
            if tuple(d) != (0, 0):
                dmap[rect] = tuple(d)
    profile = build_profile(mesh, dmap, explicit_levels=levels)
    smoothness = build_smoothness(mesh, r, overrides)
    return mesh, profile, smoothness


def grid(k, span=None, r=0, deficits=None):
    """k x k uniform tensor grid on [0, span]^2."""
    span = Fraction(span if span is not None else k)
    step = span / k
    rects = [(i * step, j * step, (i + 1) * step, (j + 1) * step)
             for j in range(k) for i in range(k)]
    return make(rects, deficits=deficits, r=r)


def single_face(side=1, r=0):
    return make([(0, 0, side, side)], r=r)


def fraction_compares(monkeypatch, fn):
    """(the Fraction comparisons fn() makes, counting ==, <, <=, > and >=,
    fn()'s result). Tuples and containers compare the same object with
    itself without a call."""
    calls = 0

    def counted(plain):
        def counting(self, other):
            nonlocal calls
            calls += 1
            return plain(self, other)
        return counting

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    try:
        result = fn()
    finally:
        monkeypatch.undo()
    return calls, result
