"""T-mesh construction and validation, degree deficits, smoothness distributions.

A T-mesh here is a planar cell complex of closed axis-aligned rectangles with
rational corners. The canonical construction takes the rectangles as input,
declares every rectangle corner a vertex, and splits every rectangle side at
every vertex lying on it. The resulting edges are minimal cells: two edges
meet at most in a shared vertex, and a vertex interior to the domain has
exactly three (T-junction) or four (crossing) incident edges.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, itemgetter, not_


class MeshError(Exception):
    """Base class for all construction and validation failures."""


class OverlapError(MeshError):
    pass


class DisconnectedError(MeshError):
    pass


class NotSimplyConnectedError(MeshError):
    pass


class MalformedError(MeshError):
    pass


class UnorderedDeficitsError(MeshError):
    pass


class MissingZeroError(MeshError):
    pass


class InvalidSequenceError(MeshError):
    pass


class ChainConflictError(MeshError):
    pass


class DanglingOverrideError(MeshError):
    pass


# Bidegrees are plain (int, int) tuples; helpers below implement the
# componentwise partial order and lattice operations used everywhere.

def bd_le(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def bd_min(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]))


def bd_max(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def bd_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def bd_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def check_bidegree(m):
    """m as a pair of ints; ValueError unless m is a pair of integral
    values. A tuple of two exact ints is returned as it is."""
    if (type(m) is tuple and len(m) == 2 and type(m[0]) is int
            and type(m[1]) is int):
        return m
    try:
        a, b = m
        pair = int(a), int(b)
        if pair == (a, b):
            return pair
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"bi-degree {m!r} is not a pair of integers")


def _integer(value, what, *args) -> int:
    """value as an int, read as check_bidegree reads a bi-degree: 2.0 is 2,
    and a value that is not integral raises MalformedError naming
    what.format(*args)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise MalformedError(
            f"{what.format(*args)}: {value!r} is not an integer")
    return n


@dataclass(frozen=True, order=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1].

    Faces key most of the mesh's dicts, so the hash of the field tuple, the
    value the dataclass would compute, is taken once at construction.
    Pickling and copying go through the constructor, so a copy takes the
    hash afresh, as a new process must.
    """

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.x0, self.y0, self.x1, self.y1)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Rect, (self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True, order=True)
class Edge:
    """Minimal closed segment cell.

    axis is "h" or "v"; line is the fixed coordinate (y for horizontal,
    x for vertical); [lo, hi] is the span along the other coordinate.
    """

    axis: str
    line: Fraction
    lo: Fraction
    hi: Fraction

    # the hash is taken once, as for Rect; it covers the str axis itself,
    # whose hash is salted per process and may lie outside the range that
    # hash() maps to itself
    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.axis, self.line, self.lo, self.hi)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Edge, (self.axis, self.line, self.lo, self.hi)

    # build_tmesh sets this to the mesh's own two Vertex objects; an edge
    # built by hand, copied or unpickled makes plain tuples
    _ends = None

    def endpoints(self):
        if self._ends is not None:
            return self._ends
        if self.axis == "h":
            return (self.lo, self.line), (self.hi, self.line)
        return (self.line, self.lo), (self.line, self.hi)


class Vertex(tuple):
    """A vertex (x, y) that takes its tuple hash once, at construction.

    It equals, hashes, orders, prints and serializes as the plain tuple, so
    every vertex-keyed map answers a plain (x, y) key too. hashed, when
    given, must be hash((x, y)). Pickling and copying go through the
    constructor, as for Rect.
    """

    def __new__(cls, x, y, hashed=None):
        self = tuple.__new__(cls, (x, y))
        self._hash = tuple.__hash__(self) if hashed is None else hashed
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Vertex, tuple(self)


_new, _set = object.__new__, object.__setattr__


def _rect(x0, y0, x1, y1, hashed) -> Rect:
    """Rect(x0, y0, x1, y1) made without its constructor: hashed is the
    hash of the field tuple, which the parse and build_tmesh take from the
    coordinates' hashes, each taken once. hash() maps a number's hash to
    itself, so hash((x0, y0, x1, y1)) is hash((hash(x0), hash(y0),
    hash(x1), hash(y1))). The fields are set in the constructor's order."""
    cell = _new(Rect)
    _set(cell, "x0", x0)
    _set(cell, "y0", y0)
    _set(cell, "x1", x1)
    _set(cell, "y1", y1)
    _set(cell, "_hash", hashed)
    return cell


def _edge(axis, line, lo, hi, hashed, ends) -> Edge:
    """Edge(axis, line, lo, hi) made as _rect makes a Rect, with ends as
    its endpoints(). The axis stays a str in the tuple hashed hashes: a
    str's salted hash need not be its own hash."""
    cell = _new(Edge)
    _set(cell, "axis", axis)
    _set(cell, "line", line)
    _set(cell, "lo", lo)
    _set(cell, "hi", hi)
    _set(cell, "_hash", hashed)
    _set(cell, "_ends", ends)
    return cell


class ReadOnlyDict(dict):
    """A dict that refuses every change in place: the form of every map of
    the triple classes below, so that a triple cannot change under the
    records bounds() keeps for it. Pickling and copying go through the
    constructor."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} does not change in place")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _read_only(obj, *names):
    """Put each named map of obj in a ReadOnlyDict unless it is one, so a
    hand-built triple cannot change in place either."""
    for name in names:
        if not isinstance(getattr(obj, name), ReadOnlyDict):
            object.__setattr__(obj, name, ReadOnlyDict(getattr(obj, name)))


class TMesh:
    """Validated cell complex with face/edge/vertex incidence.

    Instances are immutable after construction and safe to share; their
    maps are ReadOnlyDicts (any other map given is copied into one). faces,
    edges and vertices come sorted, as build_tmesh makes them.
    """

    def __init__(self, faces, edges, vertices, edge_faces, face_edges,
                 vertex_edges):
        self.faces = faces
        self.edges = edges
        self.vertices = vertices
        self.edge_faces = edge_faces
        self.face_edges = face_edges
        self.vertex_edges = vertex_edges
        _read_only(self, "edge_faces", "face_edges", "vertex_edges")
        # each edge's faces are read once: a boundary edge bounds one face,
        # and a boundary vertex ends a boundary edge
        single = [len(fs) == 1
                  for fs in map(self.edge_faces.__getitem__, edges)]
        self.boundary_edges = frozenset(compress(edges, single))
        self.interior_edges = tuple(compress(edges, map(not_, single)))
        ends = {p for e in self.boundary_edges for p in e.endpoints()}
        outer = [v in ends for v in vertices]
        self.boundary_vertices = frozenset(compress(vertices, outer))
        self.interior_vertices = tuple(compress(vertices, map(not_, outer)))

    @cached_property
    def faces_sorted(self) -> bool:
        """Whether faces come in Rect order, as build_tmesh makes them;
        checked on first use, so once per mesh."""
        faces = self.faces
        return all(f < g for f, g in zip(faces, faces[1:]))

    def stats(self):
        return {
            "faces": len(self.faces),
            "edges": len(self.edges),
            "vertices": len(self.vertices),
            "interior_edges": len(self.interior_edges),
            "interior_vertices": len(self.interior_vertices),
        }


def _as_rect(spec) -> Rect:
    if isinstance(spec, Rect):
        r = spec
    else:
        x0, y0, x1, y1 = (Fraction(c) for c in spec)
        r = Rect(x0, y0, x1, y1)
    if not (r.x0 < r.x1 and r.y0 < r.y1):
        raise MalformedError(f"degenerate rectangle {r}")
    return r


def _corners(spec):
    """The four coordinates of a Rect, or of four values made Fractions."""
    if isinstance(spec, Rect):
        return spec.x0, spec.y0, spec.x1, spec.y1
    x0, y0, x1, y1 = (Fraction(c) for c in spec)
    return x0, y0, x1, y1


# a coordinate as its (numerator, denominator) pair, which hashes and
# compares in C where a Fraction does both in Python
_exact = attrgetter("numerator", "denominator")
_xs, _ys = itemgetter(0, 2), itemgetter(1, 3)


def _ranked(values):
    """The distinct values in increasing order, their hashes, and the rank
    of each value object keyed by its id. Each object's _exact pair is read
    once, and equal values given as distinct objects share their pair's
    rank, so each distinct value is sorted and hashed once."""
    objects = {id(c): c for c in values}
    exact = {i: _exact(c) for i, c in objects.items()}
    ordered = sorted(dict(zip(exact.values(), objects.values())).values())
    rank = {pair: k for k, pair in enumerate(map(_exact, ordered))}
    return (ordered, [hash(c) for c in ordered],
            {i: rank[pair] for i, pair in exact.items()})


def _overlapping_pairs(boxes):
    """Input-position pairs (i, j), i < j, of boxes whose interiors meet.

    A box is an (x0, y0, x1, y1) tuple of coordinate ranks. A sweep in
    order of x0 keeps the boxes whose x1 lies strictly beyond the current
    x0 and tests y-overlap against those only, so the cost follows the
    pairs of faces whose x-ranges overlap, not all pairs.
    """
    active = []
    at = None
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x0, y0, _, y1 = boxes[k]
        if x0 != at:
            at = x0
            active = [j for j in active if boxes[j][2] > x0]
        for j in active:
            b = boxes[j]
            if y0 < b[3] and b[1] < y1:
                yield min(j, k), max(j, k)
        active.append(k)


def components(adj):
    """The connected components of the graph on 0..len(adj)-1 in which node
    k's neighbours are adj[k]: each a sorted list, in the order of their
    least nodes."""
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for k in comp:  # comp grows as it is read: a breadth-first walk
            for j in adj[k]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        comp.sort()
        comps.append(comp)
    return comps


def build_tmesh(rects) -> TMesh:
    """Build the canonical cell complex from a list of rectangles.

    The result is independent of the input ordering. Raises OverlapError,
    DisconnectedError, NotSimplyConnectedError or MalformedError when the
    input does not describe a valid simply connected T-mesh. The overlap
    message names the first overlapping pair by input position, as
    "faces[i] and faces[j] overlap: ...".

    The complex is built on coordinate ranks. Each coordinate object is
    read once, and each distinct x and y value is sorted and hashed once;
    every rectangle becomes a box of four ints. The degenerate and overlap
    checks, the vertices, the edges and their incidences work on int tuples
    until the cells are made, once each, at the end, each taking its hash
    from its coordinates' hashes (see _rect), so no Fraction is hashed or
    compared past _ranked. Ranks order as the coordinates do, so every sort
    gives the order of the values.
    """
    given = list(rects)
    try:
        coords = [_corners(r) for r in given]
        xs, hx, x_rank = _ranked(chain.from_iterable(map(_xs, coords)))
        ys, hy, y_rank = _ranked(chain.from_iterable(map(_ys, coords)))
    except Exception:
        # a spec that cannot be read: raise what checking the specs in turn
        # meets first, which may be a degenerate rectangle before it
        for r in given:
            _as_rect(r)
        raise
    if not coords:
        raise MalformedError("no rectangles given")
    boxes = [(x_rank[id(x0)], y_rank[id(y0)], x_rank[id(x1)], y_rank[id(y1)])
             for x0, y0, x1, y1 in coords]
    rects = [r if isinstance(r, Rect) else
             _rect(*c, hash((hx[b[0]], hy[b[1]], hx[b[2]], hy[b[3]])))
             for r, c, b in zip(given, coords, boxes)]
    for r, (x0, y0, x1, y1) in zip(rects, boxes):
        if not (x0 < x1 and y0 < y1):
            raise MalformedError(f"degenerate rectangle {r}")
    pair = min(_overlapping_pairs(boxes), default=None)
    if pair is not None:
        i, j = pair
        raise OverlapError(
            f"faces[{i}] and faces[{j}] overlap: {rects[i]} and {rects[j]}")
    order = sorted(range(len(rects)), key=boxes.__getitem__)
    faces = tuple(rects[k] for k in order)
    boxes = [boxes[k] for k in order]

    corners = sorted({p for x0, y0, x1, y1 in boxes
                      for p in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))})
    on_vline = [[] for _ in xs]
    on_hline = [[] for _ in ys]
    for x, y in corners:
        on_vline[x].append(y)
        on_hline[y].append(x)

    # an edge is (axis, line, lo, hi) with axis 0 for "h" and 1 for "v",
    # so int edges sort as their Edge values do; edge_faces keeps the order
    # in which the faces, taken in sorted order, first meet each edge
    edge_faces = {}
    face_sides = []
    for f, (x0, y0, x1, y1) in enumerate(boxes):
        mine = []
        for axis, line, lo, hi, cuts in ((0, y0, x0, x1, on_hline[y0]),
                                         (0, y1, x0, x1, on_hline[y1]),
                                         (1, x0, y0, y1, on_vline[x0]),
                                         (1, x1, y0, y1, on_vline[x1])):
            a = bisect_left(cuts, lo)
            if cuts[a + 1] == hi:
                spans = ((lo, hi),)
            else:
                b = bisect_left(cuts, hi, a)
                spans = zip(cuts[a:b], cuts[a + 1:b + 1])
            for c0, c1 in spans:
                e = (axis, line, c0, c1)
                fs = edge_faces.get(e)
                if fs is None:
                    edge_faces[e] = [f]
                else:
                    fs.append(f)
                mine.append(e)
        face_sides.append(mine)

    def edge(e):
        axis, line, lo, hi = e
        if axis == 0:
            return Edge("h", ys[line], xs[lo], xs[hi])
        return Edge("v", xs[line], ys[lo], ys[hi])

    # two faces on one side of an edge would overlap, so after the overlap
    # check no edge bounds more than two faces; this check is a guard
    for e, fs in edge_faces.items():
        if len(fs) > 2:
            raise MalformedError(f"edge {edge(e)} bounds {len(fs)} faces")
    sorted_edges = sorted(edge_faces)

    corner_edges = {p: [] for p in corners}
    edge_ends = {}
    for e in sorted_edges:
        axis, line, lo, hi = e
        ends = edge_ends[e] = ((lo, line), (hi, line)) if axis == 0 else \
            ((line, lo), (line, hi))
        for p in ends:
            corner_edges[p].append(e)

    # connectivity of the face-adjacency graph through shared edges
    adj = [[] for _ in faces]
    for fs in edge_faces.values():
        if len(fs) == 2:
            adj[fs[0]].append(fs[1])
            adj[fs[1]].append(fs[0])
    first = components(adj)[0]
    if len(first) != len(faces):
        raise DisconnectedError(
            f"{len(faces) - len(first)} faces unreachable through shared edges")

    euler = len(corners) - len(sorted_edges) + len(faces)
    if euler != 1:
        raise NotSimplyConnectedError(f"V - E + F = {euler}, expected 1")

    # a guard too: after the overlap check an edge's two faces lie one on
    # each side of it, and then a vertex whose edges all bound two faces
    # has 3 or 4 edges of both axes (see test_mesh.py's
    # test_an_irregular_interior_star_is_an_overlap for the argument)
    for p, es in corner_edges.items():
        if any(len(edge_faces[e]) == 1 for e in es):
            continue  # a boundary vertex
        if len(es) not in (3, 4) or {e[0] for e in es} != {0, 1}:
            raise MalformedError(
                f"interior vertex {(xs[p[0]], ys[p[1]])} has irregular "
                f"star of {len(es)} edges")

    # every cell takes its hash from its coordinates' hashes (see _rect)
    vertex = {p: Vertex(xs[p[0]], ys[p[1]], hash((hx[p[0]], hy[p[1]])))
              for p in corners}
    made = {}
    for e in sorted_edges:
        axis, line, lo, hi = e
        p, q = edge_ends[e]
        if axis == 0:
            made[e] = _edge("h", ys[line], xs[lo], xs[hi],
                            hash(("h", hy[line], hx[lo], hx[hi])),
                            (vertex[p], vertex[q]))
        else:
            made[e] = _edge("v", xs[line], ys[lo], ys[hi],
                            hash(("v", hx[line], hy[lo], hy[hi])),
                            (vertex[p], vertex[q]))
    return TMesh(
        faces, tuple(made.values()), tuple(vertex.values()),
        ReadOnlyDict({made[e]: tuple(faces[f] for f in fs)
                      for e, fs in edge_faces.items()}),
        ReadOnlyDict({f: tuple(made[e] for e in mine)
                      for f, mine in zip(faces, face_sides)}),
        ReadOnlyDict({vertex[p]: tuple(made[e] for e in es)
                      for p, es in corner_edges.items()}))


def _diagonal_first_steps(a, b):
    """Chain from a to b with steps in {(1,0),(0,1),(1,1)}, diagonal first."""
    out = []
    cur = a
    while cur != b:
        step = (1 if cur[0] < b[0] else 0, 1 if cur[1] < b[1] else 0)
        cur = bd_add(cur, step)
        out.append(cur)
    return out


_ALLOWED_STEPS = {(1, 0), (0, 1), (1, 1)}

# The most levels a profile may have. Each level is a unit step of the
# chain, and every report does work per level, so a deficit such as
# [2^70, 1] is refused before its chain is built.
MAX_LEVELS = 1000


@dataclass(frozen=True)
class LeveledProfile:
    """Per-face deficits, induced edge/vertex deficits, and the level sequence."""

    face_deficit: dict
    edge_deficit: dict
    vertex_deficit: dict
    deficit_set: frozenset
    levels: tuple
    steps: tuple

    def __post_init__(self):
        _read_only(self, "face_deficit", "edge_deficit", "vertex_deficit")

    @property
    def top(self) -> int:
        """The index 𝔩 of the maximal level (levels run 0..top)."""
        return len(self.levels) - 1


def build_profile(mesh: TMesh, face_deficits,
                  explicit_levels=None) -> LeveledProfile:
    """Attach deficits to faces and derive induced deficits and levels.

    face_deficits maps faces to bidegree pairs; unlisted faces default to
    (0, 0). The level sequence is auto-built diagonal-first unless
    explicit_levels is given; one of more than MAX_LEVELS levels raises
    InvalidSequenceError.
    """
    fd = {}
    for f in mesh.faces:
        d = face_deficits.get(f)
        d = (0, 0) if d is None else (_integer(d[0], "deficit of {}", f),
                                      _integer(d[1], "deficit of {}", f))
        if d[0] < 0 or d[1] < 0:
            raise UnorderedDeficitsError(f"negative deficit {d} on {f}")
        fd[f] = d
    dset = frozenset(fd.values())
    if (0, 0) not in dset:
        raise MissingZeroError("no face carries deficit (0, 0)")
    ordered = sorted(dset)
    for a, b in zip(ordered, ordered[1:]):
        if not bd_le(a, b):
            raise UnorderedDeficitsError(f"incomparable deficits {a}, {b}")

    count = (1 + sum(max(bd_sub(b, a)) for a, b in zip(ordered, ordered[1:]))
             if explicit_levels is None else len(explicit_levels))
    if count > MAX_LEVELS:
        raise InvalidSequenceError(
            f"{count} levels exceed the limit of {MAX_LEVELS}")
    if explicit_levels is None:
        levels = [(0, 0)]
        for d in ordered[1:]:
            levels.extend(_diagonal_first_steps(levels[-1], d))
    else:
        levels = [(_integer(a, "levels[{}]", k), _integer(b, "levels[{}]", k))
                  for k, (a, b) in enumerate(explicit_levels)]
        if not levels or levels[0] != (0, 0):
            raise InvalidSequenceError("level sequence must start at (0, 0)")
        for a, b in zip(levels, levels[1:]):
            if bd_sub(b, a) not in _ALLOWED_STEPS:
                raise InvalidSequenceError(f"illegal step from {a} to {b}")
        if not dset <= set(levels):
            raise InvalidSequenceError("sequence omits an assigned deficit")
        if levels[-1] != max(ordered):
            raise InvalidSequenceError("sequence must end at the maximal deficit")

    # an edge takes the least deficit of its faces, and a vertex that of
    # the faces of its edges, the least of its edges'; the deficits form a
    # chain, on which the componentwise and the tuple order agree
    edge_faces, vertex_edges = mesh.edge_faces, mesh.vertex_edges
    ed = {e: min(map(fd.__getitem__, edge_faces[e])) for e in mesh.edges}
    vd = {v: min(map(ed.__getitem__, vertex_edges[v]))
          for v in mesh.vertices}

    steps = tuple(bd_sub(b, a) for a, b in zip(levels, levels[1:]))
    return LeveledProfile(ReadOnlyDict(fd), ReadOnlyDict(ed),
                          ReadOnlyDict(vd), dset, tuple(levels), steps)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per interior edge smoothness r and the crossed per-vertex pairs.

    vertex_pair maps an interior vertex to (r_h, r_v) where r_h is the r of
    the vertical line through it and r_v that of the horizontal line.
    """

    edge_r: dict
    vertex_pair: dict

    def __post_init__(self):
        _read_only(self, "edge_r", "vertex_pair")


def build_smoothness(mesh: TMesh, default_r: int,
                     overrides=()) -> SmoothnessProfile:
    default_r = _integer(default_r, "default smoothness")
    if default_r < 0:
        raise MalformedError(f"negative smoothness {default_r}")
    edge_r = dict.fromkeys(mesh.interior_edges, default_r)
    # an override matches the interior edges of its own line only, keyed by
    # the line's exact pair, so no Fraction is hashed
    on_line = {}
    if overrides:
        for e in mesh.interior_edges:
            on_line.setdefault((e.axis, *_exact(e.line)), []).append(e)
    for ov in overrides:
        axis, line, span, r = ov
        line = Fraction(line)
        lo, hi = Fraction(span[0]), Fraction(span[1])
        r = _integer(r, "smoothness of override ({}, {}, [{}, {}])",
                     axis, line, lo, hi)
        if r < 0:
            raise MalformedError(f"negative smoothness {r} in override")
        hit = False
        for e in on_line.get((axis, *_exact(line)), ()):
            if lo <= e.lo and e.hi <= hi:
                edge_r[e] = r
                hit = True
        if not hit:
            raise DanglingOverrideError(
                f"override ({axis}, {line}, [{lo}, {hi}]) matches no interior edge")

    # constancy along touching collinear chains, which only an override
    # that sets a second r can break
    if len(set(edge_r.values())) > 1:
        for v, es in mesh.vertex_edges.items():
            for axis in ("h", "v"):
                rs = {edge_r[e] for e in es
                      if e.axis == axis and e in edge_r}
                if len(rs) > 1:
                    raise ChainConflictError(
                        f"collinear edges at {v} carry distinct smoothness {sorted(rs)}")

    vertex_pair = {}
    for v in mesh.interior_vertices:
        r_h = None
        r_v = None
        for e in mesh.vertex_edges[v]:
            if e.axis == "v":
                r_h = edge_r[e]
            else:
                r_v = edge_r[e]
        vertex_pair[v] = (r_h, r_v)
    return SmoothnessProfile(ReadOnlyDict(edge_r), ReadOnlyDict(vertex_pair))
