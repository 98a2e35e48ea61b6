"""T-mesh construction and validation, degree deficits, smoothness distributions.

A T-mesh here is a planar cell complex of closed axis-aligned rectangles with
rational corners. The canonical construction takes the rectangles as input,
declares every rectangle corner a vertex, and splits every rectangle side at
every vertex lying on it. The resulting edges are minimal cells: two edges
meet at most in a shared vertex, and a vertex interior to the domain has
exactly three (T-junction) or four (crossing) incident edges.
"""

from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True, order=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction


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

    def endpoints(self):
        if self.axis == "h":
            return (self.lo, self.line), (self.hi, self.line)
        return (self.line, self.lo), (self.line, self.hi)


class TMesh:
    """Validated cell complex with face/edge/vertex incidence.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, faces, edges, vertices, edge_faces, face_edges,
                 vertex_edges):
        self.faces = faces
        self.edges = edges
        self.vertices = vertices
        self.edge_faces = edge_faces
        self.face_edges = face_edges
        self.vertex_edges = vertex_edges
        self.boundary_edges = frozenset(
            e for e in edges if len(edge_faces[e]) == 1)
        self.interior_edges = tuple(
            e for e in edges if e not in self.boundary_edges)
        self.boundary_vertices = frozenset(
            v for v in vertices
            if any(e in self.boundary_edges for e in vertex_edges[v]))
        self.interior_vertices = tuple(
            v for v in vertices if v not in self.boundary_vertices)
        self.vertex_faces = {
            v: tuple(sorted({f for e in vertex_edges[v]
                             for f in edge_faces[e]}))
            for v in vertices}

    def vertex_class(self, v) -> str:
        if v in self.boundary_vertices:
            return "boundary"
        return "crossing" if len(self.vertex_edges[v]) == 4 else "t-junction"

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


def _overlapping_pairs(rects):
    """Input-position pairs (i, j), i < j, of rectangles whose interiors
    meet.

    A sweep in order of x0 keeps the rectangles whose x1 lies strictly
    beyond the current x0 and tests y-overlap against those only, so the
    cost follows the pairs of faces whose x-ranges overlap, not all pairs.
    """
    active = []
    for k in sorted(range(len(rects)), key=lambda k: rects[k].x0):
        a = rects[k]
        active = [j for j in active if rects[j].x1 > a.x0]
        for j in active:
            b = rects[j]
            if max(a.y0, b.y0) < min(a.y1, b.y1):
                yield min(j, k), max(j, k)
        active.append(k)


def build_tmesh(rects) -> TMesh:
    """Build the canonical cell complex from a list of rectangles.

    The result is independent of the input ordering. Raises OverlapError,
    DisconnectedError, NotSimplyConnectedError or MalformedError when the
    input does not describe a valid simply connected T-mesh. The overlap
    message names the first overlapping pair by input position, as
    "faces[i] and faces[j] overlap: ...".
    """
    rects = [_as_rect(r) for r in rects]
    if not rects:
        raise MalformedError("no rectangles given")
    pair = min(_overlapping_pairs(rects), default=None)
    if pair is not None:
        i, j = pair
        raise OverlapError(
            f"faces[{i}] and faces[{j}] overlap: {rects[i]} and {rects[j]}")
    faces = sorted(rects)

    vertices = sorted({p for f in faces
                       for p in ((f.x0, f.y0), (f.x1, f.y0),
                                 (f.x0, f.y1), (f.x1, f.y1))})
    on_vline = {}
    on_hline = {}
    for (x, y) in vertices:
        on_vline.setdefault(x, []).append(y)
        on_hline.setdefault(y, []).append(x)
    for ys in on_vline.values():
        ys.sort()
    for xs in on_hline.values():
        xs.sort()

    def side_edges(axis, line, lo, hi):
        coords = on_hline[line] if axis == "h" else on_vline[line]
        cuts = [c for c in coords if lo <= c <= hi]
        return [Edge(axis, line, a, b) for a, b in zip(cuts, cuts[1:])]

    # edge_faces[e] starts with e itself, so a side two faces share is one
    # Edge object, the first one built for it
    edge_faces = {}
    face_edges = {}
    for f in faces:
        mine = []
        for axis, line, lo, hi in (("h", f.y0, f.x0, f.x1),
                                   ("h", f.y1, f.x0, f.x1),
                                   ("v", f.x0, f.y0, f.y1),
                                   ("v", f.x1, f.y0, f.y1)):
            for e in side_edges(axis, line, lo, hi):
                known = edge_faces.setdefault(e, [e])
                known.append(f)
                mine.append(known[0])
        face_edges[f] = tuple(mine)
    edges = sorted(edge_faces)
    for e, (_, *fs) in edge_faces.items():
        if len(fs) > 2:
            raise MalformedError(f"edge {e} bounds {len(fs)} faces")
        edge_faces[e] = tuple(sorted(fs))

    vertex_edges = {v: [] for v in vertices}
    for e in edges:
        for p in e.endpoints():
            vertex_edges[p].append(e)
    vertex_edges = {v: tuple(sorted(es)) for v, es in vertex_edges.items()}

    # connectivity of the face-adjacency graph through shared edges
    adj = {f: set() for f in faces}
    for fs in edge_faces.values():
        if len(fs) == 2:
            adj[fs[0]].add(fs[1])
            adj[fs[1]].add(fs[0])
    seen = {faces[0]}
    stack = [faces[0]]
    while stack:
        for g in adj[stack.pop()]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    if len(seen) != len(faces):
        raise DisconnectedError(
            f"{len(faces) - len(seen)} faces unreachable through shared edges")

    if len(vertices) - len(edges) + len(faces) != 1:
        raise NotSimplyConnectedError(
            f"V - E + F = {len(vertices) - len(edges) + len(faces)}, expected 1")

    mesh = TMesh(tuple(faces), tuple(edges), tuple(vertices),
                 edge_faces, face_edges, vertex_edges)
    for v in mesh.interior_vertices:
        es = mesh.vertex_edges[v]
        axes = {e.axis for e in es}
        if len(es) not in (3, 4) or axes != {"h", "v"}:
            raise MalformedError(
                f"interior vertex {v} has irregular star of {len(es)} edges")
    return mesh


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


@dataclass(frozen=True)
class LeveledProfile:
    """Per-face deficits, induced edge/vertex deficits, and the level sequence."""

    face_deficit: dict
    edge_deficit: dict
    vertex_deficit: dict
    deficit_set: frozenset
    levels: tuple
    steps: tuple

    @property
    def top(self) -> int:
        """The index 𝔩 of the maximal level (levels run 0..top)."""
        return len(self.levels) - 1


def build_profile(mesh: TMesh, face_deficits,
                  explicit_levels=None) -> LeveledProfile:
    """Attach deficits to faces and derive induced deficits and levels.

    face_deficits maps faces to bidegree pairs; unlisted faces default to
    (0, 0). The level sequence is auto-built diagonal-first unless
    explicit_levels is given.
    """
    fd = {}
    for f in mesh.faces:
        d = face_deficits.get(f, (0, 0))
        d = (int(d[0]), int(d[1]))
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

    if explicit_levels is None:
        levels = [(0, 0)]
        for d in ordered[1:]:
            levels.extend(_diagonal_first_steps(levels[-1], d))
    else:
        levels = [(int(a), int(b)) for a, b in explicit_levels]
        if not levels or levels[0] != (0, 0):
            raise InvalidSequenceError("level sequence must start at (0, 0)")
        for a, b in zip(levels, levels[1:]):
            if bd_sub(b, a) not in _ALLOWED_STEPS:
                raise InvalidSequenceError(f"illegal step from {a} to {b}")
        if not dset <= set(levels):
            raise InvalidSequenceError("sequence omits an assigned deficit")
        if levels[-1] != max(ordered):
            raise InvalidSequenceError("sequence must end at the maximal deficit")

    ed = {}
    for e in mesh.edges:
        fs = mesh.edge_faces[e]
        d = fd[fs[0]]
        for f in fs[1:]:
            d = bd_min(d, fd[f])
        ed[e] = d
    vd = {}
    for v in mesh.vertices:
        ds = [fd[f] for f in mesh.vertex_faces[v]]
        d = ds[0]
        for x in ds[1:]:
            d = bd_min(d, x)
        vd[v] = d

    steps = tuple(bd_sub(b, a) for a, b in zip(levels, levels[1:]))
    return LeveledProfile(fd, ed, vd, dset, tuple(levels), steps)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per interior edge smoothness r and the crossed per-vertex pairs.

    vertex_pair maps an interior vertex to (r_h, r_v) where r_h is the r of
    the vertical line through it and r_v that of the horizontal line.
    """

    edge_r: dict
    vertex_pair: dict


def build_smoothness(mesh: TMesh, default_r: int,
                     overrides=()) -> SmoothnessProfile:
    if default_r < 0:
        raise MalformedError(f"negative smoothness {default_r}")
    edge_r = {e: int(default_r) for e in mesh.interior_edges}
    for ov in overrides:
        axis, line, span, r = ov
        line = Fraction(line)
        lo, hi = Fraction(span[0]), Fraction(span[1])
        if int(r) < 0:
            raise MalformedError(f"negative smoothness {r} in override")
        hit = False
        for e in mesh.interior_edges:
            if e.axis == axis and e.line == line and lo <= e.lo and e.hi <= hi:
                edge_r[e] = int(r)
                hit = True
        if not hit:
            raise DanglingOverrideError(
                f"override ({axis}, {line}, [{lo}, {hi}]) matches no interior edge")

    # constancy along touching collinear chains
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
    return SmoothnessProfile(edge_r, vertex_pair)
