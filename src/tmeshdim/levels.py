"""Active sub-meshes of a leveled profile and their relative topology.

Level i (1 <= i <= top+1) activates the cells whose deficit is at most
n_{i-1}. The pair (c, h) counts, over field coefficients, the connected
components not touching the domain boundary and the relative one-cycles of
the active region; the dimension machinery assumes h = 0 at every level.
"""

from dataclasses import dataclass

from .graded import _check_level
from .linalg import rank_sparse
from .mesh import TMesh, bd_le, components


class AssumptionViolated(Exception):
    """A level has nontrivial relative first homology (h != 0)."""


@dataclass(frozen=True)
class ActiveLevel:
    mesh: TMesh
    profile: object
    index: int
    faces: tuple
    edges: tuple
    interior_edges: tuple
    interior_vertices: tuple
    boundary_trace: tuple
    c: int
    h: int


def active_mesh(mesh: TMesh, profile, i: int) -> ActiveLevel:
    _check_level(profile.levels, i)
    cut = profile.levels[i - 1]
    faces = tuple(f for f in mesh.faces if bd_le(profile.face_deficit[f], cut))
    edges = tuple(e for e in mesh.edges if bd_le(profile.edge_deficit[e], cut))
    interior_edges = tuple(e for e in edges if e not in mesh.boundary_edges)
    interior_vertices = tuple(v for v in mesh.interior_vertices
                              if bd_le(profile.vertex_deficit[v], cut))
    boundary_trace = tuple(e for e in edges if e in mesh.boundary_edges)
    c, h = _betti(mesh, faces, interior_edges, interior_vertices)
    return ActiveLevel(mesh, profile, i, faces, edges, interior_edges,
                       interior_vertices, boundary_trace, c, h)


def _face_sign(f, e) -> int:
    # counterclockwise traversal with edges oriented toward increasing coordinate
    if e.axis == "h":
        return 1 if f.y0 == e.line else -1
    return 1 if f.x1 == e.line else -1


def _betti(mesh, faces, interior_edges, interior_vertices):
    eix = {e: k for k, e in enumerate(interior_edges)}
    vix = {v: k for k, v in enumerate(interior_vertices)}
    d2 = []
    for f in faces:
        row = {eix[e]: _face_sign(f, e)
               for e in mesh.face_edges[f] if e in eix}
        d2.append(row)
    d1 = []
    for e in interior_edges:
        tail, head = e.endpoints()
        row = {}
        if head in vix:
            row[vix[head]] = 1
        if tail in vix:
            row[vix[tail]] = row.get(vix[tail], 0) - 1
        d1.append(row)
    r2 = rank_sparse(d2)
    r1 = rank_sparse(d1)
    c = len(interior_vertices) - r1
    h = len(interior_edges) - r1 - r2
    return c, h


def all_levels(mesh: TMesh, profile):
    return [active_mesh(mesh, profile, i) for i in range(1, profile.top + 2)]


@dataclass(frozen=True)
class AssumptionReport:
    rows: tuple           # (level index, c, h) per level
    violations: tuple     # level indices with h != 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_assumptions(levels) -> AssumptionReport:
    rows = tuple((lv.index, lv.c, lv.h) for lv in levels)
    violations = tuple(lv.index for lv in levels if lv.h != 0)
    return AssumptionReport(rows, violations)


def island_components(level: ActiveLevel):
    """Connected components of the active region, flagged island when they
    avoid the domain boundary entirely: each as its faces in Rect order, the
    components in the order of their least faces.

    level.faces follows mesh.faces, which build_tmesh sorts, so faces are
    ordered by their positions there, with int compares; mesh.faces_sorted
    checks that once per mesh. A hand-built mesh whose faces come in
    another order has them sorted here first."""
    mesh = level.mesh
    faces = level.faces if mesh.faces_sorted else sorted(level.faces)
    place = {f: q for q, f in enumerate(faces)}
    adj = [[] for _ in faces]
    for e in level.interior_edges:
        # an active edge may bound a face that is not yet active
        ends = [place[g] for g in mesh.edge_faces[e] if g in place]
        for q in ends:
            adj[q] += ends
    comps = []
    for comp in components(adj):
        members = tuple(faces[q] for q in comp)
        verts = {p for f in members for e in mesh.face_edges[f]
                 for p in e.endpoints()}
        island = not (verts & mesh.boundary_vertices)
        comps.append((members, island))
    return comps
