"""The Fraction-keyed T-mesh builder, kept as the reference that
`tmeshdim.mesh.build_tmesh` must reproduce exactly: the same faces, edges
and vertices, the same incidence dicts in the same orders, and the same
exception class and message on invalid input."""

from tmeshdim.mesh import (DisconnectedError, Edge, MalformedError,
                           NotSimplyConnectedError, OverlapError, TMesh,
                           _as_rect)


def _overlapping_pairs(rects):
    active = []
    for k in sorted(range(len(rects)), key=lambda k: rects[k].x0):
        a = rects[k]
        active = [j for j in active if rects[j].x1 > a.x0]
        for j in active:
            b = rects[j]
            if max(a.y0, b.y0) < min(a.y1, b.y1):
                yield min(j, k), max(j, k)
        active.append(k)


def reference_build_tmesh(rects) -> TMesh:
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
