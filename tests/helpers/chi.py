"""Chi and configuration 1 worked out cell by cell at each bi-degree, kept as
the reference that the box sums `tmeshdim.bounds` compiles once per mesh
must reproduce."""

from tmeshdim import all_levels, dim_M, dim_shift
from tmeshdim.graded import box_sum, vertex_increment_terms
from tmeshdim.mesh import bd_add, bd_max, bd_min, bd_sub


def _dstars(mesh, profile, v):
    """The least deficits of the horizontal and the vertical edges at v."""
    dh = dv = None
    for e in mesh.vertex_edges[v]:
        d = profile.edge_deficit[e]
        if e.axis == "h":
            dh = d if dh is None else bd_min(dh, d)
        else:
            dv = d if dv is None else bd_min(dv, d)
    return dh, dv


def reference_chi(mesh, profile, smoothness, m):
    """(leveled chi, direct chi) at m: per level, dim_M(0, 0) per face, less
    dim_M(0, 0) - dim_M(shift) per edge, plus dim_M(0, 0) less the vertex
    increment per vertex; directly, the same on the raw cells' deficits."""
    levels = profile.levels
    leveled = 0
    for lv in all_levels(mesh, profile):
        i = lv.index
        dm0 = dim_M(levels, i, (0, 0), m)
        leveled += len(lv.faces) * dm0
        for e in lv.interior_edges:
            r = smoothness.edge_r[e]
            shift = (0, r + 1) if e.axis == "h" else (r + 1, 0)
            leveled -= dm0 - dim_M(levels, i, shift, m)
        for v in lv.interior_vertices:
            r_h, r_v = smoothness.vertex_pair[v]
            leveled += dm0 - box_sum(vertex_increment_terms(
                levels, i, (0, r_v + 1), (r_h + 1, 0),
                *_dstars(mesh, profile, v)), m)

    direct = sum(dim_shift(m, profile.face_deficit[f]) for f in mesh.faces)
    for e in mesh.interior_edges:
        r = smoothness.edge_r[e]
        shift = (0, r + 1) if e.axis == "h" else (r + 1, 0)
        d = profile.edge_deficit[e]
        direct -= dim_shift(m, d) - dim_shift(m, bd_add(d, shift))
    for v in mesh.interior_vertices:
        r_h, r_v = smoothness.vertex_pair[v]
        e_h, e_v = (0, r_v + 1), (r_h + 1, 0)
        dh, dv = _dstars(mesh, profile, v)
        ideal = (dim_shift(m, bd_add(dh, e_h)) + dim_shift(m, bd_add(dv, e_v))
                 - dim_shift(m, bd_add(bd_max(dh, dv), bd_add(e_h, e_v))))
        direct += dim_shift(m, profile.vertex_deficit[v]) - ideal
    return leveled, direct


def reference_config1(mesh, profile, smoothness, m):
    """(holds, failures, case_b_levels) from every vertex's own pair."""
    levels, top = profile.levels, profile.top
    failures = []
    case_b = []
    for lv in all_levels(mesh, profile):
        gap = bd_sub(m, levels[min(lv.index, top)])
        prev_gap = bd_sub(m, levels[lv.index - 1])
        saturated = bool(lv.interior_vertices)
        for v in lv.interior_vertices:
            r_h, r_v = smoothness.vertex_pair[v]
            if not (gap[0] >= r_h and gap[1] >= r_v):
                failures.append((lv.index, v))
            if not (prev_gap[0] <= r_h and prev_gap[1] <= r_v):
                saturated = False
        if saturated:
            case_b.append(lv.index)
    return not failures, tuple(failures), tuple(case_b)
