"""Command line interface.

Subcommands: analyze (structure, levels, segments), bounds (dimension report
over a degree range), oracle (exact dimensions), certify (stability verdicts),
svg (one drawing per level). Exit codes: 0 ok, 1 input error, 2 assumption
violated, 3 internal consistency failure.
"""

import argparse
import os
import sys

from .bounds import DecompositionMismatch, bounds
from .levels import all_levels, island_components
from .mesh import MeshError
from .meshfile import (ParseError, _rat_str, dump_machine, parse_mesh_file,
                       render_certify_text, render_machine, render_text,
                       write_text_atomic)
from .oracle import oracle_spline_dim
from .segments import STRATEGIES, TooManyForExhaustive, analyze_segments


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _parse_degrees(spec: str):
    """Inclusive degree rectangle "m1,m2[:M1,M2]" swept in colex order."""

    def pair(txt):
        parts = txt.split(",")
        try:
            a, b = (int(p) for p in parts)
        except ValueError:
            raise _CliError(f"bad degree pair {txt!r}")
        if len(parts) != 2 or a < 0 or b < 0:
            raise _CliError(f"bad degree pair {txt!r}")
        return a, b

    lo, _, hi = spec.partition(":")
    m_lo = pair(lo)
    m_hi = pair(hi) if hi else m_lo
    if m_hi[0] < m_lo[0] or m_hi[1] < m_lo[1]:
        raise _CliError(f"empty degree range {spec!r}")
    return [(a, b) for b in range(m_lo[1], m_hi[1] + 1)
            for a in range(m_lo[0], m_hi[0] + 1)]


def _emit(text: str, out):
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args):
    mesh, profile, smoothness = parse_mesh_file(args.mesh)
    records = []
    for lv in all_levels(mesh, profile):
        an = analyze_segments(lv, smoothness)
        records.append({
            "i": lv.index, "c": lv.c, "h": lv.h,
            "faces": len(lv.faces),
            "interior_edges": len(lv.interior_edges),
            "interior_vertices": len(lv.interior_vertices),
            "islands": [len(comp) for comp, isl in island_components(lv)
                        if isl],
            "segments": [{"orientation": s.axis,
                          "line": _rat_str(s.line),
                          "span": [_rat_str(s.lo), _rat_str(s.hi)],
                          "interior": s.interior, "r": s.r}
                         for s in an.segments]})
    ok = all(rec["h"] == 0 for rec in records)
    st = mesh.stats()
    if args.report == "machine":
        doc = {"command": "analyze", "mesh": st,
               "levels_sequence": [list(lv) for lv in profile.levels],
               "assumption_ok": ok, "levels": records}
        _emit(dump_machine(doc), args.out)
        return 0 if ok else 2
    lines = [f"mesh: {st['faces']} faces, {st['edges']} edges, "
             f"{st['vertices']} vertices "
             f"({st['interior_edges']} interior edges, "
             f"{st['interior_vertices']} interior vertices)",
             "levels: " + " < ".join(f"({a},{b})" for a, b in profile.levels)]
    for rec in records:
        segs = rec["segments"]
        line = (f"level {rec['i']}: c={rec['c']} h={rec['h']} "
                f"faces={rec['faces']} segments={len(segs)} "
                f"interior-segments={sum(s['interior'] for s in segs)}")
        if rec["islands"]:
            line += " islands=" + ",".join(str(n) for n in rec["islands"])
        lines.append(line)
        for s in segs:
            tag = "interior" if s["interior"] else "boundary-linked"
            r = "mixed" if s["r"] is None else s["r"]
            lo, hi = s["span"]
            lines.append(f"  {s['orientation']} {s['line']} [{lo},{hi}] "
                         f"r={r} {tag}")
    lines.append("assumption: " + ("ok" if ok else "violated"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


def _reports(args, with_oracle=False):
    mesh, profile, smoothness = parse_mesh_file(args.mesh)
    return [bounds(mesh, profile, smoothness, m, ordering=args.ordering,
                   with_oracle=with_oracle)
            for m in _parse_degrees(args.degrees)]


def _cmd_bounds(args):
    reports = _reports(args, with_oracle=args.with_oracle)
    text = render_machine(reports, "bounds") if args.report == "machine" \
        else render_text(reports)
    _emit(text, args.out)
    return 0 if all(r.assumption_ok for r in reports) else 2


def _cmd_certify(args):
    reports = _reports(args)
    text = render_machine(reports, "certify") if args.report == "machine" \
        else render_certify_text(reports)
    _emit(text, args.out)
    return 0 if all(r.assumption_ok for r in reports) else 2


def _cmd_oracle(args):
    mesh, profile, smoothness = parse_mesh_file(args.mesh)
    rows = [(m, oracle_spline_dim(mesh, profile, smoothness, m))
            for m in _parse_degrees(args.degrees)]
    if args.report == "machine":
        doc = {"command": "oracle",
               "rows": [{"m": list(m), "dimension": v} for m, v in rows]}
        _emit(dump_machine(doc), args.out)
    else:
        _emit("".join(f"m=({m[0]},{m[1]})  dimension={v}\n"
                      for m, v in rows), args.out)
    return 0


def _cmd_svg(args):
    from .svg import render_level_svg

    mesh, profile, smoothness = parse_mesh_file(args.mesh)
    stem = os.path.splitext(os.path.basename(args.mesh))[0]
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for lv in all_levels(mesh, profile):
        path = os.path.join(outdir, f"{stem}-level-{lv.index}.svg")
        write_text_atomic(path, render_level_svg(lv, smoothness))
        print(path)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="tmeshdim",
                description="Dimension bounds for spline spaces of "
                            "non-uniform bi-degree on planar T-meshes.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help, degrees=False, ordering=False, oracle=False,
            report=True, outdir=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("mesh", help="mesh document (JSON)")
        if degrees:
            sp.add_argument("--degrees", required=True, metavar="SPEC",
                            help="bi-degree m1,m2 or inclusive range "
                                 "m1,m2:M1,M2 swept in colex order")
        if ordering:
            sp.add_argument("--ordering", default="auto",
                            choices=STRATEGIES,
                            help="segment ordering strategy per level")
        if oracle:
            sp.add_argument("--with-oracle", action="store_true",
                            help="also run the exact constraint-rank oracle")
        if report:
            sp.add_argument("--report", default="text",
                            choices=["text", "machine"],
                            help="output rendering")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write output here (atomic) instead of stdout"
                        + ("; a directory" if outdir else ""))
        sp.set_defaults(func=func)
        return sp

    add("analyze", _cmd_analyze,
        "mesh structure, levels, homology, and maximal segments")
    add("bounds", _cmd_bounds, "dimension bounds over a degree range",
        degrees=True, ordering=True, oracle=True)
    add("oracle", _cmd_oracle, "exact dimensions by constraint rank",
        degrees=True)
    add("certify", _cmd_certify, "stability certification verdicts",
        degrees=True, ordering=True)
    add("svg", _cmd_svg, "render one SVG drawing per level",
        report=False, outdir=True)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, MeshError, TooManyForExhaustive, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DecompositionMismatch as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
