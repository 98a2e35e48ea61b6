"""Mesh documents, report documents, and deterministic text rendering.

A mesh document is JSON with members "faces" (rectangles as rational strings
plus optional per-face deficits), "smoothness" (a default order plus span
overrides) and optional explicit "levels". Coordinates are exact: integers or
"p/q" strings, never floats. Report documents serialize DimReport values and
parse back to equal objects.
"""

import json
import os
import stat
import tempfile
from fractions import Fraction

from .bounds import DimReport, LevelRow
from .mesh import Rect, build_profile, build_smoothness, build_tmesh


class ParseError(Exception):
    """Malformed document; the message names the offending member."""


def _rat(value, where) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ParseError(
            f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _int(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _pair(value, where):
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected a pair")
    return _int(value[0], where), _int(value[1], where)


def parse_mesh_dict(doc):
    """Validate a mesh document and build the (mesh, profile, smoothness)
    triple. Overlaps are reported with the face indices of the document."""
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    faces = doc.get("faces")
    if not isinstance(faces, list) or not faces:
        raise ParseError("faces: expected a non-empty list")

    rects = []
    deficits = {}
    for k, entry in enumerate(faces):
        where = f"faces[{k}]"
        if not isinstance(entry, dict) or "rect" not in entry:
            raise ParseError(f"{where}: expected an object with a rect member")
        rect = entry["rect"]
        if not isinstance(rect, list) or len(rect) != 4:
            raise ParseError(f"{where}.rect: expected [x0, y0, x1, y1]")
        x0, y0, x1, y1 = (_rat(c, f"{where}.rect[{j}]")
                          for j, c in enumerate(rect))
        if not (x0 < x1 and y0 < y1):
            raise ParseError(f"{where}.rect: empty rectangle")
        r = Rect(x0, y0, x1, y1)
        rects.append(r)
        if "deficit" in entry:
            deficits[r] = _pair(entry["deficit"], f"{where}.deficit")

    mesh = build_tmesh(rects)

    smoothness_doc = doc.get("smoothness", {"default": 0})
    if not isinstance(smoothness_doc, dict):
        raise ParseError("smoothness: expected an object")
    default_r = _int(smoothness_doc.get("default", 0), "smoothness.default")
    override_docs = smoothness_doc.get("overrides", [])
    if not isinstance(override_docs, list):
        raise ParseError("smoothness.overrides: expected a list")
    overrides = []
    for k, ov in enumerate(override_docs):
        where = f"smoothness.overrides[{k}]"
        if not isinstance(ov, dict):
            raise ParseError(f"{where}: expected an object")
        axis = ov.get("orientation")
        if axis not in ("h", "v"):
            raise ParseError(f"{where}.orientation: expected 'h' or 'v'")
        line = _rat(ov.get("line"), f"{where}.line")
        span = ov.get("span")
        if not isinstance(span, list) or len(span) != 2:
            raise ParseError(f"{where}.span: expected [lo, hi]")
        lo = _rat(span[0], f"{where}.span[0]")
        hi = _rat(span[1], f"{where}.span[1]")
        overrides.append((axis, line, (lo, hi), _int(ov.get("r"),
                                                     f"{where}.r")))

    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, list):
            raise ParseError("levels: expected a list of pairs")
        levels = [_pair(entry, f"levels[{k}]")
                  for k, entry in enumerate(levels)]

    profile = build_profile(mesh, deficits, explicit_levels=levels)
    smoothness = build_smoothness(mesh, default_r, overrides)
    return mesh, profile, smoothness


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def parse_mesh_file(path):
    return parse_mesh_dict(_load_json(path))


def mesh_to_dict(mesh, profile, smoothness):
    """Serialize a triple back to a document; parsing it reproduces the
    triple exactly, including every rational coordinate."""
    faces = []
    for f in mesh.faces:
        entry = {"rect": [_rat_str(c) for c in (f.x0, f.y0, f.x1, f.y1)]}
        d = profile.face_deficit[f]
        if d != (0, 0):
            entry["deficit"] = list(d)
        faces.append(entry)

    counts = {}
    for r in smoothness.edge_r.values():
        counts[r] = counts.get(r, 0) + 1
    default_r = max(sorted(counts), key=lambda r: counts[r]) if counts else 0
    overrides = []
    chains = {}
    for e in smoothness.edge_r:
        chains.setdefault((e.axis, e.line), []).append(e)
    for (axis, line), es in sorted(chains.items()):
        es.sort(key=lambda e: e.lo)
        run = [es[0]]
        for e in es[1:] + [None]:
            if e is not None and e.lo == run[-1].hi \
                    and smoothness.edge_r[e] == smoothness.edge_r[run[0]]:
                run.append(e)
                continue
            r = smoothness.edge_r[run[0]]
            if r != default_r:
                overrides.append({"orientation": axis, "line": _rat_str(line),
                                  "span": [_rat_str(run[0].lo),
                                           _rat_str(run[-1].hi)], "r": r})
            if e is not None:
                run = [e]
    doc = {"faces": faces,
           "smoothness": {"default": default_r, "overrides": overrides},
           "levels": [list(lv) for lv in profile.levels]}
    return doc


def write_text_atomic(path, text: str):
    """Write via a temporary file in the same directory, then rename. The
    file gets the mode open(path, "w") would leave: the old file's, or
    0666 less the umask for a new one, where mkstemp gives 0600."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _key_out(key):
    return [key[0], _rat_str(key[1]), _rat_str(key[2])]


def _key_in(value, where):
    if not isinstance(value, list) or len(value) != 3 \
            or value[0] not in ("h", "v"):
        raise ParseError(f"{where}: expected [orientation, line, start]")
    return value[0], _rat(value[1], where), _rat(value[2], where)


def report_to_dict(report: DimReport):
    return {
        "m": list(report.m),
        "chi": report.chi,
        "chi_direct": report.chi_direct,
        "assumption_ok": report.assumption_ok,
        "violations": list(report.violations),
        "config1": report.config1,
        "case_b_levels": list(report.case_b_levels),
        "ordering_strategy": report.ordering_strategy,
        "lower_general": report.lower_general,
        "lower_special": report.lower_special,
        "upper": report.upper,
        "clamped": report.clamped,
        "certified": report.certified,
        "exact": report.exact,
        "oracle": report.oracle,
        "notes": list(report.notes),
        "levels": [{
            "i": r.index, "c": r.c, "h": r.h, "dim_m": r.dim_m,
            "h0_constant": r.h0_constant, "h0_ideal": r.h0_ideal,
            "segments": r.segment_count, "strategy": r.strategy,
            "ordering": [_key_out(k) for k in r.ordering],
            "weights": [[_key_out(k), w] for k, w in r.weights],
        } for r in report.rows],
    }


def report_from_dict(doc) -> DimReport:
    if not isinstance(doc, dict):
        raise ParseError("report row: expected an object")
    try:
        rows = tuple(
            LevelRow(lv["i"], lv["c"], lv["h"], lv["dim_m"],
                     lv["h0_constant"], lv["h0_ideal"], lv["segments"],
                     lv["strategy"],
                     tuple(_key_in(k, "ordering") for k in lv["ordering"]),
                     tuple((_key_in(k, "weights"), w)
                           for k, w in lv["weights"]))
            for lv in doc["levels"])
        return DimReport(
            tuple(doc["m"]), doc["chi"], doc["chi_direct"], rows,
            doc["assumption_ok"], tuple(doc["violations"]), doc["config1"],
            tuple(doc["case_b_levels"]), doc["ordering_strategy"],
            doc["lower_general"], doc["lower_special"], doc["upper"],
            doc["clamped"], doc["certified"], doc["exact"], doc["oracle"],
            tuple(doc["notes"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"report row: missing or malformed member ({exc})")


def parse_report_file(path):
    doc = _load_json(path)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ParseError(f"{path}: expected an object with a rows member")
    return [report_from_dict(row) for row in doc["rows"]]


def render_machine(reports, command="bounds") -> str:
    doc = {"command": command,
           "rows": [report_to_dict(r) for r in reports]}
    return dump_machine(doc)


def dump_machine(doc) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    With an indent, json encodes in pure Python, and its nested closures
    leave about thirty objects of cyclic garbage per call. A caller that
    renders every report then sets off full collections, each of which
    walks the whole heap, inside later calls. Here only scalars go to
    json.dumps, whose C encoder leaves none."""
    return _dump(doc, "") + "\n"


def _dump(value, indent):
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + ",\n".join(
            f"{inner}{json.dumps(k)}: {_dump(value[k], inner)}"
            for k in sorted(value)) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join(inner + _dump(v, inner)
                                  for v in value) + "\n" + indent + "]"
    return json.dumps(value)


def _fmt_m(m):
    return f"({m[0]},{m[1]})"


def render_text(reports) -> str:
    """Human-readable report table; deterministic for fixed inputs."""
    out = []
    for rep in reports:
        head = f"m={_fmt_m(rep.m)}  chi={rep.chi}"
        if not rep.assumption_ok:
            head += "  [diagnostics only: relative cycles at level "
            head += ",".join(str(i) for i in rep.violations) + "]"
        else:
            head += f"  bounds {rep.lower_general}"
            if rep.lower_special is not None:
                head += f" <= {rep.lower_special}"
            head += f" .. {rep.upper}"
            if rep.certified:
                head += f"  certified exact={rep.exact}"
            elif rep.exact is not None:
                head += f"  exact={rep.exact}"
        if rep.oracle is not None:
            head += f"  oracle={rep.oracle}"
        if rep.clamped:
            head += "  (upper clamped)"
        out.append(head)
        for r in rep.rows:
            line = (f"  level {r.index}: c={r.c} h={r.h} dimM={r.dim_m}"
                    f" h0C={r.h0_constant}")
            if r.h0_ideal is not None:
                line += f" h0I<={r.h0_ideal}"
            line += f" segments={r.segment_count}"
            if r.segment_count:
                line += f" [{r.strategy}]"
            out.append(line)
        for note in rep.notes:
            out.append(f"  note: {note}")
    return "\n".join(out) + "\n"


def render_certify_text(reports) -> str:
    out = []
    for rep in reports:
        if not rep.assumption_ok:
            out.append(f"m={_fmt_m(rep.m)}  not certified "
                       "[diagnostics only: relative cycles]")
            continue
        if rep.certified:
            out.append(f"m={_fmt_m(rep.m)}  certified  exact={rep.exact}")
            continue
        line = f"m={_fmt_m(rep.m)}  not certified"
        if not rep.config1:
            line += "  [practical smoothness configuration fails]"
        slack = {r.index: r.h0_ideal - r.h0_constant for r in rep.rows
                 if r.h0_ideal is not None and r.h0_ideal != r.h0_constant}
        if slack:
            line += "  slack " + ", ".join(
                f"level {i}: {s}" for i, s in sorted(slack.items()))
        if rep.lower_general is not None:
            lo = rep.lower_special if rep.lower_special is not None \
                else rep.lower_general
            line += f"  bounds {lo} .. {rep.upper}"
        out.append(line)
    return "\n".join(out) + "\n"
