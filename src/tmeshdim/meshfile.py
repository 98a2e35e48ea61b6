"""Mesh documents, report documents, and deterministic text rendering.

A mesh document is JSON with members "faces" (rectangles as rational strings
plus optional per-face deficits), "smoothness" (a default order plus span
overrides) and optional explicit "levels". Coordinates are exact: integers or
"p/q" strings, never floats. Report documents serialize DimReport values.
"""

import json
import os
import re
import stat
import tempfile
from fractions import Fraction

from .bounds import DimReport
from .mesh import _rect, build_profile, build_smoothness, build_tmesh


class ParseError(Exception):
    """Malformed document; the message names the offending member."""


# the strings a coordinate may be: Fraction alone would also take "1_0",
# "1e1", " 1/2 " and non-ASCII digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rat(value, known, where, *args):
    """value's record (Fraction, hash, numerator, denominator); known maps
    each (type, value) read so far to its record, so that a document
    parses and hashes each distinct coordinate once. where.format(*args)
    names value in the error."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where.format(*args)}: expected an exact "
                         f"rational, got {value!r}")
    key = type(value), value
    try:
        got = known.get(key)  # TypeError when value is unhashable
        if got is None:
            if isinstance(value, str) and not _RATIONAL.fullmatch(value):
                raise ValueError(value)
            x = Fraction(value)
            got = known[key] = x, hash(x), x.numerator, x.denominator
    except (ValueError, TypeError, ZeroDivisionError):
        raise ParseError(f"{where.format(*args)}: expected an integer or "
                         f"'p/q' string, got {value!r}")
    return got


def _rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _int(value, where, *args) -> int:
    """value, an int; where.format(*args) names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where.format(*args)}: expected an integer, "
                         f"got {value!r}")
    return value


def _pair(value, where, *args):
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where.format(*args)}: expected a pair")
    return _int(value[0], where, *args), _int(value[1], where, *args)


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
    known = {}
    for k, entry in enumerate(faces):
        if not isinstance(entry, dict) or "rect" not in entry:
            raise ParseError(
                f"faces[{k}]: expected an object with a rect member")
        rect = entry["rect"]
        if not isinstance(rect, list) or len(rect) != 4:
            raise ParseError(f"faces[{k}].rect: expected [x0, y0, x1, y1]")
        (x0, hx0, nx0, dx0), (y0, hy0, ny0, dy0), (x1, hx1, nx1, dx1), \
            (y1, hy1, ny1, dy1) = (_rat(c, known, "faces[{}].rect[{}]", k, j)
                                   for j, c in enumerate(rect))
        # denominators are positive, so the cross products order the values
        if not (nx0 * dx1 < nx1 * dx0 and ny0 * dy1 < ny1 * dy0):
            raise ParseError(f"faces[{k}].rect: empty rectangle")
        r = _rect(x0, y0, x1, y1, hash((hx0, hy0, hx1, hy1)))
        rects.append(r)
        if "deficit" in entry:
            deficits[r] = _pair(entry["deficit"], "faces[{}].deficit", k)

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
        line = _rat(ov.get("line"), known, f"{where}.line")[0]
        span = ov.get("span")
        if not isinstance(span, list) or len(span) != 2:
            raise ParseError(f"{where}.span: expected [lo, hi]")
        lo = _rat(span[0], known, f"{where}.span[0]")[0]
        hi = _rat(span[1], known, f"{where}.span[1]")[0]
        overrides.append((axis, line, (lo, hi), _int(ov.get("r"),
                                                     f"{where}.r")))

    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, list):
            raise ParseError("levels: expected a list of pairs")
        levels = [_pair(entry, "levels[{}]", k)
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
