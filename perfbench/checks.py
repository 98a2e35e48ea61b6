"""Output checks for every case the benchmark runs.

Each case is checked against the invariants the paper's bounds must meet,
against the frozen fixture report where it has one (byte for byte), and
against the reference results recorded for the workload's default seed.
"""

import hashlib
import json
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json")


def load_reference(workload, seed, seeded):
    """Recorded results by case id, or {} when none apply to this seed."""
    try:
        with open(reference_path(workload)) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return {}
    if seeded and doc["seed"] != seed:
        return {}
    return doc["cases"]


def write_reference(workload, seed, seeded, results):
    """One case per line, so a changed case shows as one changed line."""
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                        for k, v in sorted(results.items()))
    with open(reference_path(workload), "w") as f:
        f.write(f'{{"seed": {json.dumps(seed if seeded else None)}, '
                f'"cases": {{\n{lines}\n}}}}\n')


def summary(report, machine_text):
    """Headline numbers of a report plus a digest of its full machine form,
    which also covers the per-level rows, orderings and notes."""
    digest = hashlib.sha256(machine_text.encode()).hexdigest()[:16]
    return [report.chi, report.lower_general, report.lower_special,
            report.upper, report.certified, report.exact, report.oracle,
            digest]


def invariant_problems(report, certificate):
    """Violations of properties every correct report has."""
    out = []
    if not report.assumption_ok:
        out.append("bounds suppressed: a level has relative cycles")
        return out
    upper = report.upper
    if report.lower_general > upper:
        out.append(f"lower {report.lower_general} > upper {upper}")
    if report.lower_special is not None and report.lower_special > upper:
        out.append(f"special lower {report.lower_special} > upper {upper}")
    if report.oracle is not None:
        if not report.lower_general <= report.oracle <= upper:
            out.append(f"oracle {report.oracle} outside "
                       f"[{report.lower_general}, {upper}]")
        if report.config1 and report.chi > report.oracle:
            out.append(f"chi {report.chi} > oracle {report.oracle} "
                       "under configuration 1")
    if report.certified and (report.exact != report.chi or
                             report.oracle not in (None, report.exact)):
        out.append(f"certified but exact {report.exact}, chi {report.chi}, "
                   f"oracle {report.oracle}")
    if certificate is not None:
        stable, value = certificate
        if stable != report.certified or (stable and value != report.exact):
            out.append(f"certify_stable gave {certificate}, report gave "
                       f"{(report.certified, report.exact)}")
    return out
