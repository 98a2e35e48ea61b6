"""Digests of the fixture reports, byte for byte.

report_golden.json holds, per fixture and per run, the sha256 of the
machine report that `tmeshdim bounds` writes and its exit code:
`--degrees 0,0:8,8` and `--degrees 2,2:6,6 --with-oracle`, each under the
auto, greedy and exhaustive orderings. Exhaustive refuses a level of more
than EXHAUSTIVE_LIMIT segments, so some of its runs pin an exit code of 1
and an empty report. The digests freeze every number the reports print,
including the known upper bounds below the exact dimension at bi-degrees
under the top deficit; a change that mends those re-records the file and
says so.

Re-record (only after checking that a change of output is intended):

    PYTHONPATH=src python -m tests.test_report_golden --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from tmeshdim.cli import main

from .helpers import fixture_path
from .test_oracle_golden import FIXTURES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "report_golden.json")
SWEEPS = (("0,0:8,8",), ("2,2:6,6", "--with-oracle"))
ORDERINGS = ("auto", "greedy", "exhaustive")


def run(argv):
    """(sha256 of what cli.main writes to stdout, its exit code), run in
    this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def digests():
    got = {}
    for name in FIXTURES:
        for degrees, *extra in SWEEPS:
            for ordering in ORDERINGS:
                argv = ["bounds", fixture_path(name), "--degrees", degrees,
                        *extra, "--ordering", ordering, "--report", "machine"]
                sha, code = run(argv)
                got[" ".join([name, degrees, *extra, ordering])] = {
                    "sha256": sha, "exit": code}
    return got


def test_fixture_reports_match_the_golden_digests():
    with open(GOLDEN) as f:
        want = json.load(f)
    got = digests()
    assert got.keys() == want.keys()
    bad = [case for case in want if got[case] != want[case]]
    assert not bad, f"{len(bad)} reports changed: {bad}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_report_golden --record")
    with open(GOLDEN, "w") as f:
        json.dump(digests(), f, indent=1, sort_keys=True)
        f.write("\n")
