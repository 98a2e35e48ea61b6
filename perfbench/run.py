"""tmeshdim benchmark: one closed-loop caller runs one case at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from src/. A case is
one bi-degree report for one mesh. Each run parses the workload's mesh
documents (set-up), then runs whole rounds of cases until the solve time
reaches --seconds, repeating the set-up between rounds, checks every
output, and prints one JSON object as its last line of output. With
--trace 0 that object holds the end-to-end metrics; with --trace 1 it
holds per-layer metrics from spans recorded around the calls into each
module, plus the tracing overhead against an untraced run of the same
cases in a fresh interpreter.

End-to-end times, and the solve time that ends a run, are scaled to a
reference host speed by a calibration kernel timed on a wall-clock timer
throughout the run (see hostspeed.py).

    python3 perfbench/run.py --workload NAME --record

re-records the reference results of NAME for the default seed.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

# String hashes decide the iteration order of sets of Edge and segment keys;
# pinning the seed makes that order, and the work it implies, repeat.
HASH_SEED = "0"

sys.path.insert(0, HERE)
import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

# spans whose self times make up the solve time
SOLVE_SPANS = ("bounds.bounds", "bounds.euler", "bounds.config1",
               "levels.all_levels", "segments.analyze", "segments.order",
               "segments.contribution_sets", "segments.h0_ideal_upper",
               "graded.power_sum_in", "oracle.assemble", "linalg.rank_oracle",
               "linalg.rank_topology", "linalg.rank_graded")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="run exactly this many cases instead of --seconds "
                        "(used for the untraced twin of a traced run)")
    p.add_argument("--record", action="store_true",
                   help="record reference results for the default seed")
    return p.parse_args(argv)


def _pinned_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _interior_edges(doc):
    """Interior edge count of the mesh, or None when some level has
    relative cycles (h != 0), which leaves it without bounds."""
    from tmeshdim.levels import all_levels, check_assumptions
    from tmeshdim.meshfile import parse_mesh_dict

    mesh, profile, _ = parse_mesh_dict(doc)
    if not check_assumptions(all_levels(mesh, profile)).ok:
        return None
    return len(mesh.interior_edges)


def _set_up(meter, meshfile, docs):
    """Parse every document once; return the triples and the timed region.
    A full collection first keeps garbage left by earlier work from being
    collected inside the timed region."""
    gc.collect()
    return meter.measure(
        lambda: [meshfile.parse_mesh_dict(doc) for doc in docs])


def _attempt(api, triple, case):
    """(report, certificate, None), or (None, None, exc) when it raises."""
    try:
        return _run_case(api, triple, case) + (None,)
    except Exception as exc:  # any raise counts as a failed case
        return None, None, exc


def _run_case(api, triple, case):
    if case.mode == "greedy+oracle":
        report = api.bounds(*triple, case.m, ordering="greedy",
                            with_oracle=True)
        return report, api.certify_stable(*triple, case.m,
                                          ordering="greedy")
    return api.bounds(*triple, case.m, ordering="auto",
                      with_oracle=case.mode == "auto+oracle"), None


class Outcome:
    def __init__(self):
        self.cases = []         # timed regions, one per case
        self.failed = 0
        self.results = {}
        self.rounds = 0


def _solve(meter, api, meshfile, wl, triples, reference, seconds, limit,
           tracer, setup, reps, record=False):
    """Run whole rounds until the scaled solve time reaches seconds, or
    exactly limit cases, checking each output outside the timed region.

    Between rounds it repeats the set-up, appending each time to setup, in
    step with the solve time, so that the reps set-ups of a run are timed
    under the same host conditions as its cases, not only at the cold
    start. The caller makes up any set-ups still missing at the end.
    """
    out = Outcome()
    expected = {}
    solve = 0.0
    seen = set()
    for batch in wl.rounds():
        if record:
            if all(case.id in seen for case in batch):
                break
        elif limit is None and solve >= seconds:
            break
        while len(setup) < reps * min(solve / seconds, 1.0):
            setup.append(_set_up(meter, meshfile, wl.docs)[1])
        out.rounds += 1
        for case in batch:
            if limit is not None and len(out.cases) >= limit:
                return out
            if tracer is not None:
                tracer.case = case.id
            (report, certificate, error), region = meter.measure(
                _attempt, api, triples[case.mesh], case)
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                text = meshfile.render_machine([report], "bounds")
                got = checks.summary(report, text)
                problems = checks.invariant_problems(report, certificate)
                if case.expected is not None:
                    if case.expected not in expected:
                        with open(case.expected, "rb") as f:
                            expected[case.expected] = f.read()
                    if text.encode() != expected[case.expected]:
                        problems.append("machine report differs from "
                                        + os.path.relpath(case.expected, ROOT))
                want = reference.get(case.id)
                if want is not None and want != got:
                    problems.append(f"reference {want}, got {got}")
                out.results[case.id] = got
            seen.add(case.id)
            solve += region.scaled()
            out.cases.append(region)
            if problems:
                out.failed += 1
                print(f"FAILED {case.id}: " + "; ".join(problems),
                      file=sys.stderr)
    return out


def _tail(latencies):
    """(value, percentile) at the highest percentile with at least ten
    cases beyond it; the maximum when there are ten cases or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _untraced_solve_s(args, cases):
    """Scaled solve time of the first `cases` cases, untraced, in a fresh
    interpreter with the same seed."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "0", "--cases", str(cases)]
    proc = subprocess.run(cmd, env=_pinned_env(), stdout=subprocess.PIPE,
                          text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return cases / result["metrics"]["cases_per_s"]["value"]


def _layer_metrics(tracer, graded, triples, reps, cases, span_s,
                   overhead_s):
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    info = graded._power_sum_in_cached.cache_info()
    rows = counts["linalg.rank_oracle_rows"]
    return {
        "meshfile.parse_s": self_s["meshfile.parse"] / reps,
        "mesh.build_tmesh_s": self_s["mesh.build_tmesh"] / reps,
        "mesh.build_profile_s": self_s["mesh.build_profile"] / reps,
        "mesh.build_smoothness_s": self_s["mesh.build_smoothness"] / reps,
        "mesh.faces": sum(len(t[0].faces) for t in triples),
        "mesh.edges": sum(len(t[0].edges) for t in triples),
        "mesh.vertices": sum(len(t[0].vertices) for t in triples),
        "levels.all_levels_s": self_s["levels.all_levels"],
        "levels.all_levels_calls": calls["levels.all_levels"],
        "bounds.calls": calls["bounds.bounds"],
        "bounds.euler_s": self_s["bounds.euler"],
        "bounds.config1_s": self_s["bounds.config1"],
        "bounds.self_s": self_s["bounds.bounds"],
        "segments.analyze_s": self_s["segments.analyze"],
        "segments.analyze_calls": calls["segments.analyze"],
        "segments.order_s": self_s["segments.order"],
        "segments.orderings_tried": counts["segments.orderings_tried"],
        "segments.contribution_sets_s": self_s["segments.contribution_sets"],
        "segments.contribution_sets_calls":
            calls["segments.contribution_sets"],
        "segments.h0_ideal_upper_s": self_s["segments.h0_ideal_upper"],
        "graded.power_sum_in_s": self_s["graded.power_sum_in"],
        "graded.power_sum_in_calls": calls["graded.power_sum_in"],
        "graded.cache_hits": info.hits,
        "graded.cache_misses": info.misses,
        "graded.cache_size": info.currsize,
        "oracle.assemble_s": self_s["oracle.assemble"],
        "oracle.calls": calls["oracle.assemble"],
        "oracle.unknowns": (counts["oracle.dimension"]
                            + counts["linalg.rank_oracle_rank"]),
        "linalg.rank_oracle_s": self_s["linalg.rank_oracle"],
        "linalg.rank_oracle_calls": calls["linalg.rank_oracle"],
        "linalg.rank_oracle_rows": rows,
        "linalg.rank_oracle_nnz": counts["linalg.rank_oracle_nnz"],
        "linalg.rank_oracle_yield":
            counts["linalg.rank_oracle_rank"] / rows if rows else 0.0,
        "linalg.rank_topology_s": self_s["linalg.rank_topology"],
        "linalg.rank_topology_calls": calls["linalg.rank_topology"],
        "linalg.rank_topology_rows": counts["linalg.rank_topology_rows"],
        "linalg.rank_graded_s": self_s["linalg.rank_graded"],
        "linalg.rank_graded_calls": calls["linalg.rank_graded"],
        "trace.cases": cases,
        "trace.solve_s": span_s,
        "trace.overhead_s": overhead_s,
        "trace.coverage": sum(self_s[s] for s in SOLVE_SPANS) / span_s,
    }


def main(argv=None):
    args = _args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  _pinned_env())

    if not os.path.isfile(os.path.join(SRC, "tmeshdim", "__init__.py")):
        print(f"error: no tmeshdim sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tmeshdim.meshfile  # noqa: F401  (registers every submodule used)

    api = sys.modules["tmeshdim.bounds"]
    meshfile = sys.modules["tmeshdim.meshfile"]
    graded = sys.modules["tmeshdim.graded"]
    seed = workloads.DEFAULT_SEED if args.record else args.seed
    wl = workloads.WORKLOADS[args.workload](ROOT, seed, _interior_edges)
    reference = {} if args.record else checks.load_reference(
        args.workload, seed, wl.seeded)

    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    # the untraced twin of a traced run needs its solve time only
    reps = 1 if args.cases is not None else wl.setup_reps
    meter = hostspeed.Meter()
    meter.start()
    try:
        triples, first = _set_up(meter, meshfile, wl.docs)
        setup = [first]
        out = _solve(meter, api, meshfile, wl, triples, reference,
                     args.seconds, args.cases, tracer, setup, reps,
                     record=args.record)
        while len(setup) < reps:
            setup.append(_set_up(meter, meshfile, wl.docs)[1])
    finally:
        meter.stop()
    if tracer is not None:
        tracer.restore()

    if args.record:
        checks.write_reference(args.workload, seed, wl.seeded, out.results)
        print(f"recorded {len(out.results)} cases, {out.failed} failed, to "
              + os.path.relpath(checks.reference_path(args.workload), ROOT))
        return 1 if out.failed else 0

    latencies = [region.scaled() for region in out.cases]
    wall = [region.wall() for region in out.cases]
    attempted = len(latencies)
    solve_s = sum(latencies)
    wall_s = sum(wall)
    tail, pct = _tail(latencies)
    print(f"{args.workload} seed {seed}: {attempted} cases in {out.rounds} "
          f"rounds, {solve_s:.2f} s solve at reference speed ({wall_s:.2f} s "
          f"wall, p50 {1000 * statistics.median(wall):.1f} ms wall), tail at "
          f"p{pct:.1f}, {len(reference)} reference cases, "
          f"{out.failed} failed")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(r.scaled() for r in setup), "s"),
            "cases_per_s": (attempted / solve_s, "1/s"),
            "case_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "case_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mib": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans = os.path.join(TRACE_DIR, f"{args.workload}-{seed}.jsonl")
        tracer.write(spans)
        overhead_s = solve_s - _untraced_solve_s(args, attempted)
        # spans include the meter's ticks, so coverage is taken against
        # the cases' whole time
        values = _layer_metrics(tracer, graded, triples, reps, attempted,
                                sum(r.t1 - r.t0 for r in out.cases),
                                overhead_s)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        metrics = {m["name"]: (values[m["name"]], m["unit"])
                   for m in per_layer}
        print(f"{len(tracer.spans)} spans written to "
              + os.path.relpath(spans, ROOT))

    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
