"""poissonforge benchmark: seeded workloads driven through the CLI entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gauge|ranks|spray|all --seed N --seconds S --trace 0|1

Cases run back to back in this process (a closed loop with one client),
through ``poissonforge.cli.main``.  A run makes a fixed number of passes
over the workload's cases, set by ``--seconds``; every result is checked by
an oracle that does not reuse the timed computation.  With ``--trace 0``
the last line of output holds the end-to-end metrics, timed in seconds at
the reference speed of ``speed.py``; with ``--trace 1`` it
holds the per-layer metrics of a traced pass.  See bench/README.md.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before NumPy is imported

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # this process plus four fresh interpreters
DEADLINE_S = 120  # no pass starts after this many seconds of measuring
WORKLOAD_NAMES = ("gauge", "ranks", "spray")
# Nominal seconds of one untraced pass on a 2-vCPU x86-64 host.  They turn
# --seconds into a fixed number of passes; they are never measured.
PASS_SECONDS = {"gauge": 7.0, "ranks": 7.0, "spray": 6.0}
# A case is light if its first latency is at most LIGHT_FACTOR times the
# median case's.  Light cases decide case_p50_s, and one draw of a short
# case is noisier than one of a long case, so each pass is followed by
# LIGHT_DRAWS further passes over the light cases alone.
LIGHT_FACTOR = 2.0
LIGHT_DRAWS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Cap the BLAS/OpenMP pools at nproc; must run before NumPy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def import_program():
    """Import poissonforge from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "poissonforge", "cli.py")):
        raise SystemExit(f"error: no poissonforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import poissonforge.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(poissonforge.__file__))) != SRC:
        raise SystemExit(f"error: imported poissonforge from {poissonforge.__file__}")
    return poissonforge.cli


# ---------------------------------------------------------------------------
# running and checking cases
# ---------------------------------------------------------------------------

class Result:
    __slots__ = ("case", "rc", "stdout", "error", "start", "end")

    def __init__(self, case, rc, stdout, error, start, end):
        self.case, self.rc, self.stdout, self.error = case, rc, stdout, error
        self.start, self.end = start, end


def run_pass(cli, cases, start=0, tracer=None) -> list:
    """Run every case once, back to back, beginning with ``cases[start]``.

    Results come back in the order of ``cases`` whatever the start.
    """
    results = [None] * len(cases)
    for k in range(len(cases)):
        i = (start + k) % len(cases)
        results[i] = _run_case(cli, cases[i], tracer)
    return results


def _run_case(cli, case, tracer) -> Result:
    if tracer is not None:
        tracer.case = case.id
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(case.argv))
    except SystemExit as e:  # argparse rejects the argv
        rc = e.code
    except Exception as e:  # a raising case is a failed case, not a crashed run
        rc, error = None, f"{type(e).__name__}: {e}"
    return Result(case, rc, out.getvalue(), error, t0, time.perf_counter())


def verify(result):
    """None if the result passes its case's oracle, else the reason it fails."""
    from workloads import OracleError
    if result.error is not None:
        return f"raised {result.error}"
    if result.rc != result.case.expect_rc:
        return f"exit code {result.rc}, expected {result.case.expect_rc}"
    try:
        out = json.loads(result.stdout)
    except ValueError:
        return "output is not JSON"
    try:
        result.case.check(out)
    except OracleError as e:
        return str(e)
    except (KeyError, TypeError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
    return None


def score(results) -> dict:
    """Failures over attempts, with the reason for each failed case.

    A repeated output gets the verdict already given to it: the oracles
    are deterministic, so each distinct output is checked once.
    """
    verdicts = {}
    failures = {}
    failed = 0
    for r in results:
        key = (r.case.id, r.rc, r.stdout, r.error)
        if key not in verdicts:
            verdicts[key] = verify(r)
        if verdicts[key] is not None:
            failed += 1
            failures[r.case.id] = verdicts[key]
    return {"attempted": len(results), "failed": failed,
            "failed_frac": failed / len(results), "failures": failures}


def pass_wall(results) -> float:
    return max(r.end for r in results) - min(r.start for r in results)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed, workdir, tracer=None):
    """Import the program, build the presets and write the seeded inputs."""
    cli = import_program()
    import workloads
    os.makedirs(workdir, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        cases = workloads.WORKLOADS[workload](seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cli, cases


def timed_setup(workload, seed, workdir):
    """Set up under a speed probe; returns (cli, cases, seconds at reference speed).

    The time counts from the start of this interpreter's run of run.py.
    """
    from speed import SpeedProbe
    with SpeedProbe() as probe:
        cli, cases = setup(workload, seed, workdir)
        end = time.perf_counter()
    return cli, cases, probe.normalize(_START, end)


def setup_probe(workload, seed) -> float:
    """Set up once in a fresh interpreter; returns its seconds at reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def work_dir(workload, seed) -> str:
    return os.path.join(BENCH_DIR, "_work", f"{workload}-{seed}-{os.getpid()}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def case_latencies(draws, probe) -> list:
    """Each case's median latency over its draws, in seconds at reference speed."""
    return [statistics.median(probe.normalize(r.start, r.end) for r in d) for d in draws]


def end_to_end(latencies, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(latencies), "s"),
        "case_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, results, wall) -> dict:
    """Per-layer metrics of one traced pass."""
    import workloads
    s = tracer.summary()
    calls, total, self_s, counts = s["calls"], s["total_s"], s["self_s"], tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for name in ("multivector.schouten", "multivector.truncate_jet", "polyalg.solve_linear_exact",
                 "polyalg.exact_rank", "formal.ad_exp", "formal.bch", "formal.homotopy_solve",
                 "formal.prolong_step", "realize._rhs"):
        put(f"{name}.calls", calls[name], "count")
    for name in ("multivector.schouten", "multivector.truncate_jet", "multivector.grade_component",
                 "multivector.bivector_matrix", "polyalg.solve_linear_exact", "polyalg.parse_poly",
                 "polyalg.format_poly", "cli.parse_input", "cli.main", "poisson.casimir_basis",
                 "poisson.cohomology_dims", "poisson.hamiltonian_vf", "realize._rhs",
                 "realize._flow_batch", "realize.verify_realization"):
        put(f"{name}.self_s", self_s[name], "s")
    for name in ("poisson.check_poisson", "formal.ad_exp", "formal.bch", "formal.homotopy_solve",
                 "formal.prolong_step"):
        put(f"{name}.total_s", total[name], "s")
    put("multivector.schouten.terms_out", counts["multivector.schouten.terms_out"], "count")
    put("multivector.truncate_jet.kept_frac",
        _ratio(counts["multivector.truncate_jet.monomials_kept"],
               counts["multivector.truncate_jet.monomials_in"]), "ratio")
    for name in ("polyalg.Poly.mul.calls", "polyalg.Poly.mul.term_products",
                 "polyalg.Poly.add.calls", "polyalg.Poly.init.calls",
                 "polyalg.solve_linear_exact.cells", "polyalg.solve_linear_exact.nnz",
                 "realize.sample_steps"):
        put(name, counts[name], "count")
    put("polyalg.solve_linear_exact.infeasible_frac",
        _ratio(counts["polyalg.solve_linear_exact.infeasible"],
               calls["polyalg.solve_linear_exact"]), "ratio")
    rhs = tracer.rhs_by_batch
    put("realize._rhs.us_per_call",
        1e6 * _ratio(sum(v[1] for v in rhs.values()), sum(v[0] for v in rhs.values())), "us")
    for batch in workloads.SPRAY_BATCHES.values():
        calls_b, seconds_b = rhs.get(batch, (0, 0.0))
        put(f"realize._rhs.us_per_call.B{batch}", 1e6 * _ratio(seconds_b, calls_b), "us")

    reports = [json.loads(r.stdout) for r in results if r.rc in (0, 1) and r.stdout]
    put("formal.mc_equivalence.rounds", sum(o.get("rounds", 0) for o in reports), "count")
    sampled = [o for o in reports if "skipped" in o]
    put("realize.skipped_frac", _ratio(sum(o["skipped"] for o in sampled),
                                       sum(o["n_samples"] for o in sampled)), "ratio")
    for layer, seconds in s["layer_self_s"].items():
        put(f"{layer}.self_s", seconds, "s")
    put("trace.wall_s", wall, "s")
    put("trace.self_sum_frac", _ratio(sum(s["layer_self_s"].values()), wall), "ratio")
    return m


def median_metrics(samples) -> dict:
    """Per metric, the median over traced passes (a sample, so counts stay whole)."""
    return {name: (statistics.median_low(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def pass_count(workload, seconds, traced) -> int:
    """Passes in one run: set by ``--seconds`` alone, never by how fast passes go.

    A traced run pairs each untraced pass with a traced one, so it makes
    half as many.
    """
    per_pass = PASS_SECONDS[workload] * (2 if traced else 1)
    return max(1, round(seconds / per_pass))


def run_draws(cli, cases, npasses, probe):
    """Each case's draws, one per pass plus ``LIGHT_DRAWS`` per pass if it is light.

    Returns the draws and the number of passes made.

    Passes start at cases spread evenly over the list, so that each case's
    draws fall at different points of the run.  The light cases are chosen
    from the first pass, by latency at reference speed.  Passes stop early
    only past ``DEADLINE_S``, which keeps a very slow program within the
    time a run may take.
    """
    draws = [[] for _ in cases]
    light = []
    began = time.perf_counter()
    for p in range(npasses):
        for d, r in zip(draws, run_pass(cli, cases, p * len(cases) // npasses)):
            d.append(r)
        if p == 0:
            first = [probe.normalize(d[0].start, d[0].end) for d in draws]
            light = [i for i, t in enumerate(first)
                     if t <= LIGHT_FACTOR * statistics.median(first)]
        for _ in range(LIGHT_DRAWS):
            for i, r in zip(light, run_pass(cli, [cases[i] for i in light], p)):
                draws[i].append(r)
        if time.perf_counter() - began > DEADLINE_S:
            break
    return draws, p + 1


def run_traced_passes(cli, cases, npasses, make_tracer):
    """``npasses`` pairs of an untraced pass and a traced one in the same order.

    Pairing makes drift in machine speed fall on both alike.  Starts and
    the deadline are as in ``run_draws``.
    """
    plain, traced, tracers = [], [], []
    began = time.perf_counter()
    for p in range(npasses):
        start = p * len(cases) // npasses
        plain.append(run_pass(cli, cases, start))
        tracer = make_tracer()
        tracer.install()
        try:
            traced.append(run_pass(cli, cases, start, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        if time.perf_counter() - began > DEADLINE_S:
            break
    return plain, traced, tracers


def environment(workload, seed, threads, args, ncases, npasses, ndraws, probe) -> dict:
    import numpy
    import scipy
    env = {"workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
           "nproc": nproc(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": threads, "git_commit": git_commit(),
           "cases_per_pass": ncases, "passes": npasses, "draws": ndraws}
    if probe is not None:
        env.update(probe_samples=len(probe.durations), host_speed=probe.speed())
    return env


def write_output(name, obj):
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_workload(args, threads) -> dict:
    workload, seed = args.workload, args.seed
    workdir = work_dir(workload, seed)
    npasses = pass_count(workload, args.seconds, args.trace)
    probe, latencies = None, None
    try:
        if args.trace:
            from tracing import Tracer
            setup_tracer = Tracer()
            cli, cases = setup(workload, seed, workdir, setup_tracer)
            plain, traced, tracers = run_traced_passes(cli, cases, npasses, Tracer)
            samples = [layer_metrics(t, p, pass_wall(p)) for t, p in zip(tracers, traced)]
            metrics = median_metrics(samples)
            metrics["liealg.preset.total_s"] = (setup_tracer.summary()["total_s"]["liealg.preset"], "s")
            overhead = statistics.median(pass_wall(t) / pass_wall(p) for t, p in zip(traced, plain))
            metrics["trace.overhead_frac"] = (overhead - 1, "ratio")
            write_output(f"spans-{workload}.json",
                         {"spans": [s for t in [setup_tracer] + tracers for s in t.spans]})
            draws = [list(d) for d in zip(*plain, *traced)]
            npasses = len(draws[0])
        else:
            from speed import SpeedProbe
            cli, cases, first_setup = timed_setup(workload, seed, workdir)
            with SpeedProbe() as probe:
                draws, npasses = run_draws(cli, cases, npasses, probe)
            setup_times = [first_setup] + [setup_probe(workload, seed)
                                           for _ in range(SETUP_REPEATS - 1)]
            latencies = case_latencies(draws, probe)
            metrics = end_to_end(latencies, setup_times)
        scored = score([r for d in draws for r in d])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = scored["attempted"], scored["failed"]
    env = environment(workload, seed, threads, args, len(cases), npasses,
                      sum(map(len, draws)), probe)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    write_output(f"result-{workload}-seed{seed}-trace{args.trace}.json",
                 dict(result, env=env, failed_frac=scored["failed_frac"],
                      failures=scored["failures"], case_ids=[c.id for c in cases],
                      latency_s=[[r.end - r.start for r in d] for d in draws],
                      case_latency_s=latencies))
    report(workload, env, metrics, attempted, failed, scored["failures"], len(cases))
    return result


def report(workload, env, metrics, attempted, failed, failures, ncases):
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload}: {env['passes']} passes of {ncases} cases")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={ncases} cases, {env['draws']} draws)" if name == "case_p50_s" else ""
        print(f"  {name:<44} {value:.6g} {unit}{extra}")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    for case_id, reason in sorted(failures.items()):
        print(f"  FAILED {case_id}: {reason}")


def run_all(args) -> dict:
    """Each workload in its own interpreter; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} failed: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, entry in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    return combined


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    if args.setup_probe:
        workdir = work_dir(args.workload, args.seed)
        try:
            print(f"setup_s {timed_setup(args.workload, args.seed, workdir)[2]!r}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
