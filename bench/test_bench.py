"""Self-tests of the benchmark: oracles catch bad results, counts repeat.

Run from the root of the checkout with ``python3 -m pytest bench -q``
(about two minutes: the determinism checks run real traced passes).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from poissonforge.polyalg import format_poly, parse_poly  # noqa: E402

HELD_OUT_SEED = 2  # later claims are also checked on this seed


def _bump_first_coefficient(out):
    term = out["X"]["terms"][0]
    poly = parse_poly(term["poly"], out["X"]["nvars"])
    exps = next(iter(poly.terms))
    poly.terms[exps] += 1 if poly.terms[exps] != -1 else 2
    term["poly"] = format_poly(poly)


def _wrong_betti(out):
    out["rows"][0]["betti"] += 1


def _one_skipped(out):
    out["skipped"] = 1


CORRUPTIONS = {
    "gauge": ("linearize-so3-d3-7", _bump_first_coefficient),
    "ranks": ("cohomology-so3-l2-k3", _wrong_betti),
    "spray": ("realize-quad-B140-0", _one_skipped),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_oracle_counts_a_corrupted_result(workload, cli, tmp_path):
    case_id, corrupt = CORRUPTIONS[workload]
    case = next(c for c in workloads.WORKLOADS[workload](1, str(tmp_path)) if c.id == case_id)
    good, = run.run_pass(cli, [case])
    out = json.loads(good.stdout)
    corrupt(out)
    bad = run.Result(case, good.rc, json.dumps(out), None, good.start, good.end)

    assert run.score([good])["failed"] == 0
    scored = run.score([good, bad])
    assert scored["failed"] == 1
    assert scored["failed_frac"] == 0.5
    assert case_id in scored["failures"]


def test_speed_probe_scales_out_a_slow_host():
    probe = SpeedProbe()
    probe.starts = [0.1, 0.5, 0.9]
    probe.durations = [2 * probe.reference] * 3  # the host runs at half speed
    raw = 1.0
    assert probe.normalize(0.0, raw) == pytest.approx((raw - 6 * probe.reference) / 2)
    assert probe.speed() == pytest.approx(0.5)


def test_speed_probe_samples_while_active():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 3
    assert all(d > 0 for d in probe.durations)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_on_one_seed(workload):
    counts = []
    for _ in range(2):
        rc, res, proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", "1")
        assert rc == 0, proc.stderr
        assert res["correct"], proc.stdout
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(k.endswith(".calls") for k in counts[0])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_held_out_seed_has_no_failures(workload):
    rc, res, proc = _bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                           "--seconds", "1", "--trace", "0")
    assert rc == 0, proc.stderr
    assert res["failed"] == 0 and res["correct"], proc.stdout
    assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, _, proc = _bench("--workload", "gauge", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert rc != 0
    assert '"correct"' not in proc.stdout
