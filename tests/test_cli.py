"""End-to-end exercise of every CLI verb, exit codes, and JSON output."""

import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonforge import (Poly, PolyMVF, ad_exp, cli, liealg, linear_poisson, preset, realize,
                          schouten, truncate_jet)
from poissonforge.multivector import MAX_NVARS
from poissonforge.poisson import MAX_BASIS


@pytest.fixture
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps(preset("so3").to_json_obj(), sort_keys=True))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "dim": 3,
        "C": [{"i": 1, "j": 2, "k": 1, "value": "1"},
              {"i": 1, "j": 3, "k": 3, "value": "1"}]}))
    return str(path)


@pytest.fixture
def mvf_file(tmp_path):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({
        "nvars": 3, "weights": [1, 1, 1], "grade": 2,
        "terms": [{"indices": [1, 2], "poly": "x3"},
                  {"indices": [1, 3], "poly": "-x2"},
                  {"indices": [2, 3], "poly": "x1"}]}))
    return str(path)


@pytest.fixture
def jet_file(tmp_path):
    path = tmp_path / "jet.json"
    path.write_text(json.dumps({
        "nvars": 3, "weights": [0, 0, 1], "grade": 2,
        "terms": [{"indices": [1, 2], "poly": "x3"},
                  {"indices": [1, 3], "poly": "x1*x3"}]}))
    return str(path)


class TestCheck:
    def test_valid_structure(self, so3_file, capsys):
        assert cli.main(["check", so3_file]) == 0
        assert "poisson: True" in capsys.readouterr().out

    def test_mvf_input(self, mvf_file, capsys):
        assert cli.main(["check", mvf_file]) == 0

    def test_broken_structure(self, broken_file, capsys):
        assert cli.main(["check", broken_file, "--format", "json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["is_poisson"] is False
        assert obj["witness"]["terms"]

    def test_broken_table_is_a_verdict_not_an_input_error(self, broken_file,
                                                          capsys):
        assert cli.main(["check", broken_file]) == 1
        out = capsys.readouterr()
        assert "witness" in out.out
        assert out.err == ""

    def test_table_is_loaded_without_a_bracket(self, broken_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_input re-checks the table")

        monkeypatch.setattr(liealg, "validate", refuse)
        assert isinstance(cli.parse_input(broken_file), liealg.LieAlgebraSpec)

    def test_missing_file(self, capsys):
        assert cli.main(["check", "/nonexistent/f.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["check", str(bad)]) == 2

    def test_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({"foo": 1}))
        assert cli.main(["check", str(bad)]) == 2

    def test_json_output_deterministic(self, so3_file, capsys):
        cli.main(["check", so3_file, "--format", "json"])
        first = capsys.readouterr().out
        cli.main(["check", so3_file, "--format", "json"])
        assert capsys.readouterr().out == first


def test_casimirs(so3_file, capsys):
    assert cli.main(["casimirs", so3_file, "--max-degree", "2",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_degree"] == 2
    assert len(obj["casimirs"]) == 2


def test_casimirs_of_an_inhomogeneous_structure(tmp_path, capsys):
    # pi_C for C = x1^2 + x2^2 + x3^2 + x3^3: Poisson, with the Casimirs 1 and C
    path = tmp_path / "pi_c.json"
    path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "2*x3 + 3*x3^2"}, {"indices": [1, 3], "poly": "-2*x2"},
        {"indices": [2, 3], "poly": "2*x1"}]}))
    assert cli.main(["casimirs", str(path), "--max-degree", "3", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["casimirs"]) == 2


def test_cohomology(so3_file, capsys):
    assert cli.main(["cohomology", so3_file, "--grade", "2",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    betti = {row["k"]: row["betti"] for row in obj["rows"]}
    assert betti == {0: 1, 1: 0, 2: 0, 3: 1}


def test_linearize(mvf_file, capsys):
    assert cli.main(["linearize", mvf_file, "--truncate", "3",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "equivalent"
    assert obj["rounds"] == 0


def test_prolong_obstructed(jet_file, capsys):
    rc = cli.main(["prolong", jet_file, "--format", "json"])
    assert rc == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "obstructed"
    assert obj["grade"] == 4
    assert obj["cochain"]["terms"]


def test_prolong_solved(tmp_path, capsys):
    # the 2-jet of demos/jet_prolongation.py, whose grade-3 Jacobiator one correction removes
    rng = random.Random(11)
    terms = {(i,): Poly(3, {(1, 1, 0): rng.choice([-1, 1])}) for i in (1, 2)}
    X0 = PolyMVF(3, 1, terms)
    two_jet = truncate_jet(ad_exp(X0, linear_poisson(preset("so3")), 3).value, 2)
    path = tmp_path / "two_jet.json"
    path.write_text(json.dumps(two_jet.to_json_obj(), sort_keys=True))
    assert cli.main(["prolong", str(path), "--grade", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "solved" and obj["grade"] == 3
    assert obj["eta"]["terms"]
    corrected = two_jet + PolyMVF.from_json_obj(obj["eta"])
    jac = schouten(corrected, corrected)
    assert jac.is_zero() or jac.min_grade() > 3


# x3^K d1^d2 + x1*x3^K d1^d3 under weights 0, 0, 1, and the same jet with its fiber
# variable renamed x1 and x1, x2 renamed x2, x3, so that the fiber variable comes first
_TALL_JETS = {"0,0,1": ("x3", {(1, 2): "x3^{K}", (1, 3): "x1*x3^{K}"}),
              "1,0,0": ("x1", {(2, 3): "x1^{K}", (1, 2): "-x2*x1^{K}"})}


@pytest.mark.parametrize("weights", sorted(_TALL_JETS))
@pytest.mark.parametrize("K", [10**3, 10**5])
def test_prolong_builds_only_the_basis_it_solves_on(tmp_path, capsys, K, weights):
    # the step solves at grade 2K + 2 on 162 columns of fiber degree K + 1 and up,
    # at cap 8; a basis built over every fiber degree up to the grade took 13 s
    # at K = 10^4
    fiber, terms = _TALL_JETS[weights]
    path = tmp_path / "tall_jet.json"
    path.write_text(json.dumps({"nvars": 3, "weights": [int(w) for w in weights.split(",")],
                                "grade": 2, "terms": [{"indices": list(legs),
                                                       "poly": poly.format(K=K)}
                                                      for legs, poly in terms.items()]}))
    start = time.perf_counter()
    assert cli.main(["prolong", str(path), "--weights", weights, "--format", "json"]) == 1
    seconds = time.perf_counter() - start
    assert capsys.readouterr().out == (
        '{"base_degree_cap": 8, "cochain": {"grade": 3, "nvars": 3, "terms": [{"indices": '
        f'[1, 2, 3], "poly": "2*{fiber}^{2 * K}"}}], "weights": [{weights.replace(",", ", ")}]}}, '
        f'"grade": {2 * K + 2}, "status": "obstructed"}}\n')
    assert seconds < 2


@pytest.fixture
def field_runs(so3_file, broken_file, mvf_file, jet_file, tmp_path):
    """argv lists whose reports carry a field: ``check`` of a Poisson and a broken
    structure, ``linearize`` equivalent and obstructed, ``prolong`` solved and
    obstructed, with exit codes 0 and 1 in turn."""
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"nvars": 2, "grade": 2,
                                 "terms": [{"indices": [1, 2], "poly": "x1^2"}]}))
    X0 = PolyMVF(3, 1, {(1,): Poly(3, {(1, 1, 0): 1}), (2,): Poly(3, {(1, 1, 0): -1})})
    two_jet = tmp_path / "two_jet.json"
    two_jet.write_text(json.dumps(truncate_jet(
        ad_exp(X0, linear_poisson(preset("so3")), 3).value, 2).to_json_obj()))
    return [["check", so3_file], ["check", broken_file],
            ["linearize", mvf_file, "--truncate", "3"], ["linearize", str(plane)],
            ["prolong", str(two_jet), "--grade", "3"], ["prolong", jet_file]]


def _same_output_without(method, fmt, runs, capsys, monkeypatch):
    """Each run in ``--format fmt`` prints as before with ``PolyMVF.method`` refused."""
    expected = []
    for argv in runs:
        expected.append((cli.main(argv + ["--format", fmt]), capsys.readouterr().out))
    assert [rc for rc, _ in expected] == [0, 1, 0, 1, 0, 1]

    def refuse(self):
        raise AssertionError(f"a field formatted outside --format {fmt}")
    monkeypatch.setattr(PolyMVF, method, refuse)
    for argv, (rc, out) in zip(runs, expected):
        assert cli.main(argv + ["--format", fmt]) == rc
        assert capsys.readouterr().out == out


def test_json_output_formats_no_field(field_runs, broken_file, capsys, monkeypatch):
    # the text lines, with the repr of a gauge field, correction, cochain or
    # witness, are built only for --format text
    _same_output_without("__repr__", "json", field_runs, capsys, monkeypatch)
    with pytest.raises(AssertionError, match="formatted"):
        cli.main(["check", broken_file])


def test_text_output_builds_no_json(field_runs, broken_file, capsys, monkeypatch):
    # the JSON object, with every term of such a field formatted, is built
    # only for --format json
    _same_output_without("to_json_obj", "text", field_runs, capsys, monkeypatch)
    with pytest.raises(AssertionError, match="formatted"):
        cli.main(["check", broken_file, "--format", "json"])


def test_prolong_refuses_a_grade_0_part(tmp_path, capsys):
    # the constant d1^d2 brackets the grade-2 part, which the 1-jet would
    # drop, into the grade-1 Jacobiator 2*x1 d1^d2^d3: no step may claim it solved
    path = tmp_path / "jet.json"
    path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "1"}, {"indices": [1, 3], "poly": "x3^2"},
        {"indices": [2, 3], "poly": "x1*x2"}]}))
    for fmt in ("text", "json"):
        assert cli.main(["prolong", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "grade-0" in captured.err


@pytest.mark.parametrize("weights", ["", ",", "0,,1", "a,0,1", "0,0", "0,2,1"])
def test_prolong_malformed_weights_exit_2(jet_file, capsys, weights):
    # an empty --weights is malformed too, not a request for all-ones weights
    assert cli.main(["prolong", jet_file, "--weights", weights, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "weights" in captured.err


def test_realize(mvf_file, capsys):
    assert cli.main(["realize", mvf_file, "--samples", "5", "--steps", "200",
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["poisson_residual_max"] < 1e-4
    assert obj["skipped"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_realize_skips_blowups_without_cutting_the_batch_short(tmp_path, capsys):
    # samples reaching |xi| = 2.5 leave numeric range; the zero section stays put
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"nvars": 2, "grade": 2,
                                "terms": [{"indices": [1, 2], "poly": "x1^2"}]}))
    assert cli.main(["realize", str(path), "--samples", "40", "--radius", "2.5",
                     "--seed", "0", "--steps", "400", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    obj = json.loads(out)
    assert obj["skipped"] >= 1
    assert obj["zero_section_residual"] < 1e-12


@pytest.mark.parametrize("bad, named", [
    pytest.param(["--steps", "0"], "steps", id="steps=0"),
    pytest.param(["--steps", "-3"], "steps", id="steps=-3"),
    pytest.param(["--samples", "0"], "n_samples", id="samples=0"),
    pytest.param(["--radius", "nan"], "radius", id="radius=nan"),
    pytest.param(["--radius", "-1"], "radius", id="radius=-1"),
    pytest.param(["--radius", "0"], "radius", id="radius=0"),
])
def test_realize_rejects_bad_input(mvf_file, capsys, bad, named):
    argv = ["realize", mvf_file, "--samples", "2", "--steps", "20", "--format", "json"]
    assert cli.main(argv + bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


# `realize --format json` stdout, captured before the spray stage moved onto
# a per-batch workspace; a change to any of these digits has to be stated
_REALIZE_PINNED = {
    "so3": ('{"det_min": 0.9985127956318519, "domega_max": 3.1604492894271585e-11, '
            '"fd_step": 1e-05, "n_samples": 5, "poisson_residual_max": 6.37857822116672e-14, '
            '"radius": 0.1, "seed": 42, "skew_defect_max": 0.0, "skipped": 0, "steps": 50, '
            '"zero_section_residual": 4.440892098500626e-16}\n'),
    "quad": ('{"det_min": 0.9999055669286987, "domega_max": 1.4292820399441908e-10, '
             '"fd_step": 5e-05, "n_samples": 5, "poisson_residual_max": 1.2215228828438285e-13, '
             '"radius": 0.5, "seed": 7, "skew_defect_max": 0.0, "skipped": 0, "steps": 50, '
             '"zero_section_residual": 4.440892098500626e-16}\n'),
}


@pytest.mark.parametrize("name, terms, options", [
    pytest.param("so3", {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}, [], id="so3"),
    # the quadratic field of the spray benchmark, (2 x3^2, -x2^2, -x1^2)
    pytest.param("quad", {(1, 2): "2*x3^2", (1, 3): "-x2^2", (2, 3): "-x1^2"},
                 ["--radius", "0.5", "--seed", "7"], id="quad"),
])
def test_realize_output_pinned(tmp_path, capsys, name, terms, options):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
        {"indices": list(ij), "poly": poly} for ij, poly in terms.items()]}))
    assert cli.main(["realize", str(path), "--samples", "5", "--steps", "50",
                     "--format", "json", *options]) == 0
    assert capsys.readouterr().out == _REALIZE_PINNED[name]


# The same, at the batch sizes of the spray benchmark: B = samples * (2 + 4n)
# trajectories, so 1400 (so3) and 140 (quad), each over 100 steps; captured
# before the spray stage built its views once per batch
_REALIZE_PINNED_AT_BATCH = {
    "so3": ('{"det_min": 0.9986953296578734, "domega_max": 7.632783272613908e-11, '
            '"fd_step": 1e-05, "n_samples": 100, "poisson_residual_max": 8.250344851745695e-15, '
            '"radius": 0.1, "seed": 42, "skew_defect_max": 0.0, "skipped": 0, "steps": 100, '
            '"zero_section_residual": 6.661338147750939e-16}\n'),
    "quad": ('{"det_min": 0.9979094739105259, "domega_max": 2.366835026579306e-10, '
             '"fd_step": 5e-05, "n_samples": 10, "poisson_residual_max": 6.455946888195285e-14, '
             '"radius": 0.5, "seed": 7, "skew_defect_max": 0.0, "skipped": 0, "steps": 100, '
             '"zero_section_residual": 6.661338147750939e-16}\n'),
}


@pytest.mark.parametrize("name, terms, options", [
    pytest.param("so3", {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}, ["--samples", "100"],
                 id="so3-B1400"),
    pytest.param("quad", {(1, 2): "2*x3^2", (1, 3): "-x2^2", (2, 3): "-x1^2"},
                 ["--samples", "10", "--radius", "0.5", "--seed", "7"], id="quad-B140"),
])
def test_realize_output_pinned_at_bench_batches(tmp_path, capsys, name, terms, options):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
        {"indices": list(ij), "poly": poly} for ij, poly in terms.items()]}))
    assert cli.main(["realize", str(path), "--steps", "100", "--format", "json", *options]) == 0
    assert capsys.readouterr().out == _REALIZE_PINNED_AT_BATCH[name]


@pytest.mark.parametrize("error, line", [
    pytest.param(MemoryError(), "error: out of memory\n", id="bare"),
    pytest.param(MemoryError("Unable to allocate 29.1 TiB for an array"),
                 "error: out of memory: Unable to allocate 29.1 TiB for an array\n", id="numpy"),
])
def test_allocation_failure_exits_2(mvf_file, capsys, monkeypatch, error, line):
    # raised in place of the allocation: whether a huge malloc fails at once
    # depends on the host's overcommit policy, so none is attempted
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(realize, "verify_realization", fail)
    assert cli.main(["realize", mvf_file, "--samples", "1000000000000",
                     "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "memory" in captured.err
    assert captured.err.count("\n") == 1
    # a bare MemoryError carries no message: the reason is not left empty after ": "
    assert captured.err == line


def test_flow_blowup_exits_2(mvf_file, capsys, monkeypatch):
    # a blow-up is a ValueError too, so main reports it as an input error
    # without asking `realize` (and loading NumPy) on an exact verb's exit
    def fail(*args, **kwargs):
        raise realize.FlowBlowupError(0.25)

    monkeypatch.setattr(realize, "verify_realization", fail)
    assert cli.main(["realize", mvf_file, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spray flow left numeric range near t = 0.25\n"


def test_other_runtime_errors_propagate(mvf_file, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("not an input error")

    monkeypatch.setattr(realize, "verify_realization", fail)
    with pytest.raises(RuntimeError, match="not an input error"):
        cli.main(["realize", mvf_file])


@pytest.mark.parametrize("argv, named", [
    pytest.param(["casimirs", "{so3}", "--max-degree", "-1"], "max degree",
                 id="casimirs-max-degree=-1"),
    pytest.param(["cohomology", "{so3}", "--grade", "-1"], "grade", id="cohomology-grade=-1"),
    pytest.param(["cohomology", "{so3}", "--max-degree", "-2"], "max degree",
                 id="cohomology-max-degree=-2"),
    pytest.param(["prolong", "{jet}", "--base-degree-cap", "-1"], "base_degree_cap",
                 id="prolong-base-degree-cap=-1"),
    # the so(3) inputs need no homotopy solve, so only the up-front check fires
    pytest.param(["linearize", "{so3}", "--base-degree-cap", "-1"], "base_degree_cap",
                 id="linearize-base-degree-cap=-1"),
    pytest.param(["prolong", "{so3}", "--grade", "2", "--base-degree-cap", "-1"],
                 "base_degree_cap", id="prolong-no-solve-base-degree-cap=-1"),
    pytest.param(["prolong", "{jet}", "--grade", "-1"], "grade", id="prolong-grade=-1"),
    pytest.param(["su3", "--samples", "0"], "samples", id="su3-samples=0"),
    pytest.param(["su3", "--samples", "-5"], "samples", id="su3-samples=-5"),
    pytest.param(["su3", "--seed", "-1"], "seed", id="su3-seed=-1"),
    pytest.param(["area", "--radius", "nan"], "radius", id="area-radius=nan"),
    pytest.param(["area", "--radius", "inf"], "radius", id="area-radius=inf"),
    # the radial derivative steps by 1e-5 on each side of the radius
    pytest.param(["area", "--radius", "1e-6"], "step h", id="area-radius=1e-6"),
    # from 2^18 on the radius swamps that step: (r + h) - (r - h) is off
    # from 2h by more than 1e-6 relative, so dh[1] would read 24.41 at 1e11
    # (4 pi is right) and 0 from 1e12 on
    pytest.param(["area", "--radius", "1e6"], "radius", id="area-radius=1e6"),
    pytest.param(["area", "--radius", "1e11"], "radius", id="area-radius=1e11"),
    pytest.param(["area", "--radius", "1e12"], "radius", id="area-radius=1e12"),
    pytest.param(["area", "--radius", "1e100"], "radius", id="area-radius=1e100"),
    # the quadrature would overflow here: to inf and NaN at 1e150, to NaN at 1e160
    pytest.param(["area", "--radius", "1e150"], "radius", id="area-radius=1e150"),
    pytest.param(["area", "--radius", "1e160"], "radius", id="area-radius=1e160"),
])
def test_bad_numeric_arguments_exit_2(so3_file, jet_file, capsys, argv, named):
    argv = [a.format(so3=so3_file, jet=jet_file) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may come before the error line
        assert cli.main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize("name, obj, argv", [
    # 2080 monomials of degree 2 in 64 variables
    ("casimirs", {"nvars": 64, "grade": 2, "terms": []}, ["--max-degree", "2"]),
    # grade-0 k-vectors in the most variables a field may have: 1 for k = 0
    # and 2048 for k = 1 are built without recursing once per variable, then
    # C(2048, 2) = 2096128 for k = 2 are refused
    ("cohomology", {"nvars": 2048, "grade": 2, "terms": []},
     ["--grade", "0", "--max-degree", "2"]),
    # 2556 monomials of degree 70 in 3 variables
    ("cohomology", preset("so3").to_json_obj(), ["--grade", "70", "--max-degree", "0"]),
    # grade-2 vector fields, base exponents 0..300: 8 * 301 = 2408
    ("linearize", {"nvars": 3, "weights": [0, 1, 1], "grade": 2,
                   "terms": [{"indices": [2, 3], "poly": "x2 + x2^2"}]},
     ["--base-degree-cap", "300"]),
    # grade-2 bivectors, base exponents 0..100: 3 * 101^2 = 30603
    ("prolong", {"nvars": 3, "weights": [0, 0, 1], "grade": 2,
                 "terms": [{"indices": [1, 2], "poly": "x3"},
                           {"indices": [1, 3], "poly": "x1*x3"}]},
     ["--base-degree-cap", "100"]),
], ids=["casimirs", "cohomology-2048-variables", "cohomology", "linearize", "prolong"])
def test_oversized_basis_exits_2(tmp_path, capsys, name, obj, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert cli.main([name, str(path), "--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"bound of {MAX_BASIS} (MAX_BASIS)" in captured.err


_SO3_TABLE = {"dim": 3, "C": [{"i": 1, "j": 2, "k": 3, "value": "1"},
                              {"i": 2, "j": 3, "k": 1, "value": "1"},
                              {"i": 1, "j": 3, "k": 2, "value": "-1"}]}


@pytest.mark.parametrize("field, bad", [
    pytest.param("dim", 2.7, id="dim=2.7"),
    pytest.param("dim", True, id="dim=true"),
    pytest.param("dim", "3", id="dim=str"),
    pytest.param("dim", 0, id="dim=0"),
    pytest.param("dim", -1, id="dim=-1"),
    pytest.param("i", 1.9, id="i=1.9"),
    pytest.param("j", True, id="j=true"),
    pytest.param("k", 3.0, id="k=3.0"),
    pytest.param("value", 0.5, id="value=0.5"),
    pytest.param("value", True, id="value=true"),
    pytest.param("value", "one", id="value=word"),
])
def test_table_input_rejects_reinterpretation(tmp_path, capsys, field, bad):
    obj = json.loads(json.dumps(_SO3_TABLE))
    if field == "dim":
        obj["dim"] = bad
    else:
        obj["C"][0][field] = bad
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


def test_table_input_accepts_integers_and_rational_strings(tmp_path, capsys):
    obj = json.loads(json.dumps(_SO3_TABLE))
    obj["C"][0]["value"] = 1
    obj["C"][1]["value"] = "2/2"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", str(path)]) == 0


_SO3_FIELD = {"nvars": 3, "weights": [1, 1, 1], "grade": 2,
              "terms": [{"indices": [1, 2], "poly": "x3"},
                        {"indices": [1, 3], "poly": "-x2"},
                        {"indices": [2, 3], "poly": "x1"}]}


@pytest.mark.parametrize("field, edit", [
    pytest.param("weights", {"weights": [1, 0.7, 1]}, id="weights=0.7"),
    pytest.param("weights", {"weights": [True, False, True]}, id="weights=bools"),
    pytest.param("weights", {"weights": "111"}, id="weights=str"),
    pytest.param("indices", {"indices": [1.9, 2]}, id="indices=1.9"),
    pytest.param("indices", {"indices": ["1", "2"]}, id="indices=str"),
    # without terms no polynomial is parsed, so nothing else reads nvars
    pytest.param("nvars", {"nvars": 3.5, "terms": []}, id="nvars=3.5"),
    pytest.param("nvars", {"nvars": 0, "weights": [], "terms": []}, id="nvars=0"),
    pytest.param("grade", {"grade": "2"}, id="grade=str"),
    pytest.param("grade", {"grade": 2.0}, id="grade=2.0"),
])
def test_multivector_input_rejects_reinterpretation(tmp_path, capsys, field, edit):
    obj = json.loads(json.dumps(_SO3_FIELD))
    if "indices" in edit:
        obj["terms"][0].update(edit)
    else:
        obj.update(edit)
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("argv", [["check"], ["cohomology", "--grade", "1"]],
                         ids=["check", "cohomology"])
@pytest.mark.parametrize("obj, message", [
    ({"nvars": 3, "grade": 2, "terms": ""}, "'terms' must be a JSON list, got ''"),
    ({"nvars": 3, "grade": 2, "terms": {}}, "'terms' must be a JSON list, got {}"),
    ({"nvars": 3, "grade": 2, "terms": [[1, 2]]},
     "each entry of 'terms' must be a JSON object, got [1, 2]"),
    ({"dim": 3, "C": {}}, "'C' must be a JSON list, got {}"),
    ({"dim": 3, "C": ["1,2,3"]}, "each entry of 'C' must be a JSON object, got '1,2,3'"),
], ids=["terms-string", "terms-object", "terms-entry", "C-object", "C-entry"])
def test_a_non_list_of_objects_exits_2_naming_its_key(tmp_path, capsys, obj, message, argv):
    # such terms or C were read as empty: the zero bivector, "poisson: True",
    # or the abelian table, with exit code 0
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("text", ['["terms"]', '"dim C"', "5", "null"],
                         ids=["list", "string", "number", "null"])
def test_a_top_level_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    # a list or string holding "terms" or "C" reached a reader and was refused
    # with Python's indexing error; a number or null with a TypeError's text
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: the top level must be a JSON object\n"


_SO3_TABLE_ENTRY = {"i": 1, "j": 2, "k": 3, "value": "1"}


@pytest.mark.parametrize("obj, message", [
    ({"nvars": 3, "grade": 2, "terms": [{"indices": [1, 2]}]},
     "missing key 'poly' in a 'terms' entry"),
    ({"nvars": 3, "grade": 2, "terms": [{"poly": "x3"}]},
     "missing key 'indices' in a 'terms' entry"),
    *[({"dim": 3, "C": [{k: v for k, v in _SO3_TABLE_ENTRY.items() if k != key}]},
       f"missing key {key!r} in a 'C' entry") for key in ("i", "j", "k", "value")],
    ({"grade": 2, "terms": []}, "missing key 'nvars' in a field"),
    ({"nvars": 3, "terms": []}, "missing key 'grade' in a field"),
    ({"C": []}, "missing key 'dim' in a table"),
], ids=["terms-poly", "terms-indices", "C-i", "C-j", "C-k", "C-value", "field-nvars",
        "field-grade", "table-dim"])
def test_a_missing_key_exits_2_naming_it(tmp_path, capsys, obj, message):
    # the message was the bare KeyError text, such as "'poly'"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_non_string_poly_exits_2(tmp_path, capsys):
    obj = json.loads(json.dumps(_SO3_FIELD))
    obj["terms"][0]["poly"] = 3
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# The README's multivector and Lie-algebra JSON at its own size or one far
# outside the bounds, the multivector with and without its optional weights,
# which nvars then sizes.  Up to three edits follow, each a path into the
# object and the value put there: entries of the wrong type or range, and
# polynomials that break the Jacobi identity, name a variable above nvars or
# do not parse.
_SIZE = st.sampled_from([0, -1, -10**30, MAX_NVARS + 1, 10**30])
_FIELDS = st.fixed_dictionaries(
    {"nvars": st.just(3) | _SIZE, "grade": st.just(2), "terms": st.just(_SO3_FIELD["terms"])},
    optional={"weights": st.just(_SO3_FIELD["weights"])})
_TABLES = st.fixed_dictionaries({"dim": st.just(3) | _SIZE, "C": st.just(_SO3_TABLE["C"])})
_VALUE = (_SIZE | st.integers(-1, 4) | st.sampled_from(["1", "1/2", 1.5, True, None])
          | st.lists(st.integers(-1, 4), max_size=3))
_POLY = st.sampled_from(["x1", "-x2", "x1*x2 + 1", "1/2*x1^2*x3 - x2", "x3^2", "2", "x4", "x1 +"])
_TERM = st.integers(0, 2)
_FIELD_EDIT = st.one_of(
    st.tuples(st.tuples(st.just("terms"), _TERM, st.just("poly")), _POLY | _VALUE),
    st.tuples(st.sampled_from([("nvars",), ("grade",), ("weights",)]), _VALUE),
    st.tuples(st.tuples(st.just("weights"), _TERM), _VALUE),
    st.tuples(st.tuples(st.just("terms"), _TERM, st.just("indices")), _VALUE),
    st.tuples(st.tuples(st.just("terms"), _TERM, st.just("indices"), st.integers(0, 1)), _VALUE))
_TABLE_EDIT = st.one_of(
    st.tuples(st.tuples(st.just("C"), _TERM, st.just("value")),
              st.sampled_from([2, "-1/2", 0]) | _VALUE),
    st.tuples(st.tuples(st.just("C"), _TERM, st.sampled_from("ijk")), _VALUE),
    st.tuples(st.just(("dim",)), _VALUE))


def _edited(base: dict, edits) -> dict:
    """A copy of ``base`` with each edit made; one whose path an earlier edit
    replaced or shortened is left out."""
    obj = json.loads(json.dumps(base))
    for path, value in edits:
        *parents, key = path
        with contextlib.suppress(IndexError, KeyError, TypeError):
            functools.reduce(lambda node, step: node[step], parents, obj)[key] = value
    return obj


_EXACT_INPUTS = (st.tuples(_FIELDS, st.lists(_FIELD_EDIT, max_size=3))
                 | st.tuples(_TABLES, st.lists(_TABLE_EDIT, max_size=3))).map(lambda e: _edited(*e))
_DEGREE = st.integers(-1, 2).map(str)
_EXACT_ARGV = st.one_of(
    st.just(["check"]),
    st.tuples(st.just("casimirs"), st.just("--max-degree"), _DEGREE).map(list),
    st.tuples(st.just("cohomology"), st.just("--grade"), _DEGREE, st.just("--max-degree"),
              _DEGREE).map(list),
    st.tuples(st.just("linearize"), st.just("--truncate"), st.integers(0, 3).map(str),
              st.just("--base-degree-cap"), _DEGREE).map(list),
    st.tuples(st.just("prolong"), st.just("--grade"), st.integers(-1, 3).map(str),
              st.just("--base-degree-cap"), _DEGREE).map(list))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(obj=_EXACT_INPUTS, argv=_EXACT_ARGV)
def test_exact_verbs_keep_the_exit_code_contract(obj, argv):
    # 0 or 1 print one JSON object; 2 prints one error line with a reason;
    # nothing else escapes, whatever the input
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([argv[0], path, "--format", "json", *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.count("\n") == 1, (out, err)
        assert re.fullmatch(r"error: \S(.*\S)?\n", err) and not err.endswith(":\n"), err
    else:
        assert code in (0, 1) and err == "", (code, err)
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), out


# The numeric verbs under the same contract.  ``realize`` reads the inputs
# above, or the README field with up to three coefficients at the float
# boundary: past the largest float, below the smallest, or with a derivative
# past it (2 * 10^308 from 10^308 * x3^2).  Sizes stay small: at most 3
# samples of at most 5 steps, so n <= 4 flows B <= 54 trajectories.  ``area``
# costs about 0.1 s a call at a valid radius, so it has fewer examples.
_EXTREME = st.tuples(st.sampled_from(["1" + "0" * 310, "-1" + "0" * 309, "1/1" + "0" * 330,
                                      "1" + "0" * 308, "1/1" + "0" * 300, "3/1" + "0" * 310]),
                     st.sampled_from(["x3^2", "x1", "1", "x2*x3"])).map("{0[0]}*{0[1]}".format)
_EXTREME_FIELDS = st.tuples(st.just(_SO3_FIELD), st.lists(st.tuples(
    st.tuples(st.just("terms"), _TERM, st.just("poly")), _EXTREME), min_size=1, max_size=3))
_RADIUS = st.sampled_from(["1", "0.1", "1e-300", "1e300", "0", "-1", "nan", "inf", "3e5"])
_REALIZE_ARGV = st.tuples(
    st.just("--samples"), st.sampled_from(["3", "1", "2"]), st.just("--steps"),
    st.sampled_from(["5", "1"]), st.just("--radius"),
    st.sampled_from(["1", "0.1", "1e-300", "1e300", "1e150", "0"]), st.just("--seed"),
    st.integers(0, 3).map(str)).map(list)


def _assert_exit_code_contract(argv):
    """Run the CLI on ``argv`` with JSON output, and check the contract above."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([*argv, "--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.count("\n") == 1, (out, err)
        assert re.fullmatch(r"error: \S(.*\S)?\n", err) and not err.endswith(":\n"), err
    else:
        assert code in (0, 1) and err == "", (code, err)
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), out


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(obj=_EXACT_INPUTS | _EXTREME_FIELDS.map(lambda e: _edited(*e)), argv=_REALIZE_ARGV)
def test_realize_keeps_the_exit_code_contract(obj, argv):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        _assert_exit_code_contract(["realize", path, *argv])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(argv=st.tuples(st.just("area"), st.just("--radius"), _RADIUS).map(list) | st.tuples(
    st.just("su3"), st.just("--samples"), st.integers(-1, 50).map(str), st.just("--seed"),
    st.integers(-1, 3).map(str)).map(list))
def test_area_and_su3_keep_the_exit_code_contract(argv):
    _assert_exit_code_contract(argv)


@pytest.mark.parametrize("coefficient", ["1" + "0" * 310, "1/1" + "0" * 330])
def test_realize_refuses_a_coefficient_no_float_holds(tmp_path, capsys, coefficient):
    # 10^310 overflows a float and 10^-330 becomes 0.0, which would realize
    # the zero structure instead of the one given
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": f"{coefficient}*x3^2"}]}))
    assert cli.main(["realize", str(path), "--samples", "2", "--steps", "5", "--radius", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the coefficient of x3^2 is out of float range\n")


def test_realize_refuses_a_monomial_past_the_workspace_bound(tmp_path, capsys):
    # the spray workspace keeps a row for every monomial on each monomial's
    # parent chain, so x3^99999999999 would walk 10^11 rows before any sample;
    # degree MAX_NVARS is realized and MAX_NVARS + 1 refused.  The 10^11 input
    # runs only once the bound has refused MAX_NVARS + 1.
    path = tmp_path / "field.json"
    for degree, code in [(MAX_NVARS, 0), (MAX_NVARS + 1, 2), (99999999999, 2)]:
        path.write_text(json.dumps({"nvars": 3, "grade": 2, "terms": [
            {"indices": [1, 2], "poly": f"x3^{degree}"}]}))
        start = time.perf_counter()
        assert cli.main(["realize", str(path), "--samples", "2", "--steps", "5",
                         "--radius", "1"]) == code
        seconds, captured = time.perf_counter() - start, capsys.readouterr()
        if code == 2:
            assert seconds < 1
            assert (captured.out, captured.err) == ("", (
                f"error: the monomial x3^{degree} has degree {degree}, above the spray "
                f"workspace bound of {MAX_NVARS} (MAX_NVARS)\n"))


def test_su3(capsys):
    assert cli.main(["su3", "--samples", "50", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["killing"] == {"semisimple": True, "compact_type": True}
    assert obj["weyl_circle_max_dev"] < 1e-10
    assert obj["delta_membership"] is True


def test_area(capsys):
    assert cli.main(["area", "--radius", "0.5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["area"] - obj["expected_area"]) < 1e-6


def test_unknown_verb():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# Runs ``cli.main`` twice in one process: first on a bad argument, then on
# the argv given on the command line.
_TWO_CALLS = """
import sys
from poissonforge import cli
try:
    cli.main(["casimirs", sys.argv[1], "--max-degree", "two"])
except SystemExit as e:
    assert e.code == 2, e.code
else:
    raise AssertionError("a bad --max-degree did not exit")
sys.exit(cli.main(sys.argv[1:]))
"""


def test_parser_is_reused_across_calls(so3_file):
    # the parser is built once per process: a call that exits 2 leaves the
    # next call's output as a fresh process gives it
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    argv = ["casimirs", so3_file, "--max-degree", "4", "--format", "json"]
    reused = subprocess.run([sys.executable, "-c", _TWO_CALLS, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    fresh = subprocess.run([sys.executable, "-m", "poissonforge.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert reused.returncode == fresh.returncode == 0
    assert "invalid int value" in reused.stderr
    assert reused.stdout == fresh.stdout and json.loads(fresh.stdout)["casimirs"]


# Records the thread variables at the moment NumPy is first imported, then
# imports the CLI; at exit it prints them as recorded and as they are then.
# Importing the CLI does not import NumPy, so ``then`` imports it.
_THREAD_PROBE = """
import atexit, json, os, sys
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in THREAD_VARS})
        return None
sys.meta_path.insert(0, Probe())
atexit.register(lambda: print(json.dumps(
    {"at_numpy_import": seen, "after": {v: os.environ.get(v) for v in THREAD_VARS}})))
import poissonforge.cli
"""


def _run_thread_probe(value: str, then: str):
    """The probe, then ``then``, in a fresh interpreter with POISSON_FORGE_THREADS=value."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["POISSON_FORGE_THREADS"] = value
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, "-c", _THREAD_PROBE + then], env=env,
                          capture_output=True, text=True, timeout=120)


def test_thread_cap_env():
    out = _run_thread_probe("1", "import numpy\n")
    assert out.returncode == 0, out.stderr
    obj = json.loads(out.stdout)
    want = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    assert obj["after"] == want
    # the cap was in place before NumPy was first imported
    assert obj["at_numpy_import"] == want


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_thread_cap_env_refuses_non_positive_integers(value):
    # BLAS would ignore such a value and run its default pool: it is not
    # forwarded, and the CLI names the variable and exits 2 before any work
    out = _run_thread_probe(value, "import numpy\nsys.exit(poissonforge.cli.main(['area']))\n")
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        f"error: POISSON_FORGE_THREADS must be a positive integer, got {value!r}"]
    unset = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    assert json.loads(out.stdout) == {"at_numpy_import": unset, "after": unset}
