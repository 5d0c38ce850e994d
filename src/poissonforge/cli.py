"""Command-line front end.

Verbs map one-to-one onto library operations.  Each ``cmd_*`` computes its
report and returns its exit code with two renderings that are built only when
called: the JSON object (`--format json`) and the lines of a short
human-readable summary; ``main`` prints the one ``--format`` asks for.  Exit
codes: 0 for success / positive verdicts, 1 for negative mathematical verdicts
(not Poisson, obstructed), 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import _THREAD_CAP_ERROR, formal, liealg, poisson, realize
from .multivector import PolyMVF, schouten
from .polyalg import PolyParseError, _as_int


def _parse_int(text: str) -> int:
    """A JSON integer, refused past ``int()``'s limit by its digit count alone."""
    digits, limit = len(text.lstrip("-")), getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:  # 0: no limit
        raise ValueError(f"an integer of {digits} digits, above the {limit}-digit limit")
    return int(text)


def parse_input(path: str):
    """Load a PolyMVF or LieAlgebraSpec from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_parse_int)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:  # not UTF-8, or an integer longer than int() reads
        raise ValueError(f"{path}: unreadable JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top level must be a JSON object")
    try:
        if "terms" in obj or "grade" in obj:
            return PolyMVF.from_json_obj(obj)
        if "C" in obj or "dim" in obj:
            # the Jacobi identity is a verdict for `check`, not an input precondition
            return liealg.LieAlgebraSpec.from_json_obj(obj)
    except (PolyParseError, ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from e
    raise ValueError(f"{path}: neither a multivector nor a Lie algebra spec")


def _as_bivector(obj, path: str, weights=None) -> PolyMVF:
    if isinstance(obj, liealg.LieAlgebraSpec):
        obj = liealg.linear_poisson(obj)
    if obj.grade != 2:
        raise ValueError(f"{path}: expected a bivector, got degree {obj.grade}")
    if weights is not None:
        if len(weights) != obj.nvars:
            raise ValueError(f"--weights needs {obj.nvars} entries")
        obj = obj.with_weights(weights)
    return obj


def cmd_check(args) -> tuple:
    pi = _as_bivector(parse_input(args.input), args.input)
    res = poisson.check_poisson(pi)
    return (0 if res.is_poisson else 1,
            lambda: {"is_poisson": res.is_poisson,
                     "witness": res.witness.to_json_obj() if not res.is_poisson else None},
            lambda: [f"poisson: {res.is_poisson}"]
            + ([] if res.is_poisson else [f"witness: {res.witness!r}"]))


def cmd_casimirs(args) -> tuple:
    pi = _as_bivector(parse_input(args.input), args.input)
    basis = poisson.casimir_basis(pi, args.max_degree)
    strs = [str(p) for p in basis]
    return (0, lambda: {"max_degree": args.max_degree, "casimirs": strs},
            lambda: [f"{len(strs)} Casimir basis elements up to degree {args.max_degree}:"]
            + [f"  {s}" for s in strs])


def cmd_cohomology(args) -> tuple:
    pi = _as_bivector(parse_input(args.input), args.input)
    kmax = args.max_degree if args.max_degree is not None else pi.nvars
    table = poisson.cohomology_dims(pi, args.grade, kmax)
    return 0, table.to_json_obj, lambda: [f"grade {table.grade}:"] + [
        f"  k={k}: dim={table.dim_cochains[k]} rank={table.rank_d[k]} betti={table.betti[k]}"
        for k in table.degrees]


def cmd_linearize(args) -> tuple:
    pi = _as_bivector(parse_input(args.input), args.input)
    sol = formal.formal_linearize(pi, args.truncate, args.base_degree_cap)
    if sol.status == "equivalent":
        return 0, sol.to_json_obj, lambda: [f"equivalent after {sol.rounds} rounds",
                                            f"gauge vector field: {sol.X.value!r}"]
    return 1, sol.to_json_obj, lambda: [f"obstructed at grade {sol.degree}",
                                        f"cochain: {sol.cochain.value!r}"]


def _parse_weights(text: str) -> list:
    try:
        return [int(w) for w in text.split(",")]
    except ValueError:
        raise ValueError(f"--weights needs comma-separated integers, got {text!r}") from None


def cmd_prolong(args) -> tuple:
    weights = None if args.weights is None else _parse_weights(args.weights)
    pi = _as_bivector(parse_input(args.input), args.input, weights)
    if args.grade is not None:
        m = args.grade
    else:
        jac = schouten(pi, pi)
        m = 2 if jac.is_zero() else jac.min_grade()
    res = formal.prolong_step(formal.FilteredJet(pi, max(m, 1)), m,
                              args.base_degree_cap)
    if res.status == "solved":
        return (0, lambda: {"status": "solved", "grade": m, "eta": res.eta.to_json_obj()},
                lambda: [f"solved at grade {m}", f"correction: {res.eta!r}"])
    return (1, lambda: {"status": "obstructed", "grade": m,
                        "cochain": res.obstruction.value.to_json_obj(),
                        "base_degree_cap": args.base_degree_cap},
            lambda: [f"obstructed at grade {m}", f"cochain: {res.obstruction.value!r}"])


def cmd_realize(args) -> tuple:
    pi = _as_bivector(parse_input(args.input), args.input)
    rep = realize.verify_realization(pi, args.samples, args.radius, args.seed,
                                     args.steps)
    return 0, rep.to_json_obj, lambda: [f"samples={rep.n_samples} skipped={rep.skipped}",
                                        f"skew defect:        {rep.skew_defect_max:.3e}",
                                        f"max |d omega|:      {rep.domega_max:.3e}",
                                        f"min |det omega|:    {rep.det_min:.3e}",
                                        f"poisson residual:   {rep.poisson_residual_max:.3e}",
                                        f"zero-section resid: {rep.zero_section_residual:.3e}"]


def cmd_su3(args) -> tuple:
    import numpy as np
    _as_int(args.samples, "--samples", 1)
    spec = liealg.preset("su3")
    kc = liealg.killing_classify(spec)
    worst_q = 0.0
    for r in (0.5, 1.0, 2.0):
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            s = liealg.weyl_circle_sample(r, float(theta))
            worst_q = max(worst_q, abs(s.q1 - r ** 2),
                          abs(s.q2 - r ** 3 * math.sin(3 * theta)))
    rng = np.random.default_rng(_as_int(args.seed, "--seed", 0))
    delta_ok = True
    for _ in range(args.samples):
        p1, p2 = liealg.su3_invariants(rng.normal(size=8))
        if p1 ** 3 < p2 ** 2 - 1e-9:
            delta_ok = False
    return (0 if (delta_ok and worst_q < 1e-10 and kc["compact_type"]) else 1,
            lambda: {"killing": kc, "weyl_circle_max_dev": worst_q,
                     "delta_membership": delta_ok, "samples": args.samples},
            lambda: [f"killing: {kc}", f"weyl circle max deviation: {worst_q:.3e}",
                     f"Delta membership over {args.samples} samples: {delta_ok}"])


def cmd_area(args) -> tuple:
    # dh_variation refuses radii above 2^18, long before the quadrature overflows (1e150)
    d1, d2 = realize.dh_variation(args.radius, 1e-5)
    pi = liealg.linear_poisson(liealg.preset("so3"))
    area = realize.symplectic_area(realize.sphere_leaf_form(pi, args.radius), (64, 2048))
    return (0, lambda: {"r": args.radius, "area": area,
                        "expected_area": 4 * math.pi * args.radius, "dh": [d1, d2]},
            lambda: [f"area(S_r), r={args.radius}: {area:.9f} "
                     f"(4*pi*r = {4*math.pi*args.radius:.9f})",
                     f"d/dr areas: ({d1:.6f}, {d2:.6f})"])


@functools.cache  # built once per process, on the first call of ``main``
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poisson-forge",
        description="Symbolic and numerical workbench for polynomial Poisson structures.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, input_file=True):
        if input_file:
            sp.add_argument("input", help="JSON input (multivector or Lie algebra spec)")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("check", help="verify the Jacobi identity [pi,pi]=0")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("casimirs", help="exact Casimir basis up to a degree")
    common(sp)
    sp.add_argument("--max-degree", type=int, default=2)
    sp.set_defaults(func=cmd_casimirs)

    sp = sub.add_parser("cohomology", help="homogeneous Poisson cohomology ranks")
    common(sp)
    sp.add_argument("--grade", type=int, default=2,
                    help="coefficient degree of the homogeneous complex")
    sp.add_argument("--max-degree", type=int, default=None,
                    help="largest multivector degree k (default: n)")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("linearize", help="formal linearization up to a jet order")
    common(sp)
    sp.add_argument("--truncate", type=int, default=4, help="jet truncation grade D")
    sp.add_argument("--base-degree-cap", type=int, default=8)
    sp.set_defaults(func=cmd_linearize)

    sp = sub.add_parser("prolong", help="one jet-extension step of a bivector")
    common(sp)
    sp.add_argument("--weights", default=None,
                    help="comma-separated 0/1 weights, e.g. 0,0,1")
    sp.add_argument("--grade", type=int, default=None,
                    help="target grade m (default: first failing grade)")
    sp.add_argument("--base-degree-cap", type=int, default=8)
    sp.set_defaults(func=cmd_prolong)

    sp = sub.add_parser("realize", help="verify the spray symplectic realization")
    common(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--radius", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--steps", type=int, default=2000)
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("su3", help="su(3) invariant checks on the Weyl circle")
    common(sp, input_file=False)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(func=cmd_su3)

    sp = sub.add_parser("area", help="sphere-leaf symplectic areas and variations")
    common(sp, input_file=False)
    sp.add_argument("--radius", type=float, default=0.1)
    sp.set_defaults(func=cmd_area)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if _THREAD_CAP_ERROR:
            raise ValueError(_THREAD_CAP_ERROR)
        code, json_obj, text_lines = args.func(args)
        if args.format == "json":
            print(json.dumps(json_obj(), sort_keys=True))
        else:
            print("\n".join(text_lines()))
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a bare MemoryError has no message of its own
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
