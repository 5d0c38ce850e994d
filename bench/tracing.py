"""Outside-in tracer for the benchmark's traced pass.

Spans are recorded around calls into the layers by rebinding functions in
the ``poissonforge.*`` module namespaces; nothing in the package itself is
edited.  ``Poly`` arithmetic is counted but not spanned, because a single
``gauge`` pass makes tens of thousands of multiplies.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("polyalg", "multivector", "poisson", "liealg", "formal", "realize", "cli")

# (module, attribute) pairs that get a span; "Class.method" names a method.
SPANNED = (
    ("cli", "main"), ("cli", "parse_input"),
    ("polyalg", "solve_linear_exact"), ("polyalg", "exact_rank"),
    ("polyalg", "parse_poly"), ("polyalg", "format_poly"),
    ("multivector", "schouten"), ("multivector", "truncate_jet"),
    ("multivector", "grade_component"), ("multivector", "PolyMVF.bivector_matrix"),
    ("poisson", "check_poisson"), ("poisson", "casimir_basis"),
    ("poisson", "cohomology_dims"), ("poisson", "hamiltonian_vf"),
    ("formal", "ad_exp"), ("formal", "bch"), ("formal", "homotopy_solve"),
    ("formal", "prolong_step"), ("formal", "mc_equivalence"),
    ("formal", "formal_linearize"),
    ("realize", "_rhs"), ("realize", "_flow_batch"),
    ("realize", "verify_realization"),
    ("liealg", "preset"), ("liealg", "validate"), ("liealg", "linear_poisson"),
)


def _monomials(mvf) -> int:
    return sum(len(p.terms) for p in mvf.terms.values())


def _solve_shape(args, kwargs):
    """(cells, nnz) of the sparse rows handed to solve_linear_exact."""
    rows = args[0]
    return len(rows) * kwargs["ncols"], sum(1 for row in rows for v in row.values() if v)


class Tracer:
    """Span recorder plus work counters for one benchmark process.

    ``install`` rebinds every traced name in each ``poissonforge.*`` module
    that binds it; ``uninstall`` restores the originals.  Spans are kept in
    memory as ``(name, start, end, parent_index, case_id)`` tuples.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.rhs_by_batch: dict = defaultdict(lambda: [0, 0.0])  # B -> [calls, total_s]
        self.case = None
        self._stack: list[int] = []
        self._patches: list = []

    # -- hooks that count work where it happens ------------------------

    def _after(self, name, args, kwargs, result, seconds):
        c = self.counts
        if name == "multivector.schouten":
            c["multivector.schouten.terms_out"] += _monomials(result)
        elif name == "multivector.truncate_jet":
            c["multivector.truncate_jet.monomials_in"] += _monomials(args[0])
            c["multivector.truncate_jet.monomials_kept"] += _monomials(result)
        elif name == "polyalg.solve_linear_exact":
            cells, nnz = _solve_shape(args, kwargs)
            c["polyalg.solve_linear_exact.cells"] += cells
            c["polyalg.solve_linear_exact.nnz"] += nnz
            c["polyalg.solve_linear_exact.infeasible"] += not result.feasible
        elif name == "realize._flow_batch":
            c["realize.sample_steps"] += len(args[1]) * args[3]
        elif name == "realize._rhs":
            entry = self.rhs_by_batch[args[1].shape[0]]
            entry[0] += 1
            entry[1] += seconds

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.case)
            tracer._after(name, args, kwargs, result, end - start)
            return result
        return wrapper

    def _counted_poly(self, Poly):
        counts = self.counts
        mul, add, init = Poly.__mul__, Poly.__add__, Poly.__init__

        def counted_mul(a, b):
            counts["polyalg.Poly.mul.calls"] += 1
            other = len(b.terms) if isinstance(b, Poly) else 1
            counts["polyalg.Poly.mul.term_products"] += len(a.terms) * other
            return mul(a, b)

        def counted_add(a, b):
            counts["polyalg.Poly.add.calls"] += 1
            return add(a, b)

        def counted_init(a, *args, **kwargs):
            counts["polyalg.Poly.init.calls"] += 1
            init(a, *args, **kwargs)

        return {"__mul__": counted_mul, "__rmul__": counted_mul,
                "__add__": counted_add, "__radd__": counted_add,
                "__init__": counted_init}

    def _bind(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "poissonforge" or n.startswith("poissonforge."))]
        for layer, attr in SPANNED:
            home = sys.modules[f"poissonforge.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._bind(cls, meth, self._spanned(f"{layer}.{meth}", cls.__dict__[meth]))
                continue
            original = getattr(home, attr)
            wrapper = self._spanned(f"{layer}.{attr}", original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._bind(mod, attr, wrapper)
        Poly = sys.modules["poissonforge.polyalg"].Poly
        for attr, fn in self._counted_poly(Poly).items():
            self._bind(Poly, attr, fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls/total/self time, per-layer self time and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "layer_self_s": layer_self}
