"""Numerical symplectic realization of the rotation structure.

The cotangent-lift spray is integrated with RK4 and the realization 2-form
is accumulated along the flow.  The report checks that the form is closed,
nondegenerate, restricts to the known zero-section formula, and that the
base projection is a Poisson map.
"""

import numpy as np

from poissonforge import linear_poisson, preset, realization_form, verify_realization

pi = linear_poisson(preset("so3"))

rep = verify_realization(pi, n_samples=100, radius=0.1, seed=42, steps=2000)
print("samples:", rep.n_samples, " skipped:", rep.skipped)
print(f"max |d omega|          : {rep.domega_max:.3e}")
print(f"min |det omega|        : {rep.det_min:.3e}")
print(f"Poisson map residual   : {rep.poisson_residual_max:.3e}")
print(f"zero-section residual  : {rep.zero_section_residual:.3e}")

# on the zero section the integrated form has an exact closed form:
# [[0, I], [-I, Pi(x)]]
x = np.array([0.05, -0.03, 0.08])
Om = realization_form(pi, np.concatenate([x, np.zeros(3)]), steps=800)
P = pi.bivector_matrix(x[None, :])[0]
expected = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), P]])
print("zero-section deviation :",
      f"{np.abs(Om - expected).max():.3e}")

# the spray's base part: xdot_j = sum_i pi_ij(x) y_i, with y frozen
y = np.array([0.2, -0.1, 0.3])
print("spray at x:", y @ P)
