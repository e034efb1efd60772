"""Antilinear eigenvalue problems and pseudospectra.

A C-self-adjoint matrix need not have a spectral theorem, but the
antilinear problem (H - zI) psi = lambda C psi always has a complete
orthonormal solution family, and its smallest lambda is exactly
1/||R(z)||. The resolvent-norm grid scan below contrasts a normal matrix
(pseudospectrum = union of disks) with a Jordan block (inflated).
"""

import numpy as np

from csaop import antilinear_eigensystem, conjugation_k, pseudospectrum, resolvent_norm
from csaop.serialize import pseudospectrum_csv

rng = np.random.default_rng(4)

print("== antilinear expansion for a complex symmetric matrix ==")
dim, z = 6, 2 + 1j
M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
H = 0.5 * (M + M.T)
C = conjugation_k(dim)
system = antilinear_eigensystem(H, C, z)
print("  lambdas (ascending):", np.round(system.lambdas, 4))
# the certified residuals the eigensystem carries
print("  || (H - zI) psi - C psi lambda ||:", f"{system.residuals['expansion']:.2e}")
print("  completeness || sum psi psi* - I ||:", f"{system.residuals['completeness']:.2e}")
print("  ||R(z)||      =", f"{resolvent_norm(H, z):.6f}")
print("  1 / lambda_1  =", f"{1.0 / system.lambdas[0]:.6f}")

print()
print("== pseudospectra: normal vs Jordan ==")
eps, bounds, res = 0.2, (-1.5, 1.5, -1.5, 1.5), 101
normal = pseudospectrum(np.zeros((2, 2)), eps, bounds, res)
jordan = pseudospectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), eps, bounds, res)
cell = (3.0 / (res - 1)) ** 2
print(f"  epsilon = {eps}; both matrices have only the eigenvalue 0")
print(f"  normal zero matrix: marked area ~ {np.count_nonzero(normal.in_pseudospectrum) * cell:.3f}"
      f" (disk of radius {eps}: {np.pi * eps**2:.3f})")
print(f"  Jordan block:       marked area ~ {np.count_nonzero(jordan.in_pseudospectrum) * cell:.3f}")

csv_text = pseudospectrum_csv(jordan)
print("  CSV header + first row:")
print("   ", csv_text.split("\n")[0])
print("   ", csv_text.split("\n")[1])
