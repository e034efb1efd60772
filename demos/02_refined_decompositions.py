"""Refined polar and singular-value decompositions.

For C-self-adjoint H the polar decomposition H = U |H| refines to
H = C^{-1} J |H| with an antilinear J that commutes with |H| and inherits
the involution class of C. When C is involutive (or a singular value is
simple) the eigenbasis of |H| can be made J-fixed, giving the rank-one
expansion H = sum_j sigma_j (C^{-1} phi_j) <phi_j, .>.
"""

import numpy as np

from csaop import (
    AntiunitaryOp,
    UnsupportedDegeneracy,
    conjugation_k,
    generate_csa,
    refined_polar,
    refined_svd,
)
from csaop.linalg import fro
from csaop.pauli import MINUS_I_SIGMA2

print("== involutive symmetry: complex symmetric matrix, dim 5 ==")
K = conjugation_k(5)
H = generate_csa(K, seed=3)
polar = refined_polar(H, K)  # certified: its residuals are kept, not recomputed
print("  || H - U|H| ||           =", f"{polar.residuals['polar']:.2e}")
print("  || J|H| - |H|J ||        =", f"{polar.residuals['commutation']:.2e}")
print("  || J^2 - I || on range   =", f"{fro(polar.J.squared() - np.eye(5)):.2e}")

expansion = refined_svd(H, K)
print("  sigmas:", np.round(expansion.sigmas, 4))
print("  || H - sum_j s_j eta_j phi_j* || =", f"{expansion.residuals['reconstruction']:.2e}")
print("  || J phi_j - phi_j ||            =", f"{expansion.residuals['fixed']:.2e}")

print()
print("== anti-involutive symmetry: paired singular values, no fixed basis ==")
C2 = AntiunitaryOp(np.kron(np.eye(3), MINUS_I_SIGMA2))
H = generate_csa(C2, seed=5)
polar = refined_polar(H, C2)
print("  sigmas:", np.round(np.linalg.svd(H, compute_uv=False), 4))
print("  || J^2 + I || on range =", f"{fro(polar.J.squared() + np.eye(6)):.2e}")
try:
    refined_svd(H, C2)
except UnsupportedDegeneracy as exc:
    print("  refined_svd refused as it must:", exc)
