"""Finite-dimensional Spin+(1,3) operators in two ladder bases.

A label (l0, l1) with l1 = l0 + p fixes a dim = l1^2 - l0^2 module with
rotation operators H and boost operators F; converting X = (H + iF)/2,
Y = (H - iF)/2 exposes the two commuting su(2) copies with weights
l = (l0+l1-1)/2 and ldot = (l1-l0-1)/2.
"""

from fractions import Fraction as F

import numpy as np

from cliffrep import (
    GNLabel,
    Spintensor,
    build_gn_operators,
    build_vdw_operators,
    gn_coefficients,
    gn_to_vdw,
    reconstruct_AB,
    spintensor_transform,
)
from cliffrep.lorentz import com1_residual, com2_residual, su2_ladder

np.set_printoptions(precision=3, suppress=True, linewidth=120)

label = GNLabel(F(1, 2), F(3, 2))
ops = build_gn_operators(label)
print(f"label (l0,l1) = ({label.l0},{label.l1}), dim {ops.dim}")
print("H3 =\n", ops.h3)
print("F3 =\n", ops.f3)
print("commutator residual:", com1_residual(reconstruct_AB(ops)))

v = gn_to_vdw(ops)
print(f"\nconverted weights: l = {v.l}, ldot = {v.ldot}")
print("X3 =\n", v.x3)
print("Y operators vanish on this label:", all(abs(m).max() == 0 for m in (v.y3, v.yplus, v.yminus)))

# a two-level label mixes the boost sector across levels
label2 = GNLabel(F(0), F(2))
ops2 = build_gn_operators(label2)
print(f"\nlabel (0,2): dim {ops2.dim}, com1 residual {com1_residual(reconstruct_AB(ops2)):.2e}")
v2 = gn_to_vdw(ops2)
print(f"converted to (l, ldot) = ({v2.l}, {v2.ldot}); X3 spectrum:",
      sorted(np.round(np.linalg.eigvals(v2.x3).real, 6)))

# A_k ties each level's boosts to its rotations, C_k links level k to k-1
label3 = GNLabel(F(1, 2), F(5, 2))
for k in label3.levels():
    a_k, c_k = gn_coefficients(label3, k)
    print(f"label (1/2,5/2), level k = {k}: A_k = {a_k:.4f}, C_k = {c_k:.4f}")

# direct su(2) x su(2) ladders
w = build_vdw_operators(F(1, 2), F(1, 2))
print(f"\n|l,m;ldot,mdot> basis, dim {w.dim}, com2 residual {com2_residual(w):.2e}")
j3, jp, jm = su2_ladder(F(1, 2))  # each spin's triple, placed at its Kronecker positions: X = x (x) I, Y = I (x) y
print("X+ = j+ (x) I:", np.array_equal(w.xplus, np.kron(jp, np.eye(2))), " Y+ = I (x) j+:", np.array_equal(w.yplus, np.kron(np.eye(2), jp)))

# spintensors transform slotwise: g on undotted, conj(g) on dotted slots
g = np.array([[1, 1], [0, 1]], dtype=complex)  # a null rotation
t = Spintensor(1, 1, np.array([1.0, 0, 0, 0]))
print("\nspintensor before:", t.flat, " after:", spintensor_transform(g, t).flat)
