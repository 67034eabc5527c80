"""Synthesizing gamma matrices for any signature.

Even p+q uses a Kronecker chain over the two-generator factor list; odd
p+q doubles the even-truncated module on the block diagonal, with the
last generator taking opposite signs in the two blocks.
"""

import numpy as np

from cliffrep import (
    build_generators,
    faithfulness_rank,
    omega_square_mod8,
    verify_anticommutation,
)
from cliffrep.gamma import omega_image, omega_image_square_sign

np.set_printoptions(precision=0, suppress=True, linewidth=100)

gen = build_generators((1, 3))
print(f"Cl(1,3): {len(gen.gammas)} generators of dim {gen.dim}, metric {gen.metric}")
for i, g in enumerate(gen.gammas, start=1):
    print(f"gamma_{i} =\n{g}")

print("anticommutation relations hold:", verify_anticommutation(gen))
print("faithful: rank of blade-image span =", faithfulness_rank(gen), "= 2^4")

om = omega_image(gen)
print("volume image =\n", om)
print("volume image squares to", omega_image_square_sign(gen), "* I;",
      "mod-8 law predicts", omega_square_mod8((1, 3)))

# the double-number algebra splits into two 1x1 blocks
gen2 = build_generators((1, 0))
print("\nCl(1,0) generator (reducible block pair):")
print(gen2.gammas[0].real)

# the blades' images are products of the generators, and multiply like the blades themselves
g1, g2 = build_generators((2, 0)).gammas
images = {"1": np.eye(2), "e1": g1, "e2": g2, "e12": g1 @ g2}
print("\nCl(2,0) blade images:")
for name, m in images.items():
    print(f"{name} =\n{m.real + 0.0}")  # + 0.0 writes a -0.0 from the product as 0.0
print("e12 e12 = -1:", np.array_equal(images["e12"] @ images["e12"], -images["1"]))
print("e1 e12 = e2:", np.array_equal(g1 @ images["e12"], g2))
