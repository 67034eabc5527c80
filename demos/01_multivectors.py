"""Tour of exact multivector arithmetic in Cl(p,q).

Generators anticommute and square to +1 (first p) or -1 (last q);
everything below runs in exact rational arithmetic.
"""

from fractions import Fraction

from cliffrep import (
    Multivector,
    center_blades,
    generators,
    graded_bracket,
    involution_via_omega,
    omega_square,
    volume_element,
)
from cliffrep.algebra import blade_name

sig = (1, 3)  # spacetime signature
e1, e2, e3, e4 = generators(sig)

print("generator squares:", e1 * e1, ",", e2 * e2)
print("anticommutation:  e2*e1 =", e2 * e1, "  e1*e2 =", e1 * e2)

# a general element with exact coefficients
x = Multivector.scalar(sig, Fraction(1, 2)) + Multivector.blade(sig, (1, 2), 3) - e4
print("\nx               =", x)
print("grade involution =", x.grade_involution())
print("reversion        =", x.reversion())
print("conjugation      =", x.conjugation())

# the volume element and its square depend only on (p-q) mod 8
omega = volume_element(sig)
print("\nomega =", omega, "  omega^2 =", omega_square(sig))
for s in [(2, 0), (3, 0), (4, 0), (0, 4), (1, 3), (3, 1)]:
    print(f"  omega^2 in Cl{s} = {omega_square(s):+d}")

# the center is {e0} or {e0, omega} depending on the parity of p+q
for s in [(3, 0), (1, 3), (0, 1)]:
    names = sorted(blade_name(m) for m in center_blades(s))
    print(f"center of Cl{s}: {names}")

# conjugating by omega realizes the grade involution in even dimension
print("\nomega e1 omega^-1 =", involution_via_omega(e1))

# the graded bracket: anticommutator on odd pairs, commutator otherwise
res = graded_bracket(e1, e1)
print("graded bracket [[e1, e1]] =", res.value, " degree", res.degree)
res = graded_bracket(e1 * e2, e3)
print("graded bracket [[e12, e3]] =", res.value, " degree", res.degree)
