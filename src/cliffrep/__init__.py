"""Clifford algebra arithmetic, classification and Spin+(1,3) representations.

Subpackage map:

* :mod:`cliffrep.algebra` -- exact multivector arithmetic, automorphisms,
  volume element, center, graded bracket;
* :mod:`cliffrep.tensor` -- graded tensor products and their canonical
  mutually inverse homomorphisms;
* :mod:`cliffrep.classify` -- mod-8 / mod-2 division-ring classification
  and the Brauer-Wall group law;
* :mod:`cliffrep.factorize` -- two-generator tensor factorizations and
  periodicity reductions;
* :mod:`cliffrep.gamma` -- explicit gamma-matrix synthesis;
* :mod:`cliffrep.lorentz` -- finite-dimensional Spin+(1,3) operators in
  the (l0, l1) and paired su(2) ladder bases, plus spintensor actions;
* :mod:`cliffrep.repsys` -- representation-label arithmetic: cycles,
  interlocking chains, periodicity steps;
* :mod:`cliffrep.cli` -- the ``cliffrep`` command-line tool.

Only :mod:`cliffrep.classify` and :mod:`cliffrep.factorize` (with the input
rules they use) are imported with the package: their functions ``classify``
and ``factorize`` must keep those names, which a later lazy import of the
submodule would rebind to the module.  Every other submodule, and the names
this package exports from it, is imported on first access, so
``import cliffrep`` loads neither numpy nor the multivector code, and a label
command (classify, table, clock, factorize, chain) loads only the modules it
runs.
"""

from .classify import (
    AlgebraClass,
    ComplexClass,
    MatrixShape,
    RingType,
    bw_compose,
    classify,
    classify_complex,
    clock_hour,
    even_subalgebra,
    tensor_compose,
)
from .factorize import (
    Factorization,
    complex_factorize,
    factorize,
    factorize_odd,
    karoubi_factorize,
    periodicity_reduce,
)

__version__ = "0.1.0"

# every lazily imported submodule, and the names it exports, to the submodule
_LAZY = {
    name: module
    for module, names in {
        "algebra": "GradedBracketResult Multivector Signature blade_product center_blades generators graded_bracket "
        "involution_via_omega omega_square omega_square_mod8 volume_element",
        "tensor": "GradedTensorProduct theta_psi_check theta_psi_checks",
        "repsys": "ComplexRepLabel RealRepClass RealRepLabel bw_complex_step bw_real_step chain_neighbors "
        "classify_real_rep interlocking_chain real_period_step",
        "gamma": "GeneratorSet build_generators faithfulness_rank verify_anticommutation",
        "lorentz": "GNLabel GNOperators Spintensor VdWOperators build_gn_operators build_vdw_operators "
        "gn_coefficients gn_to_vdw reconstruct_AB spintensor_transform",
    }.items()
    for name in (module, *names.split())
}

# ``from cliffrep import *`` still exports the lazy names, importing their modules
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    """Import a lazy submodule the first time it or one of its names is read."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)  # also binds the submodule name
    if name != _LAZY[name]:
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__() -> list[str]:
    # the private submodule is bound here by its import, but is not a name of the package
    return sorted(set(globals()) - {"_rules"} | set(_LAZY))
