"""Exact amenability certificates for finite-group convolution algebras
over p-adic scalars.

Everything is computed in exact rational arithmetic: p-adic valuations of
rationals, convolution in l(G), the Hopf diagrams, invariant means, the
subgroup-lattice criterion, virtual diagonals, and derivation spaces.
Checks either pass exactly or raise InternalCheckError; certificates are
byte-stable JSON documents.
"""

from .errors import (GroupValidationError, InternalCheckError, OrderCapError,
                     OutputError, SpecParseError, ToolkitError)
from .valued_field import is_prime
from .finite_group import (DEFAULT_ORDER_CAP, ORDER_CAP_ENV, FiniteGroup,
                           Subgroup, catalog, cyclic, dihedral,
                           enumerate_subgroups, from_spec, order_cap,
                           product, quaternion8, subgroup_index, symmetric)
from .group_algebra import (AlgebraElement, GroupAlgebra, TensorAlgebra,
                            augmentation, convolve, format_norm_exponent,
                            i0_identity, norm_exponent)
from .hopf import (BasisMap, basis_tensor, e_map, eq1_check, lemma2_data,
                   lemma2_iso_check, pi0, verify_hopf_axioms)
from .amenability import (STOCK_BIMODULES, Bimodule, DerivationReport,
                          JohnsonCertificate, SchikhofVerdict,
                          VirtualDiagonal, certify, derivation_spaces,
                          diagonal_ideal_identity, invariant_functional_space,
                          johnson_check, mean_from_diagonal,
                          outer_tensor_bimodule, regular_bimodule,
                          render_json, schikhof_check, stock_bimodules,
                          trivial_bimodule, virtual_diagonal_construct)

__version__ = "0.1.0"
