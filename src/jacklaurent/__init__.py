"""Exact computer algebra for Jack-Laurent symmetric functions.

The engine works in the free commutative algebra on generators p_i
(i a nonzero integer) over the field Q(k, p0) of rational functions in
two parameters, constructs the Jack-Laurent symmetric functions
P_{lambda,mu} by spectral projection, implements the commuting families
of CMS integrals, and verifies the closed formulas (Pieri, evaluation,
norms, duality, Jacobi-Trudy) against an independent finite-N oracle.
"""

import sys

from .rational import ParamRat, rat, K, P0, RAT_ZERO, RAT_ONE, \
    DivisionByZero, PoleAtSpecialization, IdenticallySingular, \
    SingularParameter, NotEigenvector
from .laurent import LaurentSymFunc, parse_element, parse_rat
from .partitions import normalize_partition, conjugate, chi_N, \
    w_bipartition, w_sequence, partitions_of, bipartitions_up_to
from .operators import cms_L, cms_I, stable_H, cms_L2_direct
from .closed_forms import eigenvalue_e, eigenvalue_eN, evaluation_value, \
    norm_value, duality_constant, pieri_V, pieri_U, phi_infinity
from .jack import JackLaurentFunction, construct, eigen_check_all, \
    rational_mode_construct
from .finite_n import SymLaurentPolyN, jack_poly_N, jack_laurent_poly_N, \
    phi_N_map, torus_form
from .schur import jacobi_trudy_S, schur_limit
from .verify import run_suite

__version__ = "0.1.0"


def clear_caches():
    """Empty every memo of the package: each function with a cache_clear
    defined in a loaded jacklaurent module, found by introspection."""
    for name, mod in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(mod).values():
                if (hasattr(obj, "cache_clear")
                        and getattr(obj, "__module__", None) == name):
                    obj.cache_clear()


__all__ = [
    "ParamRat", "rat", "parse_rat", "K", "P0", "RAT_ZERO", "RAT_ONE",
    "DivisionByZero", "PoleAtSpecialization", "IdenticallySingular",
    "SingularParameter", "NotEigenvector",
    "LaurentSymFunc", "parse_element",
    "normalize_partition", "conjugate", "chi_N", "w_bipartition",
    "w_sequence", "partitions_of", "bipartitions_up_to",
    "cms_L", "cms_I", "stable_H", "cms_L2_direct",
    "eigenvalue_e", "eigenvalue_eN", "evaluation_value", "norm_value",
    "duality_constant", "pieri_V", "pieri_U", "phi_infinity",
    "JackLaurentFunction", "construct", "eigen_check_all",
    "rational_mode_construct",
    "SymLaurentPolyN", "jack_poly_N", "jack_laurent_poly_N", "phi_N_map",
    "torus_form",
    "jacobi_trudy_S", "schur_limit",
    "run_suite", "clear_caches",
    "__version__",
]
