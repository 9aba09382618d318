"""Exact computer algebra for Jack-Laurent symmetric functions.

The engine works in the free commutative algebra on generators p_i
(i a nonzero integer) over the field Q(k, p0) of rational functions in
two parameters, constructs the Jack-Laurent symmetric functions
P_{lambda,mu} by spectral projection, implements the commuting families
of CMS integrals, and verifies the closed formulas (Pieri, evaluation,
norms, duality, Jacobi-Trudy) against an independent finite-N oracle.
"""

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
from . import closed_forms, finite_n, jack, operators, schur, verify

__version__ = "0.1.0"


def clear_caches():
    """Empty every memo: constructed functions with their cleared forms,
    the mirrored labels grown for the involution checks, the plans of
    the construction steps, the factored
    linear forms, Pieri coefficients V and triple products of the
    evaluation, norm and duality, the Bernoulli sums of the separation
    checks, the per-monomial tables of the second-order integral and of
    2^r * L_r with the walks of 2D they are read from, the gaps of the
    finite-N triangular solves and the polynomials they give cleared in
    Z[k], the int tables of phi_N and of L_{k,N}, the powers of the
    Vandermonde in the torus form, the complete functions h_i and the
    eigenvalues of the eigen checks."""
    for memo in (jack._construct, jack._grown_mirror, jack._plan,
                 closed_forms._linear,
                 closed_forms._pieri_V, closed_forms._phi_triple,
                 closed_forms.bernoulli_b, operators._l2_image,
                 operators._l_image, operators._walk, finite_n._gaps,
                 finite_n._cleared_N, finite_n._phi_N_monomial,
                 finite_n._cms_N_image, finite_n._vandermonde_power,
                 schur._complete_h, verify._eigenvalues):
        memo.cache_clear()


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
