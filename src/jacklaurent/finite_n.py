"""Independent finite-N oracle: Jack polynomials in N variables and their
Laurent extension, the p_j -> power-sum homomorphism from the infinite
algebra, the torus constant-term form, and finite Pieri / eigenvalue /
involution checks.

Everything here is computed from the N-variable CMS operator

    L_{k,N} = sum_i (x_i d/dx_i)^2
              - k sum_{i<j} (x_i+x_j)/(x_i-x_j) (x_i d/dx_i - x_j d/dx_j)

and dominance-triangular linear algebra in the monomial basis; no formula
is shared with the infinite-dimensional construction, which is the point:
agreement between the two routes is evidence for both.
"""

from fractions import Fraction
from functools import cache

from .rational import RAT_ZERO, RAT_ONE, K, Sparse, rat, as_rat, \
    SingularParameter, PoleAtSpecialization, IdenticallySingular, \
    NotEigenvector
from .partitions import normalize_partition, partitions_of, dominance_leq, \
    w_sequence, LengthTooSmall
from .closed_forms import eigenvalue_eN


def _check_sorted(chi):
    chi = tuple(int(x) for x in chi)
    if any(chi[i] < chi[i + 1] for i in range(len(chi) - 1)):
        raise ValueError("sequence not non-increasing: %r" % (chi,))
    return chi


def _rearrangements(chi):
    """The distinct permutations of chi: each distinct entry in front of
    the distinct permutations of the rest, so the cost follows the orbit
    size, not N!."""
    if not chi:
        return [()]
    return [(x,) + rest for i, x in enumerate(chi) if x not in chi[:i]
            for rest in _rearrangements(chi[:i] + chi[i + 1:])]


class SymLaurentPolyN(Sparse):
    """Symmetric Laurent polynomial in N variables, a Sparse sum over
    non-increasing exponent vectors (orbit-sum labels m_chi).  Its
    coefficients are ParamRats in Q(k) symbolically and Fractions at a
    numeric coupling; printing reads them through as_rat."""

    __slots__ = ("N",)

    def __init__(self, N, terms=None):
        self.N = N
        self.terms = {_check_sorted(chi): c
                      for chi, c in (terms or {}).items() if c}

    def _like(self, terms):
        out = SymLaurentPolyN.__new__(SymLaurentPolyN)
        out.N, out.terms = self.N, terms
        return out

    @staticmethod
    def zero(N):
        return SymLaurentPolyN(N)

    @staticmethod
    def one(N):
        return SymLaurentPolyN(N, {(0,) * N: RAT_ONE})

    @staticmethod
    def orbit(chi, N):
        """The monomial symmetric polynomial m_chi."""
        chi = _check_sorted(chi)
        if len(chi) != N:
            raise ValueError("exponent vector has length %d, want %d"
                             % (len(chi), N))
        return SymLaurentPolyN(N, {chi: RAT_ONE})

    def coeff(self, chi):
        return self.terms.get(tuple(chi), RAT_ZERO)

    def expand(self):
        """Full monomial dict: every distinct permutation, same coefficient."""
        full = {}
        for chi, c in self.terms.items():
            for key in _rearrangements(chi):
                full[key] = c
        return full

    @staticmethod
    def from_full(N, full):
        """Collapse a full (symmetric) monomial dict to orbit labels."""
        return SymLaurentPolyN(N)._like({
            key: c for key, c in full.items()
            if c and key == tuple(sorted(key, reverse=True))})

    def __mul__(self, other):
        if not isinstance(other, SymLaurentPolyN):
            return self.scale(other)
        if self.N != other.N:
            raise ValueError("mixed variable counts")
        fa = self.expand()
        fb = other.expand()
        full = {}
        for a, ca in fa.items():
            for b, cb in fb.items():
                key = tuple(x + y for x, y in zip(a, b))
                v = full.get(key)
                full[key] = ca * cb if v is None else v + ca * cb
        return SymLaurentPolyN.from_full(self.N, full)

    __rmul__ = __mul__

    def star(self):
        """The involution x_i -> 1/x_i."""
        t = {}
        for chi, c in self.terms.items():
            t[tuple(sorted((-x for x in chi), reverse=True))] = c
        return SymLaurentPolyN(self.N, t)

    def shift(self, a):
        """Multiply by (x_1...x_N)^a."""
        return self._like({
            tuple(x + a for x in chi): c for chi, c in self.terms.items()})

    def substitute_k(self, k0):
        return self.map_coeffs(lambda c: c.substitute_k(k0))

    def __eq__(self, other):
        return Sparse.__eq__(self, other) and self.N == other.N

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for chi, c in self.sorted_terms():
            c = as_rat(c)
            label = "m[%s]" % ",".join(str(x) for x in chi)
            if c.is_one():
                bits.append(label)
            else:
                bits.append("(%s)*%s" % (c, label))
        return " + ".join(bits)


def power_sum_N(j, N):
    """The image of p_j: x_1^j + ... + x_N^j."""
    if j == 0 or N < 1:
        raise ValueError("power sum index must be nonzero, N >= 1")
    if j > 0:
        return SymLaurentPolyN.orbit((j,) + (0,) * (N - 1), N)
    return SymLaurentPolyN.orbit((0,) * (N - 1) + (j,), N)


def phi_N_map(f, N):
    """The homomorphism from the infinite algebra: p_j -> power sum,
    p0 -> N; k stays symbolic."""
    p0v = Fraction(N)
    out = SymLaurentPolyN.zero(N)
    for m, c in f.terms.items():
        try:
            c2 = c.substitute_p0(p0v)
        except IdenticallySingular:
            raise PoleAtSpecialization(
                "coefficient %s has a pole at p0=%s" % (c, p0v))
        term = SymLaurentPolyN.one(N) * c2
        for i, e in m:
            ps = power_sum_N(i, N)
            for _ in range(e):
                term = term * ps
        out = out + term
    return out


# -- the CMS operator and its first integral -----------------------------------

def euler_N(f):
    """The momentum sum_i x_i d/dx_i (the first integral)."""
    full = f.expand()
    out = {}
    for a, c in full.items():
        d = sum(a)
        if d:
            out[a] = c * d
    return SymLaurentPolyN.from_full(f.N, out)


def cms_N(f, k=K):
    """Apply L_{k,N}.  The rational pair terms resolve against the
    symmetry of f: for each monomial x^a and pair i<j with a_i > a_j the
    orbit {x^a, x^swap} jointly contributes

        -k (a_i-a_j) [x^a + x^swap + 2*(the monomials strictly between)],

    and the diagonal part contributes (sum a_i^2) x^a."""
    N = f.N
    full = f.expand()
    out = {}

    def bump(key, c):
        v = out.get(key)
        out[key] = c if v is None else v + c

    for a, c in full.items():
        diag = sum(x * x for x in a)
        if diag:
            bump(a, c * diag)
        for i in range(N):
            for j in range(i + 1, N):
                d = a[i] - a[j]
                if d <= 0:
                    continue
                kd = k * d
                bump(a, -(c * kd))
                swap = list(a)
                swap[i], swap[j] = swap[j], swap[i]
                bump(tuple(swap), -(c * kd))
                mid = list(a)
                for _ in range(d - 1):
                    mid[i] -= 1
                    mid[j] += 1
                    bump(tuple(mid), -(c * kd * 2))
    return SymLaurentPolyN.from_full(N, out)


def cms_r_N(f, r, k=K):
    """The finite integrals used in cross-checks: r = 1 is the momentum,
    r = 2 the CMS operator itself."""
    if r == 1:
        return euler_N(f)
    if r == 2:
        return cms_N(f, k)
    raise ValueError("only orders 1 and 2 are realized at finite N")


# -- Jack polynomials by triangular solve --------------------------------------

def _index_weight(delta):
    return sum(i * x for i, x in enumerate(delta))


def jack_poly_N(nu, N, k0=None):
    """The monic Jack polynomial P_nu in N variables: the eigenfunction of
    L_{k,N} of the form m_nu + (dominance-lower terms), obtained by
    back-substitution.  k0 = None keeps k symbolic, with ParamRat
    coefficients; a rational k0 runs the whole solve on Fractions, gives
    Fraction coefficients and raises SingularParameter on an eigenvalue
    collision at that coupling."""
    nu = normalize_partition(nu)
    if len(nu) > N:
        raise LengthTooSmall("partition %r needs more than N=%d variables"
                             % (nu, N))
    return _jack_poly_N(nu, N, None if k0 is None else Fraction(k0))


@cache
def _jack_poly_N(nu, N, k0):
    k, one = (K, RAT_ONE) if k0 is None else (k0, Fraction(1))

    def pad(delta):
        return delta + (0,) * (N - len(delta))

    cands = [delta for delta in partitions_of(sum(nu))
             if len(delta) <= N and dominance_leq(pad(delta), pad(nu))]
    cands.sort(key=_index_weight)
    actions = {}
    for delta in cands:
        img = cms_N(SymLaurentPolyN(N, {pad(delta): one}), k)
        actions[delta] = {tuple(x for x in eta if x): c
                          for eta, c in img.terms.items()}
    s = actions[nu].get(nu, 0)
    coeffs = {nu: one}
    for delta in cands:
        if delta == nu:
            continue
        total = 0
        for eta, c_eta in coeffs.items():
            a = actions[eta].get(delta)
            if a is not None and eta != delta:
                total = total + a * c_eta
        gap = s - actions[delta].get(delta, 0)
        if not gap:
            raise SingularParameter(
                "eigenvalue collision at k=%s: %s vs %s" % (k0, nu, delta))
        coeffs[delta] = total / gap
    return SymLaurentPolyN(N, {pad(delta): c for delta, c in coeffs.items()})


def jack_laurent_poly_N(chi, N, k0=None):
    """The Laurent eigenfunction labelled by a non-increasing integer
    sequence: (x_1...x_N)^{-a} P_{chi+a} for any shift a making chi+a a
    partition."""
    chi = _check_sorted(chi)
    if len(chi) != N:
        raise ValueError("sequence length %d != N=%d" % (len(chi), N))
    a = max(0, -chi[-1]) if chi else 0
    nu = tuple(x + a for x in chi)
    return jack_poly_N(nu, N, k0).shift(-a)


# -- torus constant-term form ---------------------------------------------------

def _delta_weight(k_neg_int, N):
    """Full expansion of prod_{i != j} (1 - x_i/x_j)^(-k) as a dict from
    exponent vectors to integers, plus its constant term."""
    k = Fraction(k_neg_int)
    if k.denominator != 1 or k >= 0:
        raise ValueError("the torus weight needs a negative integer k")
    return _delta_expansion(-k.numerator, N)


@cache
def _delta_expansion(m, N):
    full = {(0,) * N: 1}
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            for _ in range(m):
                nxt = {}
                for a, c in full.items():
                    nxt[a] = nxt.get(a, 0) + c
                    b = list(a)
                    b[i] += 1
                    b[j] -= 1
                    b = tuple(b)
                    nxt[b] = nxt.get(b, 0) - c
                full = {a: c for a, c in nxt.items() if c}
    return full, full.get((0,) * N, 0)


def constant_term_delta(k_neg_int, N):
    """CT of the weight itself; equals (mN)!/(m!)^N with m = -k."""
    return _delta_weight(k_neg_int, N)[1]


def _numeric_full(f, k0):
    """Expand f and evaluate its coefficients at k = k0 (Fractions)."""
    out = {}
    for a, c in f.expand().items():
        c = as_rat(c)
        if not c.is_p0_free():
            raise ValueError("finite coefficient %s still mentions p0" % c)
        v = c.specialize(k0, 0)
        if v:
            out[a] = v
    return out


def torus_form(f, g, k_neg_int, N):
    """(f, g)_N = CT(f g* Delta_N) / CT(Delta_N) at the given negative
    integer coupling; exact Fraction."""
    if f.N != N or g.N != N:
        raise ValueError("operands are not in %d variables" % N)
    delta, ct = _delta_weight(k_neg_int, N)
    k0 = Fraction(k_neg_int)
    fa = _numeric_full(f, k0)
    fb = _numeric_full(g, k0)
    total = Fraction(0)
    for a, ca in fa.items():
        for b, cb in fb.items():
            w = delta.get(tuple(y - x for x, y in zip(a, b)))
            if w:
                total += ca * cb * w
    return total / ct


# -- finite closed-form checks ---------------------------------------------------

def c_chi(chi, r, i, b):
    """chi_r - chi_i - 1 + k*(r+1-i) + b."""
    base = rat(chi[r - 1] - chi[i - 1] - 1) + K * (r + 1 - i)
    return base + b


def pieri_V_N(i, chi):
    """Transition coefficient of P_{chi+eps_i} in p_1 P_chi; zero when
    chi+eps_i is not non-increasing."""
    if not (i == 1 or chi[i - 2] > chi[i - 1]):
        return RAT_ZERO
    v = RAT_ONE
    for r in range(1, i):
        num = c_chi(chi, r, i, 1) * c_chi(chi, r, i, K * (-2))
        den = c_chi(chi, r, i, RAT_ONE - K) * c_chi(chi, r, i, -K)
        v = v * num / den
    return v


def finite_pieri_check(chi, N):
    """p_1 P_chi = sum_i V_i(chi) P_{chi+eps_i}, compared exactly in the
    m-basis with symbolic k."""
    chi = _check_sorted(chi)
    lhs = power_sum_N(1, N) * jack_laurent_poly_N(chi, N)
    rhs = SymLaurentPolyN.zero(N)
    for i in range(1, N + 1):
        v = pieri_V_N(i, chi)
        if v.is_zero():
            continue
        up = chi[:i - 1] + (chi[i - 1] + 1,) + chi[i:]
        rhs = rhs + jack_laurent_poly_N(up, N) * v
    return lhs == rhs


def hc_eigen_check_N(chi, N):
    """Apply L_{k,N} to P_chi, assert it is an eigenvector, and return the
    eigenvalue; also asserts the *-conjugation symmetry e_N(w(chi)) =
    e_N(chi) carried by the second-order integral."""
    chi = _check_sorted(chi)
    p = jack_laurent_poly_N(chi, N)
    res = cms_N(p)
    e = res.coeff(chi)
    if res != p * e:
        raise NotEigenvector("L_{k,%d} is not scalar on %r" % (N, chi))
    if e != eigenvalue_eN(chi, N):
        raise NotEigenvector("eigenvalue of %r differs from e_N" % (chi,))
    if eigenvalue_eN(w_sequence(chi), N) != e:
        raise NotEigenvector("star-conjugation symmetry fails for %r"
                             % (chi,))
    return e


def involution_check_N(chi, N):
    """P_chi with x_i -> 1/x_i equals P_{w(chi)}."""
    chi = _check_sorted(chi)
    return jack_laurent_poly_N(chi, N).star() == \
        jack_laurent_poly_N(w_sequence(chi), N)
