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

With k symbolic the triangular solve is fraction-free in Z[k]: every gap
of the back-substitution is linear in k, and each coefficient is kept
over the Factored product of the gaps it needs (_cleared_N).  The finite
Pieri, eigenvalue and involution checks compare these cleared forms in
Z[k] over one Factored denominator, and jack_poly_N reduces them to
ParamRats by trial division over the gap atoms, or evaluates them at a
rational k: no polynomial gcd is taken, and each label is solved once.
phi_N reads each p-monomial's image from an int table built by the
orbit rule for p_i * m_nu (_times_power_sum), and takes the ParamPoly
coefficients of a cleared form to Z[k].  The torus form pairs the
coefficients of f V^m and g V^m, V the Vandermonde, and never expands
its weight Delta^m.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from operator import add

from .rational import RAT_ZERO, RAT_ONE, K, ParamPoly, Sparse, as_rat, \
    SingularParameter, PoleAtSpecialization, IdenticallySingular, \
    NotEigenvector, _divide_out, _make, _scalar_canonical
from .partitions import normalize_partition, partitions_of, dominance_leq, \
    w_sequence, LengthTooSmall
from .closed_forms import Factored, eigenvalue_eN, expand, _linear, \
    _over_one, _ratio, _row_factors, _V_ROW

_K = ParamPoly.var_k()


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
    coefficients are ParamRats in Q(k) in the public polynomials with k
    symbolic, ParamPolys in Z[k] in their cleared forms (_cleared_N),
    and Fractions at a numeric coupling; printing reads them through
    as_rat."""

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


def _power_sum_key(j, N):
    """The orbit label of the power sum x_1^j + ... + x_N^j."""
    if j == 0 or N < 1:
        raise ValueError("power sum index must be nonzero, N >= 1")
    return (j,) + (0,) * (N - 1) if j > 0 else (0,) * (N - 1) + (j,)


def power_sum_N(j, N):
    """The image of p_j: x_1^j + ... + x_N^j."""
    return SymLaurentPolyN.orbit(_power_sum_key(j, N), N)


@cache
def _phi_N_monomial(m, N):
    """The image of the p-monomial m (a sorted tuple of (index, exponent)
    pairs): the product of its power sums, with int coefficients, built
    from the image of m with one factor fewer (_times_power_sum)."""
    if not m:
        return SymLaurentPolyN(N, {(0,) * N: 1})
    i, e = m[-1]
    rest = m[:-1] + ((i, e - 1),) if e > 1 else m[:-1]
    return _times_power_sum(_phi_N_monomial(rest, N), i)


def phi_N_map(f, N):
    """The homomorphism from the infinite algebra: p_j -> power sum,
    p0 -> N; k stays symbolic.  Each p-monomial's image is read from the
    int table _phi_N_monomial and scaled once by its coefficient at
    p0 = N: a Fraction (f specialized) as it is, a ParamPoly (a cleared
    form) in Z[k] by ParamPoly.subs, a ParamRat by substitute_p0."""
    out = SymLaurentPolyN.zero(N)
    for m, c in f.terms.items():
        if isinstance(c, ParamPoly):
            c = c.subs(1, N, 1, c.degree_p0())
        elif not isinstance(c, Fraction):
            try:
                c = c.substitute_p0(N)
            except IdenticallySingular:
                raise PoleAtSpecialization(
                    "coefficient %s has a pole at p0=%s" % (c, N))
        out = out + _phi_N_monomial(m, N).scale(c)
    return out


# -- the CMS operator and its first integral -----------------------------------

def euler_N(f):
    """The momentum sum_i x_i d/dx_i (the first integral): it scales
    each orbit sum m_chi by sum(chi), which is the same on the whole
    orbit."""
    return f._like({chi: c * sum(chi) for chi, c in f.terms.items()
                    if sum(chi)})


@cache
def _cms_N_image(chi):
    """L_{k,N}(m_chi) for N = len(chi), as {eta: (x, y)}: the coefficient
    of m_eta is x + k*y, with x and y ints.  The rational pair terms
    resolve against the symmetry of m_chi: for each monomial x^a of the
    orbit and pair i<j with a_i > a_j the orbit {x^a, x^swap} jointly
    contributes

        -k (a_i-a_j) [x^a + x^swap + 2*(the monomials strictly between)],

    and the diagonal part contributes (sum a_i^2) x^a.  Only the
    non-increasing targets are kept: the image is symmetric."""
    N = len(chi)
    out = {}

    def bump(key, x, y):
        v = out.get(key)
        if v is None:
            out[key] = [x, y]
        else:
            v[0] += x
            v[1] += y

    for a in _rearrangements(chi):
        diag = sum(x * x for x in a)
        if diag:
            bump(a, diag, 0)
        for i in range(N):
            for j in range(i + 1, N):
                d = a[i] - a[j]
                if d <= 0:
                    continue
                bump(a, 0, -d)
                swap = list(a)
                swap[i], swap[j] = swap[j], swap[i]
                bump(tuple(swap), 0, -d)
                mid = list(a)
                for _ in range(d - 1):
                    mid[i] -= 1
                    mid[j] += 1
                    bump(tuple(mid), 0, -2 * d)
    return {eta: (x, y) for eta, (x, y) in out.items()
            if (x or y) and eta == tuple(sorted(eta, reverse=True))}


def cms_N(f, k=K):
    """Apply L_{k,N}: sum the int images _cms_N_image of f's orbit sums,
    the k-free and the k parts apart, and combine them with k once per
    target."""
    acc = {}
    for chi, c in f.terms.items():
        for eta, (x, y) in _cms_N_image(chi).items():
            v = acc.get(eta)
            if v is None:
                acc[eta] = [c * x, c * y]
            else:
                v[0] += c * x
                v[1] += c * y
    t = {}
    for eta, (x, y) in acc.items():
        v = x + k * y
        if v:
            t[eta] = v
    return f._like(t)


# -- Jack polynomials by triangular solve --------------------------------------

def _index_weight(delta):
    return sum(i * x for i, x in enumerate(delta))


def _pad(delta, N):
    """The partition delta with zeros up to length N."""
    return delta + (0,) * (N - len(delta))


@cache
def _gaps(nu, N):
    """The gaps of the triangular solve for P_nu in N variables, over the
    partitions delta below nu in dominance with at most N parts, nu
    first, in increasing _index_weight, so each delta comes after every
    eta whose orbit sum L_{k,N} sends to it: for each delta after nu in
    that order, (a, b) for the gap a + b*k between the diagonal entries
    of nu and delta (_cms_N_image).  Memoized, free of k: the collision
    check of jack_poly_N at a numeric k and _cleared_N read one copy."""
    cands = [delta for delta in partitions_of(sum(nu)) if len(delta) <= N
             and dominance_leq(_pad(delta, N), _pad(nu, N))]
    cands.sort(key=_index_weight)
    diag = {delta: _cms_N_image(_pad(delta, N)).get(_pad(delta, N), (0, 0))
            for delta in cands}
    sx, sy = diag[nu]
    return {delta: (sx - x, sy - y)
            for delta, (x, y) in diag.items() if delta != nu}


def jack_poly_N(nu, N, k0=None):
    """The monic Jack polynomial P_nu in N variables: the eigenfunction of
    L_{k,N} of the form m_nu + (dominance-lower terms), read off the
    fraction-free solve (_cleared_N).  k0 = None keeps k symbolic, with
    ParamRat coefficients.  A rational k0 gives the Fraction G(k0)/Q(k0)
    of each coefficient.  It raises SingularParameter on an eigenvalue
    collision at that coupling: at the first gap of the solve that
    vanishes there, also where that coefficient is 0; past that no atom
    of Q vanishes there."""
    nu = normalize_partition(nu)
    if len(nu) > N:
        raise LengthTooSmall("partition %r needs more than N=%d variables"
                             % (nu, N))
    if k0 is None:
        return _field_form(*_cleared_N(nu, N))
    k0 = Fraction(k0)
    for delta, (a, b) in _gaps(nu, N).items():
        if not a + k0 * b:
            raise SingularParameter(
                "eigenvalue collision at k=%s: %s vs %s" % (k0, nu, delta))
    G, Q = _cleared_N(nu, N)
    q = Q.specialize(k0, 0)
    out = {chi: c.evaluate(k0, 0) / q for chi, c in G.terms.items()}
    return G._like({chi: c for chi, c in out.items() if c})


@cache
def _cleared_N(nu, N):
    """P_nu with k symbolic, solved fraction-free in Z[k] (Bareiss): its
    cleared form (G, Q), Q a Factored with positive exponents and G the
    SymLaurentPolyN of Q*P_nu on ParamPoly coefficients.

    In the back-substitution every gap s - e(delta) is linear in k, an
    int times one atom (closed_forms._linear), and never zero: its
    k-free part sum nu_i^2 - sum delta_i^2 is positive for delta below
    nu in dominance.  Each coefficient c_delta is kept as n/Q_delta,
    Q_delta the Factored product of the gaps it needs: the sum of
    a * c_eta over the eta solved before it is brought over their lcm Q
    (_over_one), and Q_delta is Q times its own gap.  At the end all
    coefficients are brought over one Q the same way.  No gcd is taken,
    and no atom is cancelled, so Q is a multiple of the reduced
    denominator."""
    gaps = _gaps(nu, N)
    actions = {delta: {tuple(x for x in eta if x): xy
                       for eta, xy in _cms_N_image(_pad(delta, N)).items()}
               for delta in (nu, *gaps)}
    parts = {nu: (ParamPoly.const(1), Factored())}
    for delta, (a, b) in gaps.items():
        near = [(eta, actions[eta][delta]) for eta in parts
                if delta in actions[eta]]
        if not near:
            continue
        Q, nums = _over_one([1 / parts[eta][1] for eta, _ in near])
        total = sum((parts[eta][0] * u * (x + _K * y)
                     for (eta, (x, y)), u in zip(near, nums)), ParamPoly())
        if total:
            parts[delta] = total, Q * _linear(a, b, 0, 0)
    Q, nums = _over_one([1 / d for _, d in parts.values()])
    return SymLaurentPolyN(N, {
        _pad(delta, N): n * u
        for (delta, (n, _)), u in zip(parts.items(), nums)}), Q


def _field_form(G, Q):
    """G/Q on ParamRat coefficients in canonical form, for a cleared form
    (G, Q) of _cleared_N: each coefficient is divided by each atom of Q
    while it can, up to its exponent (_divide_out); what is left below
    is coprime to it, so _scalar_canonical finishes the form."""
    out = {}
    for chi, c in G.terms.items():
        left = {}
        for a, e in Q.atoms.items():
            c, i = _divide_out(c, a, e)
            if i < e:
                left[a] = e - i
        out[chi] = _make(*_scalar_canonical(c, expand(Q.scale.numerator,
                                                      left)))
    return G._like(out)


def _lifted(chi, N):
    """(nu, a): the least shift a >= 0 that makes nu = chi + a a
    partition, for a non-increasing chi of length N."""
    chi = _check_sorted(chi)
    if len(chi) != N:
        raise ValueError("sequence length %d != N=%d" % (len(chi), N))
    a = max(0, -chi[-1]) if chi else 0
    return tuple(x + a for x in chi), a


def jack_laurent_poly_N(chi, N, k0=None):
    """The Laurent eigenfunction labelled by a non-increasing integer
    sequence: (x_1...x_N)^{-a} P_{chi+a} for any shift a making chi+a a
    partition."""
    nu, a = _lifted(chi, N)
    return jack_poly_N(nu, N, k0).shift(-a)


def _cleared_laurent(chi, N):
    """The cleared form (G, Q) of jack_laurent_poly_N(chi, N) with k
    symbolic: G on ParamPoly coefficients in Z[k], Q a Factored."""
    nu, a = _lifted(chi, N)
    G, Q = _cleared_N(normalize_partition(nu), N)
    return G.shift(-a), Q


# -- torus constant-term form ---------------------------------------------------

def constant_term_delta(k_neg_int, N):
    """CT of the weight prod_{i != j} (1 - x_i/x_j)^m itself, m = -k:
    Dyson's constant term (mN)!/(m!)^N."""
    k = Fraction(k_neg_int)
    if k.denominator != 1 or k >= 0:
        raise ValueError("the torus weight needs a negative integer k")
    m = -k.numerator
    return factorial(m * N) // factorial(m) ** N


@cache
def _vandermonde_power(m, N):
    """V^m for the Vandermonde V = prod_{i<j} (x_i - x_j), as a dict from
    exponent vectors to ints, multiplied out one factor at a time."""
    full = {(0,) * N: 1}
    for i in range(N):
        for j in range(i + 1, N):
            for _ in range(m):
                nxt = {}
                for a, c in full.items():
                    for at, s in ((i, c), (j, -c)):
                        b = a[:at] + (a[at] + 1,) + a[at + 1:]
                        nxt[b] = nxt.get(b, 0) + s
                full = {a: c for a, c in nxt.items() if c}
    return full


def _orbit_size(chi):
    """The number of distinct permutations of chi."""
    out = factorial(len(chi))
    for e in Counter(chi).values():
        out //= factorial(e)
    return out


def _times_vandermonde(f, k0):
    """(d, A) for f V^m at k = k0 = -m: d the lcm of the denominators of
    f's coefficients, A_nu for non-increasing nu the coefficient of x^nu
    in d f V^m times |orbit nu|.  f V^m is symmetric for even m and
    antisymmetric for odd m, so A_nu sums its coefficients over the
    orbit of nu, for odd m each times the sign of its sort; and the orbit
    sum c m_lam contributes c |orbit lam| w_v to A at sort(lam + v) for
    each term w_v x^v of V^m.  For odd m a sum with a repeated entry
    cancels and is dropped.  A Fraction coefficient is read as it is."""
    vals = {}
    for chi, c in f.terms.items():
        if not isinstance(c, Fraction):
            c = as_rat(c)
            if not c.is_p0_free():
                raise ValueError("finite coefficient %s still mentions p0"
                                 % c)
            c = c.specialize(k0, 0)
        if c:
            vals[chi] = c
    d = lcm(*(v.denominator for v in vals.values()))
    m, out = -k0.numerator, {}
    for lam, v in vals.items():
        c = v.numerator * (d // v.denominator) * _orbit_size(lam)
        for a, w in _vandermonde_power(m, f.N).items():
            s = tuple(map(add, lam, a))
            if m % 2:
                if len(set(s)) < f.N:
                    continue
                if sum(x < y for i, x in enumerate(s) for y in s[i + 1:]) % 2:
                    w = -w
            nu = tuple(sorted(s, reverse=True))
            out[nu] = out.get(nu, 0) + c * w
    return d, out


def torus_form(f, g, k_neg_int, N):
    """(f, g)_N = CT(f g* Delta^m) / CT(Delta^m) at the negative integer
    coupling k = -m, Delta = prod_{i != j} (1 - x_i/x_j); exact Fraction.
    Delta = V(x) V(1/x), V = prod_{i<j} (x_i - x_j) the Vandermonde
    a_delta, so CT(f g* Delta^m) = sum_c (f V^m)_c (g V^m)_c, which is
    sum_nu A_nu B_nu / |orbit nu| over the orbits (_times_vandermonde),
    and CT(Delta^m) is Dyson's constant (constant_term_delta): Delta^m is
    never expanded.  Summed over ints, with one division at the end.
    Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed. (1995),
    I.3 and VI.9; F. J. Dyson, J. Math. Phys. 3 (1962) 140."""
    if f.N != N or g.N != N:
        raise ValueError("operands are not in %d variables" % N)
    ct = constant_term_delta(k_neg_int, N)
    k0 = Fraction(k_neg_int)
    da, A = _times_vandermonde(f, k0)
    db, B = (da, A) if g is f else _times_vandermonde(g, k0)
    total = sum(a * B[nu] // _orbit_size(nu) for nu, a in A.items()
                if nu in B)
    return Fraction(total, da * db * ct)


# -- finite closed-form checks ---------------------------------------------------

def pieri_V_N(i, chi):
    """Transition coefficient of P_{chi+eps_i} in p_1 P_chi as a
    Factored; zero when chi+eps_i is not non-increasing.  Over r < i,
    with c = chi_r - chi_i - 1 + k*(r+1-i), the factor is
    (c + 1)(c - 2k) / [(c + 1 - k)(c - k)] (closed_forms._V_ROW).
    Raises ValueError unless 1 <= i <= len(chi)."""
    if not 1 <= i <= len(chi):
        raise ValueError("index i=%d outside 1..len(chi)=%d"
                         % (i, len(chi)))
    if not (i == 1 or chi[i - 2] > chi[i - 1]):
        return Factored(0)
    return _ratio(_row_factors(_V_ROW, ((chi[r - 1] - chi[i - 1] - 1,
                                         r + 1 - i) for r in range(1, i))),
                  "pieri_V_N")


def _times_power_sum(f, i):
    """p_i * f on orbit labels, i a nonzero integer: p_i * m_nu sums
    c * m_eta over the distinct entries v of nu, eta nu with one v
    raised to v + i and re-sorted, and c the number of j such that
    eta - i*e_j is a rearrangement of nu: the multiplicity of v + i in
    eta.  Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.
    (1995), ch. I."""
    out = {}
    for nu, c in f.terms.items():
        for v in set(nu):
            at = nu.index(v)
            eta = tuple(sorted(nu[:at] + nu[at + 1:] + (v + i,), reverse=True))
            add = c * eta.count(v + i)
            out[eta] = out[eta] + add if eta in out else add
    return f._like({eta: c for eta, c in out.items() if c})


def finite_pieri_check(chi, N):
    """p_1 P_chi = sum_i V_i(chi) P_{chi+eps_i}, compared exactly in the
    m-basis in Z[k], with no gcd.  Each term is G * c with (G, Q) the
    cleared form of its polynomial (_cleared_laurent) and c the Factored
    1/Q or V_i/Q; over one denominator (_over_one) each c is a
    ParamPoly, and the two sides must agree."""
    chi = _check_sorted(chi)
    G, Q = _cleared_laurent(chi, N)
    funcs, coeffs = [_times_power_sum(G, 1)], [1 / Q]
    for i in range(1, N + 1):
        v = pieri_V_N(i, chi)
        if v.scale:
            up = chi[:i - 1] + (chi[i - 1] + 1,) + chi[i:]
            H, E = _cleared_laurent(up, N)
            funcs.append(H)
            coeffs.append(v / E)
    lhs, *rhs = (f.scale(n) for f, n in zip(funcs, _over_one(coeffs)[1]))
    return lhs == sum(rhs, SymLaurentPolyN.zero(N))


def hc_eigen_check_N(chi, N):
    """Assert that L_{k,N} acts on P_chi as the scalar e_N(chi), compared
    in Z[k] on its cleared form G: L_{k,N}(G) == e_N(chi) * G, e_N a
    polynomial.  Return e_N(chi); also asserts the *-conjugation
    symmetry e_N(w(chi)) = e_N(chi) carried by the second-order
    integral."""
    chi = _check_sorted(chi)
    G, _ = _cleared_laurent(chi, N)
    e = eigenvalue_eN(chi, N)
    if cms_N(G, _K) != G.scale(e.num):
        raise NotEigenvector("L_{k,%d} is not e_N on %r" % (N, chi))
    if eigenvalue_eN(w_sequence(chi), N) != e:
        raise NotEigenvector("star-conjugation symmetry fails for %r"
                             % (chi,))
    return e


def involution_check_N(chi, N):
    """P_chi with x_i -> 1/x_i equals P_{w(chi)}: the two cleared forms
    over one denominator (_over_one), compared in Z[k]."""
    chi = _check_sorted(chi)
    (G, Q), (H, E) = (_cleared_laurent(chi, N),
                      _cleared_laurent(w_sequence(chi), N))
    _, (n, m) = _over_one([1 / Q, 1 / E])
    return G.star().scale(n) == H.scale(m)
