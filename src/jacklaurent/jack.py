"""Two-parameter eigenfunctions P_{lam,mu} of the CMS integrals on the
Laurent symmetric-function algebra, built by spectral projection.

The construction grows the first diagram box by box, in one loop, _grow,
that runs at a point: either symbolic parameters or a rational (k, p0).
A step is split in two.  Its plan (_plan, memoized on the label and the
box) is what does not depend on the point: the label it builds and the
eigenvalue_parts of the labels that can appear beside it, read off the
label's own by box arithmetic, built once and read by the symbolic
steps and by every rational point alike, as is the table _times_p1 of
p_1 * m per monomial m.  At the point run the weights, the Pieri
coefficient (at a rational point one pass over V's atoms), the
singularity checks and the arithmetic of the ring.
One step takes the function at alpha = (lam, mu), multiplies by p_1, and
isolates the P_{lam+box, mu} component by applying, for every other label
gamma that can appear in the product, the factor
(L2 - e(gamma))/(s - e(gamma)), where s is the eigenvalue of the target;
finally it divides by the Pieri coefficient V of the added box.  The
numerators L2 - e(gamma) run in a ring, on the function with its
denominators cleared, where the operator's coefficients, the gaps
s - e(gamma) and the linear forms of V already lie: symbolically
Z[k, p0], and at a rational point the integers.  Both run the same int
loop, with the operator and the closed forms read at int weights
(_Point): at a rational point the weights come from the point, and
symbolically each coefficient is packed into one int, its value at
k = 2^B and p0 = 2^(B*DK) (Kronecker substitution, _Packed), with the
slot width B fixed for the step from a bound, read off the function's
top bidegree, that holds through all its factors, so no digit wraps.
The product of the gaps, the cleared denominator and V are divided out
once per step.  Symbolically no polynomial gcd is taken for that: each
gap and each form of V is an int times an irreducible atom, every
denominator is kept as a product of atoms, and each coefficient is
reduced by exact int trial division over them and unpacked once.  A
step returns the function cleared of denominators too, which the next
step and the eigen and evaluation checks start from.  A step raises
SingularParameter when two of these eigenvalues coincide at the point
or the Pieri coefficient vanishes or has a pole there.

P_{lam,0} is the classical one-parameter eigenfunction of the positive
part, free of p0.  The involution star, p_i -> p_{-i}, sends P_{lam,mu}
to P_{mu,lam}, so construct grows only one label of each pair and reads
the other as its star (_mirrored): a label is mirrored when mu is
nonempty and either lam is empty or (|mu|, mu) < (|lam|, lam).  A grown
label has |lam| <= |mu| unless mu is empty, so its growth chain starts
from the mirror P_{0,mu} = star(P_{mu,0}) and takes |lam| <= |mu|
steps.  Everything is exact over Q(k, p0).  The numeric mode
runs the same loop at (k, 0) for P_{mu,0} and at (k, p0) for the rest,
on ints, and builds Fraction coefficients once, at the end; it grows
every label, as which points are singular depends on the route.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .rational import ParamPoly, ParamRat, RAT_ZERO, rat, \
    SingularParameter, NotEigenvector, poly_divexact, _divide_out, _make, \
    _scalar_canonical
from .laurent import LaurentSymFunc, mono_mul
from .partitions import size, conjugate, boxes, add_box_candidates, \
    remove_box_candidates, add_box, remove_box, normalize_partition, \
    label_str
from .operators import cms_L_doubled, cms_L2_weighted, _l2_bound
from .closed_forms import Factored, expand, eigenvalue_parts, pieri_V, \
    pieri_U, duality_constant, evaluation_value, _eigenvalue_rat, _over_one


class JackLaurentFunction:
    """A constructed eigenfunction together with its label and trace.

    fields: alpha (the bipartition), f (the element of the algebra),
    cleared (F, D, with D a Factored, the lcm of the coefficient
    denominators, and F = D*f on ParamPoly coefficients), eigenvalue2
    (the second integral's eigenvalue, from its int parts), provenance
    (the boxes of the first diagram in the canonical order construct
    adds them; not necessarily the route the build took, as a mirrored
    label is read as the star of its mirror).
    Instances are immutable; the memo table shares them freely.
    """

    __slots__ = ("alpha", "f", "cleared", "eigenvalue2", "provenance")

    def __init__(self, alpha, f, cleared, eigenvalue2, provenance):
        self.alpha = alpha
        self.f = f
        self.cleared = cleared
        self.eigenvalue2 = eigenvalue2
        self.provenance = provenance

    def __str__(self):
        return "P[%s] = %s" % (label_str(self.alpha, "; ", "0"), self.f)

    def __repr__(self):
        return "JackLaurentFunction(alpha=%r)" % (self.alpha,)


def _normalize_alpha(alpha):
    lam, mu = alpha
    return normalize_partition(lam), normalize_partition(mu)


def _canonical_order(lam):
    """Box-addition order used by construct: the boxes of `lam` row by
    row, so each step adds the last box of its label's last row."""
    return boxes(lam)


def _neighbors(alpha):
    """All labels that can appear in p_1 * P_alpha: a box added to the
    first diagram or removed from the second."""
    lam, mu = alpha
    out = [(add_box(lam, x), mu) for x in add_box_candidates(lam)]
    out.extend((lam, remove_box(mu, y)) for y in remove_box_candidates(mu))
    return out


# -- factored denominators -----------------------------------------------------
# Symbolically every denominator _grow meets is a product of gaps
# s - e(gamma), Pieri forms and earlier denominators, each kept as a
# Factored (closed_forms): an int times powers of irreducible atoms.  A
# coefficient is reduced by trial division over the atoms instead of a
# polynomial gcd.
#
# No irreducibility test is needed, because the closed forms give the
# shape of every factor, and a gap never splits in two as a rank-one
# form would (see closed_forms).  Two neighbours of a label differ in n
# (the first part of eigenvalue_parts): boxes added in rows r and s give
# 2(lam_r - lam_s) != 0, as addable boxes sit in rows of different
# lengths, and a box added in row r against one removed from row s of
# mu gives 2(lam_r + mu_s) > 0.  So the primitive part of a gap
# n + b*k + c*k*p0 (n != 0) is either linear in k, or of degree 1 in p0
# with the coprime coefficients c*k and n + b*k: one atom.  Every atom
# has degree 1 in k: a Pieri form is x - y*k, and the atom k cancels
# out of V.
#
# The arithmetic of a step runs on packed ints (_Packed): a polynomial
# is one int, its value at k = 2^B and p0 = 2^(B*DK).  Packing is a
# ring homomorphism, so the int results are the packed results of the
# ring.  An int reads back as the polynomial of its balanced base-2^B
# digits, which is the packed one only while it has deg_k < DK and
# coefficients below 2^(B-1) in absolute value.  A step fixes its
# layout before it starts (_layout): DK from deg_k(F) and its number of
# factors, and B from a bound on the L1 norm of all the coefficients
# that holds after every factor (from the bidegrees, _layout), so no
# digit wraps.
#
# Trial division on the packed ints: if an atom a divides c in
# Z[k, p0], the packed a divides the packed c.  The converse fails:
# k and p0 go to powers of 2^B, both 1 modulo 2^B - 1, so -4 + 4*k*p0
# is int-divisible by the packed 1 - k at every width, though 1 - k
# does not divide it.  So _Packed.divide keeps q = C // A while
# C % A == 0, unpacks the last q once, and accepts it only when
# q * prod a^i fits the layout:
#     deg_k(q) + sum i < DK                  (each atom has deg_k 1), and
#     max|q| * prod ||a||_1^i < 2^(B-1)      (|x*y|_max <= |x|_max ||y||_1).
# Then q * prod a^i and c are two polynomials that fit the layout and
# pack to the same int, so they are equal; and where a division stopped
# on a remainder, a does not divide what was left, so each i is the
# exact power of its atom in c.  Otherwise the coefficient is redone
# by poly_divexact.

_K, _P0 = ParamPoly.var_k(), ParamPoly.var_p0()
_P1 = ((1, 1),)    # the monomial p_1


def _width(height):
    """The least slot width in bits, a multiple of 8, whose balanced
    digits hold every int of absolute value at most `height`."""
    return (height.bit_length() + 8) // 8 * 8


def _l1(c):
    """||c||_1, the sum of the absolute values of the coefficients."""
    return sum(map(abs, c.terms.values()))


def _degree_k(c):
    return max(i for i, _ in c.terms)


class _Packed:
    """Z[k, p0] in Python ints, the layout of one symbolic step
    (Kronecker substitution, see "factored denominators" above):
    sum c_ij k^i p0^j is the int sum c_ij << B*(i + DK*j), so the
    weights of the operator are (1, 1 << B, 1 << B*DK, 1 << B*(DK+1)).
    `bits` is B, a multiple of 8, and `dk` is DK.  `height` bounds the
    L1 norm of all the coefficients of every function held in the
    layout, and a layout is made only where it fits a slot.
    """

    __slots__ = ("bits", "dk", "height", "weights", "_atoms")

    def __init__(self, bits, dk, height):
        if height >> bits - 1:
            raise OverflowError("a coefficient outgrows %d-bit slots" % bits)
        self.bits, self.dk, self.height = bits, dk, height
        self.weights = (1, 1 << bits, 1 << bits * dk, 1 << bits * (dk + 1))
        self._atoms = {}    # atom -> (its int, ||a||_1)

    def pack(self, c):
        b, dk = self.bits, self.dk
        return sum(x << b * (i + dk * j) for (i, j), x in c.terms.items())

    def unpack(self, n):
        """The ParamPoly of the balanced digits of the int n: n plus
        2^(B-1) in every slot has the digits plus 2^(B-1) as its bytes."""
        b, dk = self.bits, self.dk
        size = b >> 3
        slots = abs(n).bit_length() // b + 2
        half = 1 << b - 1
        zero = half.to_bytes(size, "little")
        raw = (n + int.from_bytes(zero * slots, "little")).to_bytes(
            slots * size, "little")
        t = {}
        for s in range(slots):
            digit = raw[s * size:(s + 1) * size]
            if digit != zero:
                t[s % dk, s // dk] = int.from_bytes(digit, "little") - half
        return ParamPoly(t)

    def divide(self, n, atoms):
        """(q, powers): the packed c = n divided by the largest power
        a^i, i <= cap, that divides it in Z[k, p0], for each (a, cap) of
        `atoms`, by int trial division under the guard written under
        "factored denominators" above; poly_divexact redoes c when the
        guard fails."""
        q, powers, bound = n, [], 1
        for a, cap in atoms:
            if a not in self._atoms:
                self._atoms[a] = self.pack(a), _l1(a)
            packed, norm = self._atoms[a]
            i = 0
            while i < cap:
                d, r = divmod(q, packed)
                if r:
                    break
                q, i = d, i + 1
            powers.append(i)
            bound *= norm ** i
        q = self.unpack(q)
        bound *= max(map(abs, q.terms.values()))
        if _degree_k(q) + sum(powers) < self.dk and not bound >> self.bits - 1:
            return q, powers
        q, powers = self.unpack(n), []
        for a, cap in atoms:
            i = 0
            if not n % self._atoms[a][0]:
                q, i = _divide_out(q, a, cap)
            powers.append(i)
        return q, powers


def _layout(F, factors):
    """The _Packed layout of a step whose factors L2 - e act on F
    (ParamPoly coefficients), for the (parts, e) of `factors`.  DK is
    deg_k(F) plus one per factor plus one, as each factor raises deg_k
    by at most 1.  B holds ||F||_1 times, per factor, the most that
    factor multiplies an L1 norm by: the largest _l2_bound over the
    monomials of F (it covers all they reach), plus |n| + |lin| + |m|."""
    most = max(map(_l2_bound, F.terms))
    coeffs = F.terms.values()
    bound = sum(map(_l1, coeffs))
    for parts, _ in factors:
        bound *= most + sum(map(abs, parts))
    return _Packed(_width(bound), max(map(_degree_k, coeffs)) + len(factors)
                   + 1, bound)


# -- construction --------------------------------------------------------------

class _Point:
    """Where _grow runs: symbolic parameters, or the rational point
    `at` = (k0, p00) of Fractions.

    A step computes in a ring and divides once, in the field.
    Symbolically the ring is Z[k, p0] and the field Q(k, p0) (ParamRat):
    the closed forms are read with the weights (1, k, p0, k*p0) of
    ParamPolys, and the operator runs on ints, in the _Packed layout of
    the step.  The ring is Z at a rational point, and the field Q
    (Fraction): with k0 = kn/kd and p00 = pn/pd in lowest terms, the
    weights are the ints (kd*pd, kn*pd, kd*pn, kn*pn), which is
    (1, k, p0, k*p0) at the point times kd*pd.  The operator runs with
    the weights, and the closed forms are read with them (_read,
    pieri), so both are scaled alike and the singularity checks run on
    values in the ring.  `pack` moves a cleared function into the
    step's layout, which at a rational point is the point itself, and
    `unclear` divides the step's denominator out of it (see there).
    """

    __slots__ = ("at", "weights")

    def __init__(self, at=None):
        self.at = at
        if at is None:
            self.weights = (1, _K, _P0, _K * _P0)
        else:
            k0, p00 = at
            kn, kd = k0.numerator, k0.denominator
            pn, pd = p00.numerator, p00.denominator
            self.weights = (kd * pd, kn * pd, kd * pn, kn * pn)

    def pieri(self, box, alpha):
        """(vnum, vden), the Pieri coefficient V = vnum/vden of the box
        (pieri_V): symbolically the Factored of its atoms with
        positive and with negative exponents.  At a rational point ints,
        read from V's scale and atoms in one pass: each atom read with
        the weights (1, k, p0, k*p0), which is its value times w1, goes
        to the side of its exponent's sign raised to the exponent's
        absolute value, and w1 to the other side as often."""
        V = pieri_V(box, alpha)
        if self.at is None:
            return tuple(Factored(c, Counter(atoms))
                         for c, atoms in V.sides())
        w = self.weights
        num, den = V.scale.numerator, V.scale.denominator
        for a, e in V.atoms.items():
            x = sum(c * w[i + 2 * j] for (i, j), c in a.terms.items())
            up, down = (x, w[0]) if e > 0 else (w[0], x)
            num, den = num * up ** abs(e), den * down ** abs(e)
        return num, den

    def pack(self, F, factors):
        """(F, layout) for the factors L2 - e, a (parts, e) each, on a
        cleared F: at a rational point F and the point itself,
        symbolically F packed into the step's _Packed layout (_layout)."""
        if self.at is not None:
            return F, self
        ring = _layout(F, factors)
        return F.map_coeffs(ring.pack), ring

    def unclear(self, F, num, den, ring=None):
        """The cleared form (F', D') of f = F * num/den in the field, F
        on ring coefficients: F' = D'*f, D' the lcm of f's coefficient
        denominators.  At a rational point num and den are ints, and
        only the ints (F', D') come back, D' = rd / gcd(rd, F) for
        num/den = rn/rd in lowest terms: a walk builds its Fractions
        once, from the last step (rational_mode_construct).
        Symbolically (f, (F', D')) comes back: F is packed in the
        layout `ring`, and num and den are Factored: in num/den the
        atoms of both cancel, each coefficient divides out the atoms
        left below while it can (_Packed.divide) and is unpacked once,
        and what remains is coprime.  No atom is left above: P_beta is
        m_beta plus lower monomials, and 1, its m_beta coefficient, is a
        Q-linear combination of these, which an atom above them all
        would divide.  So with num/den = c_up/(c_down * down) in lowest
        terms, a coefficient c of content g is (c/h * c_up)/(c_down/h *
        down) for h = gcd(g, c_down), canonical as each key's atoms
        multiply out, once, to a primitive polynomial with a positive
        front coefficient.  D' is the lcm of the c_down/h times each
        atom to the highest power left in any coefficient."""
        if self.at is not None:
            r = Fraction(num, den)
            rn, rd = r.numerator, r.denominator
            g = gcd(rd, *F.terms.values())
            return F.map_coeffs(lambda c: c // g * rn), rd // g
        (c_up, _), (c_down, down) = (num / den).sides()
        left = list(down.items())
        dens, parts, quot = {}, {}, {}
        for m, n in F.terms.items():
            c, powers = ring.divide(n, left)
            key = tuple(e - i for (_, e), i in zip(left, powers))
            if key not in dens:
                dens[key] = expand(1, {a: e for (a, _), e in zip(left, key)})
            g, c = c.content_primitive()
            h = gcd(g, c_down)
            parts[m] = c.scale(g // h * c_up), c_down // h, key
        d = lcm(*(c for _, c, _ in parts.values()))
        high = [max(col) for col in zip(*(key for *_, key in parts.values()))]

        def cleared(p, c, key):
            if (c, key) not in quot:
                quot[c, key] = expand(d // c, {
                    a: h - e for (a, _), h, e in zip(left, high, key)})
            return p * quot[c, key]
        f = LaurentSymFunc({m: _make(p, dens[key].scale(c))
                            for m, (p, c, key) in parts.items()})
        F = LaurentSymFunc({m: cleared(*v) for m, v in parts.items()})
        D = Factored(d, Counter({a: h for (a, _), h in zip(left, high) if h}))
        return f, (F, D)

    def __str__(self):
        return "" if self.at is None else " at k=%s, p0=%s" % self.at


_SYMBOLIC = _Point()


def _read(parts, weights):
    """n + lin*k - m*k*p0 for the eigenvalue_parts (n, lin, m), read
    with the weights of 1, k and k*p0."""
    n, lin, m = parts
    w1, wk, _, wkp = weights
    return n * w1 + lin * wk - m * wkp


@cache
def _plan(alpha, box):
    """The part of the step that adds `box` to the first diagram of
    alpha that does not depend on the point: (beta, parts, at), with
    beta the label it builds, parts the eigenvalue_parts of each label
    that can appear in p_1 * P_alpha, in the order of _neighbors, and
    `at` the index of beta among them, read off alpha's own parts:
    adding the box (i, j) to lam raises (n, lin, m) by (2j-1, 2i-1, 1),
    and removing the box (i, j) of mu lowers them by as much, so no
    neighbour label is built (only a collision lists them).  It holds
    labels and ints, and serves the symbolic step and every point."""
    lam, mu = alpha
    beta = (add_box(lam, box), mu)
    n, lin, m = eigenvalue_parts(alpha)
    adds = add_box_candidates(lam)
    parts = [(n + 2 * j - 1, lin + 2 * i - 1, m + 1) for i, j in adds]
    parts += [(n - 2 * j + 1, lin - 2 * i + 1, m - 1)
              for i, j in remove_box_candidates(mu)]
    return beta, tuple(parts), adds.index(box)


@cache
def _times_p1(m):
    """The monomial p_1 * m: the table of the shift by p_1 that every
    step, symbolic or at a point, reads for each monomial of F."""
    return mono_mul(m, _P1)


def _grow(cleared, alpha, box, point):
    """One projector step at `point`: from f = P_alpha to P_beta, where
    beta adds `box` to the first diagram of alpha.  The eigenvalue_parts
    of the neighbouring labels come from the step's plan (_plan), and
    p_1 * m from the table _times_p1, both built once for every point;
    what runs at the point is the arithmetic.  The eigenvalues and
    V = vnum/vden are read in the point's ring, and the singularity
    checks run on them first; then p_1 and every L2 - e(gamma), the
    operator and the eigenvalues scaled alike by the layout's weights,
    act on F = D*f in the ring,
    and den = D * prod (s - e(gamma)) and V are divided out once.
    Takes (F, D) and returns (P_beta, (F', D')), or (F', D') alone at a
    rational point (_Point.unclear).
    """
    _, near, at = _plan(alpha, box)
    eig = [_read(parts, point.weights) for parts in near]
    for i, e in enumerate(eig):
        if e in eig[i + 1:]:
            near = _neighbors(alpha)
            raise SingularParameter("eigenvalue collision%s: %s vs %s" % (
                point, near[i], near[eig.index(e, i + 1)]))
    vnum, vden = point.pieri(box, alpha)
    if not vden:
        raise SingularParameter("transition coefficient at box %s has a "
                                "pole%s" % (box, point))
    if not vnum:
        raise SingularParameter("vanishing transition coefficient at box "
                                "%s%s" % (box, point))
    s = eig[at]
    others = [(parts, e) for i, (parts, e) in enumerate(zip(near, eig))
              if i != at]
    out, den = cleared
    out = out._like({_times_p1(m): c for m, c in out.terms.items()})
    out, ring = point.pack(out, others)
    w = ring.weights
    for parts, e in others:
        out = cms_L2_weighted(out, w, _read(parts, w))
        den = den * (s - e)
    return point.unclear(out, vden, den * vnum, ring)


def _extend(prev, box):
    """The symbolic step from prev = P_alpha, with its label and trace."""
    beta, parts, at = _plan(prev.alpha, box)
    f, cleared = _grow(prev.cleared, prev.alpha, box, _SYMBOLIC)
    return JackLaurentFunction(beta, f, cleared, _eigenvalue_rat(parts[at]),
                               prev.provenance + (box,))


def construct(alpha):
    """The function P_{lam,mu}, memoized; parameters stay symbolic."""
    return _construct(_normalize_alpha(alpha))


def _mirrored(alpha):
    """Whether construct reads P_alpha as star(P_{mu,lam}) rather than
    growing it: mu is nonempty and either lam is empty or
    (|mu|, mu) < (|lam|, lam).  The mirror (mu, lam) is never mirrored."""
    lam, mu = alpha
    return bool(mu) and (not lam or (size(mu), mu) < (size(lam), lam))


@cache
def _construct(key):
    lam, mu = key
    if _mirrored(key):
        # eigenvalue_e sums over the rows of lam and mu alike, so the
        # mirror's eigenvalue is this label's
        mirror = construct((mu, lam))
        F, D = mirror.cleared
        return JackLaurentFunction(key, mirror.f.star(), (F.star(), D),
                                   mirror.eigenvalue2,
                                   tuple(_canonical_order(lam)))
    if lam:
        box = (len(lam), lam[-1])
        return _extend(construct((remove_box(lam, box), mu)), box)
    return JackLaurentFunction(key, LaurentSymFunc.one(), (
        LaurentSymFunc.const(ParamPoly.const(1)), Factored()),
        _eigenvalue_rat(eigenvalue_parts(key)), ())


def jack_positive(lam):
    """The classical monic eigenfunction P_lam of the positive part,
    free of p0: the function P_{lam,0}."""
    return construct((lam, ())).f


def construct_via_order(alpha, order):
    """Build P_alpha adding the first diagram's boxes in the given order
    (every prefix must be a partition), from P_{0,mu} read from the memo
    table; the steps themselves bypass it, and so does the mirror rule
    for P_alpha itself.  Used to confirm the result does not depend on
    the order, and to grow the mirrored side of star_symmetry_check."""
    lam, mu = _normalize_alpha(alpha)
    cur = construct(((), mu))
    for box in order:
        cur = _extend(cur, tuple(box))
    if cur.alpha != (lam, mu):
        raise ValueError("order %r does not build %r" % (order, lam))
    return cur


# -- identity checks -----------------------------------------------------------

def pieri_identity_check(alpha):
    """p_1 * P_{lam,mu} = sum_x V(x) P_{lam+x,mu} + sum_y U(y) P_{lam,mu-y},
    compared exactly in Z[k, p0].  Each term is F * c with (F, D) the
    cleared form of its function and c the Factored 1/D, V(x)/D or
    U(y)/D; over one denominator (_over_one) each c is a ParamPoly,
    and the two sides of cleared functions must agree."""
    lam, mu = _normalize_alpha(alpha)
    F, D = construct((lam, mu)).cleared
    funcs, coeffs = [F.times(1)], [1 / D]
    near = [((add_box(lam, x), mu), pieri_V(x, (lam, mu)))
            for x in add_box_candidates(lam)]
    near += [((lam, remove_box(mu, y)), pieri_U(y, (lam, mu)))
             for y in remove_box_candidates(mu)]
    for beta, c in near:
        if c.scale:
            G, E = construct(beta).cleared
            funcs.append(G)
            coeffs.append(c / E)
    lhs, *rhs = (G.scale(n) for G, n in zip(funcs, _over_one(coeffs)[1]))
    return lhs == sum(rhs, LaurentSymFunc.zero())


@cache
def _grown_mirror(alpha):
    """The mirrored label alpha grown box by box (construct_via_order),
    not read as a star; memoized, so each label of a pair is grown once
    for the checks of both."""
    return construct_via_order(alpha, _canonical_order(alpha[0]))


def star_symmetry_check(alpha):
    """star(P_{lam,mu}) = P_{mu,lam}, compared exactly.  construct reads
    the mirrored label of the pair as the star of the other (_mirrored),
    so here the mirrored one is grown box by box (_grown_mirror), and
    the two sides are built independently whenever both diagrams are
    nonempty and unequal: 4 of the 18 labels up to size 3.  For
    lam == mu the check says that P is star-invariant, and with an
    empty diagram it compares P with the star of its own definition."""
    alpha = _normalize_alpha(alpha)
    if _mirrored(alpha):
        alpha = alpha[::-1]
    lam, mu = alpha
    other = construct((mu, lam)) if lam == mu else _grown_mirror((mu, lam))
    return construct(alpha).f.star() == other.f


def theta_duality_check(alpha):
    """theta^{-1}(P_alpha) = d_alpha * P_{alpha'} with k -> 1/k, p0 -> k*p0
    substituted in the conjugate-label function; d_alpha from the
    evaluation formula (duality_constant).  Compared in Z[k, p0], on the
    cleared forms (F, D) of P_alpha and (G, E) of P_{alpha'}: over one
    denominator (_over_one) 1/D is n/Q and d_alpha/swap(E) is m/Q, so on
    each monomial of degree e (theta^{-1} divides by k^e) the identity
    reads k^-e * F * n = swap(G) * m, both sides times the least power
    of k that makes them polynomials."""
    lam, mu = _normalize_alpha(alpha)
    F, D = construct((lam, mu)).cleared
    G, E = construct((conjugate(lam), conjugate(mu))).cleared
    if F.terms.keys() != G.terms.keys():
        return False
    _, (n, m) = _over_one([1 / D, duality_constant((lam, mu))
                           / E.param_swap()])
    for mono, c in F.terms.items():
        e = sum(x for _, x in mono)
        swap = {(j - i + e, j): x for (i, j), x in G.terms[mono].terms.items()}
        s = min(0, min(i for i, _ in swap))
        lhs = ParamPoly({(i - s, j): x for (i, j), x in c.terms.items()})
        rhs = ParamPoly({(i - s, j): x for (i, j), x in swap.items()})
        if lhs * n != rhs * m:
            return False
    return True


def _ring_eigenvalue(F, r, alpha):
    """The eigenvalue of the r-th integral on F, a function cleared of
    denominators (ParamPoly coefficients), read in the ring: with
    R = 2^r * L_r(F) from cms_L_doubled, F is an eigenfunction when R and
    F have the same support and R[m] * F[m0] == F[m] * R[m0] for every
    monomial m, m0 the leading one; the eigenvalue, a polynomial, is
    then the exact quotient R[m0] / F[m0] (poly_divexact) over the
    constant 2^r.  Raises NotEigenvector otherwise, naming the label
    alpha."""
    R = cms_L_doubled(r, F, _K, _P0)
    if R.is_zero():
        return RAT_ZERO
    if R.terms.keys() == F.terms.keys():
        m0 = F.sorted_terms()[0][0]
        f0, r0 = F.terms[m0], R.terms[m0]
        if all(R.terms[m] * f0 == c * r0 for m, c in F.terms.items()):
            try:
                e = poly_divexact(r0, f0)
            except ArithmeticError:
                raise NotEigenvector("order-%d eigenvalue on %s is not a "
                                     "polynomial" % (r, alpha))
            return _make(*_scalar_canonical(e, ParamPoly.const(2 ** r)))
    raise NotEigenvector("order-%d integral is not scalar on %s"
                         % (r, alpha))


def eigen_check_all(alpha, r_max=3):
    """Assert P_alpha is an exact eigenfunction of the first r_max
    integrals and return the list of (r, eigenvalue).  The first
    eigenvalue must be |lam| - |mu| and the second must match the
    closed form.  The integrals run in Z[k, p0], on P_alpha cleared of
    its denominators (_ring_eigenvalue)."""
    jf = construct(alpha)
    lam, mu = jf.alpha
    F, _ = jf.cleared
    out = [(r, _ring_eigenvalue(F, r, (lam, mu)))
           for r in range(1, r_max + 1)]
    if r_max >= 1 and out[0][1] != rat(size(lam) - size(mu)):
        raise NotEigenvector("first eigenvalue of %s is not |lam|-|mu|"
                             % ((lam, mu),))
    if r_max >= 2 and out[1][1] != jf.eigenvalue2:
        raise NotEigenvector("second eigenvalue of %s is off the closed form"
                             % ((lam, mu),))
    return out


def evaluation_check(alpha):
    """(ok, value): whether the evaluation of P_alpha, every generator
    sent to p0, equals evaluation_value(alpha), and that value.  The sum
    runs in Z[k, p0] on P_alpha cleared of its denominators, and is
    cross-multiplied against the closed form; the value is built in
    Q(k, p0) only when they differ, and is the closed form otherwise."""
    F, D = construct(alpha).cleared
    want = evaluation_value(alpha)
    total = sum((c * _P0 ** sum(e for _, e in m) for m, c in F.terms.items()),
                ParamPoly())
    den = expand(D.scale.numerator, D.atoms)
    if total * want.den == den * want.num:
        return True, want
    return False, ParamRat(total, den)


# -- numeric parameter modes ---------------------------------------------------

def _walk(cleared, lam, mu, point):
    """Grow the cleared form (F, d) of P_{0,mu} to that of P_{lam,mu}
    along the canonical order at the rational `point`."""
    alpha = ((), mu)
    for box in _canonical_order(lam):
        cleared = _grow(cleared, alpha, box, point)
        alpha, _, _ = _plan(alpha, box)
    return cleared


def rational_mode_construct(alpha, k0, p00):
    """Run the construction with both parameters fixed to rationals; the
    result has Fraction coefficients.  Agrees with
    construct(alpha).f.specialize(k0, p00) whenever the latter is
    defined; raises SingularParameter when the chosen point hits an
    eigenvalue collision or kills a transition coefficient."""
    k0 = Fraction(k0)
    p00 = Fraction(p00)
    lam, mu = _normalize_alpha(alpha)
    F, d = _walk((LaurentSymFunc.const(1), 1), mu, (),
                 _Point((k0, Fraction(0))))
    F, d = _walk((F.star(), d), lam, mu, _Point((k0, p00)))
    return F.map_coeffs(lambda c: Fraction(c, d))
