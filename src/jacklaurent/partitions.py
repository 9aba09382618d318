"""Partition and bipartition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers
(no trailing zeros), so they hash and compare naturally.  A bipartition
is an ordered pair (lam, mu) of partitions; the labels of Jack-Laurent
symmetric functions.  Boxes of a Young diagram are 1-indexed pairs
(i, j) = (row, column).
"""

from .rational import ParamRat, RAT_ZERO, K


class LengthTooSmall(ValueError):
    pass


class IncomparableInput(ValueError):
    pass


def normalize_partition(parts):
    """Validate an iterable of parts and return the canonical tuple.

    Trailing zeros are dropped; increasing or negative parts are errors.
    """
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for i in range(len(t) - 1):
        if t[i] < t[i + 1]:
            raise ValueError("parts not weakly decreasing: %r" % (parts,))
    if t and t[-1] < 0:
        raise ValueError("negative part in partition: %r" % (parts,))
    return t


def part(lam, i):
    """lam_i with the usual convention lam_i = 0 for i > l(lam); 1-indexed."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam):
    return sum(lam)


def conjugate(lam):
    """The transposed diagram: conjugate(lam)_j = #{i : lam_i >= j}."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= j) for j in range(1, lam[0] + 1))


def boxes(lam):
    """All boxes (i, j) of the diagram, row by row."""
    return [(i + 1, j + 1) for i, row in enumerate(lam) for j in range(row)]


def add_box_candidates(lam):
    """Boxes x with lam + x still a partition, in increasing row order."""
    out = []
    for i in range(1, len(lam) + 2):
        j = part(lam, i) + 1
        if part(lam, i - 1) >= j or i == 1:
            out.append((i, j))
    return out


def remove_box_candidates(lam):
    """Boxes whose removal leaves a partition, in increasing row order."""
    out = []
    for i in range(1, len(lam) + 1):
        if part(lam, i) > part(lam, i + 1):
            out.append((i, lam[i - 1]))
    return out


def add_box(lam, box):
    i, j = box
    if box not in add_box_candidates(lam):
        raise ValueError("box %r not addable to %r" % (box, lam))
    parts = list(lam) + [0] * (i - len(lam))
    parts[i - 1] = j
    return normalize_partition(parts)


def remove_box(lam, box):
    i, j = box
    if box not in remove_box_candidates(lam):
        raise ValueError("box %r not removable from %r" % (box, lam))
    parts = list(lam)
    parts[i - 1] -= 1
    return normalize_partition(parts)


def chi_N(alpha, N):
    """The length-N integer sequence (lam_1,...,0,...,-mu_s,...,-mu_1)."""
    lam, mu = alpha
    if N < len(lam) + len(mu):
        raise LengthTooSmall(
            "N=%d < l(alpha)=%d" % (N, len(lam) + len(mu)))
    middle = N - len(lam) - len(mu)
    return tuple(lam) + (0,) * middle + tuple(-m for m in reversed(mu))


def dominance_leq(a, b):
    """Dominance order on integer sequences of equal length and sum."""
    if len(a) != len(b) or sum(a) != sum(b):
        raise IncomparableInput("sequences of different length or sum")
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa > pb:
            return False
    return True


def label_str(alpha, sep, empty):
    """The bipartition as text: the parts of each partition joined by
    commas (`empty` for the empty partition), the two joined by `sep`."""
    return sep.join(",".join(map(str, p)) or empty for p in alpha)


def alpha_json(alpha):
    """The bipartition as a JSON-ready pair of part lists."""
    return [list(alpha[0]), list(alpha[1])]


def w_bipartition(alpha):
    """The involution swapping the two partitions of the label."""
    lam, mu = alpha
    return (mu, lam)


def w_sequence(chi):
    """On sequences: (chi_1,...,chi_N) -> (-chi_N,...,-chi_1)."""
    return tuple(-x for x in reversed(chi))


def content_box(box, a=RAT_ZERO):
    """The shifted content (j-1) + k*(i-1) + a of a box, as a ParamRat."""
    i, j = box
    return ParamRat.from_int(j - 1) + K * (i - 1) + a


def partitions_of(n, max_part=None):
    """All partitions of n, largest part first, in lex-descending order."""
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_up_to(n):
    return [lam for m in range(n + 1) for lam in partitions_of(m)]


def bipartitions_up_to(total):
    """All (lam, mu) with |lam|+|mu| <= total, ordered by size then lex.

    The fixed enumeration order keeps test sweeps and reports reproducible.
    """
    out = []
    for n in range(total + 1):
        layer = []
        for a in range(n + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    layer.append((lam, mu))
        layer.sort()
        out.extend(layer)
    return out
