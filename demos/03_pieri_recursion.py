"""The Pieri rule: multiplying an eigenfunction by p1 adds a box to lam
or removes a box from mu, with explicit rational coefficients.

Run:  python3 demos/03_pieri_recursion.py
"""

from jacklaurent import LaurentSymFunc, construct, pieri_U, pieri_V
from jacklaurent.partitions import (
    add_box, add_box_candidates, remove_box, remove_box_candidates,
)

def label(lam, mu):
    return "P[%s; %s]" % (",".join(map(str, lam)) or "0",
                          ",".join(map(str, mu)) or "0")


alpha = ((1,), (1,))
lam, mu = alpha
print("alpha = (lam, mu) =", alpha)
print()
print("p1 * %s expands as:" % label(lam, mu))
for box in add_box_candidates(lam):
    v = pieri_V(box, alpha).to_rat()
    if not v.is_zero():
        print("  + (%s) * %s" % (v, label(add_box(lam, box), mu)))
for box in remove_box_candidates(mu):
    u = pieri_U(box, alpha).to_rat()
    if not u.is_zero():
        print("  + (%s) * %s" % (u, label(lam, remove_box(mu, box))))
print()

lhs = LaurentSymFunc.gen(1) * construct(alpha).f
rhs = LaurentSymFunc.zero()
for box in add_box_candidates(lam):
    rhs = rhs + construct((add_box(lam, box), mu)).f.scale(
        pieri_V(box, alpha).to_rat())
for box in remove_box_candidates(mu):
    rhs = rhs + construct((lam, remove_box(mu, box))).f.scale(
        pieri_U(box, alpha).to_rat())
print("Checking the identity term by term:", lhs == rhs)
