"""Report-only sweeps at large p0: limits of the eigenfunctions as
p0 -> infinity, the limiting bilinear form, and integrality of the
rescaled coefficients.

Run:  python3 demos/06_conjecture_report.py
"""

import json

from jacklaurent.conjectures import p0_infinity_limit, run_all

verdict, limit, _ = p0_infinity_limit(((1,), (1,)))
print("p0 -> infinity limit of P[1; 1]:", limit, " (%s)" % verdict)
print()

report = run_all(2)
print("Full report at max size 2:")
print(json.dumps(report, indent=2, sort_keys=True))
