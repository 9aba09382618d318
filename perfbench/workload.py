"""One cold pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py WORKLOAD SEED MODE [SPANS_OUT]

MODE is `setup` (stop at the first timed call), `plain` or `traced`.
Set-up time runs from the first statement of this script, so it covers
the imports and input generation but not the interpreter's own start.
The pass times its workload, then checks every output outside the
timed region, and prints one JSON object as its last line.
The module caches in `jack`, `finite_n` and `schur` have no public
reset, which is why every pass is its own process.

    python3 perfbench/workload.py record

rewrites expected.json (output digests) from the program as it stands.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, SRC)

import jacklaurent  # noqa: E402
from jacklaurent import cli, jack, verify  # noqa: E402
from jacklaurent import ParamRat, PoleAtSpecialization, SingularParameter, \
    bipartitions_up_to, cms_L2_direct, eigenvalue_e, evaluation_value, \
    pieri_V  # noqa: E402
from jacklaurent.closed_forms import stable_eigenvalue  # noqa: E402
from jacklaurent.partitions import add_box, add_box_candidates, boxes, \
    partitions_up_to, remove_box, remove_box_candidates  # noqa: E402

import tracing  # noqa: E402

if not os.path.abspath(jacklaurent.__file__).startswith(SRC + os.sep):
    sys.exit("jacklaurent was imported from %s, not from %s"
             % (jacklaurent.__file__, SRC))

VERIFY_ARGV = ["verify", "--suite", "all", "--max-size", "3",
               "--format", "json"]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _label(alpha):
    lam, mu = alpha
    return "%s|%s" % (",".join(map(str, lam)) or "-",
                      ",".join(map(str, mu)) or "-")


def _total(alpha):
    return sum(alpha[0]) + sum(alpha[1])


def _timed_each(fn, items, times):
    out = []
    for item in items:
        t0 = time.perf_counter()
        out.append(fn(item))
        times.append(time.perf_counter() - t0)
    return out


# -- construct-sym ------------------------------------------------------------
# Every label with |lam|+|mu| <= 4 in sorted order, so each is one _grow
# step from a memoized parent, then the large P[2,2; 1].

def sym_inputs(seed):
    return sorted(bipartitions_up_to(4)) + [((2, 2), (1,))]


def sym_run(labels, times):
    return _timed_each(jack.construct, labels, times)


def sym_check(labels, results, expected):
    want = expected["construct-sym"]
    failed = 0
    for alpha, jf in zip(labels, results):
        if (_digest(str(jf.f)) != want.get(_label(alpha))
                or jf.f.evaluate_eps() != evaluation_value(alpha)):
            failed += 1
    return {"attempted": len(labels), "failed": failed}


# -- construct-num ------------------------------------------------------------
# Every label with |lam|+|mu| = 6 at its own rational point drawn from
# the seed; numerators and denominators up to 99, either sign.

def _draw(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                    rng.randint(1, 99))


def num_inputs(seed):
    rng = random.Random(seed)
    return [(alpha, _draw(rng), _draw(rng))
            for alpha in bipartitions_up_to(6) if _total(alpha) == 6]


def _num_one(point):
    alpha, k0, p0 = point
    try:
        return jack.rational_mode_construct(alpha, k0, p0)
    except SingularParameter:
        return None


def num_run(points, times):
    return _timed_each(_num_one, points, times)


def _sub_diagrams(lam):
    """Every partition strictly inside the diagram of lam."""
    inside = set(boxes(lam))
    return [nu for nu in partitions_up_to(len(inside) - 1)
            if set(boxes(nu)) <= inside]


def _vanishes(value, k0, p0):
    try:
        return value.specialize(k0, p0) == 0
    except PoleAtSpecialization:
        return True


def _collide(values):
    return len(set(values)) < len(values)


def _is_singular(alpha, k0, p0):
    """Whether (k0, p0) is a singular point of the numeric construction
    of alpha, from the closed forms alone: at some diagram inside mu
    (positive part, p0 = 0) or inside lam (mu fixed), two eigenvalues of
    the neighbours coincide, or the transition coefficient to a box of
    the label vanishes or has a pole.  The construction walks one chain
    of these diagrams, so this holds whenever it may rightly raise."""
    lam, mu = alpha
    for nu in _sub_diagrams(mu):
        grown = [add_box(nu, x) for x in add_box_candidates(nu)]
        if _collide([stable_eigenvalue(g).specialize(k0, 0)
                     for g in grown]):
            return True
        if any(_vanishes(pieri_V(x, (nu, ())), k0, 0)
               for x in add_box_candidates(nu) if x in boxes(mu)):
            return True
    for nu in _sub_diagrams(lam):
        near = [(add_box(nu, x), mu) for x in add_box_candidates(nu)]
        near += [(nu, remove_box(mu, y)) for y in remove_box_candidates(mu)]
        if _collide([eigenvalue_e(g).specialize(k0, p0) for g in near]):
            return True
        if any(_vanishes(pieri_V(x, (nu, mu)), k0, p0)
               for x in add_box_candidates(nu) if x in boxes(lam)):
            return True
    return False


def num_check(points, results, expected):
    """Each result must satisfy L2 f = e(alpha) f at its own point.  A
    SingularParameter is a documented outcome, counted apart, where the
    closed forms show the point singular; anywhere else it fails."""
    failed = singular = 0
    for (alpha, k0, p0), f in zip(points, results):
        if f is None:
            if _is_singular(alpha, k0, p0):
                singular += 1
            else:
                failed += 1
            continue
        kc, pc = ParamRat.from_fraction(k0), ParamRat.from_fraction(p0)
        e = ParamRat.from_fraction(eigenvalue_e(alpha).specialize(k0, p0))
        if f.is_zero() or cms_L2_direct(f, k=kc, p0=pc) != f.scale(e):
            failed += 1
    return {"attempted": len(points), "failed": failed,
            "singular": singular}


# -- verify-all ---------------------------------------------------------------
# The user's check command, in-process, stdout captured.  Each check is
# timed by wrapping the closures the suite builds.

def verify_inputs(seed):
    return list(VERIFY_ARGV)


def verify_run(argv, times):
    build = verify._suite_checks

    def timed_checks(suite, max_size):
        def timed(fn):
            def run():
                t0 = time.perf_counter()
                try:
                    return fn()
                finally:
                    times.append(time.perf_counter() - t0)
            return run
        return [(cid, timed(fn)) for cid, fn in build(suite, max_size)]

    verify._suite_checks = timed_checks
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        verify._suite_checks = build
    return code, buf.getvalue()


def verify_check(argv, result, expected):
    code, text = result
    want = expected["verify-all"]
    rows = json.loads(text)["checks"] if text.startswith("{") else []
    got = {row["id"]: row for row in rows}
    failed = sum(
        1 for cid, digest in want["checks"].items()
        if cid not in got or got[cid]["status"] != "pass"
        or _digest(json.dumps(got[cid], sort_keys=True)) != digest)
    failed += len(set(got) - set(want["checks"]))
    if failed == 0 and (code != 0 or _digest(text) != want["report"]):
        failed = 1  # every row matches but the report bytes differ
    return {"attempted": len(want["checks"]),
            "failed": failed,
            "verify_checks": len(rows),
            "verify_failed": sum(r["status"] != "pass" for r in rows)}


WORKLOADS = {
    "construct-sym": (sym_inputs, sym_run, sym_check),
    "construct-num": (num_inputs, num_run, num_check),
    "verify-all": (verify_inputs, verify_run, verify_check),
}


def run_pass(name, seed, mode, spans_out=None):
    make_inputs, run, check = WORKLOADS[name]
    inputs = make_inputs(seed)
    recorder = restore = None
    if mode == "traced":
        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
    setup_s = time.perf_counter() - STARTED
    if mode == "setup":
        return {"setup_s": setup_s}
    times = []
    t0 = time.perf_counter()
    result = run(inputs, times)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore is not None:
        restore()
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "singular": 0, "verify_checks": 0, "verify_failed": 0}
    out["item_ms"] = [t * 1e3 for t in times]
    out.update(check(inputs, result, expected))
    if recorder is not None:
        out["layers"], out["span_counts"] = tracing.layer_metrics(recorder)
        if spans_out:
            recorder.write(spans_out)
    return out


def record():
    """Digest the outputs of construct-sym and verify-all as they are now."""
    labels = sym_inputs(0)
    sym = {_label(a): _digest(str(jf.f))
           for a, jf in zip(labels, sym_run(labels, []))}
    code, text = verify_run(verify_inputs(0), [])
    if code != 0:
        sys.exit("verify exited with %d; not recording" % code)
    rows = json.loads(text)["checks"]
    data = {"construct-sym": sym,
            "verify-all": {"report": _digest(text), "checks": {
                r["id"]: _digest(json.dumps(r, sort_keys=True))
                for r in rows}}}
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    if argv == ["record"]:
        record()
        return
    name, seed, mode = argv[:3]
    out = run_pass(name, int(seed), mode, argv[3] if len(argv) > 3 else None)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
