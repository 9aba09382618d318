"""Span recording around the public functions of the jacklaurent layers.

Nothing inside the package is edited: `install` rebinds each public
function in every jacklaurent module namespace that holds it (so that
`jack.cms_L2_direct` and `operators.cms_L2_direct` are both caught), and
replaces the listed arithmetic methods on their classes.  Each call
becomes one span: name, parent span, start and end in nanoseconds.
Spans stay in memory in flat arrays and are written out at the end.
A layer's self time is the duration of its spans minus the part their
child spans cover.
"""

import gzip
import inspect
import json
import sys
import time
from array import array

# Module order follows the layers: field, algebra, operators, closed
# forms, construction, finite-N oracle, Schur limit, verification.
LAYERS = ("rational", "laurent", "operators", "closed_forms", "jack",
          "finite_n", "schur", "verify")

# Methods of the coefficient field and of the algebra that carry most
# of the arithmetic; the module-level functions alone would miss them.
METHODS = {
    "rational": ("ParamRat", ("__add__", "__sub__", "__mul__",
                              "__truediv__", "inverse")),
    "laurent": ("LaurentSymFunc", ("__add__", "__mul__", "scale",
                                   "partial")),
}


def _layer(span_name):
    return span_name.split(".", 1)[0]


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.gcd_trivial = 0
        self.gcd_in_terms_max = 0

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name):
        nid = self._name_id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def wrap_gcd(self, fn, name):
        inner = self.wrap(fn, name)

        def gcd(a, b):
            g = inner(a, b)
            # These read the polynomial representation directly, so a
            # change of representation fails the traced pass.
            self.gcd_in_terms_max = max(self.gcd_in_terms_max,
                                        len(a.terms), len(b.terms))
            if g.is_const():
                self.gcd_trivial += 1
            return g

        return gcd

    # -- analysis -----------------------------------------------------------

    def summary(self, owners=()):
        """Per span name: calls, self nanoseconds, calls with no child
        span, and `owned_ns`.  A span's self time is owned by the nearest
        span, itself included, that is named in `owners`, as long as the
        path to it stays inside one layer; so a listed operator owns the
        time of the unlisted helpers of its own module that it calls."""
        n = len(self.start)
        names = [self.names[j] for j in self.name_of]
        child_ns = [0] * n
        children = [0] * n
        owner = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                children[p] += 1
            if names[i] in owners:
                owner[i] = i
            elif p >= 0 and _layer(names[p]) == _layer(names[i]):
                owner[i] = owner[p]
        out = {name: {"calls": 0, "self_ns": 0, "leaf_calls": 0,
                      "owned_ns": 0} for name in self.names}
        for i in range(n):
            row = out[names[i]]
            own = self.end[i] - self.start[i] - child_ns[i]
            row["calls"] += 1
            row["self_ns"] += own
            if not children[i]:
                row["leaf_calls"] += 1
            if owner[i] >= 0:
                out[names[owner[i]]]["owned_ns"] += own
        return out

    def write(self, path):
        """Spans as gzipped JSON: names, then one
        [name, parent, start_ns, end_ns] row per span (parent -1 = root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            n = len(self.start)
            for i in range(n):
                fh.write("[%d,%d,%d,%d]%s\n" % (
                    self.name_of[i], self.parent[i], self.start[i],
                    self.end[i], "," if i + 1 < n else ""))
            fh.write("]}\n")


# Functions whose own time is reported by name.
NAMED = ("rational.poly_gcd", "rational.poly_divexact",
         "operators.cms_L2_direct", "operators.stable_H2_direct",
         "operators.cms_L")


def layer_metrics(recorder):
    """The per-layer metrics named in BENCHMARK.json, from the spans.
    Counts are exact; times are self time in seconds.  Returns them with
    the call count of every span name, for the determinism check."""
    rows = recorder.summary(NAMED)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def layer_s(prefix):
        return sum(row["self_ns"] for name, row in rows.items()
                   if name.startswith(prefix)) / 1e9

    gcd_calls = calls("rational.poly_gcd")
    out = {
        "rational.poly_gcd.trivial_share":
            recorder.gcd_trivial / gcd_calls if gcd_calls else 0.0,
        "rational.poly_gcd.in_terms_max": recorder.gcd_in_terms_max,
        "rational.ParamRat.ops": sum(
            calls("rational.ParamRat." + m) for m in METHODS["rational"][1]),
        "rational.ParamRat.self_s": layer_s("rational.ParamRat."),
        "laurent.add.calls": calls("laurent.LaurentSymFunc.__add__"),
        "laurent.mul.calls": calls("laurent.LaurentSymFunc.__mul__"),
        "laurent.scale.calls": calls("laurent.LaurentSymFunc.scale"),
        "laurent.partial.calls": calls("laurent.LaurentSymFunc.partial"),
        "laurent.self_s": layer_s("laurent."),
        "closed_forms.calls": sum(row["calls"] for name, row in rows.items()
                                  if name.startswith("closed_forms.")),
        "closed_forms.self_s": layer_s("closed_forms."),
        "jack.construct.calls": calls("jack.construct"),
        "jack.construct.hits":
            rows.get("jack.construct", {}).get("leaf_calls", 0),
        "jack.self_s": layer_s("jack."),
        "finite_n.self_s": layer_s("finite_n."),
        "schur.self_s": layer_s("schur."),
        "trace.spans": len(recorder.start),
    }
    for name in NAMED:
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = rows.get(name, {}).get("owned_ns", 0) / 1e9
    for name in ("jack_poly_N", "cms_N", "phi_N_map", "torus_form"):
        out["finite_n.%s.calls" % name] = calls("finite_n." + name)
    return out, {name: row["calls"] for name, row in rows.items()}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install(recorder):
    """Wrap every public function of each layer module in every
    jacklaurent namespace that binds it, and the METHODS above.
    Returns a function that restores the originals."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name.split(".")[0] == "jacklaurent"]
    undo = []
    for layer in LAYERS:
        mod = sys.modules["jacklaurent." + layer]
        for name, fn in list(_public_functions(mod)):
            span = "%s.%s" % (layer, name)
            wrap = (recorder.wrap_gcd if span == "rational.poly_gcd"
                    else recorder.wrap)
            wrapped = wrap(fn, span)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    setattr(ns, name, wrapped)
                    undo.append((ns, name, fn))
    for layer, (cls_name, methods) in METHODS.items():
        cls = getattr(sys.modules["jacklaurent." + layer], cls_name)
        for meth in methods:
            fn = cls.__dict__[meth]
            setattr(cls, meth,
                    recorder.wrap(fn, "%s.%s.%s" % (layer, cls_name, meth)))
            undo.append((cls, meth, fn))

    def restore():
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)

    return restore
