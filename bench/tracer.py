"""Span recorder for the benchmark's traced runs.

Spans are recorded around the module-level names through which one layer of
charpolylab calls another, by rebinding those names from outside the
package: nothing under src/ is edited.  A span is
[id, parent_id, name, start, end, op_id]; spans and counters stay in memory
and are written out once, when the pass ends.

The same module turns a pass's spans into per-layer metrics (see
`layer_metrics`), so the client that records and run.py, which reports,
agree on one definition of busy and self time.
"""

import functools
import threading
import time

# (span name, [(module, attribute), ...]): every name is looked up at call
# time by its caller, so rebinding it routes the call through the span.
SITES = [
    ("ensemble.sample_spectrum_gue", [("extremes", "sample_spectrum_gue"),
                                      ("ensemble", "sample_spectrum_gue")]),
    ("extremes.grid_maxima", [("extremes", "_grid_maxima")]),
    ("extremes.factor14_check", [("extremes", "factor14_check")]),
    ("orthopoly.h_chain", [("charpoly", "_h_chain"), ("orthopoly", "_h_chain")]),
    ("orthopoly.pi_chain", [("charpoly", "_pi_chain"), ("orthopoly", "_pi_chain")]),
    ("charpoly.fs_balanced", [("charpoly", "fs_balanced")]),
    ("charpoly.exp_pm2_moment", [("charpoly", "exp_pm2_moment")]),
    ("charpoly.exp_moment_field", [("momentlab", "exp_moment_field")]),
    ("charpoly.mc_char_ratio", [("charpoly", "mc_char_ratio")]),
    ("momentlab.mem_ratio", [("momentlab", "mem_ratio")]),
    ("gaussfield.cov_matrix", [("gaussfield.GaussKernel", "matrix")]),
    ("gaussfield.factor", [("gaussfield", "_factor_covariance")]),
    ("gaussfield.sample_gauss", [("momentlab", "sample_gauss")]),
    ("rng.substream", [("cli", "substream"), ("cli", "task_seed"),
                       ("extremes", "task_seed"), ("ensemble", "substream"),
                       ("charpoly", "substream"), ("gaussfield", "substream")]),
    ("momentlab.matching_subset_sup", [("momentlab", "matching_subset_sup")]),
    ("momentlab.lower_bound_mc", [("momentlab", "lower_bound_mc")]),
    ("hyperbolic.branch_profile_grid", [("hyperbolic", "branch_profile_grid")]),
    ("cli.emit", [("cli", "emit"), ("charpoly", "write_verification_report")]),
]

EXACT_FORMULAS = ("charpoly.fs_balanced", "charpoly.exp_pm2_moment",
                  "charpoly.exp_moment_field")
OP_SPAN = "cli.main"


class Tracer:
    """Collects spans and counters for one pass of a workload."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op_id = None
        self.op_span = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name):
        stack = self._stack()
        # a span opened on a pool thread has no caller on its own stack; its
        # parent is the op that started the pool
        parent = stack[-1][0] if stack else self.op_span
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append([sid, parent, name, time.perf_counter(), None, self.op_id])
        return sid

    def end(self):
        span = self._stack().pop()
        span[4] = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def raise_to(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def run_op(self, op_id, fn):
        """Call fn() as the top-level span of op op_id."""
        self.op_id = op_id
        self.op_span = self.start(OP_SPAN)
        try:
            return fn()
        finally:
            self.end()
            self.op_span = None

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.start(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return traced

    def install(self, package):
        """Rebind every name in SITES inside the imported package."""
        for name, sites in SITES:
            for owner, attr in sites:
                target = package
                for part in owner.split("."):
                    target = getattr(target, part)
                setattr(target, attr, self.wrap(name, getattr(target, attr)))


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _count_grid(tracer, args, kwargs, out):
    spectrum, _, y = args
    grids = 1 if y is None else 2
    tracer.add("extremes.logsum_terms", grids * (2 * spectrum.N + 1) * spectrum.N)


def _count_table(tracer, args, kwargs, out):
    tracer.raise_to("orthopoly.table_n_max", args[0].n_max)


def _count_mc(tracer, args, kwargs, out):
    N, p_pts, q_pts, n_samples = args[:4]
    tracer.add("charpoly.mc_det_steps", n_samples * N * (len(p_pts) + len(q_pts)))


def _count_cov(tracer, args, kwargs, out):
    n = out.shape[0]
    tracer.add("gaussfield.cov_entries", n * (n + 1) // 2)


def _count_sample(tracer, args, kwargs, out):
    tracer.add("gaussfield.rows", out.values.shape[0])
    tracer.add("gaussfield.eigen_fallbacks", int(out.factorization == "eigen"))


def _count_subsets(tracer, args, kwargs, out):
    tracer.add("momentlab.subset_pairs", 4 ** len(args[0].Z))


_COUNTERS = {
    "extremes.grid_maxima": _count_grid,
    "orthopoly.h_chain": _count_table,
    "orthopoly.pi_chain": _count_table,
    "charpoly.mc_char_ratio": _count_mc,
    "gaussfield.cov_matrix": _count_cov,
    "gaussfield.sample_gauss": _count_sample,
    "momentlab.matching_subset_sup": _count_subsets,
}


# ---------------------------------------------------------------------------
# aggregation (runs in run.py, on the spans a client wrote out)
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []))
            for sid, _, _, start, end, _ in spans}


def nesting_errors(spans):
    """Spans that do not lie inside their parent's interval."""
    by_id = {s[0]: s for s in spans}
    bad = []
    for sid, parent, name, start, end, _ in spans:
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None or start < p[3] or end > p[4]:
            bad.append(name)
    return bad


def layer_metrics(spans, counters):
    """Per-layer counts, busy and self times for one traced pass."""
    own = self_times(spans)
    calls, busy, self_s = {}, {}, {}
    for sid, _, name, start, end, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[sid]

    m = {}
    for name in ("ensemble.sample_spectrum_gue", "extremes.factor14_check",
                 "orthopoly.h_chain", "orthopoly.pi_chain", "rng.substream",
                 "momentlab.matching_subset_sup", "hyperbolic.branch_profile_grid"):
        m[name + ".calls"] = calls.get(name, 0)
    for name in ("ensemble.sample_spectrum_gue", "extremes.grid_maxima",
                 "extremes.factor14_check", "orthopoly.h_chain",
                 "orthopoly.pi_chain", "charpoly.mc_char_ratio",
                 "momentlab.mem_ratio", "gaussfield.cov_matrix",
                 "gaussfield.factor", "rng.substream",
                 "momentlab.matching_subset_sup",
                 "hyperbolic.branch_profile_grid", "cli.emit"):
        m[name + ".busy_s"] = busy.get(name, 0.0)
    for name in ("gaussfield.sample_gauss", "momentlab.lower_bound_mc"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m["charpoly.exact.self_s"] = sum(self_s.get(n, 0.0) for n in EXACT_FORMULAS)
    for name in ("extremes.logsum_terms", "orthopoly.table_n_max",
                 "charpoly.mc_det_steps", "gaussfield.cov_entries",
                 "gaussfield.eigen_fallbacks", "gaussfield.rows",
                 "momentlab.subset_pairs"):
        m[name] = counters.get(name, 0)
    grid_s = m["extremes.grid_maxima.busy_s"]
    m["extremes.logsum_terms_per_s"] = m["extremes.logsum_terms"] / grid_s if grid_s else 0.0
    m["trace.top_level_s"] = busy.get(OP_SPAN, 0.0)
    m["trace.negative_self_s"] = sum(1 for v in own.values() if v < -1e-9)
    return m
