"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/client.py JOB.json REPORT.json

JOB.json holds {"ops": [[argv, ...], ...], "trace": bool}.  The ops run one
after another through `charpolylab.cli.main`, as a closed-loop client: each
op starts when the previous one has returned.  An empty op list only
measures the import.  REPORT.json receives the import time, the pass wall
time, each op's exit code and duration, the speed probe's times before and
after the ops, the peak resident memory, the library versions and, when
traced, the spans and counters.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import charpolylab  # noqa: E402
import charpolylab.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402  (already loaded by charpolylab)


def _probe_once():
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(300 * 300, dtype=float).reshape(300, 300) % 17.0
    np.linalg.eigvalsh(a + a.T)
    np.log(np.abs(np.linspace(-1.0, 1.0, 1_000_000)) + 1.0).sum()
    return time.perf_counter() - t


def probe():
    """Median time of a fixed mix of bytecode, LAPACK and vector work.

    No change to charpolylab can touch it, so it measures how fast the
    machine runs at this moment; run.py scales times by it.
    """
    return statistics.median(_probe_once() for _ in range(5))


def _run_op(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # an escaped traceback is a failed op, not a crash
        return "exception", traceback.format_exc(limit=3)
    return rc, out.getvalue()


def main(job_path, report_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(charpolylab)

    probe_before = probe()
    ops = []
    start = time.perf_counter()
    for op_id, argv in enumerate(job["ops"]):
        t = time.perf_counter()
        if tracer is None:
            rc, text = _run_op(argv)
        else:
            rc, text = tracer.run_op(op_id, lambda: _run_op(argv))
        ops.append({"rc": rc, "seconds": time.perf_counter() - t,
                    "output": text if rc != 0 else ""})
    wall = time.perf_counter() - start
    probe_after = probe()

    import scipy
    report = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "probe_s": [probe_before, probe_after],
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
