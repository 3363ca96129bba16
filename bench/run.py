"""Benchmark for the charpolylab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from src/,
nothing is installed.  A run repeats passes of one workload until S seconds
have gone by.  Each pass is a fresh interpreter (bench/client.py) that
imports charpolylab.cli and issues the workload's ops one after another
(one closed-loop client).  Every op runs with --check, and its output bytes
are hashed: an op fails when it exits nonzero or raises, or when its
output differs from the first pass at the same seed, in this run or in an
earlier run in the same checkout (the digests are kept in
.bench_results/digests/).

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(bench/tracer.py); the untraced passes give the tracing overhead.  The last
line of standard output is one JSON object; the full record (environment,
per-op times, digests, spans of the last traced pass) goes to
.bench_results/.  See bench/NOTES.md for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools pinned to one thread: compute threads never exceed
# the two cores, and lln-sweep's --threads 2 is the only parallelism.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "CHARPOLY_THREADS")}

# Each workload: its ops (CLI arguments before --seed/--check/--out), the
# number of N = 4096 spectra one pass draws, and a minimal-size variant for
# --self-test.  Why each one exists is in bench/NOTES.md.
WORKLOADS = {
    "lln-sweep": {
        "ops": ["max-experiment --N 4096 --y 2 --threads 2 --samples 4"],
        "spectra": 4,
        "small": ["max-experiment --N 128 --y 2 --threads 2 --samples 2"],
    },
    "formula-oracles": {
        "ops": ["mem-verify",
                "upperbound-verify --N 64 --samples 100",
                "fs-verify --N 256 --samples 10000",
                "fs-verify --N 1024 --samples 2000"],
        "spectra": 0,
        "small": ["mem-verify",
                  "upperbound-verify --N 16 --samples 10",
                  "fs-verify --N 32 --samples 2000"],
    },
    "gauss-lowerbound": {
        "ops": ["lowerbound-sim --n 10 --delta 0.2 --eta 3 --samples 500",
                "matching-verify --samples 500",
                "brw-verify",
                "branch-verify"],
        "spectra": 0,
        "small": ["lowerbound-sim --n 9 --delta 0.2 --eta 3 --samples 40",
                  "matching-verify --samples 20",
                  "brw-verify",
                  "branch-verify"],
    },
}

# fs-verify at N = 2048 exits 1: the Monte Carlo oracle multiplies raw
# determinants, which underflow to 0/0 = NaN.  No workload may contain an op
# that fails at baseline, so the op runs in --self-test, which reports
# its exit code (see NOTES.md, "Known failures").
KNOWN_FAILURE = "fs-verify --N 2048 --samples 500"

PASS_TIMEOUT_S = 150

# On a shared host the CPU's speed can drift by a third within minutes
# (NOTES.md, "Noise"), moving every workload's times together.  Each pass
# therefore times a fixed probe (client.probe) around its ops, and wall_s and
# setup_s are reported in seconds at the speed where the probe takes
# REF_PROBE_S: the probe's median on the 2-core host the NOTES.md figures
# come from.  The raw clock times are kept as per-layer metrics.
REF_PROBE_S = 0.035


class BenchError(RuntimeError):
    pass


def op_seed(workload, seed, index):
    """Seed of op `index`, derived from the benchmark seed alone."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_client(ops, trace, workdir, tag):
    """One fresh interpreter; returns its report."""
    job = workdir / f"{tag}.job.json"
    report = workdir / f"{tag}.report.json"
    job.write_text(json.dumps({"ops": ops, "trace": trace}))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "client.py"), str(job),
                           str(report)], env=child_env(), cwd=workdir,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(report.read_text())


def _digest(path):
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect_outputs(out_paths):
    """Per op: (digests of the output and its .summary.json, bytes); removes them."""
    digests, nbytes = [], 0
    for out in out_paths:
        summary = Path(str(out) + ".summary.json")
        digests.append([_digest(out), _digest(summary)])
        for p in (out, summary):
            if p.exists():
                nbytes += p.stat().st_size
                p.unlink()
    return digests, nbytes


def run_workload(name, seed, seconds, trace, small=False):
    """Repeat passes for `seconds`; returns the full record of the run."""
    spec = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_passes(name, spec, seed, seconds, trace, small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_passes(name, spec, seed, seconds, trace, small, workdir):
    op_args = spec["small"] if small else spec["ops"]
    out_paths = [workdir / f"op{i}.out" for i in range(len(op_args))]
    ops = [a.split() + ["--seed", str(op_seed(name, seed, i)), "--check",
                        "--out", str(out_paths[i])]
           for i, a in enumerate(op_args)]

    # the first import in a checkout compiles bytecode: not counted
    run_client([], False, workdir, "warmup")

    passes = []
    first_digests = None
    failures = []
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        rep = run_client(ops, traced, workdir, f"pass{len(passes)}")
        digests, nbytes = collect_outputs(out_paths)
        if first_digests is None:
            first_digests = digests
        for i, (op, dig) in enumerate(zip(rep["ops"], digests)):
            if op["rc"] != 0:
                failures.append({"pass": len(passes), "op": i, "rc": op["rc"],
                                 "output": op["output"][-2000:]})
            elif dig != first_digests[i]:
                failures.append({"pass": len(passes), "op": i,
                                 "rc": "output differs from the first pass"})
        rep["traced"] = traced
        rep["bytes_written"] = nbytes
        passes.append(rep)

    failures += _check_stored_digests(name, seed, small, first_digests,
                                      len(passes))
    return {"workload": name, "seed": seed, "ops": ops,
            "passes": passes, "digests": first_digests, "failures": failures,
            "spectra": 0 if small else spec["spectra"]}


def _check_stored_digests(name, seed, small, digests, n_passes):
    """Compare with the first run at this seed in this checkout, or record it."""
    store = ROOT / ".bench_results" / "digests" / \
        f"{name}{'-small' if small else ''}-seed{seed}.json"
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests))
        os.replace(tmp, store)
        return []
    stored = json.loads(store.read_text())
    return [{"pass": p, "op": i, "rc": "output differs from an earlier run"}
            for i, (a, b) in enumerate(zip(digests, stored)) if a != b
            for p in range(n_passes)]


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(record):
    """End-to-end and per-layer metrics of one run record."""
    plain = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    attempted = sum(len(p["ops"]) for p in record["passes"])
    failed = len({(f["pass"], f["op"]) for f in record["failures"]})

    def scaled_wall(p):
        return p["wall_s"] * REF_PROBE_S / statistics.mean(p["probe_s"])

    wall = _median([scaled_wall(p) for p in plain])
    end_to_end = {
        "wall_s": wall,
        "setup_s": _median([p["setup_s"] * REF_PROBE_S / p["probe_s"][0]
                            for p in record["passes"]]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }

    layers = {}
    if traced:
        per_pass = [tracer.layer_metrics(p["spans"], p["counters"]) for p in traced]
        for key in per_pass[0]:
            layers[key] = _median([m[key] for m in per_pass])
        layers["trace.overhead_s"] = _median([scaled_wall(p) for p in traced]) - wall
        layers["trace.top_level_coverage"] = _median(
            [m["trace.top_level_s"] / p["wall_s"] for m, p in zip(per_pass, traced)])
        layers["cli.bytes_written"] = traced[0]["bytes_written"]
        layers["spectra_per_s"] = _median(
            [record["spectra"] / scaled_wall(p) for p in plain])
        layers["wall_clock_s"] = _median([p["wall_s"] for p in plain])
        layers["probe_s"] = _median([statistics.mean(p["probe_s"]) for p in plain])
        layers["ops_failed"] = failed / attempted
    return attempted, failed, end_to_end, layers


def environment():
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_sha": sha, "threads": THREAD_ENV}


def _metric_block(values, names, units):
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def main_run(args, config, units):
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, end_to_end, layers = summarize(record)
    if args.trace:
        names = [m["name"] for m in config["per_layer"]]
        metrics = _metric_block(layers, names, units)
    else:
        names = [m["name"] for m in config["end_to_end"]]
        metrics = _metric_block(end_to_end, names, units)

    env = environment()
    env["versions"] = record["passes"][0]["versions"]
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    last_traced = [p for p in record["passes"] if p["traced"]][-1:]
    full = {
        "environment": env,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops": record["ops"], "digests": record["digests"],
        "failures": record["failures"], "attempted": attempted, "failed": failed,
        "ref_probe_s": REF_PROBE_S,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "setup_s": p["setup_s"], "probe_s": p["probe_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "op_seconds": [o["seconds"] for o in p["ops"]]}
                   for p in record["passes"]],
        "end_to_end": end_to_end, "per_layer": layers,
        "spans": last_traced[0]["spans"] if last_traced else [],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps({"environment": env}), file=sys.stderr)
    for f in record["failures"]:
        print(f"op {f['op']} failed in pass {f['pass']}: {f['rc']}\n"
              f"{f.get('output', '')}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test(config, units):
    """Every workload at minimal size, traced: metrics, units, span nesting."""
    problems = []
    for name in WORKLOADS:
        record = run_workload(name, 1, 0, True, small=True)
        _, failed, end_to_end, layers = summarize(record)
        for kind, values in (("end_to_end", end_to_end), ("per_layer", layers)):
            for m in config[kind]:
                if m["name"] not in values:
                    problems.append(f"{name}: {kind} metric {m['name']} missing")
                elif not units.get(m["name"]):
                    problems.append(f"{name}: metric {m['name']} has no unit")
        extra = set(layers) - set(units) - {"trace.top_level_s", "trace.negative_self_s"}
        if extra:
            problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
        for p in record["passes"]:
            if not p["traced"]:
                continue
            bad = tracer.nesting_errors(p["spans"])
            if bad:
                problems.append(f"{name}: spans outside their parent: {sorted(set(bad))}")
            if tracer.layer_metrics(p["spans"], p["counters"])["trace.negative_self_s"]:
                problems.append(f"{name}: negative self time")
            roots = [s for s in p["spans"] if s[1] is None]
            if any(s[2] != tracer.OP_SPAN for s in roots):
                problems.append(f"{name}: a span has no op as ancestor")
        if layers["trace.top_level_coverage"] < 0.9:
            problems.append(f"{name}: top-level spans cover "
                            f"{layers['trace.top_level_coverage']:.1%} of the pass")
        # --check may fail at minimal sizes; a raised exception or output
        # bytes that differ between passes may not
        broken = [f for f in record["failures"] if not isinstance(f["rc"], int)]
        if broken:
            problems.append(f"{name}: {broken}")
        print(f"{name}: {len(record['passes'])} passes, {failed} ops failed "
              f"(minimal sizes; --check may fail there), "
              f"coverage {layers['trace.top_level_coverage']:.3f}")

    workdir = ROOT / ".bench_work" / f"known-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        argv = KNOWN_FAILURE.split() + ["--seed", "1", "--check", "--out",
                                        str(workdir / "known.out")]
        rc = run_client([argv], False, workdir, "known")["ops"][0]["rc"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    state = "still fails" if rc != 0 else "now passes: move it into formula-oracles"
    print(f"known failure `{KNOWN_FAILURE}`: exit {rc}, {state}")

    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "charpolylab" / "cli.py").is_file():
        print(f"error: no charpolylab sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    try:
        if args.self_test:
            return self_test(config, units)
        return main_run(args, config, units)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
