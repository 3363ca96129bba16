"""Byte comparison of command outputs between two checkouts or two
environments.

`run_outputs` runs each argv of the command line in a subprocess of its own,
in a fresh working directory, against the package under a given source
directory; `diff_fields` names each CSV column and JSON path whose values
moved between two such results, and compares stdout, stderr and the exit
code exactly.  An argv names its outputs relative to its working directory
(`--out out`), so the same argv writes the same file names on both sides.
From a shell, against a checkout of the parent commit at ../parent:

    python tests/bytediff.py ../parent/src src OPENBLAS_NUM_THREADS=1

runs `RUNS` on both sides, prints one line per moved field, and exits 1
if any run differs (0 if all are identical).
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

_MAIN = "import sys; from charpolylab.cli import main; sys.exit(main(sys.argv[1:]))"

# the configurations of acceptance criterion 13 (reproducibility)
SMALL_RUNS = {
    "gen-spectrum": ["--N", "64", "--seed", "11"],
    "max-experiment": ["--N", "128", "--samples", "8", "--seed", "5",
                       "--y", "2"],
    "fs-verify": ["--N", "4", "--samples", "20000", "--seed", "2"],
    "mem-verify": ["--seed", "1"],
    "branch-verify": ["--seed", "1"],
    "matching-verify": ["--samples", "60", "--seed", "4"],
    "lowerbound-sim": ["--n", "9", "--samples", "100", "--seed", "3"],
    "upperbound-verify": ["--N", "64", "--samples", "10", "--seed", "6"],
    "brw-verify": ["--seed", "1"],
}

# the benchmark's ops and their small variants (bench/run.py's WORKLOADS,
# each op once), then criterion 13's configurations, each at seeds 1, 2 and
# 5 (a later --seed wins)
_BENCH_OPS = [
    "max-experiment --N 4096 --y 2 --threads 2 --samples 4",
    "mem-verify", "upperbound-verify --N 64 --samples 100",
    "fs-verify --N 256 --samples 10000", "fs-verify --N 1024 --samples 2000",
    "lowerbound-sim --n 10 --delta 0.2 --eta 3 --samples 500",
    "matching-verify --samples 500", "brw-verify", "branch-verify",
    "max-experiment --N 128 --y 2 --threads 2 --samples 2",
    "upperbound-verify --N 16 --samples 10", "fs-verify --N 32 --samples 2000",
    "lowerbound-sim --n 9 --delta 0.2 --eta 3 --samples 40",
    "matching-verify --samples 20",
]
RUNS = [op.split() + ["--check", "--out", "out", "--seed", str(seed)]
        for op in _BENCH_OPS + [" ".join([cmd] + args) for cmd, args in SMALL_RUNS.items()]
        for seed in (1, 2, 5)]

# numpy held to its X86_V2 dispatch, on a CPU that has X86_V3 or above
X86_V2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

# (command, field) of each output field that moved under X86_V2, measured
# over the 23 runs of RUNS at seed 2 on a 2-vCPU AVX-512 host (numpy 2.4.6);
# README quotes this list.  A field is named as diff_fields names it, and
# stdout, stderr and exit codes did not move.  test_bytediff checks the list
# over SMALL_RUNS at their own seeds, where fs-verify's formula_value and
# mc_value do not move; that check has only been run on AVX-512 so far
DISPATCH_MOVES = [
    ("max-experiment", "m_star_reg"),
    ("fs-verify", "formula_value"),
    ("fs-verify", "mc_value"),
    ("fs-verify", "mc_stderr"),
    ("fs-verify", "z_score"),
    ("mem-verify", "ratio"),
    ("mem-verify", "abs_error"),
    ("lowerbound-sim", "$.cs_ratio"),
    ("lowerbound-sim", "$.cs_ratio_se"),
    ("lowerbound-sim", "$.one_point.ratio_mean"),
    ("lowerbound-sim", "$.one_point.ratio_min"),
    ("lowerbound-sim", "$.one_point.ratio_max"),
    ("lowerbound-sim", "$.per_m_bins[].factorization_ratio"),
    ("lowerbound-sim", "$.per_m_bins[].exact_pair_over_product"),
    ("lowerbound-sim", "$.per_m_bins[].lemma_bound_constant"),
    ("branch-verify", "max_abs_error"),
    ("brw-verify", "$.G.c_c"),
]


def run_outputs(src_dir, argvs, env):
    """Run each argv as `charpolylab <argv>` with PYTHONPATH=src_dir and the
    environment `env` over this process's, each in a new working directory.
    Returns one dict per argv: "argv", "files" ({name: bytes} of what the
    run left in its directory), "stdout", "stderr" (bytes) and "code"."""
    env = {**os.environ, **env, "PYTHONPATH": os.path.abspath(src_dir)}
    results = []
    for argv in argvs:
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=cwd,
                                  env=env, capture_output=True)
            files = {}
            for name in sorted(os.listdir(cwd)):
                with open(os.path.join(cwd, name), "rb") as fh:
                    files[name] = fh.read()
        results.append({"argv": list(argv), "files": files, "stdout": proc.stdout,
                        "stderr": proc.stderr, "code": proc.returncode})
    return results


def _move(x, y):
    """(relative, absolute) move from x to y: zero where their bits agree
    (repr round-trips a float), inf where they differ but are not two
    numbers a finite, nonzero distance apart (NaN, inf, a sign of zero)."""
    if repr(x) == repr(y):
        return 0.0, 0.0
    gap = abs(x - y) if isinstance(x, float) and isinstance(y, float) else math.inf
    return (gap / max(abs(x), abs(y)), gap) if 0.0 < gap < math.inf else (math.inf, math.inf)


def _fields(data):
    """{field: [values]} of one output file: CSV columns by header name,
    JSON leaves by path, with list indices dropped ($.per_m_bins[].m)."""
    out = {}
    if data[:1] in (b"{", b"["):
        def walk(doc, path):
            if isinstance(doc, dict):
                for key, val in doc.items():
                    walk(val, f"{path}.{key}")
            elif isinstance(doc, list):
                for val in doc:
                    walk(val, path + "[]" if isinstance(val, (dict, list)) else path)
            else:
                out.setdefault(path, []).append(
                    float(doc) if isinstance(doc, (int, float)) and not isinstance(doc, bool)
                    else doc)
        walk(json.loads(data), "$")
        return out
    rows = list(csv.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            out.setdefault(name, []).append(value)
    return out


def diff_fields(a, b):
    """What moved between two run_outputs results over the same argvs, as
    {(command, where, field): [values moved, largest relative move, largest
    absolute move]}, summed over each command's runs, for moved fields only.
    `where` is "stdout", "stderr" or "code" (field "", compared exactly) or
    an output file's name, whose field is a CSV column or a JSON path ("" if
    the file is missing on one side or its fields do not line up); a move
    that is not between two numbers counts as inf."""
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        raise ValueError("the two results ran different argvs")
    report = {}

    def add(key, moves):
        entry = report.setdefault(key, [0, 0.0, 0.0])
        for rel, gap in moves:
            if rel or gap:
                entry[0] += 1
                entry[1] = max(entry[1], rel)
                entry[2] = max(entry[2], gap)

    for ra, rb in zip(a, b):
        cmd = ra["argv"][0]
        for where in ("stdout", "stderr", "code"):
            add((cmd, where, ""), [_move(ra[where], rb[where])])
        for name in sorted(ra["files"].keys() | rb["files"].keys()):
            da, db = ra["files"].get(name), rb["files"].get(name)
            if da == db:
                continue
            fa, fb = (_fields(d) if d is not None else None for d in (da, db))
            if fa is None or fb is None or {k: len(v) for k, v in fa.items()} != \
                    {k: len(v) for k, v in fb.items()}:
                add((cmd, name, ""), [(math.inf, math.inf)])
                continue
            for field, values in fa.items():
                add((cmd, name, field), map(_move, values, fb[field]))
    return {key: entry for key, entry in report.items() if entry[0]}


def main(argv):
    """`bytediff.py PARENT_SRC CHILD_SRC [NAME=VALUE ...]`: runs RUNS against
    both source directories under the given environment, prints one line
    per moved field, and returns 1 if any run differs, 0 if none does."""
    parent, child, *assignments = argv
    env = dict(a.split("=", 1) for a in assignments)
    a, b = (run_outputs(src, RUNS, env) for src in (parent, child))
    moved = diff_fields(a, b)
    same = sum(ra == rb for ra, rb in zip(a, b))
    print(f"{len(RUNS)} runs a side; {same} identical")
    for (cmd, where, field), (count, rel, gap) in sorted(moved.items()):
        print(f"{cmd} {where} {field}: {count} moved, largest {rel:.3g} rel, {gap:.3g} abs")
    return 0 if same == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
