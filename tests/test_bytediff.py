import json
import math
import os
import subprocess
import sys

import pytest

import bytediff
from bytediff import diff_fields


def _run(argv, files, stdout=b"", stderr=b"", code=0):
    return {"argv": argv, "files": files, "stdout": stdout, "stderr": stderr, "code": code}


def test_diff_fields_names_each_moved_column_and_path():
    doc = {"a": 1.0, "bins": [{"m": 1, "r": 0.5}, {"m": 2, "r": 0.25}], "ok": True}
    moved = dict(doc, bins=[{"m": 1, "r": 0.5}, {"m": 2, "r": 0.3}])
    a = [_run(["fs-verify"], {"out": b"id,x,y\nc0,nan,2.0\nc1,4.0,8.0\n"}),
         _run(["lowerbound-sim"], {"out": json.dumps(doc).encode()}, stderr=b"route\n"),
         _run(["mem-verify"], {"out": b"x\n1\n"})]
    b = [_run(["fs-verify"], {"out": b"id,x,y\nc0,nan,2.5\nc1,-0.0,6.0\n"}),
         _run(["lowerbound-sim"], {"out": json.dumps(moved).encode()}, stderr=b"route!\n"),
         _run(["mem-verify"], {"out": b"x\n1\n", "out.json": b"{}"}, code=1)]
    report = diff_fields(a, b)
    assert report == {
        ("fs-verify", "out", "x"): [1, 1.0, 4.0],
        ("fs-verify", "out", "y"): [2, 0.25, 2.0],
        ("lowerbound-sim", "out", "$.bins[].r"): [1, abs(0.25 - 0.3) / 0.3, abs(0.25 - 0.3)],
        ("lowerbound-sim", "stderr", ""): [1, math.inf, math.inf],
        ("mem-verify", "out.json", ""): [1, math.inf, math.inf],
        ("mem-verify", "code", ""): [1, math.inf, math.inf],
    }
    assert diff_fields(a, a) == {}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_FEATURES = ("import json, numpy\n"
             "core = getattr(numpy, '_core', None) or numpy.core\n"
             "print(json.dumps(core._multiarray_umath.__cpu_features__))")


def _cpu_features(env):
    """numpy's __cpu_features__ in a child process under env."""
    out = subprocess.run([sys.executable, "-c", _FEATURES], env={**os.environ, **env},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_x86_v2_dispatch_moves_only_the_listed_fields():
    # SMALL_RUNS at numpy's full dispatch and at X86_V2 (set on the child
    # processes only): the fields that move are among DISPATCH_MOVES, and
    # stdout, stderr and exit codes are equal
    if not _cpu_features({}).get("X86_V3"):
        pytest.skip("this CPU has no X86_V3 (AVX2 with FMA3): numpy runs at "
                    "X86_V2 or below without the setting")
    disabled = bytediff.X86_V2["NPY_DISABLE_CPU_FEATURES"].split()
    # a numpy that ignores or refuses the setting fails here, not silently
    assert [_cpu_features(bytediff.X86_V2).get(f) for f in disabled] == [False] * len(disabled)
    argvs = [[cmd] + args + ["--out", "out"] for cmd, args in bytediff.SMALL_RUNS.items()]
    full, v2 = (bytediff.run_outputs(SRC, argvs, env) for env in ({}, bytediff.X86_V2))
    assert [r["code"] for r in full] == [0] * len(argvs)
    for key in ("stdout", "stderr", "code"):
        assert [r[key] for r in full] == [r[key] for r in v2], key
    moved = {(cmd, field) for cmd, _, field in diff_fields(full, v2)}
    assert moved <= set(bytediff.DISPATCH_MOVES), moved - set(bytediff.DISPATCH_MOVES)


def test_main_exits_1_when_a_run_differs(tmp_path, capsys, monkeypatch):
    # one tiny run a side: the same source is identical (exit 0), a package
    # whose CLI prints something else differs (exit 1)
    monkeypatch.setattr(bytediff, "RUNS", [["gen-spectrum", "--N", "4", "--out", "out"]])
    other = tmp_path / "charpolylab"
    other.mkdir()
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("def main(argv):\n    print('other')\n    return 0\n")
    assert bytediff.main([SRC, SRC]) == 0
    assert capsys.readouterr().out == "1 runs a side; 1 identical\n"
    assert bytediff.main([SRC, str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "1 runs a side; 0 identical"
