import json
import math

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
