"""The package's public surface stays consistent with itself and with the
names the benchmark's span recorder rebinds, so a deletion that would break
`bench/run.py --trace 1` fails here without running the benchmark."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charpolylab
import charpolylab.cli  # the benchmark client imports the package this way

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charpolylab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,owner,attr", [
    (span, owner, attr) for span, sites in _load_tracer().SITES
    for owner, attr in sites])
def test_tracer_sites_resolve(span, owner, attr):
    target = charpolylab
    for part in owner.split("."):
        target = getattr(target, part)
    assert callable(getattr(target, attr)), f"{span}: {owner}.{attr}"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"charpolylab.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"charpolylab.{name}.{attr}"


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(importlib.import_module(f"charpolylab.{module}"), name) \
            is getattr(charpolylab, name)


def test_cli_import_skips_quadrature_stack():
    # scipy serves only gen-spectrum's eigenvalues, the quadrature routes of
    # make_model's models and the fallback for a numpy without the bundled
    # OpenBLAS dpstrf.  So importing the CLI loads no scipy module, and, when
    # that dpstrf is found, neither do tiny runs of the eight benchmarked
    # commands: h0 comes from orthopoly's own Faddeeva routine.  A command
    # whose quadratic model fell back to quadrature would load it here
    runs = [["max-experiment", "--N", "8", "--y", "2", "--samples", "2"],
            ["mem-verify"],
            ["upperbound-verify", "--N", "8", "--samples", "2"],
            ["fs-verify", "--N", "8", "--samples", "10"],
            ["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "5"],
            ["matching-verify", "--samples", "2"],
            ["brw-verify"],
            ["branch-verify"]]
    code = ("import json, sys, charpolylab.cli as cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "after_import = scipy()\n"
            f"codes = [cli.main(a) for a in {runs!r}]\n"
            "print(json.dumps([after_import, codes, scipy(),"
            " cli.gaussfield._DPSTRF is not None]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    after_import, codes, after_runs, bundled = json.loads(out.stdout.splitlines()[-1])
    assert after_import == []
    assert codes == [0] * len(runs)
    if bundled:
        assert after_runs == []
