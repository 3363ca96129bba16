"""The package's public surface stays consistent with itself and with the
names the benchmark's span recorder rebinds, so a deletion that would break
`bench/run.py --trace 1` fails here without running the benchmark."""

import ast
import importlib
import importlib.util
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
    # scipy.integrate pulls in scipy.optimize and scipy.sparse; only the
    # quadrature oracles need it, and only h0_closed needs scipy.special, so
    # no command pays for an import it does not run.  The quadratic model's
    # closed forms serve the commands themselves: a model that fell back to
    # quadrature would load the stack here
    runs = [("", ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                  "scipy.special")),
            ("charpolylab.cli.main(['max-experiment', '--N', '8', '--samples', "
             "'2']); charpolylab.cli.main(['mem-verify']); ",
             ("scipy.integrate", "scipy.optimize", "scipy.sparse"))]
    for run, modules in runs:
        code = (f"import sys, charpolylab.cli; {run}"
                f"print(sorted(m for m in {modules!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert out.stdout.strip() == "[]", run
