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


# functions in src/ that no CLI command runs, each with the acceptance
# criterion or command that does; every other function must be reached by
# the runs in test_cli_import_skips_quadrature_stack (ROADMAP aim 2)
_NOT_RUN_BY_THE_RUNS = {
    "criterion 4 (Riemann-Hilbert identities)": [
        "charpoly.laplace_split", "orthopoly.y_matrix",
        "orthopoly.global_parametrix_onecut", "orthopoly._gamma_onecut"],
    "criterion 5 (Gaussian exponential moments)": [
        "gaussfield.bias_variance"],
    "criterion 8 (factor 14 on Chebyshev coefficients)": [
        "extremes.factor14_check.<locals>.log_abs"],
    "criterion 9 (equilibrium self-consistency)": [
        "ensemble.make_model", "ensemble._quad", "ensemble._quad.<locals>.integrand",
        "ensemble._quad_tilde_g", "ensemble.EquilibriumModel.ell_v_profile",
        "ensemble.gue_model.<locals>.V", "ensemble.gue_model.<locals>.rho",
        "ensemble._gue_stieltjes"],
    "gen-spectrum (loads scipy's dsterf)": [
        "cli._cmd_gen_spectrum", "ensemble.Spectrum.eigenvalues"],
}


def _function_defs():
    """(module.qualname, file name, first line) of every def in the package;
    the first line is the decorator's, as in a code object."""
    out = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((f"{module}.{prefix}{child.name}", f"{module}.py", line))
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def test_cli_import_skips_quadrature_stack(tmp_path):
    # scipy serves only gen-spectrum's eigenvalues, make_model's g_tilde
    # quadrature and the fallback for a numpy without the bundled OpenBLAS
    # dpstrf.  So importing the CLI loads no scipy module, and, when that
    # dpstrf is found, neither do tiny runs of the eight benchmarked
    # commands: h0 comes from orthopoly's own Faddeeva routine.  A command
    # whose quadratic model fell back to quadrature would load it here.  No
    # run loads numpy.ma either.
    # The same runs, with a config file and --out, reach every function in
    # src/ but those _NOT_RUN_BY_THE_RUNS names (threading.setprofile also
    # records max-experiment's pool threads)
    config = tmp_path / "run.conf"
    config.write_text("# a flat key-value file\n\nN = 8\nsamples 2\n")
    runs = [["max-experiment", "--N", "8", "--y", "2", "--samples", "2"],
            ["mem-verify"],
            ["upperbound-verify", "--N", "8", "--samples", "2"],
            ["fs-verify", "--N", "8", "--samples", "10"],
            ["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "5"],
            ["matching-verify", "--samples", "2"],
            ["brw-verify"],
            ["branch-verify"],
            ["max-experiment", "--config", str(config)]]
    runs = [r + ["--out", str(tmp_path / f"out{i}")] for i, r in enumerate(runs)]
    code = ("import json, os, sys, threading\n"
            "seen = set()\n"
            "def record(frame, event, arg):\n"
            "    if event == 'call': seen.add(frame.f_code)\n"
            "sys.setprofile(record)\n"
            "threading.setprofile(record)\n"
            "import charpolylab.cli as cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "def ma(): return sorted(m for m in sys.modules"
            " if m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
            "after_import = scipy()\n"
            f"codes = [cli.main(a) for a in {runs!r}]\n"
            "sys.setprofile(None)\n"
            "here = os.path.dirname(cli.__file__)\n"
            "reached = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)"
            " for c in seen if os.path.dirname(c.co_filename) == here})\n"
            "print(json.dumps([after_import, codes, scipy(), ma(),"
            " cli.gaussfield._DPSTRF is not None, reached]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    after_import, codes, after_runs, masked, bundled, reached = json.loads(
        out.stdout.splitlines()[-1])
    assert after_import == []
    assert codes == [0] * len(runs)
    # numpy.ma costs 14 ms to import; np.unique (also under np.percentile)
    # loads it
    assert masked == []
    if bundled:
        assert after_runs == []
    reached = {tuple(r) for r in reached}
    allowed = {name for names in _NOT_RUN_BY_THE_RUNS.values() for name in names}
    defs = _function_defs()
    unreached = sorted(name for name, path, line in defs
                       if (path, line) not in reached and name not in allowed)
    assert not unreached, f"no command or criterion runs {unreached}"
    # an allowlist entry that names no function is stale
    assert allowed <= {name for name, _, _ in defs}


def test_no_module_reads_the_environment():
    # a setting enters only as a RunConfig field, set by its flag or its
    # config key: no module in src/ reads os.environ or os.getenv
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("environ", "getenv")]
    assert not reads, reads
