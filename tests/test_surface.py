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
        "ensemble.V", "ensemble.rho", "ensemble._gue_stieltjes"],
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


# tiny runs of the nine commands
_TINY_RUNS = [["max-experiment", "--N", "8", "--y", "2", "--samples", "2"],
              ["mem-verify"],
              ["upperbound-verify", "--N", "8", "--samples", "2"],
              ["fs-verify", "--N", "8", "--samples", "10"],
              ["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "5"],
              ["matching-verify", "--samples", "2"],
              ["brw-verify"],
              ["branch-verify"],
              ["gen-spectrum", "--N", "8"]]


def test_cli_import_skips_quadrature_stack(tmp_path):
    # LAPACK comes from numpy's bundled OpenBLAS (charpolylab._lapack) and
    # h0 from orthopoly's own Faddeeva routine, so neither importing the CLI
    # nor any of the tiny runs loads a scipy module.  No run loads numpy.ma
    # either.  Nor does importing the CLI load multiprocessing or
    # concurrent.futures: only a run on more than one thread needs them.
    # The same runs, with a config file and --out, reach every function in
    # src/ but those _NOT_RUN_BY_THE_RUNS names
    config = tmp_path / "run.conf"
    config.write_text("# a flat key-value file\n\nN = 8\nsamples 2\n")
    runs = _TINY_RUNS + [["max-experiment", "--config", str(config)]]
    runs = [r + ["--out", str(tmp_path / f"out{i}")] for i, r in enumerate(runs)]
    code = ("import json, os, sys\n"
            "seen = set()\n"
            "def record(frame, event, arg):\n"
            "    if event == 'call': seen.add(frame.f_code)\n"
            "sys.setprofile(record)\n"
            "import charpolylab.cli as cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "def ma(): return sorted(m for m in sys.modules"
            " if m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
            "pools = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
            " or m == 'concurrent.futures' or m.startswith('concurrent.futures.'))\n"
            "after_import = scipy()\n"
            f"codes = [cli.main(a) for a in {runs!r}]\n"
            "sys.setprofile(None)\n"
            "here = os.path.dirname(cli.__file__)\n"
            "reached = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)"
            " for c in seen if os.path.dirname(c.co_filename) == here})\n"
            "print(json.dumps([pools, after_import, codes, scipy(), ma(), reached]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    pools, after_import, codes, after_runs, masked, reached = json.loads(
        out.stdout.splitlines()[-1])
    assert pools == []
    assert after_import == []
    assert codes == [0] * len(runs)
    # numpy.ma costs 14 ms to import; np.unique (also under np.percentile)
    # loads it
    assert masked == []
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


def test_every_private_module_name_is_read():
    # a private module-level name that src/ never reads is dead, or a knob
    # that only the tests set; a name counts as read where src/ loads it,
    # takes it as an attribute or imports it
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{path.stem}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    unread = [name for name in defined if name.split(".", 1)[1] not in read]
    assert not unread, unread


def test_no_module_imports_scipy_integrate():
    # no module in src/ imports scipy: quadrature is an oracle's tool
    # (tests/oracles.py), every formula in src/ is a closed form or a
    # recurrence, and LAPACK comes from numpy's bundled OpenBLAS (_lapack).
    # scipy is a test dependency only
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert not imports, imports


# the tracer's counters over _TINY_RUNS; max-experiment draws each sample
# once per grid pass, gen-spectrum draws one spectrum, and mem-verify
# evaluates M once per point
_TRACED_COUNTS = {
    "extremes.logsum_terms": 544,
    "orthopoly.table_n_max": 512,
    "charpoly.mc_det_steps": 320,
    "gaussfield.cov_entries": 4222,
    "rng.substream.calls": 22,
    "ensemble.sample_spectrum_gue.calls": 7,
    "orthopoly.h_chain.calls": 31,
    "orthopoly.pi_chain.calls": 31,
}


def test_tracer_counts_the_tiny_runs(tmp_path):
    # bench/tracer.py rebinds names in the package and reads its calls'
    # arguments; a changed call shape would break a traced benchmark run
    # (--trace 1) only there, so the tiny runs go through it here.  They
    # run in-process: the spans of a forked worker never reach the parent's
    # tracer.  A traced run on two threads, after the counted ones, must
    # write the bytes of the same run untraced
    runs = [r + ["--out", str(tmp_path / f"out{i}")] for i, r in enumerate(_TINY_RUNS)]
    pooled = _TINY_RUNS[0] + ["--threads", "2", "--out"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    code = ("import importlib.util, json\n"
            f"spec = importlib.util.spec_from_file_location('_bench_tracer', "
            f"{str(ROOT / 'bench' / 'tracer.py')!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "import charpolylab, charpolylab.cli as cli\n"
            f"plain = cli.main({pooled + [str(plain)]!r})\n"
            "t = tracer.Tracer()\n"
            "t.install(charpolylab)\n"
            f"codes = [t.run_op(i, lambda a=a: cli.main(a)) for i, a in enumerate({runs!r})]\n"
            "metrics = tracer.layer_metrics(t.spans, t.counters)\n"
            f"traced = t.run_op(len(codes), lambda: cli.main({pooled + [str(traced)]!r}))\n"
            "print(json.dumps([codes, metrics, plain, traced]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    codes, metrics, plain_code, traced_code = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert {k: metrics[k] for k in _TRACED_COUNTS} == _TRACED_COUNTS
    assert plain_code == traced_code == 0
    for suffix in ("", ".summary.json"):
        assert (Path(f"{traced}{suffix}").read_bytes()
                == Path(f"{plain}{suffix}").read_bytes())
