import csv
import io
import json
import math
import multiprocessing
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charpolylab import (_lapack, charpoly, cli, extremes, momentlab,
                         orthopoly)
from charpolylab._rng import substream, task_seed
from charpolylab.gaussfield import GaussKernel, cov_g
from charpolylab.orthopoly import DeterminantError
from charpolylab.cli import (ConfigError, RunConfig, build_config, emit, main,
                             run)
from oracles import branch_profile_row


def test_emit_csv_roundtrip(tmp_path):
    # records other than a dict are CSV rows: a list, or a generator such as
    # gen-spectrum's enumerate(...), which writes the same bytes
    path, gen_path = tmp_path / "out.csv", tmp_path / "gen.csv"
    rows = [[1, 0.1 + 2e-17, -3.5], [2, 1.0 / 3.0, 7.0]]
    emit(rows, path, header=["a", "b", "c"])
    emit((row for row in rows), gen_path, header=["a", "b", "c"])
    assert gen_path.read_bytes() == path.read_bytes()
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["a", "b", "c"]
    for row, orig in zip(back[1:], rows):
        assert float(row[1]) == orig[1]
        assert float(row[2]) == orig[2]


def test_emit_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], path, header=["x", "y"])
    assert path.read_text() == "x,y\n"


def test_emit_json(tmp_path):
    # a dict is written as JSON
    path = tmp_path / "out.json"
    doc = {"b": [0.25, 0.5], "a": 1}
    emit(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    assert json.loads(path.read_text()) == doc


def test_emit_json_refuses_non_native_values(tmp_path):
    # a numpy integer is not native JSON: nothing is written, not even a temp
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        emit({"k": np.int64(1)}, path)
    assert list(tmp_path.iterdir()) == []


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("N 32\nseed 5\nsamples 3\n")
    config = build_config("max-experiment", cli._parse_config_file(cfgfile),
                          {"seed": 9})
    assert config.N == 32
    assert config.seed == 9          # flag overrides file
    assert config.n_samples == 3


@pytest.mark.parametrize("text,expected", [
    ("false", False), ("FALSE", False), ("0", False), ("No", False),
    ("true", True), ("True", True), ("1", True), ("yes", True),
])
def test_config_file_check_values(tmp_path, text, expected):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"check {text}\n")
    file_values = cli._parse_config_file(cfgfile)
    assert build_config("matching-verify", file_values, {}).check is expected
    # an explicit --check flag wins over the file
    assert build_config("matching-verify", file_values, {"check": True}).check is True


def test_config_file_check_false_runs_no_checks(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("check false\nsamples 4\n")
    assert main(["matching-verify", "--config", str(cfgfile)]) == 0
    assert "check " not in capsys.readouterr().out


@pytest.mark.parametrize("text", ["maybe", "", "2", "on"])
def test_config_file_bad_check_value_exits_2(tmp_path, capsys, text):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"check {text}\n")
    assert main(["matching-verify", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    # the command is the positional argument, never a configuration key
    for text in ("frobnicate 3\n", "model gue\n", "stride 5\n",
                 "command max-experiment\n"):
        cfgfile.write_text(text)
        assert main(["max-experiment", "--config", str(cfgfile)]) == 2
        key = text.split()[0]
        assert capsys.readouterr().err == (
            f"configuration error: unknown configuration key {key!r}\n")


@pytest.mark.parametrize("text,message", [
    ("samples 1.5", "samples must be int; got '1.5'"),
    ("n_samples = ten", "n_samples must be int; got 'ten'"),
    ("delta 0.2.1", "delta must be float; got '0.2.1'"),
])
def test_config_file_type_error_names_the_key(tmp_path, capsys, text, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text + "\n")
    assert main(["matching-verify", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_help_opens_with_a_complete_sentence(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    description = " ".join(capsys.readouterr().out.split("\n\n")[1].split())
    assert description == ("Command line for the charpolylab verification and "
                           "experiment commands.")


def test_flags_and_config_keys_are_the_runconfig_fields(monkeypatch, capsys):
    fields_of = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
    spelled = {"n_samples": "samples", "out_path": "out"}
    with pytest.raises(SystemExit):
        main(["gen-spectrum", "--help"])
    flags = set(re.findall(r"--(\w+)", capsys.readouterr().out)) - {"help", "config"}
    assert flags == {spelled.get(name, name) for name in fields_of}
    # each field is set by its one flag and by its config keys (the field
    # name and the flag's spelling), to a value of the field's type
    values = {"N": "5", "n": "3", "n_samples": "7", "seed": "11", "threads": "3",
              "out_path": "x.csv", "check": "true", "delta": "0.25", "eta": "2",
              "y": "1.5", "epsilon": "0.4"}
    assert set(values) == set(fields_of)
    default = RunConfig(command="gen-spectrum")
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    for name, text in values.items():
        flag = spelled.get(name, name)
        main(["gen-spectrum", f"--{flag}"] + ([] if name == "check" else [text]))
        value = getattr(seen[-1], name)
        assert type(value) is fields_of[name] and value != getattr(default, name)
        for key in {name, flag}:
            assert getattr(build_config("gen-spectrum", {key: text}, {}), name) == value


def test_stride_flag_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound-sim", "--stride", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stride 5" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["lowerbound-sim", "--n", "13"],
    ["lowerbound-sim", "--n", "10", "--eta", "9"],
    ["max-experiment", "--y", "0.5"],
    ["max-experiment", "--N", "1"],
    ["upperbound-verify", "--N", "1"],
    ["matching-verify", "--samples", "1"],
    ["fs-verify", "--samples", "1"],
    ["matching-verify", "--epsilon", "0"],
    ["matching-verify", "--epsilon", "1"],
    ["matching-verify", "--epsilon", "0.6", "--samples", "100"],
    ["branch-verify", "--threads", "0"],
    ["max-experiment", "--seed", "-1"],
    ["fs-verify", "--seed", "-1"],
    ["max-experiment", "--y", "nan"],
    ["max-experiment", "--y", "inf"],
    ["lowerbound-sim", "--delta", "nan"],
    ["matching-verify", "--epsilon=-inf"],
    ["lowerbound-sim", "--n", "10", "--delta", "0.45"],
    ["lowerbound-sim", "--delta", "0.6"],
    ["lowerbound-sim", "--eta", "0"],
], ids=["depth_over_cap", "eta_over_depth", "shift_below_one",
        "max_experiment_n1", "upperbound_n1", "matching_one_sample",
        "fs_verify_one_sample",
        "epsilon_zero", "epsilon_one", "epsilon_over_half", "zero_threads",
        "max_experiment_negative_seed", "fs_verify_negative_seed",
        "shift_nan", "shift_inf", "delta_nan", "epsilon_minus_inf",
        "no_barrier_reaches_boundary", "delta_over_half", "eta_zero"])
def test_out_of_range_parameters_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1


def test_depth_rules_bind_lowerbound_sim_alone(capsys):
    # LowerBoundParams states the rules for n, delta and eta; the commands
    # that never read them accept any finite value
    for args in (["--n", "1"], ["--eta", "0"]):
        assert main(["lowerbound-sim"] + args) == 2
        assert capsys.readouterr().err == ("configuration error: "
                                           "need eta >= 1, n >= 2\n")
    for command in cli.COMMANDS:
        if command != "lowerbound-sim":
            assert RunConfig(command=command, n=1, eta=0, delta=0.6)


@pytest.mark.parametrize("values,points", [
    ({"n": 8, "delta": 1e-300}, 29805),
    ({"n": 12, "delta": 0.1}, 39807),
], ids=["tiny_delta", "depth_12_delta_tenth"])
def test_lowerbound_point_count_is_bounded(values, points):
    # the bound is checked on the configuration alone: these runs would ask
    # numpy for gigabytes, so they are never started here
    as_text = {k: str(v) for k, v in values.items()}
    for build in (lambda: RunConfig(command="lowerbound-sim", **values),
                  lambda: build_config("lowerbound-sim", as_text, {})):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == (f"lowerbound-sim would sample up to {points} "
                                  "points, above the bound 4096")
    # the largest configuration the benchmark and the criteria run, at 1,614
    assert RunConfig(command="lowerbound-sim", n=10, delta=0.2, eta=3)
    # b_eta = n0 here, so the leaf is the last barrier point: 2,942 points
    assert RunConfig(command="lowerbound-sim", n=12, delta=0.2, eta=3)


class _Sampled(Exception):
    pass


@pytest.mark.parametrize("n,delta,eta", [
    (10, 0.2, 3), (10, 0.2, 4), (4, 0.2, 1), (8, 0.2, 3), (12, 0.2, 3),
    (9, 0.1, 1), (9, 0.05, 1), (12, 0.1, 3), (8, 0.05, 3)],
    ids=["defaults", "b_eta_is_n0", "r_is_eta_n4", "depth_8", "depth_12",
         "depth_9_tenth", "depth_9_twentieth", "depth_12_tenth", "four_heights"])
def test_lowerbound_point_count_is_exact(monkeypatch, n, delta, eta):
    # RunConfig's count is the number of points lower_bound_mc hands to
    # sample_gauss; with the bound at 0 it is read off the refusal, and the
    # sampler is never run
    monkeypatch.setattr(cli, "_MAX_POINTS", 0)
    with pytest.raises(ConfigError) as exc:
        RunConfig(command="lowerbound-sim", n=n, delta=delta, eta=eta)
    counted = int(re.search(r"up to (\d+) points", str(exc.value)).group(1))

    def sampled(points, *args):
        raise _Sampled(len(points))

    monkeypatch.setattr(momentlab, "sample_gauss", sampled)
    with pytest.raises(_Sampled) as got:
        momentlab.lower_bound_mc(momentlab.LowerBoundParams(n, delta, eta), 1, 1)
    assert got.value.args[0] == counted


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(ConfigError):
        RunConfig(command="nope")


def _failed_write_error(argv, capsys):
    """stderr of two runs of argv that must fail to write (exit 2); the
    line names the target, not the temp file's random name, so both runs
    print the same line."""
    errs = []
    for _ in range(2):
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and len(errs[0].splitlines()) == 1
    assert f"'{argv[-1]}'" in errs[0] and ".tmp" not in errs[0]


def test_unwritable_output_fails(capsys):
    _failed_write_error(["gen-spectrum", "--N", "8", "--seed", "1",
                         "--out", "/nonexistent-dir/x.csv"], capsys)


def test_output_onto_directory_exits_2_and_leaves_no_temp(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    _failed_write_error(["mem-verify", "--out", str(target)], capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


def test_emit_leaves_other_temp_files_alone(tmp_path):
    # each write has a temp file of its own, so a file named like another
    # writer's temp is neither overwritten nor renamed away
    path = tmp_path / "out.csv"
    other = tmp_path / "out.csv.tmp"
    other.write_text("another writer\n")
    emit([[1]], path, header=["x"])
    assert path.read_text() == "x\n1\n"
    assert other.read_text() == "another writer\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_gen_spectrum_roundtrip(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["gen-spectrum", "--N", "16", "--seed", "4",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 16
    meta = json.loads((tmp_path / "spec.csv.json").read_text())
    assert meta["N"] == 16 and meta["seed"] == 4


def test_fs_verify_report_is_lf_and_atomic(tmp_path):
    out = tmp_path / "fs.csv"
    assert main(["fs-verify", "--N", "8", "--samples", "200", "--seed", "1",
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    assert data.startswith(b"case_id,N,formula_value,mc_value,mc_stderr,z_score\n")
    assert [p.name for p in tmp_path.iterdir()] == ["fs.csv"]


def test_fs_verify_at_n2048_passes(tmp_path):
    # raw determinants underflow to 0/0 here; the rescaled kernel does not
    out = tmp_path / "fs.csv"
    assert main(["fs-verify", "--N", "2048", "--samples", "500", "--seed", "1",
                 "--check", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(np.isfinite(float(r["mc_value"])) for r in rows)


def test_fs_verify_draws_once_per_block(monkeypatch):
    # both cases read one draw per block, block j drawn whole from
    # substream(seed, j); at N = 4 a block is 131,072 draws, so 200,001
    # draws make two blocks, which tile the samples in order
    streams, draws, blocks = [], [], []
    substream_, draw, char_poly = charpoly.substream, charpoly.tridiagonal_draw, charpoly.char_poly

    def counted_substream(seed, index):
        streams.append((seed, index, substream_(seed, index)))
        return streams[-1][2]

    def counted_draw(N, rng, size=()):
        draws.append((N, rng, size))
        return draw(N, rng, size)

    def counted_char_poly(a, b2, xs):
        blocks.append(len(a))
        return char_poly(a, b2, xs)

    monkeypatch.setattr(charpoly, "substream", counted_substream)
    monkeypatch.setattr(charpoly, "tridiagonal_draw", counted_draw)
    monkeypatch.setattr(charpoly, "char_poly", counted_char_poly)
    assert main(["fs-verify", "--N", "4", "--samples", "200001"]) == 0
    assert [(seed, index) for seed, index, _ in streams] == [(task_seed(1, 0), 0),
                                                             (task_seed(1, 0), 1)]
    assert [(N, size) for N, _, size in draws] == [(4, (131_072,)), (4, (68_929,))]
    assert all(rng is stream for (_, rng, _), (_, _, stream) in zip(draws, streams))
    assert blocks == [131_072, 68_929]


def test_fs_verify_case0_row_is_the_one_case_oracle(tmp_path):
    out = tmp_path / "fs.csv"
    assert main(["fs-verify", "--N", "16", "--samples", "3000", "--seed", "9",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    [(mc, se)] = charpoly.mc_char_ratio(16, [(0.3 + 0.4j,)], [(-0.2 + 0.5j,)], 3000,
                                        task_seed(9, 0))
    assert row["case_id"] == "balanced_l1_case0"
    assert float(row["mc_value"]) == float(mc.real)
    assert float(row["mc_stderr"]) == float(se)


@pytest.mark.parametrize("moves", [None, (2.9, 3.5)])
def test_fs_verify_reports_and_checks_one_z(tmp_path, capsys, monkeypatch, moves):
    # z = |mc - f| / se, with the values the command used, is the z_score
    # column and what --check compares with 3.  With `moves`, case i's
    # formula value is put moves[i] standard errors from its Monte Carlo
    # mean, so one case passes near the bound and the other fails
    mcs, fs = [], []
    mc_char_ratio, fs_balanced = charpoly.mc_char_ratio, charpoly.fs_balanced

    def spy_mc(*args):
        mcs.extend(mc_char_ratio(*args))
        return mcs

    def spy_fs(table, p, q):
        f = fs_balanced(table, p, q)
        if moves:
            mc, se = mcs[len(fs)]
            f = mc + moves[len(fs)] * se
        fs.append(f)
        return f

    monkeypatch.setattr(charpoly, "mc_char_ratio", spy_mc)
    monkeypatch.setattr(charpoly, "fs_balanced", spy_fs)
    out = tmp_path / "fs.csv"
    code = main(["fs-verify", "--N", "16", "--samples", "3000", "--seed", "9",
                 "--check", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    zs = [float(abs(mc - f) / se) for (mc, se), f in zip(mcs, fs)]
    assert len(rows) == len(zs) == 2
    assert [float(r["z_score"]) for r in rows] == zs
    assert [float(r["mc_stderr"]) for r in rows] == [float(se) for _, se in mcs]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"check balanced_l1_case{i}: {'pass' if z <= 3.0 else 'FAIL'}"
                     for i, z in enumerate(zs)]
    assert code == (0 if max(zs) <= 3.0 else 1)
    if moves:
        assert zs == pytest.approx(moves, rel=1e-12) and code == 1


def test_branch_verify_is_the_pair_by_pair_sweep(tmp_path, capsys):
    out = tmp_path / "bv.csv"
    assert main(["branch-verify", "--check", "--out", str(out)]) == 0
    thetas = np.linspace(-math.pi, math.pi, 10001)[1:-1]
    rows, max_c = [], 0.0
    for h in range(26):
        for j in range(26):
            errors, refined = branch_profile_row(h, j, thetas)
            rows.append([h, j, float(np.abs(errors).max())])
            max_c = max(max_c, float(refined.max()))
    ref = tmp_path / "ref.csv"
    emit(rows, ref, header=["h", "j", "max_abs_error"])
    assert out.read_bytes() == ref.read_bytes()
    # the checks read the sweep's largest error and refined constant
    checks = [("uniform_error_bound", max(r[2] for r in rows) <= 1.0),
              ("refined_constant", max_c <= 10.0)]
    assert capsys.readouterr().out.splitlines() == [
        f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]


def test_lowerbound_sim_reports_route_on_stderr(tmp_path, capsys):
    out = tmp_path / "lb.json"
    assert main(["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "20",
                 "--seed", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    routes = [line for line in captured.err.splitlines() if line.startswith("route:")]
    # the 19 distinct points of the n = 4, eta = 1 grid are full rank
    assert len(routes) == 1
    head, resid = routes[0].split(", residual ")
    assert head == "route: covariance factor = pivoted Cholesky, rank 19 of 19 points"
    resid, lapack = resid.split(", by ")
    value, bound = map(float, resid.split(" <= "))
    assert bound == 8.6e-09 and value <= bound
    assert lapack == "numpy's bundled OpenBLAS dpstrf"
    assert "route" not in captured.out
    doc = json.loads(out.read_text())
    assert "factorization" not in doc and "n_points" not in doc


def test_numpy_without_bundled_lapack_exits_2(tmp_path, capsys, monkeypatch):
    # a numpy built without scipy-openblas (against Accelerate, MKL or a
    # system LAPACK) has no such symbols: here the binding looks them up in
    # a library that lacks them.  The two commands that need LAPACK exit 2
    # with one line naming the routine; the others still run
    import _ctypes
    monkeypatch.setattr(_lapack, "_LIBRARY", _ctypes.__file__)
    _lapack._bind.cache_clear()
    for argv, routine in ((["gen-spectrum", "--N", "8"], "scipy_dsterf_64_"),
                          (["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "5"],
                           "scipy_openblas_get_num_threads64_")):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: numpy {np.__version__} bundles no OpenBLAS {routine}\n")
        assert list(tmp_path.iterdir()) == []
    assert main(["mem-verify", "--check"]) == 0


def test_mem_verify_evaluates_m_once_per_point(monkeypatch):
    # exp_moment_field evaluates M in the upper half-plane and takes a row
    # point below the axis from its conjugate's cells, so no point is
    # evaluated twice
    calls = []
    m_matrix = charpoly.m_matrix

    def counted(table, q):
        calls.append((table.N, complex(q)))
        return m_matrix(table, q)

    monkeypatch.setattr(charpoly, "m_matrix", counted)
    assert main(["mem-verify"]) == 0
    assert calls and all(q.imag >= 0 for _, q in calls)
    assert len(calls) == len(set(calls)), calls


def test_indefinite_covariance_exits_3(monkeypatch, capsys):
    neg = GaussKernel(lambda z, w: -cov_g(z, w))
    monkeypatch.setattr(momentlab, "kernel_g", lambda: neg)
    assert main(["lowerbound-sim", "--n", "4", "--eta", "1", "--samples", "20"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: LinAlgError: pivoted Cholesky, rank 0 of 19 "
                             "points: residual "), err
    assert " above bound " in err[0]


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["max-experiment", "--N", "64", "--samples", "4", "--seed", "7",
            "--y", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
    assert set(summary) == {"N", "n_samples", "y", "seed", "ratio_quartiles",
                            "second_order_quartiles"}


def test_thread_count_invariance(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["max-experiment", "--N", "64", "--samples", "6", "--seed", "3"]
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_exit_codes(monkeypatch):
    def fake_runner(cfg):
        return [("always_fails", False)]

    monkeypatch.setitem(cli._RUNNERS, "gen-spectrum", fake_runner)
    cfg = RunConfig(command="gen-spectrum", check=True)
    assert run(cfg) == 1
    cfg2 = RunConfig(command="gen-spectrum", check=False)
    assert run(cfg2) == 0


@pytest.mark.parametrize("exc", [
    ArithmeticError("imaginary residue on a real moment"),
    DeterminantError("det M deviates from 1"),
    ZeroDivisionError("r_weight is infinite at a support edge"),
    np.linalg.LinAlgError("covariance factor residual above bound"),
    RuntimeError("backward recurrence start index exceeds hard cap"),
    MemoryError("Unable to allocate 29.8 GiB for an array with shape "
                "(2, 2000000000) and data type complex128"),
], ids=["arithmetic", "determinant", "zero_division", "linalg", "runtime", "memory"])
def test_numerical_breakdown_exits_3(monkeypatch, capsys, exc):
    def failing_runner(cfg):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "gen-spectrum", failing_runner)
    assert run(RunConfig(command="gen-spectrum", check=True)) == 3
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def test_worker_breakdown_exits_3_and_leaves_no_process(monkeypatch, capsys):
    # a forked worker's exception reaches the parent as the in-process one
    # does, and the pool is gone when max_experiment returns, pass or fail
    argv = ["max-experiment", "--N", "16", "--samples", "4"]
    assert main(argv + ["--threads", "2"]) == 0
    assert multiprocessing.active_children() == []

    def failing(block, grid, y):
        raise MemoryError("Unable to allocate 1.0 TiB for an array")

    monkeypatch.setattr(extremes, "_grid_maxima", failing)
    capsys.readouterr()
    lines = []
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads]) == 3
        lines.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert lines[0] == lines[1] == (
        "error: MemoryError: Unable to allocate 1.0 TiB for an array\n")


def test_threads_need_fork(monkeypatch, capsys):
    # without fork a pool could not start: refused as configuration
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert main(["max-experiment", "--N", "16", "--samples", "2",
                 "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert main(["max-experiment", "--N", "16", "--samples", "2"]) == 0


def _beat_dense_max(orig):
    # the dense sup beats the grid max by e^3 > 14
    return lambda f, lo, hi: orig(f, lo, hi) + 3.0


@pytest.mark.parametrize("argv,attr,patch,error", [
    (["max-experiment"], "C_V", lambda orig: -1e3,
     "error: OrderingViolation: ordering violated: "),
    (["upperbound-verify"], "_golden_max_vec", _beat_dense_max,
     "error: Factor14Violation: sup ratio "),
    # unpatched: at y/N = 6.25e19 the shifted grid overflows, and the
    # ordering check fails on the non-finite maximum
    (["max-experiment", "--y", "1e21", "--check"], "C_V", lambda orig: orig,
     "error: OrderingViolation: non-finite maximum: "),
], ids=["ordering", "factor14", "ordering_non_finite"])
def test_violated_bound_exits_3(monkeypatch, capsys, argv, attr, patch, error):
    monkeypatch.setattr(extremes, attr, patch(getattr(extremes, attr)))
    assert main(argv + ["--N", "16", "--samples", "2"]) == 3
    err = capsys.readouterr().err.splitlines()
    # the one line names the violated bound: a change that skips the patched
    # check cannot pass silently
    assert len(err) == 1 and err[0].startswith(error), err


def test_start_index_breakdown_explains_itself(monkeypatch, capsys):
    monkeypatch.setattr(orthopoly, "_BACKWARD_HARD_CAP", 10)
    monkeypatch.setattr(orthopoly, "_BACKWARD_CAP_PER_N", 1)
    assert main(["fs-verify", "--N", "8", "--samples", "10"]) == 3
    assert capsys.readouterr().err == (
        "error: RuntimeError: backward h-chain at N=8, q=(-0.2+0.5j): "
        "start index 87 needed, bound 10\n")


# out-of-range, negative, zero, tiny, huge and non-finite values next to
# in-range ones; the sizes are always set, and small, since the defaults
# are not (lowerbound-sim's point count grows like e^{(1 - delta) n})
_SMALL = {"N": 16, "n": 4, "n_samples": 10}
_ODD_FLOATS = st.sampled_from([-1.0, 0.0, 1e-300, 1e12, 1e300,
                               math.nan, math.inf, -math.inf])
_FIELD_VALUES = {
    "N": st.integers(-1, 64),
    "n": st.integers(-1, 5),
    "n_samples": st.integers(-1, 20),
    "seed": st.one_of(st.integers(-1, 10), st.sampled_from([2**63, 10**30])),
    "threads": st.integers(-1, 2),
    "eta": st.one_of(st.integers(-1, 4), st.just(10**12)),
    "delta": st.one_of(st.floats(0.01, 0.49), _ODD_FLOATS),
    "y": st.one_of(st.floats(1.0, 10.0), _ODD_FLOATS),
    "epsilon": st.one_of(st.floats(0.01, 0.5), _ODD_FLOATS),
    "check": st.booleans(),
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(cli.COMMANDS),
       values=st.fixed_dictionaries({}, optional=_FIELD_VALUES), out=st.booleans())
@example(command="max-experiment", values={"N": 64, "n_samples": 2, "y": 1e12,
                                           "check": True}, out=True)
@example(command="max-experiment", values={"N": 16, "n_samples": 10, "y": 1e300},
         out=False)
@example(command="matching-verify", values={"epsilon": 1e-15, "n_samples": 20,
                                            "seed": 1}, out=True)
@example(command="fs-verify", values={"n_samples": 1, "check": True}, out=True)
def test_exit_code_contract(command, values, out):
    # every input ends in exit 0, 1, 2 or 3, never in an exception; a failed
    # run says why in one stderr line (warnings count as lines), and no
    # output leaves a temp file behind
    argv = [command]
    for name, v in {**_SMALL, **values}.items():
        flag = "--" + cli._FLAGS.get(name, name)
        if name == "check":
            argv += [flag] if v else []
        else:
            argv.append(f"{flag}={v!r}")
    with tempfile.TemporaryDirectory() as tmp:
        if out:
            argv += ["--out", os.path.join(tmp, "out")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{argv} raised {exc!r}")
        leftovers = [p for p in os.listdir(tmp) if p.endswith(".tmp")]
    assert rc in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if rc in (2, 3):
        assert len(lines) == 1, (argv, lines)
    assert not leftovers, argv


def test_epsilon_half_places_the_worst_case():
    # the largest configuration matching-verify draws: k = 2 separated and
    # l = 3 tight pairs, 7 centers 1.5 epsilon apart
    for seed in range(500):
        config = momentlab.random_pair_configuration(2, 3, 0.5, substream(seed, 0))
        assert len(config.pairs) == 5


def test_check_passing_command(tmp_path):
    # n = 10 is the calibrated operating point of the lower-bound checks
    assert main(["lowerbound-sim", "--n", "10", "--samples", "150", "--seed", "2",
                 "--check", "--out", str(tmp_path / "lb.json")]) == 0
    doc = json.loads((tmp_path / "lb.json").read_text())
    assert set(doc) == {f.name for f in fields(momentlab.LowerBoundResult)}
    for key in ("n", "eta", "r", "n0", "n_omega", "n_samples"):
        assert type(doc[key]) is int, key
    assert type(doc["barrier_vacuous"]) is bool
    assert type(doc["b"]) is list and type(doc["per_m_bins"]) is list
    assert all(type(b["m"]) is int and type(b["n_pairs"]) is int
               for b in doc["per_m_bins"])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_check_passes_at_defaults(command, seed):
    # every check holds where RunConfig's defaults put it; lowerbound-sim's
    # default depth n = 10 is where its bias_max_exceeds bound was calibrated
    assert main([command, "--check", "--seed", str(seed)]) == 0
