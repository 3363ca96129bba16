"""Command line for the charpolylab verification and experiment commands.

It handles configuration, seeding, parallel execution, and CSV/JSON
emission.  Every command is a pure function of its RunConfig (seed
included): outputs are byte-identical across repeated runs and thread
counts.  mem-verify, branch-verify and brw-verify are deterministic: they
accept --seed and ignore it.  Files are written atomically (temp file +
rename).  Exit codes: 0 success, 1 a --check assertion failed, 2
configuration error, 3 a numerical or sampling routine broke down.
"""

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._emit import emit
from ._rng import substream, task_seed
from . import charpoly, ensemble, extremes, gaussfield, momentlab, orthopoly
from .gaussfield import BiasSpec

__all__ = ["RunConfig", "run", "emit", "main"]

# commands that need more than the common minimums: log(log N) needs N >= 2,
# fs-verify's batch-means standard error needs two draws, and
# matching-verify compares the first half of its samples with all of them
_COMMAND_MINIMUMS = {
    "max-experiment": {"N": 2},
    "upperbound-verify": {"N": 2},
    "fs-verify": {"n_samples": 2},
    "matching-verify": {"n_samples": 2},
}

# lowerbound-sim's points: covariance (factored in place) and factor hold <= points^2 each
_MAX_POINTS = 4096


@dataclass
class RunConfig:
    command: str
    N: int = 64
    n: int = 10
    n_samples: int = 100
    seed: int = 1
    threads: int = 1
    out_path: str = None
    check: bool = False
    delta: float = 0.2
    eta: int = 3
    y: float = 2.0
    epsilon: float = 0.3

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        minimums = {"N": 1, "n_samples": 1, "seed": 0, "threads": 1, "y": 1}
        minimums.update(_COMMAND_MINIMUMS.get(self.command, {}))
        for name, lo in minimums.items():
            if getattr(self, name) < lo:
                raise ConfigError(f"{name} must be >= {lo}")
        # more than one thread runs on forked worker processes
        if self.threads > 1:
            import multiprocessing
            if "fork" not in multiprocessing.get_all_start_methods():
                raise ConfigError("threads must be 1 where processes cannot fork")
        # matching-verify scatters up to 7 centers 1.5 epsilon apart in
        # pseudo-distance inside the radius-0.9 disk by rejection (5,000
        # tries).  The bound is measured, not derived: at 1/2 no 7-center
        # draw failed in 200,000, at 0.57 about 1 in 1,500 did, at 0.6 2 in 5
        if not 0.0 < self.epsilon <= 0.5:
            raise ConfigError("epsilon must lie in (0, 1/2]")
        if self.command == "lowerbound-sim":
            try:
                params = momentlab.LowerBoundParams(self.n, self.delta, self.eta)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            # one point per ray at each distinct height: the leaf n0 and b_r .. b_eta
            points = (len(momentlab.omega_grid(params))
                      * len({params.n0, *params.b[params.r:]}))
            if points > _MAX_POINTS:
                raise ConfigError(f"lowerbound-sim would sample up to {points} "
                                  f"points, above the bound {_MAX_POINTS}")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_gen_spectrum(cfg):
    spec = ensemble.sample_spectrum_gue(cfg.N, cfg.seed)
    checks = [("sorted", bool(np.all(np.diff(spec.eigenvalues) >= 0))),
              ("length", len(spec.eigenvalues) == cfg.N)]
    if cfg.out_path:
        emit(enumerate(spec.eigenvalues), cfg.out_path, "csv",
             header=["index", "eigenvalue"])
        emit({"N": spec.N, "model": "gue", "seed": cfg.seed,
              "sampler": "tridiagonal"}, str(cfg.out_path) + ".json", "json")
    return None, checks


def _cmd_max_experiment(cfg):
    columns, summary = extremes.max_experiment(cfg.N, cfg.n_samples, cfg.y,
                                               cfg.seed, threads=cfg.threads)
    if cfg.out_path:
        names = ["m_star", "m_star_over_logN", "m_star_centered_2nd_order",
                 "m_star_reg"]
        rows = [[cfg.N, i, *row]
                for i, row in enumerate(zip(*(columns[k] for k in names)))]
        emit(rows, cfg.out_path, "csv", header=["N", "seed_index", *names])
        emit(summary, str(cfg.out_path) + ".summary.json", "json")
    med = summary["ratio_quartiles"][1]
    med2 = summary["second_order_quartiles"][1]
    checks = [("median_ratio_band", 0.55 <= med <= 1.1),
              ("median_second_order_band", -3.0 <= med2 <= 4.0)]
    return summary, checks


def _cmd_fs_verify(cfg):
    table = orthopoly.OPTable(cfg.N)
    fixed = [((0.3 + 0.4j,), (-0.2 + 0.5j,)),
             ((-0.35 + 0.45j,), (0.25 + 0.6j,))]
    # one draw serves both cases: their Monte Carlo errors are correlated
    mcs = charpoly.mc_char_ratio(cfg.N, [p for p, _ in fixed], [q for _, q in fixed],
                                 cfg.n_samples, task_seed(cfg.seed, 0))
    rows, checks = [], []
    for i, ((p, q), (mc, se)) in enumerate(zip(fixed, mcs)):
        f = charpoly.fs_balanced(table, p, q)
        # se is the standard error of the complex mean, both components
        z = float(abs(mc - f) / se)
        name = f"balanced_l1_case{i}"
        rows.append([name, cfg.N, float(f.real), float(mc.real), float(se), z])
        checks.append((name, z <= 3.0))
    if cfg.out_path:
        charpoly.write_verification_report(rows, cfg.out_path)
    return rows, checks


def _cmd_mem_verify(cfg):
    rows = []
    for N in (64, 128, 256, 512):
        rr = 1.0 - N ** -0.5
        z = 1j * rr
        w = 1j * rr * np.exp(1j * 0.4 * N ** -0.5)
        bias = BiasSpec(plus_points=(z,), minus_points=(w,))
        ratio = momentlab.mem_ratio(orthopoly.OPTable(N), bias)
        rows.append([N, "singleton_pair_ray", ratio, abs(ratio - 1.0)])
    if cfg.out_path:
        emit(rows, cfg.out_path, "csv", header=["N", "bias_id", "ratio", "abs_error"])
    errs = [r[3] for r in rows]
    checks = [("strictly_decreasing", all(a > b for a, b in zip(errs, errs[1:]))),
              ("final_below_quarter", errs[-1] < 0.25)]
    return rows, checks


def _cmd_branch_verify(cfg):
    from .hyperbolic import branch_profile_grid
    thetas = np.linspace(-math.pi, math.pi, 10001)[1:-1]
    # the profile is symmetric in (h, j): one block call per h over j >= h
    # fills both (h, j) and (j, h)
    n = 26
    worst = np.zeros((n, n))
    max_c = 0.0
    for h in range(n):
        errors, refined = branch_profile_grid(h, np.arange(h, n), thetas)
        worst[h, h:] = worst[h:, h] = np.abs(errors).max(axis=1)
        max_c = max(max_c, float(refined.max()))
    max_abs = float(worst.max())
    rows = [[h, j, float(worst[h, j])] for h in range(n) for j in range(n)]
    if cfg.out_path:
        emit(rows, cfg.out_path, "csv", header=["h", "j", "max_abs_error"])
    checks = [("uniform_error_bound", max_abs <= 1.0),
              ("refined_constant", max_c <= 10.0)]
    return {"max_abs_error": max_abs, "refined_constant": max_c}, checks


def _cmd_matching_verify(cfg):
    rng = substream(cfg.seed, 0)
    sups = []
    for t in range(cfg.n_samples):
        k = int(rng.integers(0, 3))
        ell = int(rng.integers(0, 6 - k))
        if k + ell == 0:
            k = 1
        config = momentlab.random_pair_configuration(k, ell, cfg.epsilon, rng)
        sups.append(momentlab.matching_subset_sup(config))
    sups = np.array(sups)
    half = sups[: len(sups) // 2].max()
    full = sups.max()
    rows = [[i, s] for i, s in enumerate(sups)]
    if cfg.out_path:
        emit(rows, cfg.out_path, "csv", header=["config_index", "subset_sup"])
    checks = [("finite", bool(np.isfinite(full))),
              ("stable", full <= 2.0 * half)]
    return {"sup_first_half": float(half), "sup_full": float(full)}, checks


def _cmd_lowerbound_sim(cfg):
    params = momentlab.LowerBoundParams(n=cfg.n, delta=cfg.delta, eta=cfg.eta)
    res, route = momentlab.lower_bound_mc(params, cfg.n_samples, cfg.seed)
    print(f"route: covariance factor = {route}", file=sys.stderr)
    doc = asdict(res)
    if cfg.out_path:
        emit(doc, cfg.out_path, "json")
    br = params.b[params.r]
    small = [b for b in res.per_m_bins if b["m"] <= 0.75 * br]
    checks = [
        ("cauchy_schwarz", res.p_z_positive >= res.cs_ratio - 2.0 *
         math.hypot(res.p_z_se, res.cs_ratio_se)),
        ("bias_max_exceeds", res.bias_max_exceed_frac >= 0.5),
        ("small_m_factorization",
         all(abs(b["factorization_ratio"] - 1.0) <= 0.3 for b in small)),
    ]
    return doc, checks


def _cmd_upperbound_verify(cfg):
    # tail fraction of the grid maximum
    columns, _ = extremes.max_experiment(cfg.N, cfg.n_samples, None, cfg.seed,
                                         threads=cfg.threads)
    thresh = math.log(cfg.N) + 3.0 * math.log(math.log(cfg.N))
    tail = float(np.mean(columns["m_star"] > thresh))
    # Chebyshev-grid factor on random polynomials
    rng = substream(cfg.seed, 1)
    worst_ratio = 0.0
    for t in range(50):
        deg = int(rng.integers(4, 257))
        roots = rng.uniform(-1.1, 1.1, deg) + 1j * rng.uniform(-0.3, 0.3, deg)
        worst_ratio = max(worst_ratio,
                          extremes.factor14_check(deg, roots=roots)["max_ratio"])
    # Laplace transform bound over the verification grid
    tab = orthopoly.OPTable(64)
    c_emp = 0.0
    for x in (-0.6, -0.2, 0.0, 0.3, 0.7):
        for im in (1.0 / 64, 0.05, 0.2, 1.0):
            q = x + 1j * im
            for sign in (+1, -1):
                v = charpoly.exp_pm2_moment(tab, q, sign)
                bound = v * im / ((1.0 + im) * orthopoly.r_weight(q) ** 2)
                c_emp = max(c_emp, bound)
    doc = {"tail_fraction": tail, "worst_factor_ratio": worst_ratio,
           "laplace_bound_constant": c_emp}
    if cfg.out_path:
        emit(doc, cfg.out_path, "json")
    checks = [("tail_below_5pct", tail < 0.05),
              ("factor14", worst_ratio <= 14.0),
              ("laplace_bound", c_emp <= 100.0)]
    return doc, checks


def _cmd_brw_verify(cfg):
    from .hyperbolic import ray_point
    grid = [ray_point(h) * np.exp(1j * th)
            for h in range(2, 9) for th in np.linspace(-0.5, 0.5, 9)]
    doc = {"G": gaussfield.brw_check(grid, gaussfield.kernel_g()),
           "T": gaussfield.brw_check(grid, gaussfield.kernel_t())}
    lo, hi = doc["G"]["k_offset_range"]
    center = gaussfield.K_OFFSET_G
    if cfg.out_path:
        emit(doc, cfg.out_path, "json")
    checks = [("k_offset_width", hi - lo <= 2.0),
              ("k_offset_around_center", lo >= center - 1.0 and hi <= center + 1.0),
              ("c_b_finite", math.isfinite(doc["G"]["c_b"]))]
    return doc, checks


_RUNNERS = {
    "gen-spectrum": _cmd_gen_spectrum,
    "max-experiment": _cmd_max_experiment,
    "fs-verify": _cmd_fs_verify,
    "mem-verify": _cmd_mem_verify,
    "branch-verify": _cmd_branch_verify,
    "matching-verify": _cmd_matching_verify,
    "lowerbound-sim": _cmd_lowerbound_sim,
    "upperbound-verify": _cmd_upperbound_verify,
    "brw-verify": _cmd_brw_verify,
}
COMMANDS = tuple(_RUNNERS)


# DeterminantError and the factor-14 and ordering violations are
# ArithmeticErrors; LinAlgError is a failed dsterf or covariance factor;
# RuntimeError the h-chain bound or the pair scatter; MemoryError an array
# the machine refused (fs-verify holds cases x samples complex values, plus
# one block of draws, whose size does not grow with the samples)
_BREAKDOWNS = (ArithmeticError, np.linalg.LinAlgError, RuntimeError, MemoryError)


def run(config):
    """Execute a command; returns the process exit code."""
    try:
        _, checks = _RUNNERS[config.command](config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _BREAKDOWNS as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3
    if config.check:
        failed = [name for name, ok in checks if not ok]
        for name, ok in checks:
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
        return 1 if failed else 0
    return 0


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# RunConfig's fields are the configuration keys; two are spelled
# differently as flags and may be spelled that way in a config file too
_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
_ALIAS = {"samples": "n_samples", "out": "out_path"}
_FLAGS = {name: key for key, name in _ALIAS.items()}


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _coerce(key, kind, val):
    try:
        return _BOOLS[val.lower()] if kind is bool else kind(val)
    except (KeyError, ValueError):
        expected = "true/false, 1/0 or yes/no" if kind is bool else kind.__name__
        raise ConfigError(f"{key} must be {expected}; got {val!r}") from None


def build_config(command, file_values, flag_values):
    kwargs = {"command": command}
    for source in (file_values, flag_values):
        for key, val in source.items():
            name = _ALIAS.get(key, key)
            if name not in _TYPES:
                raise ConfigError(f"unknown configuration key {name!r}")
            kwargs[name] = _coerce(key, _TYPES[name], val) if isinstance(val, str) else val
    return RunConfig(**kwargs)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="charpolylab",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key-value config file")
    for name, kind in _TYPES.items():
        how = {"action": "store_true"} if kind is bool else {"type": kind}
        parser.add_argument("--" + _FLAGS.get(name, name), dest=name, default=None, **how)
    args = parser.parse_args(argv)

    try:
        file_values = _parse_config_file(args.config) if args.config else {}
        flag_values = {k: v for k, v in vars(args).items()
                       if v is not None and k not in ("command", "config")}
        config = build_config(args.command, file_values, flag_values)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
