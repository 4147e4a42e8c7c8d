"""Case lists, sizes, references and tolerances of the four workloads.

Models are written in persistx's experiment schema and built with
``persistx.model_from_json``, so this file imports nothing from the program.

References are closed forms where one exists. Otherwise they are the
operator route on a finer grid and a wider truncation than the program's
defaults, extrapolated in N; the derivation of each is in README.md.
"""

import math
import os

NPROC = len(os.sched_getaffinity(0))

GAUSS = {"kind": "gaussian", "sd": 1.0}
UNIF = {"kind": "uniform", "lo": -1.0, "hi": 1.0}
EXP = {"kind": "exponential"}
RADEMACHER = {"kind": "rademacher"}


def ar(coeffs, innovation):
    return {"process": "ar", "coeffs": list(coeffs), "innovation": innovation}


def ma(coeffs, innovation):
    return {"process": "ma", "coeffs": list(coeffs), "innovation": innovation}


# Persistence exponents the checks compare against.
REF = {
    "ar1_gauss_0.4": 0.6477667,     # operator, M=15, N=1600..3200
    "ar1_gauss_0.9": 0.9192402,     # operator, M=20..25, N=1600..3200
    "ar2_gauss_0.3_0.2": 0.7003322,  # operator, M=12, N=150..250, extrapolated
    "ar1_unif_m1": 1.0 / math.pi,
    "ar1_exp_m1": 0.5,
    "ma1_gauss_1": 2.0 / math.pi,
    "ma1_exp_m0.5": 0.5,
    "ma1_gauss_m0.99": 0.0070033,   # operator, N=3200; not converged in N
    "ma1_rademacher_1": (1.0 + math.sqrt(5.0)) / 4.0,
}

# An operator λ may sit at most this far from its reference: twice the gap
# measured at the commit that introduced the benchmark, and never less than
# 1e-4. Keys are "<workload>/<case>". The near-degenerate MA(1) a1=-0.99 at
# N=400 is 8.6e-3 off its N=3200 value, so that check only guards against gross
# failure; its gap is reported as operator.lambda_err.ma1_gauss_m0.99.
OPERATOR_TOL_FLOOR = 1e-4
OPERATOR_TOL = {
    "operator/ar1_gauss_0.9": 3e-4,      # default truncation M=9.7 is short
    "operator/ma1_gauss_m0.99": 1.8e-2,
    "suite/ma1_gauss_1": 1.4e-4,
    "suite/ar2_gauss_0.3_0.2": 1.1e-4,
}

# The same case is also held to its own N=400 value, so a solver change that
# moves λ shows. Power iteration stops at 0.0155960741; the dense eigenvalue
# of the same 400x400 kernel is 0.0155951448, 9.3e-7 lower, because the top
# two eigenvalues lie 7.5e-7 apart. The tolerance, 1e-4 of the value, admits
# both and nothing coarser. Keys as in OPERATOR_TOL: (value, tolerance).
OPERATOR_PINNED = {
    "operator/ma1_gauss_m0.99": (0.0155960741, 1.6e-6),
}

# Monte Carlo λ̂ must lie within MC_BAND[method] reported half-widths of the
# reference. Reported half-widths under-cover. Over 16-24 seeds the sd of
# z = (λ̂ - λ) / half_width was 0.52-0.94 for every crude case (largest |z|
# 2.9) and 0.9-2.4 for the splitting cases (2.4 for AR(1) a1=0.9, n=200;
# largest |z| 5.0), against 0.5 for an honest half-width. Each band keeps
# every case of its method at least 5 measured sd from a false failure.
MC_BAND = {"crude": 6.0, "splitting": 12.0}


def operator_tol(key):
    return OPERATOR_TOL.get(key, OPERATOR_TOL_FLOOR)


# -- crude: vectorised path sampling, threads = nproc -------------------------
CRUDE_HORIZON = 16
CRUDE_REPS = 1_000_000
CRUDE = [
    ("ar1_gauss_0.4", ar([0.4], GAUSS)),
    ("ar1_unif_m1", ar([-1.0], UNIF)),
    ("ar1_exp_m1", ar([-1.0], EXP)),
    ("ma1_gauss_1", ma([1.0], GAUSS)),
    ("ar2_gauss_0.3_0.2", ar([0.3, 0.2], GAUSS)),
]

# -- splitting: the per-step Python loop ---------------------------------------
SPLIT_PARTICLES = 100_000
# (name, model, horizon n, fit window over the horizon list or None)
SPLIT_DEEP = [
    ("ar1_gauss_0.9", ar([0.9], GAUSS), 200, None),
    ("ma1_exp_m0.5", ma([-0.5], EXP), 100, (50, 100)),
    ("ar1_exp_m1", ar([-1.0], EXP), 100, (50, 100)),
]
# Replicate set behind simulate.split_cost_s: K independent runs at small P.
SPLIT_REP_NAME = "ar1_gauss_0.9"
SPLIT_REP_MODEL = ar([0.9], GAUSS)
SPLIT_REP_K = 64
SPLIT_REP_PARTICLES = 2000
SPLIT_REP_HORIZON = 100
SPLIT_TARGET_SD = 0.01


def replicate_seed(seed, k):
    return seed * 1000 + k


# -- operator: grid, assembly and power iteration ------------------------------
# (name, model, solve_operator keyword arguments)
OPERATOR = [
    ("ar1_unif_m1", ar([-1.0], UNIF), {"n": 400}),
    ("ar1_gauss_0.9", ar([0.9], GAUSS), {"n": 1600, "delta": "auto"}),
    ("ma1_gauss_1", ma([1.0], GAUSS), {"m": 8.0, "n": 800}),
    ("ma1_exp_m0.5", ma([-0.5], EXP), {"n": 800}),
    ("ma1_gauss_m0.99", ma([-0.99], GAUSS), {"n": 400}),
    ("ar2_gauss_0.3_0.2", ar([0.3, 0.2], GAUSS), {"n": 200, "delta": "auto"}),
]

# -- cli: the README's command lines, one process each -------------------------
# (name, argv after "python -m persistx.cli"); {seed}, {config} and {out_dir}
# are filled in per run.
CLI = [
    ("simulate_crude",
     "simulate --process ar --coeffs=-1 --innovation uniform:-1,1 --init iid "
     "--n 16 --reps 1000000 --seed {seed}"),
    ("simulate_splitting",
     "simulate --process ar --coeffs=-1 --innovation exponential --method splitting "
     "--n 100 --particles 100000 --window 50:100 --seed {seed}"),
    ("operator", "operator --process ma --coeffs 1 --innovation gaussian:1 --M 8 --N 800"),
    ("oracle_ma1_exp", "oracle --case ma1-exponential --a1=-0.5"),
    ("oracle_rademacher", "oracle --case rademacher --convention gt --n 6"),
    ("compare",
     "compare --process ar --coeffs=-1 --innovation uniform:-1,1 --reps 200000 "
     "--N 400 --seed {seed}"),
    ("sweep_monotonicity",
     "sweep --kind monotonicity --process ar --coeffs 0 --innovation gaussian:1 "
     "--coeff-grid 0;0.1;0.2;0.3 --delta auto"),
    ("sweep_convergence",
     "sweep --kind convergence --process ar --coeffs 0.4 --innovation gaussian:1 "
     "--Ms 4,6,8 --Ns 100,200,400"),
    ("sweep_suite", "sweep --kind suite --config {config} --out-dir {out_dir}"),
]

# Reference of each compare case in suite.json, by case name.
SUITE_REF = {
    "ar1_unif_m1": REF["ar1_unif_m1"],
    "ma1_gauss_1": REF["ma1_gauss_1"],
    "ar1_exp_m1_split": REF["ar1_exp_m1"],
    "ma1_exp_m0.5_split": REF["ma1_exp_m0.5"],
    "ma1_rademacher_1": REF["ma1_rademacher_1"],
    "ar2_gauss_0.3_0.2": REF["ar2_gauss_0.3_0.2"],
}


def cli_argv(template, seed, config, out_dir):
    # split before filling in, so a path with spaces stays one argument
    return [tok.format(seed=seed, config=config, out_dir=out_dir) for tok in template.split()]
