"""Cross-validation of the three exponent routes and theorem-driven sweeps.

compare() runs whichever of oracle / operator / Monte Carlo apply to a case,
scores every pair of routes by one rule against fixed tolerances and
returns the report payload, the same object `persistx compare` prints; the
sweeps check strict monotonicity in the coefficients, continuity along
coefficient paths, and convergence in the truncation; run_suite() executes
a JSON config of cases and property checks, writing one canonical JSON
report per case and a summary CSV. Reports are byte-reproducible from
(config, seed): wall times live only in the CSV.

Importing this module loads the model layer only; each function imports the
route modules it calls where it calls them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import (
    ARModel,
    Exponential,
    Gaussian,
    MAModel,
    PersistxError,
    Rademacher,
    Uniform,
    as_count,
    as_threads,
    drift,
    model_from_json,
    substream,
)

EXPLORATORY_LABEL = "unsupported regime - exploratory"
DEGENERATE_LABEL = "degenerate, beta=0"


class ConfigError(PersistxError):
    """A suite config failed validation; the message names the offending tag."""


# ---------------------------------------------------------------------------
# canonical JSON


def _json_scalar(obj):
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format_float(obj)
    return "null" if obj is None else json.dumps(str(obj))


def _write_json(obj, out, indent):
    """Append obj's canonical text to out; numpy arrays and tuples write as lists."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        brackets = "{}"
        entries = [(json.dumps(str(k)) + ": ", v)
                   for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        entries = [("", v) for v in obj]
    else:
        out.append(_json_scalar(obj))
        return
    if not entries:
        out.append(brackets)
        return
    pad = " " * indent
    out.append(brackets[0] + "\n")
    for i, (prefix, val) in enumerate(entries):
        out.append(pad + "  " + prefix)
        _write_json(val, out, indent + 2)
        out.append(",\n" if i < len(entries) - 1 else "\n")
    out.append(pad + brackets[1])


def format_float(x):
    """17-significant-digit decimal form, enough to round-trip exactly."""
    return "%.17g" % float(x)


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    out = []
    _write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# oracle detection


def detect_oracle(model):
    """Closed-form exponent for the model if one is known.

    Returns (exponent or None, info dict, label or None); the label flags
    degenerate MA cases and AR coefficient vectors outside every regime the
    theory covers.
    """
    from . import oracle as oracle_mod

    a = np.asarray(model.coeffs, dtype=float)
    innov = model.innovation
    info = {}
    regime = oracle_mod.classify_regime(model)
    if isinstance(model, ARModel):
        info["regime"] = regime["regime"]
        if regime["regime"] == "unclassified":
            return None, info, EXPLORATORY_LABEL
        if regime["regime"] == "supercritical":
            info["characteristic_root"] = regime["characteristic_root"]
            return regime["exponent"], info, None
    elif regime["degenerate"]:
        info["degenerate"] = True
        return 0.0, info, DEGENERATE_LABEL
    if np.all(a == 0.0):
        return oracle_mod.iid_exponent(innov), info, None
    if isinstance(model, ARModel):
        if model.order == 1 and a[0] == -1.0 and isinstance(innov, Uniform) and innov.lo < 0 < innov.hi:
            return oracle_mod.ar1_uniform_exponent(-innov.lo, innov.hi), info, None
        if model.order == 1 and a[0] < 0.0 and isinstance(innov, Exponential):
            return oracle_mod.ar1_exponential_exponent(a[0]), info, None
        return None, info, None
    if model.order == 1:
        a1 = a[0]
        if a1 == 1.0 and isinstance(innov, Uniform):
            return oracle_mod.ma1_uniform_exponent(-innov.lo, innov.hi), info, None
        if a1 == 1.0 and isinstance(innov, Gaussian):
            return oracle_mod.ma1_symmetric_exponent(), info, None
        if a1 == 1.0 and isinstance(innov, Rademacher):
            return oracle_mod.rademacher_exponent(model.convention), info, None
        if -1.0 < a1 < 0.0 and isinstance(innov, Exponential):
            return oracle_mod.ma1_exponential_exponent(a1), info, None
    return None, info, None


# ---------------------------------------------------------------------------
# comparison reports


# the fixed tolerance of each pair of routes; a key names its two routes
TOLERANCES = {"oracle_operator": 2e-3, "oracle_mc": 5e-3, "operator_mc": 5e-3}
# a Monte Carlo exponent's band, in half-widths of its fit
MC_BAND = 3.0
# the largest final gap a continuity sweep passes with
CONTINUITY_GAP_TOL = 1e-3
# the keys each optional section of a case may hold; the operator's solver
# rule itself is fixed
_SECTION_KEYS = {
    "operator": ("M", "N", "delta", "skip"),
    "mc": ("method", "horizons", "replicates", "particles", "threads", "window"),
}
# the top-level keys a case may hold: the runner's, the model schema's, the
# sections, and the lists the property checks take
_CASE_KEYS = ("name", "type", "check", "seed", "process", "order", "coeffs", "innovation",
              "initial", "convention", *_SECTION_KEYS, "Ms", "deltas", "threads")
# what each kind of case reads besides name, type, seed and the model keys:
# its top-level keys, and the keys it reads of each section
_CASE_READS = {
    "compare": ((), _SECTION_KEYS),
    "nonnegativity": (("check",), {"operator": ("M", "N", "delta")}),
    "conjugation": (("check", "deltas"), {"operator": ("M", "N")}),
    "truncation": (("check", "Ms"), {"operator": ("N",)}),
    "qbound": (("check",), {"mc": _SECTION_KEYS["mc"]}),
    "determinism": (("check", "threads"), {"mc": ("horizons", "replicates")}),
}
# the process a property check runs on, with its refusal (_check_process)
_CASE_PROCESS = {
    "conjugation": (ARModel, "conjugation invariance is an AR property"),
    "qbound": (MAModel, "the q-dependence bound is an MA property"),
}


def _check_keys(obj, known, where):
    """A key of obj outside known is a ConfigError that names it."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(unknown)}; "
                          f"known: {', '.join(known)}")


def _section(case, name):
    """A case's `name` section; a key outside _SECTION_KEYS[name] is a ConfigError."""
    section = case.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"the '{name}' section must be an object")
    _check_keys(section, _SECTION_KEYS[name], name)
    return section


def _mc_method(cfg):
    """The method of an mc section; one other than crude, splitting or none is
    a ConfigError."""
    method = cfg.get("method", "crude")
    if method not in ("crude", "splitting", "none"):
        raise ConfigError(f"unknown mc method {method!r}")
    return method


def run_mc(model, cfg, seed):
    """The Monte Carlo estimate a config section asks for, or None for "none".

    cfg keys: method (crude | splitting | none), horizons, replicates,
    particles, threads (a positive count whatever the method, though only
    crude reads it), and an optional fit window (i0, i1) that replaces the
    default one: two integers with 0 <= i0 < i1 <= len(horizons), on a
    horizon list in increasing order, checked before anything runs.
    """
    from . import simulate as simulate_mod

    method = _mc_method(cfg)
    if cfg.get("threads") is not None:
        as_threads(cfg["threads"])
    if method == "none":
        return None
    horizons = cfg.get("horizons")
    if horizons is None:
        horizons = list(range(0, 17 if method == "crude" else 61))
    window = cfg.get("window")
    if window is not None:
        # estimates take a scalar horizon as a list of one, and sort the list
        listed = np.atleast_1d(horizons)
        simulate_mod.check_window(window, len(listed))
        if np.any(listed[1:] < listed[:-1]):
            raise ValueError(f"fit window {window!r} indexes the horizons as listed, but "
                             f"the horizon list {listed.tolist()} is unsorted")
    if method == "crude":
        est = simulate_mod.estimate_crude(model, horizons, cfg.get("replicates", 200000), seed,
                                          threads=cfg.get("threads"))
    else:
        est = simulate_mod.estimate_splitting(model, horizons, cfg.get("particles", 20000), seed)
    if window is not None:
        est.lambda_hat, est.half_width = simulate_mod.fit_exponent(est, window)
        est.window = tuple(window)
    return est


def compare(case):
    """Run every applicable route for one case and score the differences.

    The case dict embeds the model schema plus optional "operator", "mc"
    and "seed" sections. It gets the suite's case checks before any route
    runs (_check_case): a top-level key outside _CASE_KEYS, an unknown mc
    method, an empty property list or a key that a compare case does not
    read is a ConfigError, a malformed count a ValueError. Each route gives
    (lambda, band), and one rule scores every pair:
    |lambda_a - lambda_b| <= max(band_a + band_b, TOLERANCES[pair]).
    A route that did not run, is labelled or has no finite exponent leaves
    its pairs unscored. Returns the report payload: the case, the oracle
    exponent with its info and label, each route's result (None when it did
    not run), the scored diffs and checks, the tolerances and the verdict.
    Wall times are not part of it.
    """
    from . import operator as operator_mod

    model = _check_case(case, "compare")
    seed = as_count(case.get("seed", 0), "seed")
    mccfg = _section(case, "mc")
    opcfg = _section(case, "operator")
    lam_oracle, info, label = detect_oracle(model)

    operator = None
    # the truncated kernel's spectral radius is not the exponent of a supercritical
    # AR (mass escapes [0, M] to +inf) nor of a degenerate MA (no positive exponent)
    exponent_is_spectral = info.get("regime") != "supercritical" and label != DEGENERATE_LABEL
    if exponent_is_spectral and model.innovation.has_density and not opcfg.get("skip"):
        operator = operator_mod.solve_operator(model, m=opcfg.get("M"), n=opcfg.get("N", 400),
                                               delta=opcfg.get("delta", 0.0)).to_json()

    est = run_mc(model, mccfg, seed)
    mc = est.to_json() if est is not None else None

    # a labelled oracle is not scored: a degenerate case has no positive exponent
    routes = {}
    if lam_oracle is not None and label is None:
        routes["oracle"] = (lam_oracle, 0.0)
    if operator:
        routes["operator"] = (operator["lambda"], 0.0)
    if mc and math.isfinite(mc["lambda_hat"]):
        routes["mc"] = (mc["lambda_hat"], MC_BAND * mc["half_width"])
    diffs, checks = {}, {}
    for key, tol in TOLERANCES.items():
        a, b = key.split("_")
        if a in routes and b in routes:
            (lam_a, band_a), (lam_b, band_b) = routes[a], routes[b]
            diffs[key] = abs(lam_a - lam_b)
            checks[key] = diffs[key] <= max(band_a + band_b, tol)
    return {
        "case": case,
        "label": label,
        "lambda_oracle": lam_oracle,
        "oracle_info": info,
        "operator": operator,
        "mc": mc,
        "diffs": diffs,
        "checks": checks,
        "tolerances": dict(TOLERANCES),
        "passed": all(checks.values()),
    }


# ---------------------------------------------------------------------------
# sweeps


def monotonicity_sweep(model, coeff_grid, m=None, n=200, delta="auto", threshold=1e-5):
    """Tilted-operator exponents along a componentwise increasing AR family.

    Requires a totally ordered grid of nonnegative coefficient vectors with
    sum below one (the regime where strict monotonicity is proven) and a
    log-concave innovation density with mass below zero. Passes when every
    consecutive increment exceeds the grid threshold.
    """
    from . import operator as operator_mod

    if not isinstance(model, ARModel):
        raise ValueError("the monotonicity sweep is for AR families")
    grid_vecs = [tuple(float(c) for c in np.atleast_1d(v)) for v in coeff_grid]
    if not grid_vecs:
        raise ValueError("empty coefficient grid")
    for vec in grid_vecs:
        if len(vec) != model.order:
            raise ValueError(f"coefficient vector {vec} does not match order {model.order}")
        if any(c < 0 for c in vec) or sum(vec) >= 1.0:
            raise ValueError(f"grid point {vec} violates a >= 0 with sum(a) < 1")
    for lo_vec, hi_vec in zip(grid_vecs, grid_vecs[1:]):
        if not (all(h >= l for l, h in zip(lo_vec, hi_vec)) and hi_vec != lo_vec):
            raise ValueError("coefficient grid must increase componentwise")
    if not isinstance(model.innovation, (Gaussian, Exponential, Uniform)):
        raise ValueError("monotonicity sweep needs a log-concave innovation density")
    if not model.innovation.cdf(0.0) > 0.0:
        raise ValueError("monotonicity sweep needs innovation mass below zero: without "
                         "it every path with a >= 0 survives and lambda = 1 throughout")
    results = [
        operator_mod.solve_operator(replace(model, coeffs=vec), m=m, n=n, delta=delta)
        for vec in grid_vecs
    ]
    lams = [res.lam for res in results]
    increments = [b - a for a, b in zip(lams, lams[1:])]
    passed = all(inc > threshold for inc in increments)
    return {
        "coeffs": [list(v) for v in grid_vecs],
        "lambdas": lams,
        "increments": increments,
        "threshold": threshold,
        # the tilt the solves used, with "auto" resolved
        "delta": results[0].delta,
        "passed": passed,
    }


def continuity_sweep(model, path_coeffs, target_coeffs, m=None, n=200, delta=0.0):
    """Exponent gaps along a coefficient path approaching a target.

    Passes when the gaps |lambda(a_k) - lambda(a)| are nonincreasing along
    the path and the final gap is below CONTINUITY_GAP_TOL.
    """
    from . import operator as operator_mod

    target = tuple(float(c) for c in np.atleast_1d(target_coeffs))
    path = [tuple(float(c) for c in np.atleast_1d(v)) for v in path_coeffs]
    if not path:
        raise ValueError("empty coefficient path")

    def lam_of(vec):
        return operator_mod.solve_operator(replace(model, coeffs=vec), m=m, n=n, delta=delta).lam

    lam_target = lam_of(target)
    lams = [lam_of(vec) for vec in path]
    gaps = [abs(l - lam_target) for l in lams]
    nonincreasing = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    passed = nonincreasing and gaps[-1] < CONTINUITY_GAP_TOL
    return {
        "path": [list(v) for v in path],
        "target": list(target),
        "lambda_target": lam_target,
        "lambdas": lams,
        "gaps": gaps,
        "nonincreasing": nonincreasing,
        "final_gap": gaps[-1],
        "final_gap_tol": CONTINUITY_GAP_TOL,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# property checks


def _prop_nonnegativity(case, seed):
    from . import operator as operator_mod

    model = model_from_json(case)
    opcfg = _section(case, "operator")
    # N defaults to 200 here and in the conjugation check; an absent M is
    # default_grid's default truncation, as in solve_operator
    grid = operator_mod.default_grid(model, opcfg.get("M"), opcfg.get("N", 200))
    op = operator_mod.assemble(model, grid, delta=opcfg.get("delta", 0.0))
    # every kernel entry is a structural zero or built from these arrays'
    # entries by sums and products
    parts = (op.kmat, op.base, op.coef, op.scale, op.upper)
    worst = min(float(part.min()) for part in parts if part is not None)
    rng = substream(seed, "prop", "nonneg")
    for _ in range(4):
        g = rng.random((grid.n,) * grid.d)
        worst = min(worst, float(op.apply(g).min()))
    return worst >= -1e-14, {"min_entry_or_image": worst}


def _prop_conjugation(case, seed):
    from . import operator as operator_mod

    del seed
    model = model_from_json(case)
    _check_process("conjugation", model)
    deltas = case.get("deltas", [0.0, 0.1, 0.5])
    opcfg = _section(case, "operator")
    lams = [operator_mod.solve_operator(model, m=opcfg.get("M"), n=opcfg.get("N", 200),
                                        delta=float(delta)).lam
            for delta in deltas]
    spread = max(lams) - min(lams)
    return spread <= 1e-8, {"deltas": list(deltas), "lambdas": lams, "spread": spread}


def _prop_truncation(case, seed):
    from . import operator as operator_mod

    del seed
    model = model_from_json(case)
    opcfg = _section(case, "operator")
    ms = case.get("Ms", [2.0, 4.0, 6.0])
    family = operator_mod.truncation_lambdas(model, ms, opcfg.get("N", 400))
    return family.pop("monotone"), family


def _ma_p0(model):
    """P(Z_0 >= 0) for an MA model, computed, not sampled: exact for a
    Rademacher law (oracle.rademacher_ma_pn), else E[1 - F(-s)], s the drift
    of xi_{-q}..xi_{-1}, on a q-fold Gauss-Legendre rule in u = F(xi), for
    the orders 1 to 4 that _check_process admits."""
    from . import operator as operator_mod, oracle as oracle_mod

    q = model.order
    innov = model.innovation
    if isinstance(innov, Rademacher):
        return oracle_mod.rademacher_ma_pn(model, 0)
    x, w = operator_mod.leggauss(min(2000, int(2.0 ** (18 / q))))
    xi = innov.quantile((x + 1.0) / 2.0)
    # xi_{k-q} varies along axis k of the tensor grid
    tail = 1.0 - innov.cdf(-drift(model.coeffs, [xi.reshape((-1,) + (1,) * (q - 1 - k))
                                                 for k in range(q)]))
    for _ in range(q):
        tail = tail @ (w / 2.0)
    return float(tail)


def _prop_qbound(case, seed):
    model = model_from_json(case)
    _check_process("qbound", model)
    p0 = _ma_p0(model)
    mccfg = dict(_section(case, "mc"))
    mccfg.setdefault("method", "crude")
    mccfg.setdefault("horizons", list(range(0, 13)))
    est = run_mc(model, mccfg, seed)
    bound = p0 ** (est.horizons // (model.order + 1)) + 4.0 * est.se
    margins = bound - est.p_hat
    return bool(np.all(est.p_hat <= bound)), {"p0": p0, "min_margin": float(margins.min())}


def _prop_determinism(case, seed):
    from . import simulate as simulate_mod

    model = model_from_json(case)
    mccfg = _section(case, "mc")
    horizons = mccfg.get("horizons", list(range(0, 9)))
    # two full blocks and a partial one, so thread schedules differ
    replicates = mccfg.get("replicates", 2 * simulate_mod.BLOCK + 1)
    thread_counts = case.get("threads", [1, 2, 8])
    payloads = []
    for threads in thread_counts:
        est = simulate_mod.estimate_crude(model, horizons, replicates, seed, threads=threads)
        payloads.append(canonical_json(est.to_json()))
    ok = all(p == payloads[0] for p in payloads)
    return ok, {"threads": thread_counts, "identical": ok}


PROPERTY_CHECKS = {
    "nonnegativity": _prop_nonnegativity,
    "conjugation": _prop_conjugation,
    "truncation": _prop_truncation,
    "qbound": _prop_qbound,
    "determinism": _prop_determinism,
}


# ---------------------------------------------------------------------------
# suite runner


@dataclass
class SuiteResult:
    records: list
    any_failed: bool
    out_dir: str


def load_config(config):
    """A suite config or compare case: a dict as it is, else parsed from a JSON file."""
    if isinstance(config, dict):
        return config
    text = Path(config).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _check_counts(case):
    """The property lists Ms, deltas and threads, where given, must be nonempty
    lists; the seed, operator N, mc replicates, particles and each horizon
    must be counts (model.as_count), and the mc threads and each listed
    thread count positive counts (model.as_threads)."""
    for key in ("Ms", "deltas", "threads"):
        if key in case and not (isinstance(case[key], list) and case[key]):
            raise ConfigError(f"{key} must be a nonempty list, got {case[key]!r}")
    opcfg, mccfg = case.get("operator", {}), case.get("mc", {})
    for section, key in ((case, "seed"), (opcfg, "N"), (mccfg, "replicates"),
                         (mccfg, "particles")):
        if key in section:
            as_count(section[key], key)
    if "threads" in mccfg:
        as_threads(mccfg["threads"])
    # a scalar horizon is a list of one
    horizons = np.atleast_1d(np.asarray(mccfg.get("horizons", []), dtype=object)).tolist()
    for value in horizons:
        as_count(value, "horizon")
    for value in case.get("threads", []):
        as_threads(value)


def _check_process(kind, model):
    """A model that the check `kind` does not run on is a ConfigError: a process
    other than _CASE_PROCESS names, or for qbound an MA order above 4."""
    process, refusal = _CASE_PROCESS.get(kind, (object, None))
    if not isinstance(model, process):
        raise ConfigError(refusal)
    # _ma_p0's rule takes the largest N with N^q <= 2^18 nodes, at most 2000;
    # at order 5 that N is 12, too few to beat the error of a Monte Carlo p_0
    if kind == "qbound" and model.order > 4:
        raise ConfigError(f"qbound computes p_0 for MA orders 1 to 4, got order {model.order}")


def _check_case(case, kind):
    """A case's model, once its top-level keys, sections, mc method, counts
    and the process its check runs on are checked, and last the keys that its
    kind (compare or a property check) reads; nothing is run."""
    _check_keys(case, _CASE_KEYS, "case")
    for name in _SECTION_KEYS:
        _section(case, name)
    method = _mc_method(case.get("mc", {}))
    model = model_from_json(case)
    _check_counts(case)
    _check_process(kind, model)
    if kind == "qbound" and method == "none":
        raise ConfigError("the qbound check bounds a Monte Carlo estimate, "
                          "so its mc method cannot be 'none'")
    top, sections = _CASE_READS[kind]
    unread = [key for key in ("check", "Ms", "deltas", "threads")
              if key in case and key not in top]
    unread += [f"{name}.{key}" for name in _SECTION_KEYS for key in case.get(name, {})
               if key not in sections.get(name, ())]
    if unread:
        raise ConfigError(f"a {kind} case does not read {', '.join(unread)}")
    return model


def _validate_case(case, index):
    """A case's type; its keys, sections, mc method, model, counts and the
    keys its kind reads are checked too (_check_case), nothing is run."""
    if not isinstance(case, dict):
        raise ConfigError(f"case {index} is not an object")
    ctype = case.get("type", "compare")
    if ctype == "property":
        check = case.get("check")
        if check not in PROPERTY_CHECKS:
            raise ConfigError(
                f"unknown property check {check!r} in case {index} "
                f"(known: {sorted(PROPERTY_CHECKS)})"
            )
    elif ctype != "compare":
        raise ConfigError(f"unknown case type {ctype!r} in case {index}")
    try:
        _check_case(case, case["check"] if ctype == "property" else "compare")
    except (ConfigError, ValueError) as e:
        raise ConfigError(f"case {index}: {e}") from e
    return ctype


def _summary_numbers(record):
    """The exponents and diffs of a compare report as CSV fields; blanks otherwise."""
    payload = record["payload"]
    if record["type"] != "compare" or "error" in record:
        return [""] * 6
    diffs = payload["diffs"]
    values = [payload["lambda_oracle"], (payload["operator"] or {}).get("lambda"),
              (payload["mc"] or {}).get("lambda_hat"), diffs.get("oracle_operator"),
              diffs.get("oracle_mc"), diffs.get("operator_mc")]
    return [format_float(x) if isinstance(x, (int, float)) else "" for x in values]


def run_suite(config, out_dir, threads=None):
    """Run a config of compare cases and property checks; write reports.

    The config's keys, seed and threads and every case's type, keys,
    sections, model, counts, process and name (a plain file name that no
    other case has) are checked first: one ConfigError that names every bad
    case raises before out_dir is created or any case runs. Then one
    canonical JSON file per case plus summary.csv are written under out_dir;
    the SuiteResult's any_failed is the verdict.
    """
    cfg = load_config(config)
    if not isinstance(cfg, dict) or "cases" not in cfg:
        raise ConfigError("config must be an object with a 'cases' list")
    _check_keys(cfg, ("cases", "seed", "threads"), "config")
    cases = cfg["cases"]
    if not isinstance(cases, list):
        raise ConfigError("'cases' must be a list")
    seed = as_count(cfg.get("seed", 0), "seed")
    config_threads = as_threads(cfg["threads"]) if "threads" in cfg else None
    threads = as_threads(threads) if threads is not None else config_threads

    prepared, problems = [], []
    names = set()
    for i, case in enumerate(cases):
        try:
            ctype = _validate_case(case, i)
        except ConfigError as e:
            problems.append(str(e))
            continue
        name = str(case.get("name", f"case-{i}"))
        # the name is the report's file name under out_dir
        if name in ("", ".", "..") or "/" in name or os.sep in name:
            problems.append(f"case {i}: name {name!r} is not a plain file name")
        elif name in names:
            problems.append(f"case {i}: name {name!r} repeats an earlier case's")
        names.add(name)
        prepared.append((name, ctype, case))
    if problems:
        raise ConfigError("; ".join(problems))
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    def run_case(item):
        name, ctype, case = item
        t0 = time.perf_counter()
        case = dict(case)
        try:
            if ctype == "property":
                case_seed = as_count(case.get("seed", seed), "seed")
                ok, details = PROPERTY_CHECKS[case["check"]](case, case_seed)
                payload = {
                    "case": {k: v for k, v in case.items() if k != "type"},
                    "check": case["check"],
                    "details": details,
                    "passed": bool(ok),
                }
            else:
                case.setdefault("seed", seed)
                payload = compare(case)
        except Exception as e:  # surfaced per case, the suite keeps going
            payload = {"case": case, "error": f"{type(e).__name__}: {e}", "passed": False}
        record = {"name": name, "type": ctype, "passed": payload["passed"], "payload": payload}
        if "error" in payload:
            record["error"] = payload["error"]
        record["wall_time"] = time.perf_counter() - t0
        return record

    if threads is None or threads <= 1:
        records = [run_case(item) for item in prepared]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run_case, prepared))

    for record in records:
        (out_path / f"{record['name']}.json").write_text(canonical_json(record["payload"]))

    summary = out_path / "summary.csv"
    with summary.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["case", "type", "lambda_oracle", "lambda_operator", "lambda_mc",
             "diff_oracle_operator", "diff_oracle_mc", "diff_operator_mc",
             "passed", "wall_time_s"]
        )
        for record in records:
            writer.writerow([record["name"], record["type"], *_summary_numbers(record),
                             str(record["passed"]).lower(), "%.3f" % record["wall_time"]])

    return SuiteResult(
        records=records,
        any_failed=any(not r["passed"] for r in records),
        out_dir=str(out_path),
    )
