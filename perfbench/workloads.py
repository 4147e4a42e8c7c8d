"""The four workloads: one pass over a fixed case list, and the checks on it.

Each workload builds its models in ``prepare``, runs untimed warm-up passes
in ``warmup`` and then timed passes in ``run_pass``. A pass returns its wall
time and the seconds of each case; ``check`` compares every output against
its reference and records the outcome in a Ledger. Passes in one run use the
same inputs, so every pass must also reproduce the first one exactly.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
from tracing import case_scope

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def child_env():
    """Environment of every child process: the checkout's sources, BLAS
    threads capped at nproc, and no thread override for the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cases.NPROC)
    env.pop("PERSISTX_THREADS", None)
    return env


class Ledger:
    """Operations attempted and failed, and what went wrong.

    An operation fails when it returns no value (it raised, or a process
    printed no payload) or when its value fails a check. Only the second kind
    makes the run incorrect: a wrong number, or output that differs from an
    earlier pass on the same inputs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []

    def record(self, name, problems=(), error=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{name}: {error}")
        elif problems:
            self.failed += 1
            self.wrong.extend(f"{name}: {p}" for p in problems)

    @property
    def correct(self):
        return not self.wrong


def gap_problem(label, value, ref, tol):
    if abs(value - ref) <= tol:
        return []
    return [f"{label} {value!r} is {abs(value - ref):.3g} from {ref!r}, beyond {tol:.3g}"]


def mc_problems(lam, half_width, ref, method):
    if not (math.isfinite(lam) and math.isfinite(half_width)):
        return [f"no finite estimate (lambda_hat={lam}, half_width={half_width})"]
    return gap_problem("lambda_hat", lam, ref, cases.MC_BAND[method] * half_width)


def timed(fn):
    """(value or the exception raised, seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # recorded as a failed operation by the caller
        out = e
    return out, time.perf_counter() - t0


def error_text(e):
    return f"{type(e).__name__}: {e}"


class Workload:
    """What every workload keeps: its seed and the first output of each case."""

    min_passes = 3

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.first = {}  # case -> fingerprint of its first output

    def repeat_problems(self, name, fingerprint):
        first = self.first.setdefault(name, fingerprint)
        return [] if first == fingerprint else ["output differs from the first pass"]


class InProcess(Workload):
    """Shared pass bookkeeping of the workloads that call persistx directly."""

    def warmup(self, ledger):
        # The first one or two passes in a process run 30-60% slower.
        for _ in range(2):
            self.check(self.run_pass(), ledger)

    @staticmethod
    def wall(passes):
        return statistics.median(p["wall"] for p in passes)

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Crude(InProcess):
    name = "crude"

    def prepare(self):
        from persistx import model_from_json

        self.models = [(name, model_from_json(spec)) for name, spec in cases.CRUDE]
        self.horizons = list(range(cases.CRUDE_HORIZON + 1))

    def run_pass(self, threads=cases.NPROC):
        from persistx import simulate

        out = {"wall": 0.0, "seconds": {}, "results": {}}
        t0 = time.perf_counter()
        for name, model in self.models:
            with case_scope(f"crude/{name}"):
                res, dt = timed(lambda: simulate.estimate_crude(
                    model, self.horizons, cases.CRUDE_REPS, self.seed, threads=threads))
            out["results"][name] = res
            out["seconds"][name] = dt
        out["wall"] = time.perf_counter() - t0
        return out

    def warmup(self, ledger):
        # The first warm-up pass runs single-threaded, and its canonical JSON
        # is the reference every later pass at threads=nproc must match byte
        # for byte. The second warms the thread pool.
        self.check(self.run_pass(threads=1), ledger)
        self.check(self.run_pass(), ledger)

    def check(self, p, ledger):
        from persistx import canonical_json

        for name, est in p["results"].items():
            op = f"crude/{name}"
            if isinstance(est, Exception):
                ledger.record(op, error=error_text(est))
                continue
            problems = mc_problems(est.lambda_hat, est.half_width, cases.REF[name], "crude")
            if self.repeat_problems(name, canonical_json(est.to_json())):
                problems.append("canonical JSON differs from the threads=1 run")
            ledger.record(op, problems)

    def path_steps(self):
        return len(self.models) * cases.CRUDE_REPS * (cases.CRUDE_HORIZON + 1)


class Splitting(InProcess):
    name = "splitting"

    def prepare(self):
        from persistx import model_from_json

        self.deep = [(name, model_from_json(spec), n, window)
                     for name, spec, n, window in cases.SPLIT_DEEP]
        self.rep_model = model_from_json(cases.SPLIT_REP_MODEL)

    def run_pass(self):
        from persistx import simulate

        def deep_run(model, n, window):
            est = simulate.estimate_splitting(model, list(range(n + 1)),
                                              cases.SPLIT_PARTICLES, self.seed)
            if window is None:
                return est, est.lambda_hat, est.half_width
            return (est,) + tuple(simulate.fit_exponent(est, window))

        def replicate(k):
            return simulate.estimate_splitting(
                self.rep_model, list(range(cases.SPLIT_REP_HORIZON + 1)),
                cases.SPLIT_REP_PARTICLES, cases.replicate_seed(self.seed, k))

        out = {"seconds": {}, "results": {}, "replicates": []}
        t0 = time.perf_counter()
        for name, model, n, window in self.deep:
            with case_scope(f"splitting/{name}"):
                res, dt = timed(lambda: deep_run(model, n, window))
            out["results"][name] = res
            out["seconds"][name] = dt
        t1 = time.perf_counter()
        with case_scope("splitting/replicates"):
            for k in range(cases.SPLIT_REP_K):
                out["replicates"].append(timed(lambda: replicate(k))[0])
        t2 = time.perf_counter()
        out["seconds"]["replicates"] = t2 - t1
        out["deep_wall"] = t1 - t0
        out["wall"] = t2 - t0
        return out

    def check(self, p, ledger):
        for name, res in p["results"].items():
            op = f"splitting/{name}"
            if isinstance(res, Exception):
                ledger.record(op, error=error_text(res))
                continue
            est, lam, hw = res
            problems = mc_problems(lam, hw, cases.REF[name], "splitting")
            problems += self.repeat_problems(name, (lam, hw, est.p_hat.tobytes()))
            ledger.record(op, problems)
        for k, est in enumerate(p["replicates"]):
            op = f"splitting/replicate{k}"
            if isinstance(est, Exception):
                ledger.record(op, error=error_text(est))
                continue
            problems = mc_problems(est.lambda_hat, est.half_width,
                                   cases.REF[cases.SPLIT_REP_NAME], "splitting")
            problems += self.repeat_problems(op, est.p_hat.tobytes())
            ledger.record(op, problems)

    def particle_steps(self):
        return sum(cases.SPLIT_PARTICLES * (n + 1) for _, _, n, _ in self.deep)


class Operator(InProcess):
    """Deterministic: no case draws random numbers, so the seed changes nothing."""

    name = "operator"

    def prepare(self):
        from persistx import model_from_json

        self.models = [(name, model_from_json(spec), kw) for name, spec, kw in cases.OPERATOR]

    def run_pass(self):
        from persistx import operator

        out = {"seconds": {}, "results": {}}
        t0 = time.perf_counter()
        for name, model, kw in self.models:
            with case_scope(f"operator/{name}"):
                res, dt = timed(lambda: operator.solve_operator(model, **kw))
            out["results"][name] = res
            out["seconds"][name] = dt
        out["wall"] = time.perf_counter() - t0
        return out

    def check(self, p, ledger):
        for name, res in p["results"].items():
            op = f"operator/{name}"
            if isinstance(res, Exception):
                ledger.record(op, error=error_text(res))
                continue
            problems = gap_problem("lambda", res.lam, cases.REF[name], cases.operator_tol(op))
            if op in cases.OPERATOR_PINNED:
                problems += gap_problem("lambda against its pinned value", res.lam,
                                        *cases.OPERATOR_PINNED[op])
            if not res.converged:
                problems.append("power iteration reports no convergence")
            problems += self.repeat_problems(name, (res.lam, res.iterations))
            ledger.record(op, problems)


class Cli(Workload):
    """The README's command lines, each as its own ``python -m persistx.cli``
    process, plus a suite. Timings are medians over processes."""

    name = "cli"

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.dir = run_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        config = json.loads((HERE / "suite.json").read_text())
        config["seed"] = seed
        self.config = self.dir / "suite.json"
        self.config.write_text(json.dumps(config, indent=1))
        self.out_dir = self.dir / "suite-out"
        self.env = child_env()
        self.commands = [(name, cases.cli_argv(t, seed, self.config, self.out_dir))
                         for name, t in cases.CLI]
        self.suite = {c["name"]: c for c in config["cases"]}

    def prepare(self):
        pass

    def launch(self, argv, traced_spans=None):
        """Run one command line; returns (completed process or exception, seconds)."""
        if traced_spans is None:
            cmd = [sys.executable, "-m", "persistx.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child_cli.py"), str(traced_spans), *argv]
        return timed(lambda: subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                            text=True, timeout=150))

    def warmup(self, ledger):
        # Loads the interpreter, numpy and scipy into the page cache and
        # writes the bytecode cache; not checked, not timed.
        self.launch(["oracle", "--case", "iid"])

    def run_pass(self, trace_dir=None):
        out = {"seconds": {}, "results": {}, "spans": {}}
        for name, argv in self.commands:
            spans = None if trace_dir is None else trace_dir / f"{name}.json"
            t_start = time.monotonic()
            res, dt = self.launch(argv, spans)
            out["results"][name] = res
            out["seconds"][name] = dt
            if spans is not None:
                out["spans"][name] = (t_start, time.monotonic(), spans)
            if name == "sweep_suite":
                out["suite"] = self.read_suite()
        out["wall"] = sum(out["seconds"].values())
        return out

    def read_suite(self):
        reports = {}
        for name in self.suite:
            path = self.out_dir / f"{name}.json"
            try:
                reports[name] = json.loads(path.read_text())
                path.unlink()
            except (OSError, json.JSONDecodeError) as e:
                reports[name] = e
        return reports

    @staticmethod
    def wall(passes):
        """Sum over commands of the median process wall time."""
        names = passes[0]["seconds"]
        return sum(statistics.median(p["seconds"][n] for p in passes) for n in names)

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, p, ledger):
        for name, proc in p["results"].items():
            op = f"cli/{name}"
            if isinstance(proc, Exception):
                ledger.record(op, error=error_text(proc))
                continue
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                ledger.record(op, error=f"exit {proc.returncode}, {tail[0]}")
                continue
            problems = CLI_CHECKS[name](payload)
            # the suite's own verdict depends on reports checked one by one below
            if name != "sweep_suite":
                problems += self.repeat_problems(name, proc.stdout)
            ledger.record(op, problems)
        for name, report in p.get("suite", {}).items():
            self.check_suite_case(name, report, ledger)

    def check_suite_case(self, name, report, ledger):
        op = f"cli/suite/{name}"
        if isinstance(report, Exception):
            ledger.record(op, error=f"no report: {error_text(report)}")
            return
        if "error" in report:
            ledger.record(op, error=report["error"])
            return
        if self.suite[name].get("type") == "property":
            ledger.record(op, [] if report["passed"] else [f"property check failed: {report['details']}"])
            return
        ref = cases.SUITE_REF[name]
        problems = []
        if report["lambda_oracle"] is not None:
            problems += gap_problem("lambda_oracle", report["lambda_oracle"], ref, 1e-12)
        if report["operator"] is not None:
            problems += gap_problem("operator lambda", report["operator"]["lambda"], ref,
                                    cases.operator_tol(f"suite/{name}"))
        mc = report["mc"]
        problems += mc_problems(mc["lambda_hat"], mc["half_width"], ref,
                                self.suite[name]["mc"]["method"])
        problems += self.repeat_problems(op, json.dumps(report, sort_keys=True))
        ledger.record(op, problems)


def _check_simulate(ref, method):
    def check(payload):
        est = payload["estimate"]
        return mc_problems(est["lambda_hat"], est["half_width"], ref, method)
    return check


def _check_operator(payload):
    res = payload["result"]
    problems = gap_problem("lambda", res["lambda"], cases.REF["ma1_gauss_1"],
                           cases.operator_tol("cli/operator"))
    return problems + ([] if res["converged"] else ["power iteration reports no convergence"])


def _check_oracle_ma1_exp(payload):
    return gap_problem("exponent", payload["exponent"], 0.5, 1e-12)


def _check_oracle_rademacher(payload):
    problems = gap_problem("exponent", payload["exponent"], 0.5, 1e-12)
    for row in payload["pn"]:
        problems += gap_problem(f"p_{row['n']}", row["p"], 0.5 ** (row["n"] + 2), 1e-15)
    return problems


def _check_compare(payload):
    ref = cases.REF["ar1_unif_m1"]
    problems = gap_problem("lambda_oracle", payload["lambda_oracle"], ref, 1e-12)
    problems += gap_problem("operator lambda", payload["operator"]["lambda"], ref,
                            cases.operator_tol("cli/compare"))
    return problems + mc_problems(payload["mc"]["lambda_hat"], payload["mc"]["half_width"], ref,
                                  "crude")


def _check_monotonicity(payload):
    lams = payload["lambdas"]
    # coefficient 0 is the iid case, where lambda = P(xi >= 0) = 1/2
    problems = gap_problem("lambda at a1=0", lams[0], 0.5, cases.operator_tol("cli/monotonicity"))
    if not payload["passed"] or any(b <= a for a, b in zip(lams, lams[1:])):
        problems.append(f"lambdas not strictly increasing: {lams}")
    return problems


def _check_convergence(payload):
    problems = gap_problem("lambda_ref", payload["lambda_ref"], cases.REF["ar1_gauss_0.4"],
                           cases.operator_tol("cli/convergence"))
    if not payload["truncation"]["monotone"]:
        problems.append("lambda not monotone in the truncation")
    return problems


def _check_suite(payload):
    return [] if "cases" in payload else ["suite payload lists no cases"]


CLI_CHECKS = {
    "simulate_crude": _check_simulate(cases.REF["ar1_unif_m1"], "crude"),
    "simulate_splitting": _check_simulate(cases.REF["ar1_exp_m1"], "splitting"),
    "operator": _check_operator,
    "oracle_ma1_exp": _check_oracle_ma1_exp,
    "oracle_rademacher": _check_oracle_rademacher,
    "compare": _check_compare,
    "sweep_monotonicity": _check_monotonicity,
    "sweep_convergence": _check_convergence,
    "sweep_suite": _check_suite,
}

WORKLOADS = {w.name: w for w in (Crude, Splitting, Operator, Cli)}
