"""The traced run: every per-layer metric, from all four workloads and the probes.

Per workload: the untraced warm-up passes, then untraced and traced passes in
turn (PAIRS of each; CLI_PLAIN and CLI_TRACED for cli). Per-case times and
throughputs are medians over the untraced passes; self times, shares and span
durations are means over the traced ones. The ratio of the median pass times
is the tracing overhead.
"""

import json
import math
import statistics
import sys
import time
from collections import defaultdict

import cases
import probes
from tracing import Span, Tracer, instrument, self_times
from workloads import Cli, Crude, Operator, Splitting

LAYERS = ("model", "simulate", "operator", "oracle", "harness", "cli")
MC_CALLS = ("operator.solve_operator", "simulate.estimate_crude",
            "simulate.estimate_splitting", "simulate.fit_exponent")


class Profile:
    """Spans of the traced passes of one workload, with their self times."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)

    def select(self, name=None, case=None):
        return [s for s in self.spans
                if (name is None or s.name == name or (name.endswith(".") and s.name.startswith(name)))
                and (case is None or (s.case or "").startswith(case))]

    def self_s(self, name=None, case=None):
        return sum(self.own[s.sid] for s in self.select(name, case))

    def total_s(self, name, case=None):
        return sum(s.duration for s in self.select(name, case))


PAIRS = 2
# cli passes are long: three untraced ones for the medians, two traced ones
CLI_PLAIN = 3
CLI_TRACED = 2


def alternate(w, ledger):
    """Untraced and traced passes in turn, all checked; spans of every traced
    pass go to one tracer."""
    plain, traced = [], []
    tracer = Tracer()
    for _ in range(PAIRS):
        plain.append(w.run_pass())
        try:
            instrument(tracer)
            traced.append(w.run_pass())
        finally:
            tracer.restore()
    for p in plain + traced:
        w.check(p, ledger)
    return plain, traced, Profile(tracer.spans)


def median_of(passes, *keys):
    def get(p):
        for k in keys:
            p = p[k]
        return p
    return statistics.median(get(p) for p in passes)


def overhead(metrics, name, plain_wall, traced_wall, prof, pairs):
    """Tracing overhead of one workload, and the self time of each layer in a
    traced pass as a share of the untraced wall_s. The shares add up to
    1 + overhead when the spans cover the pass."""
    metrics[f"trace.overhead_share.{name}"] = traced_wall / plain_wall - 1.0
    by_layer = defaultdict(float)
    for s in prof.spans:
        by_layer[s.name.split(".")[0]] += prof.own[s.sid]
    for layer in LAYERS:
        metrics[f"trace.self_share.{name}.{layer}"] = by_layer[layer] / pairs / plain_wall
    print(f"trace {name}: self times cover {sum(by_layer.values()) / pairs / plain_wall:.3f} "
          f"of the untraced wall_s; tracing overhead {traced_wall / plain_wall - 1.0:+.3f}",
          file=sys.stderr)


def profile_crude(seed, run_dir, ledger, metrics):
    w = Crude(seed, run_dir)
    w.prepare()
    w.warmup(ledger)
    single = w.run_pass(threads=1)
    w.check(single, ledger)
    plain, traced, prof = alternate(w, ledger)
    wall, traced_wall = median_of(plain, "wall"), median_of(traced, "wall")
    for name, _ in cases.CRUDE:
        metrics[f"simulate.crude_s.{name}"] = median_of(plain, "seconds", name)
        metrics[f"simulate.crude_threads1_s.{name}"] = single["seconds"][name]
    metrics["simulate.crude_scaling_eff"] = single["wall"] / (cases.NPROC * wall)
    metrics["simulate.crude_sample_share"] = prof.self_s("model.sample") / PAIRS / traced_wall
    metrics["simulate.path_steps_per_s"] = w.path_steps() / wall
    overhead(metrics, "crude", wall, traced_wall, prof, PAIRS)
    return wall, traced_wall, prof


def profile_splitting(seed, run_dir, ledger, metrics):
    w = Splitting(seed, run_dir)
    w.prepare()
    w.warmup(ledger)
    plain, traced, prof = alternate(w, ledger)
    for name, *_ in cases.SPLIT_DEEP:
        metrics[f"simulate.split_s.{name}"] = median_of(plain, "seconds", name)
    deep_sample = sum(prof.self_s("model.sample", f"splitting/{name}")
                      for name, *_ in cases.SPLIT_DEEP)
    metrics["simulate.split_sample_share"] = deep_sample / PAIRS / median_of(traced, "deep_wall")
    metrics["simulate.particle_steps_per_s"] = w.particle_steps() / median_of(plain, "deep_wall")

    k, steps = cases.SPLIT_REP_K, cases.SPLIT_REP_HORIZON + 1
    rep_s = median_of(plain, "seconds", "replicates")
    metrics["simulate.split_replicates_s"] = rep_s
    metrics["simulate.split_step_us"] = rep_s / (k * steps) * 1e6
    metrics["simulate.split_substream_share"] = (
        prof.self_s("model.substream", "splitting/replicates") / PAIRS
        / median_of(traced, "seconds", "replicates"))
    # every pass draws the same replicates; the first untraced pass stands for all
    ests = [e for e in plain[0]["replicates"] if not isinstance(e, Exception)]
    logs = [math.log(e.p_hat[-1]) for e in ests]
    var = statistics.variance(logs)
    metrics["simulate.split_var_logp100"] = var
    metrics["simulate.split_cost_s"] = rep_s / k * var / cases.SPLIT_TARGET_SD ** 2
    reported_sd = statistics.fmean(math.sqrt(e.log_var[-1]) for e in ests)
    metrics["simulate.split_sd_ratio"] = math.sqrt(var) / reported_sd
    deep = [r[0] for r in plain[0]["results"].values() if not isinstance(r, Exception)]
    metrics["simulate.split_min_fraction"] = min(float(e.fractions.min()) for e in deep)
    wall, traced_wall = median_of(plain, "wall"), median_of(traced, "wall")
    overhead(metrics, "splitting", wall, traced_wall, prof, PAIRS)
    return wall, traced_wall, prof


def profile_operator(seed, run_dir, ledger, metrics):
    w = Operator(seed, run_dir)
    w.prepare()
    w.warmup(ledger)
    plain, traced, prof = alternate(w, ledger)
    errs = []
    for name, _, _ in cases.OPERATOR:
        case = f"operator/{name}"
        metrics[f"operator.assemble_s.{name}"] = (
            prof.total_s("operator.assemble_ar", case)
            + prof.total_s("operator.assemble_ma", case)) / PAIRS
        metrics[f"operator.solve_s.{name}"] = prof.total_s("operator.spectral_radius", case) / PAIRS
        res = plain[0]["results"][name]
        if isinstance(res, Exception):
            continue
        metrics[f"operator.iterations.{name}"] = res.iterations
        metrics[f"operator.kmat_mb.{name}"] = res.grid.n ** (res.grid.d + 1) * 8 / 1e6
        errs.append(abs(res.lam - cases.REF[name]))
        metrics[f"operator.lambda_err.{name}"] = errs[-1]
    metrics["operator.lambda_err_max"] = max(errs)
    wall, traced_wall = median_of(plain, "wall"), median_of(traced, "wall")
    overhead(metrics, "operator", wall, traced_wall, prof, PAIRS)
    return wall, traced_wall, prof


def load_child_spans(path, process_sid, offset):
    spans = []
    for sid, name, start, end, parent, case, count in json.loads(path.read_text()):
        spans.append(Span(sid + offset, name, start, end,
                          process_sid if parent is None else parent + offset, case, count))
    return spans


def profile_cli(seed, run_dir, ledger, metrics):
    """Untraced and traced cli passes in turn. A fresh process sometimes stalls
    on its first LAPACK call, so every cli time is a median over processes or
    a mean over passes, never one process."""
    w = Cli(seed, run_dir)
    w.warmup(ledger)
    plain, traced = [], []
    for i in range(CLI_PLAIN):
        plain.append(w.run_pass())
        if i < CLI_TRACED:
            trace_dir = run_dir / f"cli-spans{i}"
            trace_dir.mkdir(exist_ok=True)
            traced.append(w.run_pass(trace_dir=trace_dir))
    for p in plain + traced:
        w.check(p, ledger)

    tracer = Tracer()
    rest = defaultdict(list)  # command -> process wall minus import and main, per pass
    offset = 0
    for p in traced:
        for name, (start, end, path) in p["spans"].items():
            if not path.exists():
                res = p["results"][name]
                why = res if isinstance(res, Exception) else res.stderr.strip()[-300:]
                raise RuntimeError(f"traced cli process {name} wrote no spans: {why}")
            sid = tracer.span("cli.process", start, end, case=name)
            offset += 10**7
            child = load_child_spans(path, sid, offset)
            tracer.spans.extend(child)
            rest[name].append((end - start) - sum(
                s.duration for s in child if s.name in ("model.import", "cli.main")))
    prof = Profile(tracer.spans)

    for name, _ in cases.CLI:
        metrics[f"cli.process_s.{name}"] = median_of(plain, "seconds", name)
    metrics["cli.overhead_s"] = statistics.fmean(statistics.median(v) for v in rest.values())
    metrics["oracle.detect_s"] = prof.self_s("harness.detect_oracle") / CLI_TRACED
    metrics["oracle.call_s"] = prof.self_s("oracle.") / CLI_TRACED
    metrics["harness.canonical_json_s"] = prof.self_s("harness.canonical_json") / CLI_TRACED
    metrics["harness.canonical_json_bytes"] = sum(
        s.count or 0 for s in prof.select("harness.canonical_json")) / CLI_TRACED
    metrics["harness.suite_s"] = prof.total_s("harness.run_suite") / CLI_TRACED
    for name in cases.SUITE_REF:
        total = 0.0
        for span in prof.select("harness.compare", name):
            if span.case != name:
                continue
            inner = sum(s.duration for s in prof.spans
                        if s.parent == span.sid and s.name in MC_CALLS)
            total += span.duration - inner
        metrics[f"harness.compare_self_s.{name}"] = total / CLI_TRACED
    wall, traced_wall = w.wall(plain), w.wall(traced)
    overhead(metrics, "cli", wall, traced_wall, prof, CLI_TRACED)
    return wall, traced_wall, prof


def profile(seed, run_dir, ledger):
    metrics = {}
    plain_total = traced_total = 0.0
    fit = 0.0
    for step in (profile_crude, profile_splitting, profile_operator, profile_cli):
        t0 = time.perf_counter()
        plain, traced, prof = step(seed, run_dir, ledger, metrics)
        print(f"{step.__name__} took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        plain_total += plain
        traced_total += traced
        if step in (profile_crude, profile_splitting):
            fit += prof.self_s("simulate.fit_exponent") / PAIRS
    metrics["simulate.fit_s"] = fit
    metrics["trace.overhead_share"] = traced_total / plain_total - 1.0
    t0 = time.perf_counter()
    metrics.update(probes.import_breakdown())
    metrics.update(probes.model_probes(seed))
    metrics.update(probes.operator_probes())
    print(f"probes took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return metrics
