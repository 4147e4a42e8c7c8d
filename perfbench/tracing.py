"""Spans around calls into persistx, recorded from the benchmark's own files.

``instrument`` replaces the module attributes and class methods that
persistx's callers look up with wrappers that record one span per call; a
from-imported name is wrapped in every module that looks it up. Spans stay in
memory and are read when the run ends. ``restore`` puts the originals back, so
untraced passes in the same process run the program unchanged.

Span times come from ``time.monotonic``, which on Linux reads the system-wide
CLOCK_MONOTONIC, so spans written by a child process line up with the parent's.
"""

import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

_span = contextvars.ContextVar("perfbench_span", default=None)
_case = contextvars.ContextVar("perfbench_case", default=None)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    count: int | None = None  # work done at this boundary, e.g. bytes written

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return [self.sid, self.name, self.start, self.end, self.parent, self.case, self.count]


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans in worker
    threads get the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._undo = []

    def wrap(self, name, fn, count=None, case_of=None):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _span.get()
            case = (case_of(*args, **kwargs) if case_of else None) or _case.get()
            span_token = _span.set(sid)
            case_token = _case.set(case)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                _case.reset(case_token)
                _span.reset(span_token)
                n = count(result) if count and result is not None else None
                spans.append(Span(sid, name, start, end, parent, case, n))

        return traced

    def patch(self, owner, attr, name, **kw):
        """Wrap owner.attr (or owner[attr] for a dict) where owner defines it."""
        self.replace(owner, attr, self.wrap(name, _lookup(owner, attr), **kw))

    def replace(self, owner, attr, replacement):
        """Put replacement where owner defines attr. A name the program no
        longer defines there raises, so no metric built on it reads zero."""
        self._undo.append((owner, attr, _lookup(owner, attr)))
        _put(owner, attr, replacement)

    def restore(self):
        while self._undo:
            _put(*self._undo.pop())

    def span(self, name, start, end, parent=None, case=None):
        """Record a span measured by the caller, e.g. a child process."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, case))
        return sid


class case_scope:
    """Tags every span opened inside the block with a case id."""

    def __init__(self, case):
        self.case = case

    def __enter__(self):
        self._token = _case.set(self.case)

    def __exit__(self, *exc):
        _case.reset(self._token)


def instrument(tracer):
    """Wrap the public calls of the six persistx layers."""
    from persistx import cli, harness, model, operator, oracle, simulate

    # model: innovation and initial laws, streams, the experiment schema
    tracer.patch(model.InnovationDistribution, "sample", "model.sample")
    for cls in (model.IIDInnovation, model.StationaryAR1Gaussian, model.PointMass):
        tracer.patch(cls, "sample", "model.sample_initial")
    for cls in (model.Uniform, model.Gaussian, model.Exponential, model.Rademacher):
        tracer.patch(cls, "cdf", "model.cdf")
        tracer.patch(cls, "density", "model.density")
    for mod in (model, simulate, harness):
        tracer.patch(mod, "substream", "model.substream")
    tracer.patch(harness, "model_from_json", "model.model_from_json")

    # simulate: crude blocks, the splitting loop, the exponent fit
    for mod in (simulate, harness):
        tracer.replace(mod, "ThreadPoolExecutor", _ContextPool)
    for attr in ("estimate_crude", "estimate_splitting", "fit_exponent"):
        tracer.patch(simulate, attr, f"simulate.{attr}")
    tracer.patch(simulate, "_survival_counts_block", "simulate.crude_block")

    # operator: grid, assembly, apply, power iteration
    tracer.patch(operator, "leggauss", "operator.leggauss")
    for attr in ("build_grid", "default_grid", "assemble_ar", "assemble_ma",
                 "spectral_radius", "solve_operator", "truncation_lambdas",
                 "convergence_sweep"):
        tracer.patch(operator, attr, f"operator.{attr}")
    tracer.patch(operator.DiscretizedOperator, "apply", "operator.apply")

    # oracle: every public function defined there
    for attr, fn in list(vars(oracle).items()):
        if inspect.isfunction(fn) and fn.__module__ == oracle.__name__ and not attr.startswith("_"):
            tracer.patch(oracle, attr, f"oracle.{attr}")

    # harness: comparison, sweeps, property checks, suites, canonical JSON
    tracer.patch(harness, "detect_oracle", "harness.detect_oracle")
    tracer.patch(harness, "compare", "harness.compare",
                 case_of=lambda case, *a, **k: case.get("name") if isinstance(case, dict) else None)
    for attr in ("monotonicity_sweep", "continuity_sweep", "run_suite"):
        tracer.patch(harness, attr, f"harness.{attr}")
    for mod in (harness, cli):
        tracer.patch(mod, "canonical_json", "harness.canonical_json", count=len)
    for key in list(harness.PROPERTY_CHECKS):
        tracer.patch(harness.PROPERTY_CHECKS, key, f"harness.property.{key}")

    # cli: entry, argument parsing, subcommands, output
    for attr in ("main", "build_parser", "build_model", "_emit"):
        tracer.patch(cli, attr, f"cli.{attr.lstrip('_')}")
    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        tracer.patch(cli, attr, f"cli.{attr}")


def _lookup(owner, attr):
    table = owner if isinstance(owner, dict) else vars(owner)
    if attr not in table:
        where = "the dict" if isinstance(owner, dict) else getattr(owner, "__name__", repr(owner))
        raise LookupError(f"cannot trace {attr}: {where} no longer defines it")
    return table[attr]


def _put(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def self_times(spans):
    """Wall-clock self time of every span, by span id.

    A span's self time is its duration minus the part its children cover.
    Where spans run in parallel threads, each instant is split evenly among
    the innermost spans active then, so the self times add up to the wall
    time the spans cover.
    """
    spans = [s for s in spans if s.end > s.start]
    by_id = {s.sid: s for s in spans}
    events = sorted(
        [(s.start, 1, s.sid) for s in spans] + [(s.end, 0, s.sid) for s in spans]
    )
    active = set()
    busy_children = defaultdict(int)
    innermost = set()
    own = defaultdict(float)
    last = None
    for t, starting, sid in events:
        if innermost:
            share = (t - last) / len(innermost)
            for i in innermost:
                own[i] += share
        last = t
        parent = by_id[sid].parent
        if starting:
            active.add(sid)
            innermost.add(sid)
            if parent in active:
                busy_children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if parent in active:
                busy_children[parent] -= 1
                if busy_children[parent] == 0:
                    innermost.add(parent)
    return own

