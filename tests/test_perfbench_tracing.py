"""The traced benchmark wraps persistx functions by name; a rename or removal
in the package shows up here, not only as a LookupError in a traced run."""

import importlib.util
from pathlib import Path

from persistx import cli, harness, model, operator, oracle, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # by file path, so sys.path stays as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_finds_every_wrapped_name():
    tracing = load_tracing()
    modules = (cli, harness, model, operator, oracle, simulate)
    before = [dict(vars(mod)) for mod in modules] + [dict(harness.PROPERTY_CHECKS)]
    original = operator.solve_operator
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert operator.solve_operator is not original
    finally:
        tracer.restore()
    assert operator.solve_operator is original
    after = [dict(vars(mod)) for mod in modules] + [dict(harness.PROPERTY_CHECKS)]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_every_apply_is_traced():
    # one operator.apply span per power iteration, for every kernel form: MA,
    # the density form of a Gaussian AR(1) and AR(2), and window sums; at
    # N = 40 every solve starts cold
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cases = (
        (model.MAModel((-0.5,), model.Gaussian(), model.SurvivalConvention.NON_NEGATIVE), 40),
        (model.ARModel((0.4,), model.Gaussian(), model.IIDInnovation(),
                       model.SurvivalConvention.NON_NEGATIVE), 40),
        (model.ARModel((0.3, 0.2), model.Gaussian(), model.IIDInnovation(),
                       model.SurvivalConvention.NON_NEGATIVE), 40),
        (model.ARModel((-0.5,), model.Exponential(), model.IIDInnovation(),
                       model.SurvivalConvention.NON_NEGATIVE), 40),
    )
    try:
        tracing.instrument(tracer)
        for m, n in cases:
            seen = len(tracer.spans)
            res = operator.solve_operator(m, n=n)
            applies = [s for s in tracer.spans[seen:] if s.name == "operator.apply"]
            assert res.iterations > 1
            assert res.warm_start is None
            assert len(applies) == res.iterations
    finally:
        tracer.restore()


def test_warm_start_applies_are_traced():
    # a Gaussian AR solve at N >= 2 WARM_N also applies its WARM_N-node
    # operator, which iterations leaves out and warm_start counts
    tracing = load_tracing()
    tracer = tracing.Tracer()
    m = model.ARModel((0.9,), model.Gaussian(), model.IIDInnovation(),
                      model.SurvivalConvention.NON_NEGATIVE)
    try:
        tracing.instrument(tracer)
        seen = len(tracer.spans)
        res = operator.solve_operator(m, n=2 * operator.WARM_N, delta="auto")
        applies = [s for s in tracer.spans[seen:] if s.name == "operator.apply"]
    finally:
        tracer.restore()
    assert res.warm_start["n"] == operator.WARM_N
    assert len(applies) == res.iterations + res.warm_start["iterations"]
    assert res.warm_start["iterations"] > res.iterations


def test_crude_blocks_record_their_draws():
    # a law's direct sampler is a hook of the base class's sample, so the
    # traced block span holds every draw: one per step for the paths alive
    tracing = load_tracing()
    tracer = tracing.Tracer()
    laws = (model.Gaussian(), model.Exponential())
    try:
        tracing.instrument(tracer)
        for law in laws:
            seen = len(tracer.spans)
            m = model.ARModel((0.4,), law, model.PointMass((0.5,)),
                              model.SurvivalConvention.NON_NEGATIVE)
            simulate.estimate_crude(m, range(5), 100, 0)
            spans = tracer.spans[seen:]
            blocks = {s.sid for s in spans if s.name == "simulate.crude_block"}
            draws = [s for s in spans if s.name == "model.sample"]
            assert len(blocks) == 1
            assert draws and all(s.parent in blocks for s in draws)
    finally:
        tracer.restore()
