"""Direct per-layer probes, run outside the workloads in the traced run.

Each probe times one layer call on its own, repeated, and reports the median.
"""

import re
import statistics
import subprocess
import sys
import time

import cases
from workloads import child_env


def median_seconds(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(reps=3):
    """Cumulative import seconds of persistx, scipy.special and scipy.optimize,
    from ``python -X importtime -c "import persistx"``, median over processes.
    A scipy module that ``import persistx`` no longer loads reads 0, the
    import time it no longer costs."""
    wanted = {"persistx": [], "scipy.special": [], "scipy.optimize": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import persistx"],
                              env=child_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(4) in wanted:
                seen[m.group(4)] = int(m.group(2)) * 1e-6
        if "persistx" not in seen:
            raise RuntimeError("python -X importtime reported no import of persistx")
        for name, values in wanted.items():
            values.append(seen.get(name, 0.0))
    return {
        "model.import_s": statistics.median(wanted["persistx"]),
        "model.import_scipy_special_s": statistics.median(wanted["scipy.special"]),
        "model.import_scipy_optimize_s": statistics.median(wanted["scipy.optimize"]),
    }


def model_probes(seed):
    from persistx import model_from_json, substream

    out = {}
    laws = {"gaussian": cases.GAUSS, "exponential": cases.EXP, "uniform": cases.UNIF}
    for kind, spec in laws.items():
        law = model_from_json(cases.ar([0.0], spec)).innovation
        rng = substream(seed, "probe", kind)
        for suffix, shape, reps in (("", (4096, cases.CRUDE_HORIZON + 1), 40),
                                    ("_1e5", 100_000, 20)):
            size = shape[0] * shape[1] if isinstance(shape, tuple) else shape
            t = median_seconds(lambda: law.sample(rng, shape), reps)
            out[f"model.sample_draws_per_s.{kind}{suffix}"] = size / t

    t = median_seconds(lambda: [substream(seed, "probe", i) for i in range(1000)], 5)
    out["model.substream_us"] = t / 1000 * 1e6

    import numpy as np

    gauss = model_from_json(cases.ar([0.0], cases.GAUSS)).innovation
    x = np.linspace(-8.0, 8.0, 1_000_000)
    out["model.cdf_evals_per_s.gaussian"] = x.size / median_seconds(lambda: gauss.cdf(x), 10)
    return out


def operator_probes():
    """Grid construction at three sizes, and one apply at d=1 and d=2 with its
    computed bytes (kernel, argument and result read or written once)."""
    import numpy as np
    from persistx import model_from_json, operator

    out = {}
    ar1 = model_from_json(cases.ar([0.4], cases.GAUSS))
    m = operator.default_truncation(ar1.innovation)
    for n in (400, 800, 1600):
        out[f"operator.grid_s.N{n}"] = median_seconds(lambda: operator.default_grid(ar1, m, n), 3)

    ar2 = model_from_json(cases.ar([0.3, 0.2], cases.GAUSS))
    for label, model, n, reps in (("d1_N800", ar1, 800, 50), ("d2_N200", ar2, 200, 10)):
        grid = operator.default_grid(model, m, n)
        op = operator.assemble_ar(model, grid)
        g = np.ones((n,) * grid.d)
        t = median_seconds(lambda: op.apply(g), reps)
        moved = op.kmat.nbytes + 2 * g.nbytes
        out[f"operator.apply_s.{label}"] = t
        out[f"operator.apply_mb.{label}"] = moved / 1e6
        out[f"operator.apply_gbps.{label}"] = moved / t / 1e9
        del op
    return out
