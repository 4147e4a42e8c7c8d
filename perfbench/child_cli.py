"""One persistx command line with spans recorded around its calls.

Usage: python3 perfbench/child_cli.py <spans.json> <persistx arguments...>

Runs ``persistx.cli.main`` on the arguments like ``python -m persistx.cli``
does, and writes the spans it recorded, import included, to <spans.json>.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(out, argv):
    tracer = tracing.Tracer()
    t0 = time.monotonic()
    from persistx import cli

    # importing persistx loads numpy and scipy: the model layer's import cost
    tracer.span("model.import", t0, time.monotonic())
    tracing.instrument(tracer)
    try:
        return cli.main(argv)
    finally:
        Path(out).write_text(json.dumps([s.to_json() for s in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
