"""Set-up of one workload in a fresh interpreter: import persistx and build
the workload's models. run.py times this process from launch to exit.

Usage: python3 perfbench/child_setup.py <workload>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import persistx  # noqa: E402


def main(workload):
    if workload == "crude":
        specs = [spec for _, spec in cases.CRUDE]
    elif workload == "splitting":
        specs = [spec for _, spec, _, _ in cases.SPLIT_DEEP] + [cases.SPLIT_REP_MODEL]
    elif workload == "operator":
        specs = [spec for _, spec, _ in cases.OPERATOR]
    else:
        from persistx import cli

        parser = cli.build_parser()
        for _, template in cases.CLI:
            args = parser.parse_args(cases.cli_argv(template, 0, "suite.json", "out"))
            if getattr(args, "process", None):
                cli.build_model(args)
        config = json.loads((HERE / "suite.json").read_text())
        specs = config["cases"]
    for spec in specs:
        persistx.model_from_json(spec)


if __name__ == "__main__":
    main(sys.argv[1])
