"""Command-line entry point: ``python -m repro.harness <experiment> [--full]``.

``<experiment>`` is one of the names in the experiment registry
(``table2``, ``figure3`` … ``figure8``, the ``*-brasil`` variants) or
``all``.  The default parameters are laptop-sized; ``--full`` uses the
registry's larger, closer to paper-scale settings (minutes of runtime).
Both scales live side by side in :mod:`repro.harness.registry`.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.registry import EXPERIMENTS, experiment_names, run_experiment


def main(argv: list[str] | None = None) -> int:
    """Run one (or all) of the paper's experiments and print its table."""
    parser = argparse.ArgumentParser(prog="python -m repro.harness", description=__doc__)
    parser.add_argument("experiment", choices=[*experiment_names(), "all"])
    parser.add_argument("--full", action="store_true", help="use paper-scale parameters")
    parser.add_argument(
        "--list", action="store_true", help="describe the chosen experiments and exit"
    )
    arguments = parser.parse_args(argv)

    names = experiment_names() if arguments.experiment == "all" else [arguments.experiment]
    if arguments.list:
        for name in names:
            print(f"{name:15s} {EXPERIMENTS[name].description}")
        return 0
    for name in names:
        result = run_experiment(name, arguments.full)
        print(result.format_table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
