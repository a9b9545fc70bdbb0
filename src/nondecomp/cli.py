"""Command-line front end.

Usage::

    nondecomp <task> <config-file> [--key=value ...]

Tasks: synth, fit, threshold, eval, convergence, compare, rate_check.
The config file holds flat ``key = value`` lines (lists comma-separated);
any key can be overridden on the command line. Exit codes: 0 success,
1 numerical failure, 2 usage, input or output error.
"""

from __future__ import annotations

import re
import sys

import numpy as np

from .config import TASKS, ExperimentConfig, UsageError, decoded, parse_config_text, read_input
from .estimator import NumericalError
from .harness import run_task

_OVERRIDE = re.compile(r"^--([A-Za-z_][A-Za-z0-9_]*)=(.*)$", re.DOTALL)

USAGE = (
    "usage: nondecomp <task> <config-file> [--key=value ...]\n"
    f"tasks: {', '.join(TASKS)}\n"
    "exit codes: 0 success, 1 numerical failure, 2 usage/input/output error"
)


def _parse_argv(args):
    if not args or args[0] in ("-h", "--help"):
        print(USAGE)
        return None
    if len(args) < 2:
        raise UsageError("expected a task and a config file")
    task, config_path = args[0], args[1]
    overrides = {}
    for arg in args[2:]:
        match = _OVERRIDE.match(arg)
        if match is None:
            raise UsageError(f"bad override {arg!r}; expected --key=value")
        overrides[match.group(1)] = match.group(2)
    return task, config_path, overrides


def main(argv=None):
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _parse_argv(args)
        if parsed is None:
            return 0
        task, config_path, overrides = parsed
        file_values = read_input(
            config_path, "config",
            lambda fh, data: parse_config_text(decoded(fh, data).read()), UsageError,
        )
        cfg = ExperimentConfig.from_sources(task, file_values, overrides)
        run_task(cfg)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output that cannot be written; inputs are read behind UsageError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid names or values reaching the library surface
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
