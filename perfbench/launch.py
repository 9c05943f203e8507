"""Runs one agecontrast CLI command with span wrappers installed.

    python3 perfbench/launch.py TRACE_DIR COMMAND [ARGS...]

Spans go to TRACE_DIR/spans-<pid>.jsonl, one file per process; forked
pool workers write their own. The exit code is the command's.
"""

import sys
from pathlib import Path

import tracing


def main() -> int:
    trace_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    from agecontrast import cli
    tracer = tracing.Tracer(trace_dir)
    tracing.install(tracer)
    span = tracer.begin(f"cli.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        tracer.end(span)
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
