"""One regionchoice CLI call with every layer function traced.

Usage: python bench/cli_child.py TRACE_OUT CLASS CLI-ARGS...

Runs ``regionchoice.cli.main`` on CLI-ARGS, writes the recorded spans to
TRACE_OUT as JSON and exits with the CLI's exit code.  ``src`` must be on
PYTHONPATH, as for ``python -m regionchoice.cli``.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    out, klass, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    cli = sys.modules["regionchoice.cli"]
    tracer.install(klass)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.raw()))


if __name__ == "__main__":
    sys.exit(main())
