"""Run one mvlogic CLI command with its spans traced.

    python3 perfbench/cli_shim.py SPANS_FILE ARG...

behaves as `python -m mvlogic ARG...` (same output and exit code) and
writes the spans recorded in this process to SPANS_FILE.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mvlogic.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    out, sys.argv = sys.argv[1], ["mvlogic"] + sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mvlogic.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracing.write_spans(out, tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
