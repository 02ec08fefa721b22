"""Run the privforget command line with span tracing installed.

Usage: python3 cli_launcher.py SPANS_JSON SUBCOMMAND [ARGS...]

The whole subcommand is one ``cli.main`` span; the spans of the layers it
calls nest under it.  Spans and counts are written to SPANS_JSON on exit,
whatever the exit code, with the time spent installing the wrappers,
counting and writing the file.  PYTHONPATH must point at the package sources.
"""
import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from privforget import cli

    t0 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.overhead_s += time.perf_counter() - t0
    try:
        return tracer.span(tracing.CLI_SPAN, cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
