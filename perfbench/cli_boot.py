"""Run one bsmaj CLI command with the library's public functions traced.

    python perfbench/cli_boot.py SPANS.json [bsmaj arguments...]

Behaves like ``python -m bsmaj.cli`` (same output, exit code and
tracebacks) and writes the spans to SPANS.json on the way out. The span
``cli.main`` covers argument parsing, the command and its output.
"""

import sys

import tracing


def main() -> None:
    spans_path, args = sys.argv[1], sys.argv[2:]
    import bsmaj.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            bsmaj.cli.main.main(args=args, prog_name="bsmaj")
    finally:
        tracing.write_trace(spans_path, [tracer.spans])


if __name__ == "__main__":
    main()
