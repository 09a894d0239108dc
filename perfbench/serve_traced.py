"""`pfid serve` with the server-side spans recorded.

Usage: python3 perfbench/serve_traced.py SPANS.json serve --checkpoint ...

Runs the program's own CLI in this process after installing the span
wrappers, and writes the spans to SPANS.json when the server stops (SIGINT).
"""

import sys

from tracing import SERVER_SITES, Tracer

import pfid.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(SERVER_SITES)
    try:
        return pfid.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
