"""Run ``wgqed.cli.main`` under the benchmark's tracer.

Usage: python3 cli_shim.py SPANS_JSON run <preset> [options...]

Writes the tracer state (aggregates and spans) to SPANS_JSON and exits with
the command line's own exit code.
"""

import sys

import wgqed.cli

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    tracer.active = True
    try:
        code = wgqed.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        tracer.dump(sys.argv[1])
    sys.exit(code)
