"""Run the lamrho CLI with spans recorded; the traced `cli` workload's child.

    python3 bench/cli_launcher.py SPANS_OUT ARG...

installs the benchmark's wrappers on the lamrho modules of the checkout's
``src/``, calls ``lamrho.cli.main(ARG...)``, writes the spans to SPANS_OUT
and exits with the CLI's exit code. Standard output is the CLI's own.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import lamrho.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.enabled = True
    try:
        return lamrho.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
