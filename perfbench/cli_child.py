"""Run the chargelab CLI with the benchmark tracer installed.

    python perfbench/cli_child.py SPANS_PATH CLI_ARGS...

Used by the certify workload's traced run: it patches the same module
attributes as an in-process traced run, runs `chargelab.cli.main` on
CLI_ARGS, writes the recorded spans to SPANS_PATH (one JSON object a line)
and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer, chargelab_modules


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from chargelab import cli

    tracer = Tracer()
    tracer.install(chargelab_modules())
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
