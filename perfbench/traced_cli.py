"""Run one pearl CLI call with the benchmark's tracer installed.

    PYTHONPATH=src python3 perfbench/traced_cli.py <spans.npz> <pearl subcommand> [args...]

The call behaves like ``python -m pearl.cli``; its spans are written to
<spans.npz> after it returns.
"""

import sys

from tracer import Tracer


def main(argv):
    from pearl import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
