"""Run one ``awsym.cli`` command with the span recorder installed.

Usage: python perfbench/cli_child.py SPANS_JSON [awsym cli arguments...]

The traced ``cli-cold`` run starts this instead of ``python -m awsym.cli``:
it imports the CLI, wraps the same public functions as the in-process
traced run, calls ``awsym.cli.main`` and writes the spans to SPANS_JSON.
The exit status is the CLI's own.
"""

import sys

import awsym.cli
from tracing import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        return awsym.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
