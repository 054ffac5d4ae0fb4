"""Run one blocksim command in a fresh interpreter, for the benchmark.

    python3 bench/launch.py READY_FILE TRACE_FILE -- CLI_ARGS...

Imports ``blocksim.cli`` from the checkout's ``src``, writes the
monotonic clock reading taken right after that import to READY_FILE,
then runs the CLI with CLI_ARGS and exits with its code.  The benchmark
reads set-up time (its own start of this process up to READY_FILE) and
command wall time (READY_FILE up to exit) from it.

When TRACE_FILE is not ``-``, the blocksim modules are instrumented
after the ready reading, and the trace is written to TRACE_FILE when the
command ends.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    ready_file, trace_file, sep, *args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: launch.py READY_FILE TRACE_FILE -- CLI_ARGS...")
    import blocksim.cli

    ready = time.monotonic()
    with open(ready_file, "w") as f:
        f.write(repr(ready))
    if trace_file == "-":
        blocksim.cli.main(args, prog_name="blocksim")
        return

    import spans

    tracer = spans.Tracer()
    spans.instrument(tracer)
    command = tracer.wrap("cli.command", blocksim.cli.main)
    try:
        command(args, prog_name="blocksim")
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    main()
