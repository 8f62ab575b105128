"""Process under test of the spec_corpus workload: runs ``bola_guard.cli.main``
in process, one command per request.

    python spec_worker.py [--trace-out PATH]

Reads one JSON array of CLI arguments per line on standard input and answers
each with one JSON line ``{"code", "stdout", "ns"}``: the exit code, what the
command printed, and how long the call took. Stops when its input closes; with
``--trace-out`` it wraps the layer entry points first and writes the recorded
spans to that file on the way out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
from time import perf_counter_ns


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_spec(tracer)

    from bola_guard import cli

    replies = sys.stdout
    try:
        for line in sys.stdin:
            argv = json.loads(line)
            out, err = io.StringIO(), io.StringIO()
            # From the shell every command starts in a fresh process, so none
            # should pay for the cyclic garbage that the one before it left.
            gc.collect()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                started = perf_counter_ns()
                code = cli.main(argv)
                elapsed = perf_counter_ns() - started
            replies.write(json.dumps({"code": code, "stdout": out.getvalue(),
                                      "ns": elapsed}) + "\n")
            replies.flush()
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
