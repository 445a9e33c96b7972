"""Warm-process case runner: one interpreter that imports chernrep once and
runs cases through `chernrep.cli.run(argv, out, err)`.

Protocol, one JSON object per line: the harness writes {"case", "argv"} to
stdin and reads {"exit", "seconds", "stdout_sha256", "stderr", "exception"}
from stdout.  The first line the worker writes is {"chernrep": <path>}.
With --spans PATH the tracer's wrappers are installed before any case runs
and the spans are written to PATH when stdin closes.

Usage: python perfbench/worker.py [--spans PATH]
"""

import argparse
import hashlib
import io
import json
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans")
    args = ap.parse_args()
    reply = sys.stdout
    sys.stdout = sys.stderr  # nothing but protocol lines on the real stdout

    import chernrep
    import chernrep.cli

    recorder = None
    if args.spans:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"chernrep": chernrep.__file__})
    for line in sys.stdin:
        req = json.loads(line)
        if recorder is not None:
            recorder.case = req["case"]
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        t0 = time.perf_counter()
        try:
            code = chernrep.cli.run(req["argv"], out, err)
        except Exception as e:  # a library defect: counted as a failed case
            exc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        send(
            {
                "exit": code,
                "seconds": seconds,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr": err.getvalue()[-2000:],
                "exception": exc,
            }
        )
    if recorder is not None:
        recorder.write(args.spans)


if __name__ == "__main__":
    main()
