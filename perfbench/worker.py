"""Shard-worker launcher for the remote benchmark workload.

Starts one shared-nothing :class:`~repro.net.worker.ShardWorker` on a
free loopback port, prints its address as the first line of standard
output, and serves until SIGTERM or until its parent is gone.  With
``--trace-out PATH`` it installs the benchmark's span wrappers *before*
constructing the worker and, on SIGTERM, writes the spans it recorded
to PATH as JSON.

    python3 perfbench/worker.py [--trace-out PATH]

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``.
"""

import argparse
import json
import os
import signal
import sys
import threading


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from children import stop_children
    from repro.net.worker import ShardWorker

    worker = ShardWorker(host="127.0.0.1", port=0, local_files=False)
    worker.start()
    try:
        sys.stdout.write(worker.address + "\n")
        sys.stdout.flush()
        parent = os.getppid()
        while not stop.wait(0.2):
            if os.getppid() != parent:  # the driver died without stopping us
                break
    finally:
        try:
            worker.stop()
        finally:
            stop_children()
    if tracer is not None:
        with open(args.trace_out, "w") as out:
            json.dump(tracer.spans, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
