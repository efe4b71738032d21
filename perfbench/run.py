"""One wall-clock benchmark for the SIRUM reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is imported
from the checkout's ``src`` (no build step).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, read from a
run whose second half is traced (spans also land in
``.perfbench/trace-<workload>-seed<N>.json``).  Lines before it are
notes for people: sample counts, the percentile each ``*_tail`` is, and
the simulated seconds the mining jobs reported.

``--toy`` shrinks every table (the self-test uses it).  Workloads,
metrics and the reasons for both are in ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write("error: no program sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from children import stop_children

    if args.workload not in workloads.SPECS:
        sys.stderr.write("error: unknown workload %r; choose from %s\n" % (
            args.workload, ", ".join(sorted(workloads.SPECS))))
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    # SIGTERM unwinds like an exception, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        result, notes = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, toy=args.toy,
        )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print("# " + json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
