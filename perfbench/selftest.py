"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload of ``BENCHMARK.json`` it runs ``run.py --toy`` with
``--trace 0`` and ``--trace 1`` and checks the last output line: exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, a
correct run, and every end-to-end (or per-layer) metric of
``BENCHMARK.json`` present with its unit and nothing else.  It then
checks that the correctness gate trips when a mining and a SQL reference
are deliberately corrupted, and that the benchmark refuses to run, with
no result line, when the program's sources are absent.  Takes a couple
of minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "2"


class SelfTestError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise SelfTestError(message)


def run_benchmark(cwd, workload, trace):
    argv = [sys.executable, str(Path("perfbench") / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_output(workload, trace, declared):
    proc = run_benchmark(ROOT, workload, trace)
    check(proc.returncode == 0, "%s --trace %d exited %d:\n%s" % (
        workload, trace, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(result)))
    check(result["correct"] is True and result["failed"] == 0,
          "%s --trace %d: incorrect run %s" % (workload, trace, result))
    check(result["attempted"] >= 1, "%s: nothing attempted" % workload)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    check(printed == declared, "%s --trace %d: metrics differ from "
          "BENCHMARK.json:\n printed %s\n declared %s"
          % (workload, trace, printed, declared))
    for name, metric in result["metrics"].items():
        check(isinstance(metric["value"], (int, float)),
              "%s: %s is not a number" % (workload, name))


def check_gate():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workdir = ROOT / ".perfbench" / "selftest-gate"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, _ = workloads.run("mine-income", 7, float(SECONDS), False,
                                  workdir, toy=True, corrupt_reference=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(result["correct"] is False,
          "a corrupted reference did not make the run incorrect")
    check(result["failed"] >= 2, "expected the corrupted mining and SQL "
          "references to fail requests, got %d failed" % result["failed"])


def check_refuses_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark(bare, "mine-income", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "ran without the program's sources")
    check('"metrics"' not in proc.stdout,
          "printed a result without the program's sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            check_output(workload, trace, declared)
            print("ok  %s --trace %d" % (workload, trace), flush=True)
    check_gate()
    print("ok  correctness gate trips on corrupted references", flush=True)
    check_refuses_without_sources()
    print("ok  refuses to run without the program's sources", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        sys.stderr.write("FAIL: %s\n" % exc)
        sys.exit(1)
