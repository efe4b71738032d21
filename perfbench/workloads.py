"""The benchmark's three workloads: set-up, request scripts, the closed
loop that drives them, and the metrics read off a run.

Every workload talks to the program through its public API only: a
:class:`~repro.service.RuleMiningService` in-process (``mine-income``,
``mine-susy-remote``) or over TCP through
:class:`~repro.net.ServiceClient` (``serve-mixed``).  Each request is
one of four kinds, told apart by how the service answered it:

* ``mine``    — a mining request that ran the miner;
* ``hit``     — a mining request answered by the result cache or by
  coalescing onto an identical in-flight job;
* ``sql``     — a SQL ``GROUP BY`` query;
* ``refresh`` — ``register_dataset`` of a new version of the table (a
  write: it invalidates cached results).

Why each workload exists is in ``perfbench/README.md``.
"""

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

#: A ``*_tail`` metric is the highest percentile with at least this
#: many samples beyond it.
TAIL_BEYOND = 10

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Per-request timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Mining requests fix ``rules_per_iteration=1`` on top of the
#: ``optimized`` variant: the number of mining iterations is then k on
#: every dataset seed, which is what keeps a run's job time from
#: swinging with how many rules each iteration happened to pick.
MINE_OVERRIDES = {"variant": "optimized", "rules_per_iteration": 1}


class Spec:
    """Sizes and shape of one workload (``toy`` shrinks the tables).

    ``tables`` datasets are generated per run, each from its own seed;
    every table gets ``seeds_per_table`` mining seeds.  The request
    script the caller replays is built by :func:`build_script`.
    """

    def __init__(self, name, dataset, rows, toy_rows, k, sample_size,
                 tables=1, seeds_per_table=1, colfile=False, remote=False,
                 wire=False, service_workers=1, pool_fraction=None,
                 round_entries=1, hits_per_round=0, sql_per_round=0,
                 refreshes_per_round=1):
        self.name = name
        self.dataset = dataset
        self.rows = rows
        self.toy_rows = toy_rows
        self.k = k
        self.sample_size = sample_size
        self.tables = tables
        self.seeds_per_table = seeds_per_table
        self.colfile = colfile
        self.remote = remote
        self.wire = wire
        self.service_workers = service_workers
        self.pool_fraction = pool_fraction
        self.round_entries = round_entries
        self.hits_per_round = hits_per_round
        self.sql_per_round = sql_per_round
        self.refreshes_per_round = refreshes_per_round

    def table_name(self, index):
        return "%s%d" % (self.dataset, index)


SPECS = {
    # Back-to-back miner jobs on in-RAM tables; each round is one miner
    # run, cache hits and SQL probes on the same table, and a refresh of
    # every table (a refresh here is a 1-3 ms decode; one per round left
    # too few samples for a steady median).
    "mine-income": Spec(
        "mine-income", "income", rows=16000, toy_rows=1500, k=4,
        sample_size=64, tables=3, hits_per_round=5, sql_per_round=6,
        refreshes_per_round=3,
    ),
    # The same round shape on colfile-backed SUSY projections, mined on
    # two shared-nothing shard workers started in set-up.
    "mine-susy-remote": Spec(
        "mine-susy-remote", "susy", rows=4000, toy_rows=600, k=3,
        sample_size=16, tables=3, colfile=True, remote=True,
        hits_per_round=5, sql_per_round=6,
    ),
    # A TCP client against a two-worker service that reads its one
    # table through a buffer pool smaller than the file: two small miner
    # runs, their two cache hits, five queries and a refresh per round.
    "serve-mixed": Spec(
        "serve-mixed", "tlc", rows=20000, toy_rows=3000, k=3,
        sample_size=16, seeds_per_table=4, colfile=True, wire=True,
        service_workers=2, pool_fraction=0.5, round_entries=2,
        hits_per_round=2, sql_per_round=5,
    ),
}

#: SUSY is mined as its 12-dimension projection; see the README for why
#: the 18-dimension table is not used.
SUSY_DIMENSIONS = 12


def build_table(spec, seed, toy):
    from repro.data.generators import income_table, susy_table, tlc_table

    rows = spec.toy_rows if toy else spec.rows
    if spec.dataset == "income":
        return income_table(rows, seed=seed)
    if spec.dataset == "susy":
        return susy_table(rows, num_dimensions=SUSY_DIMENSIONS, seed=seed)
    return tlc_table(rows, seed=seed)


# ----------------------------------------------------------------------
# Request scripts (all derived from the workload seed)
# ----------------------------------------------------------------------


def mining_params(spec, seed):
    return dict(MINE_OVERRIDES, k=spec.k, sample_size=spec.sample_size,
                seed=int(seed))


def sql_texts(table, name, rng):
    """Every (dimension, aggregate) GROUP BY query over the table, in a
    seeded order: a run samples the same query mix whatever its seed."""
    measure = table.schema.measure
    combos = [(d, agg) for d in table.schema.dimensions
              for agg in ("AVG", "SUM", "MIN", "MAX")]
    return [
        "SELECT %s, COUNT(*) AS c, %s(%s) AS a FROM %s GROUP BY %s "
        "ORDER BY c DESC, %s" % (dim, agg, measure, name, dim, dim)
        for dim, agg in (combos[i] for i in rng.permutation(len(combos)))
    ]


def build_script(spec, mine_pool, queries, length=20000):
    """The request list the caller replays: ``[(kind, payload, boundary)]``.

    ``mine_pool`` holds ``(table index, mining seed)`` pairs and
    ``queries[i]`` the SQL texts of table i.  A round mines the next
    ``round_entries`` pool entries (cache misses: the refresh closing
    the previous round invalidated their results), repeats them for
    ``hits_per_round`` cache hits, runs ``sql_per_round`` queries on the
    round's first table and refreshes ``refreshes_per_round`` tables,
    that one first and then the ones after it.  The caller checks the
    clock only at a round's first request (its ``boundary``), so a round
    is never cut short.  Query texts cycle, so one recurs only after the
    catalog version it was cached under is gone.
    """
    sql = [itertools.cycle(texts) for texts in queries]
    entries = itertools.cycle(mine_pool)
    script = []
    while len(script) < length:
        mined = [next(entries) for _ in range(spec.round_entries)]
        table = mined[0][0]
        script.extend(("mine", entry, i == 0) for i, entry in
                      enumerate(mined))
        script.extend(("mine", mined[i % len(mined)], False)
                      for i in range(spec.hits_per_round))
        script.extend(("sql", next(sql[table]), False)
                      for _ in range(spec.sql_per_round))
        script.extend(("refresh", (table + i) % spec.tables, False)
                      for i in range(spec.refreshes_per_round))
    return script


# ----------------------------------------------------------------------
# Set-up and teardown
# ----------------------------------------------------------------------


class Env:
    """Everything one set-up built; ``close`` tears it down."""

    def __init__(self):
        self.tables = []           # the in-RAM generated tables
        self.colfiles = []
        self.pool = None
        self.workers = []          # (Popen, address, trace path)
        self.service = None
        self.server = None
        self.client = None

    def fresh_table(self, index):
        """A new version of table ``index``, as a refresh registers it."""
        from repro.data import Table

        if not self.colfiles:
            return self.tables[index]
        return Table.open_colfile(self.colfiles[index], pool=self.pool)

    def worker_pids(self):
        return [proc.pid for proc, _, _ in self.workers]

    def close(self):
        """Close client, server and service; the shard workers are
        stopped and waited for even if one of those raises."""
        try:
            if self.client is not None:
                client, self.client = self.client, None
                client.close()
            if self.server is not None:
                server, self.server = self.server, None
                server.stop()
            if self.service is not None:
                service, self.service = self.service, None
                service.close()
        finally:
            stop_workers(self.workers)


def start_workers(count, workdir, tag, trace):
    """Launch ``count`` shard workers; returns ``[(proc, address, path)]``."""
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = []
    try:
        for i in range(count):
            trace_path = workdir / ("worker-%s-%d.json" % (tag, i))
            argv = [sys.executable, str(BENCH_DIR / "worker.py")]
            if trace:
                argv += ["--trace-out", str(trace_path)]
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                    text=True)
            started.append((proc, None, trace_path))
        workers = []
        for proc, _, trace_path in started:
            address = proc.stdout.readline().strip()
            if not address:
                raise RuntimeError("shard worker %d exited during start-up"
                                   % proc.pid)
            workers.append((proc, address, trace_path))
        return workers
    except BaseException:
        stop_workers(started)
        raise


def stop_workers(workers):
    """SIGTERM every worker and wait for each to exit."""
    for proc, _, _ in workers:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc, _, _ in workers:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    workers[:] = []


def setup(spec, data_seeds, toy, workdir, rep, trace):
    """Build the system a run measures, through to a warmed-up service."""
    from repro.data import BufferPool
    from repro.data.colfile import write_colfile
    from repro.service import RuleMiningService, ServiceConfig

    env = Env()
    try:
        env.tables = [build_table(spec, s, toy) for s in data_seeds]
        if spec.colfile:
            for i, table in enumerate(env.tables):
                path = workdir / ("%s-%d.col" % (spec.table_name(i), rep))
                write_colfile(table, path)
                env.colfiles.append(path)
            capacity = None
            if spec.pool_fraction is not None:
                capacity = int(sum(os.path.getsize(p) for p in env.colfiles)
                               * spec.pool_fraction)
            env.pool = BufferPool(capacity_bytes=capacity)
        config = dict(num_workers=spec.service_workers, engine_parallelism=1,
                      engine_executor="thread")
        if spec.remote:
            env.workers = start_workers(2, workdir, rep, trace)
            config.update(engine_executor="remote", engine_parallelism=2,
                          max_engine_workers=2,
                          shard_workers=[a for _, a, _ in env.workers])
        env.service = RuleMiningService(ServiceConfig(**config))
        for i in range(len(env.tables)):
            env.service.register_dataset(spec.table_name(i),
                                         env.fresh_table(i))
        front = env.service
        if spec.wire:
            from repro.net import ServiceClient, ServiceServer

            env.server = ServiceServer(env.service)
            port = env.server.start()
            env.client = ServiceClient("127.0.0.1", port,
                                       timeout=REQUEST_TIMEOUT_S)
            front = env.client
        # Warm-up per table: a small mining job (its own cache key, and
        # on remote workers the first block shipping) and a query.
        for i, seed in enumerate(data_seeds):
            name = spec.table_name(i)
            warm = dict(mining_params(spec, seed), k=1)
            front.submit_mine(name, **warm).result(REQUEST_TIMEOUT_S)
            front.submit_query(
                "SELECT COUNT(*) AS c FROM %s" % name
            ).result(REQUEST_TIMEOUT_S)
        return env
    except BaseException:
        env.close()
        raise


def fill_job_table(spec, env):
    """Bring the server's table of finished jobs to its steady size.

    ``ServiceServer`` keeps the last ``completed_job_retention`` finished
    jobs addressable and scans them on every admission, so request
    latency grows until the table is full.  A long-running server always
    has a full table; cheap cached queries fill it before timing starts.
    """
    text = "SELECT COUNT(*) AS c FROM %s" % spec.table_name(0)
    for _ in range(env.server.config.completed_job_retention):
        env.client.submit_query(text).result(REQUEST_TIMEOUT_S)


def references(spec, env, mine_pool, queries):
    """Serial in-RAM mining and an uncached SQL engine: the oracles."""
    from repro import mine
    from repro.sql import SqlEngine

    mining = {}
    for table, seed in mine_pool:
        mining[(table, seed)] = mine(
            env.tables[table], parallelism=1, executor="thread",
            placed=False, **mining_params(spec, seed)
        )
    engine = SqlEngine(plan_cache_size=0)
    for i, table in enumerate(env.tables):
        engine.register_table(spec.table_name(i), table)
    sql = {}
    for texts in queries:
        for text in texts:
            result = engine.query(text)
            sql[text] = (list(result.columns), list(result.rows))
    return mining, sql


# ----------------------------------------------------------------------
# The measured closed loop
# ----------------------------------------------------------------------


class Record:
    __slots__ = ("kind", "start", "end", "job", "ok", "traced", "result")

    def __init__(self, kind, start, end, job, ok, traced, result=None):
        self.kind = kind
        self.start = start
        self.end = end
        self.job = job
        self.ok = ok
        self.traced = traced
        self.result = result

    @property
    def seconds(self):
        return (self.end - self.start) / 1e9


def execute(spec, env, front, kind, payload, refs, tracer):
    """Run one scripted request; returns its :class:`Record`."""
    from repro.bench.harness import mining_results_identical

    traced = tracer is not None and tracer.enabled
    job = None
    result = None
    start = time.monotonic_ns()
    try:
        if kind == "refresh":
            env.service.register_dataset(spec.table_name(payload),
                                         env.fresh_table(payload))
            ok = True
        elif kind == "mine":
            table, seed = payload
            handle = front.submit_mine(spec.table_name(table),
                                       **mining_params(spec, seed))
            job = handle.job_id
            result = handle.result(REQUEST_TIMEOUT_S)
            if handle.cache_hit or handle.coalesced:
                kind = "hit"
            ok = mining_results_identical(result, refs[0][payload])
        else:
            handle = front.submit_query(payload)
            job = handle.job_id
            result = handle.result(REQUEST_TIMEOUT_S)
            ok = (list(result.columns), list(result.rows)) == refs[1][payload]
    except Exception as exc:  # a failed request is counted, not fatal
        sys.stderr.write("request %s failed: %r\n" % (kind, exc))
        ok = False
    end = time.monotonic_ns()
    return Record(kind, start, end, job, ok, traced,
                  result if kind == "mine" else None)


def enough(records):
    """Every timed kind has the samples its metrics need."""
    counts = {"mine": 0, "hit": 0, "sql": 0, "refresh": 0}
    for record in records:
        counts[record.kind] += 1
    return (counts["mine"] > TAIL_BEYOND and counts["sql"] >= 3
            and counts["hit"] >= 3 and counts["refresh"] >= 3)


def closed_loop(spec, env, script, refs, seconds, tracer, on_midpoint):
    """One caller replays the script until ``seconds`` have passed.

    Each request is sent only after the previous one completed.  The
    loop runs past the deadline (up to three times ``seconds``, plus
    30 s) only while a timed kind is short of the samples its metrics
    need.  With a tracer, ``on_midpoint`` is called once, at the first
    request past the half-way point.
    """
    front = env.client or env.service
    records = []
    started = time.monotonic()
    deadline = started + seconds
    hard_stop = started + 3 * seconds + 30
    midpoint = started + seconds / 2.0
    for kind, payload, boundary in script:
        now = time.monotonic()
        if boundary and now >= deadline and (now >= hard_stop
                                             or enough(records)):
            break
        if tracer is not None and not tracer.enabled and now >= midpoint:
            on_midpoint()
        records.append(execute(spec, env, front, kind, payload, refs,
                               tracer))
    return records, time.monotonic() - started


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def tail(values):
    """``(value, percentile, n)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it, or None if n is too small."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def vm_hwm_mb(pid):
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def end_to_end(records, wall, setup_times, rss_mb, notes):
    by_kind = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record.seconds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (len(records) / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (
            sum(1 for r in records if r.ok) / max(1, len(records)), "ratio"
        ),
    }
    for kind in ("mine", "hit", "sql", "refresh"):
        values = by_kind.get(kind, [])
        if not values:
            raise RuntimeError("no %s request was timed" % kind)
        metrics["%s_s_p50" % kind] = (statistics.median(values), "s")
        notes["%s_n" % kind] = len(values)
        found = tail(values)
        if found is not None:
            value, percentile, n = found
            notes["%s_s_tail" % kind] = "%.6f s, p%.1f of n=%d" % (
                value, percentile, n)
    if "mine_s_tail" not in notes:
        raise RuntimeError("%d mine samples: too few for a tail"
                           % len(by_kind["mine"]))
    value, _, _ = tail(by_kind["mine"])
    metrics["mine_s_tail"] = (value, "s")
    return metrics


def snapshot(env):
    """Counters read at the start and end of the traced window."""
    from repro.net import ShardWorkerClient

    snap = {
        "service": env.service.stats(),
        "pool": env.pool.stats() if env.pool is not None else None,
        "net": env.server.net_stats() if env.server is not None else None,
        "workers": [],
    }
    for _, address, _ in env.workers:
        with ShardWorkerClient(address) as client:
            snap["workers"].append(client.hello()["block_cache"])
    return snap


def _rate(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def _delta(before, after, *path):
    """``after - before`` at ``path``; 0 for a layer the run lacks."""
    if before is None:
        return 0
    for key in path:
        before, after = before[key], after[key]
    return after - before


def per_layer(records, before, after, summary, tracer, setup_window):
    """Layer metrics over the traced half of the run."""
    traced = [r for r in records if r.traced and r.ok]
    untraced = [r for r in records if not r.traced and r.ok]
    mines = [r for r in traced if r.kind == "mine"]
    n_mine = max(1, len(mines))

    def span(name, field="self_s"):
        return summary.get(name, {}).get(field, 0.0)

    def per_call(name):
        row = summary.get(name)
        return row["total_s"] / row["count"] if row else 0.0

    out = {}
    for name in ("lca", "scale", "group_rows", "ancestors", "group",
                 "match"):
        out["core.%s_s" % name] = (span("core." + name) / n_mine, "s")
    for phase in ("load", "candidate_pruning", "ancestor_generation",
                  "gain", "iterative_scaling"):
        out["core.phase.%s_s" % phase] = (
            span("core.phase." + phase, "total_s") / n_mine, "s"
        )
    emitted = sum(r.result.ancestors_emitted for r in mines)
    scored = sum(r.result.candidates_scored for r in mines)
    out["core.ancestors_emitted"] = (emitted / n_mine, "count")
    out["core.candidates_scored"] = (scored / n_mine, "count")
    out["core.candidate_yield"] = (scored / emitted if emitted else 0.0,
                                   "ratio")
    out["core.scaling_iterations"] = (
        sum(r.result.scaling_iterations for r in mines) / n_mine, "count"
    )

    out["engine.stage_s"] = (span("engine.stage", "total_s") / n_mine, "s")
    out["engine.stage_self_s"] = (span("engine.stage") / n_mine, "s")
    out["engine.kernel_s"] = (span("engine.kernel", "total_s") / n_mine, "s")
    out["engine.stages"] = (
        summary.get("engine.stage", {}).get("count", 0) / n_mine, "count"
    )
    out["engine.tasks"] = (
        summary.get("engine.kernel", {}).get("count", 0) / n_mine, "count"
    )
    out["engine.fallback_stages"] = (
        tracer.counters[("traced", "engine.fallback_stages")], "count"
    )
    p0 = before["service"]["placement"]
    p1 = after["service"]["placement"]
    out["engine.affinity_hit_rate"] = (_rate(
        p1["affinity_hits"] - p0["affinity_hits"],
        p1["affinity_misses"] - p0["affinity_misses"],
    ), "ratio")
    out["engine.worker_failures"] = (
        p1["worker_failures"] - p0["worker_failures"], "count"
    )
    out["engine.rebalances"] = (p1["rebalances"] - p0["rebalances"], "count")

    out["data.materialize_s"] = (per_call("data.materialize"), "s")
    pools = before["pool"], after["pool"]
    misses = _delta(*pools, "misses")
    out["data.pool_hit_rate"] = (_rate(_delta(*pools, "hits"), misses),
                                 "ratio")
    out["data.pool_misses"] = (misses, "count")
    out["data.pool_evictions"] = (_delta(*pools, "evictions"), "count")

    nets = before["net"], after["net"]
    wire = [r for r in traced if r.job is not None and nets[0] is not None]
    out["net.wire_s"] = (wire_seconds(wire, tracer), "s")
    n_wire = max(1, len(wire))
    out["net.frames_in"] = (_delta(*nets, "frames_in") / n_wire, "count")
    out["net.frames_out"] = (_delta(*nets, "frames_out") / n_wire, "count")
    out["net.protocol_errors"] = (_delta(*nets, "protocol_errors"),
                                  "count")
    out["net.worker.blocks_shipped"] = (
        tracer.counters[(setup_window, "net.worker.blocks_shipped")], "count"
    )
    out["net.worker.bytes_shipped"] = (
        tracer.counters[(setup_window, "net.worker.bytes_shipped")], "B"
    )
    hits = sum(w["hits"] for w in after["workers"]) - sum(
        w["hits"] for w in before["workers"])
    misses = sum(w["misses"] for w in after["workers"]) - sum(
        w["misses"] for w in before["workers"])
    out["net.worker.block_cache_hit_rate"] = (_rate(hits, misses), "ratio")

    s0, s1 = before["service"], after["service"]
    jobs = max(1, s1["jobs"]["completed"] - s0["jobs"]["completed"]
               + s1["jobs"]["failed"] - s0["jobs"]["failed"])
    for phase in ("queue_wait", "execute", "budget_wait"):
        seconds = (s1["phase_seconds"].get(phase, 0.0)
                   - s0["phase_seconds"].get(phase, 0.0))
        out["service.%s_s" % phase] = (seconds / jobs, "s")
    submitted = (s1["jobs"]["submitted"] - s0["jobs"]["submitted"])
    deduped = (s1["cache"]["hits"] - s0["cache"]["hits"]
               + s1["coalesce_hits"] - s0["coalesce_hits"])
    out["service.dedup_rate"] = (
        deduped / submitted if submitted else 0.0, "ratio"
    )
    out["service.queue_rejections"] = (
        s1["queue"]["rejections"] - s0["queue"]["rejections"], "count"
    )
    out["service.jobs_failed"] = (
        s1["jobs"]["failed"] - s0["jobs"]["failed"], "count"
    )

    out["sql.query_s"] = (per_call("sql.query"), "s")
    out["sql.plan_cache_hit_rate"] = (_rate(
        _delta(s0, s1, "plan_cache", "hits"),
        _delta(s0, s1, "plan_cache", "misses"),
    ), "ratio")

    traced_mine = [r.seconds for r in mines]
    untraced_mine = [r.seconds for r in untraced if r.kind == "mine"]
    if not traced_mine or not untraced_mine:
        raise RuntimeError("too few mining jobs on one side of the trace")
    on = statistics.median(traced_mine)
    off = statistics.median(untraced_mine)
    out["trace.mine_s_p50_traced"] = (on, "s")
    out["trace.mine_s_p50_untraced"] = (off, "s")
    out["trace.overhead_s"] = (on - off, "s")
    return out


def wire_seconds(wire_records, tracer):
    """Mean client wall per wire request not covered by the in-process
    ``submit_*`` and ``JobHandle.result`` spans of the same job."""
    from spans import covered

    if not wire_records:
        return 0.0
    by_job = {}
    for name, start, end, _sid, _parent, job, _pid in tracer.spans:
        if name in ("service.submit", "service.result") and job is not None:
            by_job.setdefault(job, []).append((start, end))
    total = 0
    for record in wire_records:
        inside = covered(record.start, record.end,
                          by_job.get(record.job, []))
        total += (record.end - record.start) - inside
    return total / len(wire_records) / 1e9


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(name, seed, seconds, trace, workdir, toy=False,
        corrupt_reference=False):
    """Set up, measure and check one workload; returns the result dict.

    ``corrupt_reference`` spoils one mining and one SQL reference after
    they are computed — the self-test's proof that the gate trips.
    """
    import spans

    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    data_seeds = [int(s) for s in rng.integers(0, 2**31, size=spec.tables)]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    env = None
    notes = {"workload": name, "seed": seed}
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.window = "setup%d" % rep
            started = time.monotonic()
            candidate = setup(spec, data_seeds, toy, workdir, rep, trace)
            setup_times.append(time.monotonic() - started)
            if rep < SETUP_REPEATS - 1:
                candidate.close()
            else:
                env = candidate
        mine_pool = [
            (i, int(s)) for i in range(spec.tables)
            for s in rng.choice(10**6, size=spec.seeds_per_table,
                                replace=False)
        ]
        queries = [sql_texts(table, spec.table_name(i), rng)
                   for i, table in enumerate(env.tables)]
        refs = references(spec, env, mine_pool, queries)
        if corrupt_reference:
            refs[0][mine_pool[0]].lambdas[0] += 1.0
            columns, rows = refs[1][queries[0][0]]
            refs[1][queries[0][0]] = (columns, rows[1:])
        if env.server is not None:
            fill_job_table(spec, env)
        script = build_script(spec, mine_pool, queries)

        marks = {}

        def on_midpoint():
            marks["before"] = snapshot(env)
            tracer.window = "traced"
            tracer.enabled = True

        if tracer is not None:
            tracer.window = "untraced"
        records, wall = closed_loop(spec, env, script, refs, seconds,
                                    tracer, on_midpoint)
        rss = vm_hwm_mb(os.getpid()) + sum(
            vm_hwm_mb(pid) for pid in env.worker_pids()
        )
        if tracer is not None:
            tracer.enabled = False
            marks["after"] = snapshot(env)
        failed = sum(1 for r in records if not r.ok)
        result = {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
        }
        if tracer is None:
            metrics = end_to_end(records, wall, setup_times, rss, notes)
        else:
            metrics = None
        sim = [r.result.simulated_seconds for r in records
               if r.kind == "mine" and r.ok]
        notes["sim_seconds"] = sorted(set(sim))
    finally:
        if env is not None:
            env.close()
        if tracer is not None:
            spans.uninstall(tracer)
    if tracer is not None:
        worker_spans = []
        for path in sorted(workdir.glob("worker-%d-*.json"
                                        % (SETUP_REPEATS - 1))):
            with open(path) as handle:
                worker_spans.extend(tuple(s) for s in json.load(handle))
        all_spans = tracer.spans + worker_spans
        keyed = spans.link_worker_kernels(all_spans, os.getpid())
        summary = spans.summarize(keyed)
        if "before" not in marks:
            raise RuntimeError("the run ended before its traced half began")
        metrics = per_layer(records, marks["before"], marks["after"],
                            summary, tracer,
                            "setup%d" % (SETUP_REPEATS - 1))
        notes["trace_spans"] = len(all_spans)
        notes["trace_file"] = str(write_trace(all_spans, name, seed))
    result["metrics"] = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in metrics.items()
    }
    return result, notes


def write_trace(all_spans, name, seed):
    out_dir = BENCH_DIR.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (name, seed))
    fields = ("name", "start_ns", "end_ns", "span_id", "parent_id", "job",
              "pid")
    with open(path, "w") as handle:
        json.dump([dict(zip(fields, s)) for s in all_spans], handle)
    return path
