"""In-memory spans for the traced benchmark run, and the wrappers that
record them.

Tracing lives entirely in the benchmark: :func:`install` replaces public
functions of ``repro`` with thin wrappers that time each call, and
:func:`uninstall` puts the originals back.  Nothing under ``src/`` knows
about it.

Every span is one tuple ``(name, start_ns, end_ns, span_id, parent_id,
job, pid)`` on ``time.monotonic_ns``.  On Linux that clock is shared by
all processes of the host, so spans recorded inside shard-worker
processes line up with the benchmark process's.  ``parent_id`` is the enclosing
span on the same thread; ``job`` is the service job id the thread was
working for (None where unknown, as inside shard workers).

A wrapper records only while its tracer is *recording*: either the
tracer is enabled (``run`` flips this for the traced half of a run)
or the current thread is inside a :class:`TracedKernel` (how a shard
worker, whose tracer is never enabled, knows a stage of the traced half
is running).
"""

import bisect
import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: The tracer :class:`TracedKernel` reports to in this process.  A
#: kernel is unpickled inside a shard worker, far from any object the
#: benchmark could hand it, so this is the one module-level handle;
#: only :func:`install` and :func:`uninstall` change it.
_active = None


class Tracer:
    """Collects spans and per-window counters for one process."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        #: Counters keyed by ``(window, name)``; the benchmark names the
        #: window: ``setup<rep>``, ``untraced`` or ``traced``.
        self.counters = Counter()
        self.window = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._undo = []

    # -- recording -----------------------------------------------------

    def recording(self):
        return self.enabled or getattr(self._local, "kernel_depth", 0) > 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return [name, time.monotonic_ns(), span_id, parent]

    def end(self, token, job=None):
        end_ns = time.monotonic_ns()
        self._stack().pop()
        name, start_ns, span_id, parent = token
        if job is None:
            job = getattr(self._local, "job", None)
        # list.append is atomic under the GIL: no lock needed.
        self.spans.append(
            (name, start_ns, end_ns, span_id, parent, job, self._pid)
        )

    @contextmanager
    def span(self, name):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def count(self, name, value=1):
        self.counters[(self.window, name)] += value

    @contextmanager
    def job_context(self, job_id):
        """Attribute spans recorded on this thread to ``job_id``."""
        previous = getattr(self._local, "job", None)
        self._local.job = job_id
        try:
            yield
        finally:
            self._local.job = previous

    @contextmanager
    def kernel_scope(self):
        local = self._local
        local.kernel_depth = getattr(local, "kernel_depth", 0) + 1
        try:
            with self.span("engine.kernel"):
                yield
        finally:
            local.kernel_depth -= 1

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr, replacement):
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement(original))
        self._undo.append((owner, attr, original))

    def trace_calls(self, owner, attr, name):
        """Wrap ``owner.attr`` so every recorded call is span ``name``."""
        tracer = self

        def wrap(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.recording():
                    return original(*args, **kwargs)
                token = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(token)
            return traced

        self.patch(owner, attr, wrap)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class TracedKernel:
    """A stage kernel wrapped so each task is an ``engine.kernel`` span.

    Picklable whenever the wrapped kernel is (it pickles by reference to
    this module), so the same wrapper crosses the wire to shard workers;
    an unpicklable kernel stays unpicklable and the engine's thread
    fallback still applies.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def __call__(self, tc, part):
        tracer = _active
        if tracer is None:
            return self.kernel(tc, part)
        with tracer.kernel_scope():
            return self.kernel(tc, part)


class _JobRunner:
    """A service job's body, run with the job id as span context."""

    def __init__(self, tracer, job_id, fn):
        self.tracer = tracer
        self.job_id = job_id
        self.fn = fn

    def __call__(self):
        with self.tracer.job_context(self.job_id):
            return self.fn()


def install(tracer):
    """Wrap the ``repro`` functions each layer metric is read from.

    Called in the benchmark process and, for the remote workload, in
    each shard worker before it constructs
    :class:`~repro.net.worker.ShardWorker`.
    """
    global _active
    from repro.core import miner, rct
    from repro.data.table import FileBackedTable
    from repro.engine.cluster import ClusterContext
    from repro.service import jobs, service
    from repro.sql.engine import SqlEngine

    # core: the kernels' hot functions, as the miner module binds them.
    tracer.trace_calls(miner, "lca_aggregates_packed", "core.lca")
    tracer.trace_calls(
        miner, "generate_ancestors_packed", "core.ancestors"
    )
    tracer.trace_calls(miner, "group_packed", "core.group")
    tracer.trace_calls(miner, "match_counts_packed", "core.match")
    tracer.trace_calls(miner, "iterative_scale_rct", "core.scale")
    tracer.trace_calls(miner, "iterative_scale", "core.scale")
    tracer.trace_calls(rct.BitMatrix, "group_rows", "core.group_rows")

    def wrap_phase(original):
        @contextmanager
        def phase(self, name):
            with original(self, name):
                if not tracer.recording():
                    yield
                    return
                with tracer.span("core.phase." + name):
                    yield
        return phase

    tracer.patch(ClusterContext, "phase", wrap_phase)

    # engine: a stage span around each run_stage, a kernel span per task.
    def wrap_run_stage(original):
        @functools.wraps(original)
        def run_stage(self, kernel, partitions, *args, **kwargs):
            if not tracer.recording():
                return original(self, kernel, partitions, *args, **kwargs)
            with tracer.span("engine.stage"):
                return original(
                    self, TracedKernel(kernel), partitions, *args, **kwargs
                )
        return run_stage

    tracer.patch(ClusterContext, "run_stage", wrap_run_stage)

    def wrap_close(original):
        @functools.wraps(original)
        def close(self):
            # Counters a job cluster keeps to itself: read them once,
            # before its first close tears the workers down.
            if not getattr(self, "_perfbench_counted", False):
                self._perfbench_counted = True
                stats = self.placement_stats()
                tracer.count("engine.fallback_stages", self.fallback_stages)
                tracer.count("net.worker.blocks_shipped",
                             stats.get("blocks_shipped", 0))
                tracer.count("net.worker.bytes_shipped",
                             stats.get("bytes_shipped", 0))
            return original(self)
        return close

    tracer.patch(ClusterContext, "close", wrap_close)

    # data / sql
    tracer.trace_calls(FileBackedTable, "_materialize", "data.materialize")
    tracer.trace_calls(SqlEngine, "query", "sql.query")

    # service: submission, result waits, and the job id of each body.
    def wrap_submit(original):
        @functools.wraps(original)
        def submit(self, *args, **kwargs):
            if not tracer.recording():
                return original(self, *args, **kwargs)
            token = tracer.begin("service.submit")
            handle = None
            try:
                handle = original(self, *args, **kwargs)
                return handle
            finally:
                tracer.end(token, job=getattr(handle, "job_id", None))
        return submit

    tracer.patch(service.RuleMiningService, "submit_mine", wrap_submit)
    tracer.patch(service.RuleMiningService, "submit_query", wrap_submit)

    def wrap_result(original):
        @functools.wraps(original)
        def result(self, timeout=None):
            if not tracer.recording():
                return original(self, timeout)
            token = tracer.begin("service.result")
            try:
                return original(self, timeout)
            finally:
                tracer.end(token, job=self.job_id)
        return result

    tracer.patch(jobs.JobHandle, "result", wrap_result)

    def wrap_job_init(original):
        @functools.wraps(original)
        def __init__(self, fn, *args, **kwargs):
            original(self, fn, *args, **kwargs)
            self.fn = _JobRunner(tracer, self.job_id, self.fn)
        return __init__

    tracer.patch(jobs.Job, "__init__", wrap_job_init)
    _active = tracer


def uninstall(tracer):
    global _active
    tracer.restore()
    _active = None


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def covered(start, end, intervals):
    """Nanoseconds of [start, end] covered by the union of intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def link_worker_kernels(spans, main_pid):
    """Parent each shard worker's root kernel span to its stage span.

    A worker cannot know which span of the benchmark process (pid
    ``main_pid``) caused it, so that process's innermost
    ``engine.stage`` span whose interval holds the kernel's start is
    taken as its parent, and its job id is inherited.  Returns spans
    keyed for :func:`summarize` as ``{(pid, span_id): record}``.
    """
    keyed = {}
    stages = sorted(
        (s for s in spans if s[6] == main_pid and s[0] == "engine.stage"),
        key=lambda s: s[1],
    )
    starts = [s[1] for s in stages]
    for span in spans:
        name, start, end, span_id, parent, job, pid = span
        parent_key = None if parent is None else (pid, parent)
        if pid != main_pid and parent is None and name == "engine.kernel":
            i = bisect.bisect_right(starts, start) - 1
            while i >= 0 and stages[i][2] < start:
                i -= 1
            if i >= 0:
                stage = stages[i]
                parent_key = (main_pid, stage[3])
                job = stage[5]
        keyed[(pid, span_id)] = (name, start, end, parent_key, job)
    return keyed


def summarize(keyed):
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the part of its interval that
    its child spans cover, so parallel children on several workers are
    not subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent_key, _job in keyed.values():
        if parent_key is not None:
            children[parent_key].append((start, end))
    out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for key, (name, start, end, _parent, _job) in keyed.items():
        row = out[name]
        row["count"] += 1
        row["total_s"] += (end - start) / 1e9
        kids = children.get(key)
        inside = covered(start, end, kids) if kids else 0
        row["self_s"] += (end - start - inside) / 1e9
    return dict(out)
