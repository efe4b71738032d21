"""Cluster context: stages, scheduling, broadcast, caching.

A *stage* runs one kernel over a list of partitions, exactly like a
Spark stage runs one task per partition.  Kernels execute for real (in
process) and report their work through a
:class:`~repro.engine.task.TaskContext`; the scheduler then computes the
stage's simulated duration by placing tasks on executor cores (longest
processing time first), applying per-executor straggler factors, and
adding task-launch, shuffle and stage overheads.

``parallelism`` selects the *real* execution mode: 1 (the default)
runs partition kernels serially on the driver thread; N > 1 runs them
concurrently on a pool of N workers.  ``executor`` picks the pool
kind: ``"thread"`` (default) shares the driver's address space and
suits NumPy-heavy kernels that release the GIL; ``"process"`` runs
kernels in worker processes, which pays pickling/IPC per task but lets
pure-Python kernels (dict-path ancestor generation, the RDD baselines)
use every core.  All modes are bit-compatible — outputs, counters and
simulated seconds are identical — because kernels must be pure
per-partition functions and all shared accounting happens on the
driver in partition order:

- each task charges its own :class:`TaskContext` (exclusive, no
  locks); process-mode workers ship the context back as a serialized
  charge record the driver applies to a driver-side context;
- partition-cache accesses are *deferred* in every mode and replayed
  in partition order once the stage's tasks have finished, so the LRU
  hit/miss sequence is one canonical sequence regardless of execution
  mode (and an aborted stage leaves the cache untouched);
- task durations, stage charges and counter merges are computed from
  the per-task contexts in partition order on the driver thread.

Process-mode kernels must be picklable (module-level functions or
classes, ``functools.partial`` over them); a stage whose kernel does
not pickle transparently runs on the thread pool instead (counted in
``ClusterContext.fallback_stages``).  Failure semantics are identical
across modes: the exception of the lowest-index failing partition
propagates, in-flight tasks are drained, and the aborted stage charges
nothing — metrics and cache are exactly as they were before the stage.

The worker count resolves with one explicit precedence — **explicit
argument > placed/budget grant > environment > serial default**.  A
cluster given ``parallelism=N`` uses N; otherwise a cluster carrying a
``budget_grant`` (an allocation from the service's
:class:`~repro.service.budget.EngineBudget`, placed or not) uses the
*granted* degree; otherwise the ``REPRO_PARALLELISM`` environment
variable applies (unset/empty means serial).  The executor kind
resolves as explicit argument > ``REPRO_EXECUTOR`` > threads.  A held
grant is released when the cluster closes — after its pools have
joined, so slots return only once the workers they paid for are
actually gone.

Placement
---------
``placed=True`` (or a budget grant carrying slot ids, or
``REPRO_PLACEMENT=1``) turns the worker pool into an *addressable
topology*: one single-worker pool per slot, and ``run_stage`` routes
kernel i to the worker pinned to shard i (``i % workers``), so a
worker sees the same shards stage after stage and its process-local
attachment caches (:mod:`repro.engine.shm`) stay hot across stages and
coalesced jobs.  When the budget forces fewer workers than a stage has
shards, the stage *degrades to unplaced* execution on the shared pool
— pinning a worker to several shards would serialize them behind each
other, so the placed path only engages when every shard can own a
worker.  :meth:`ClusterContext.placement_stats` reports shard count,
affinity hit-rate and rebalances.

``executor="remote"`` extends the same routing across the wire: the
cluster ships pickled kernels plus picklable shard descriptors
(:class:`~repro.engine.shm.MmapTableBlock` /
:class:`~repro.engine.shm.SharedTableBlock`) to shard workers
(:mod:`repro.net.worker`) at ``workers=[...]`` addresses, sticky by
shard id, and merges outputs and charge records in partition order —
bit-identical to serial, like every other mode.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from contextlib import contextmanager
import heapq
import os
import pickle
import threading

from repro.common.errors import EngineError, FrameTooLargeError
from repro.data.hdfs import SimulatedHdfs
from repro.engine.cost import ClusterSpec, CostModel
from repro.engine.memory import CacheManager
from repro.engine.metrics import MetricsRegistry
from repro.engine.placement import PlacementTracker, default_placement
from repro.engine.task import TaskContext


#: Supported worker-pool kinds for parallel stage execution.
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"
EXECUTOR_REMOTE = "remote"
EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS, EXECUTOR_REMOTE)


def default_parallelism():
    """Worker count from ``REPRO_PARALLELISM`` (1 when unset/empty)."""
    value = os.environ.get("REPRO_PARALLELISM", "").strip()
    if not value:
        return 1
    try:
        parsed = int(value)
    except ValueError:
        raise EngineError(
            "REPRO_PARALLELISM must be an integer, got %r" % value
        ) from None
    if parsed < 1:
        raise EngineError("REPRO_PARALLELISM must be at least 1")
    return parsed


def default_executor():
    """Pool kind from ``REPRO_EXECUTOR`` (threads when unset/empty)."""
    value = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    if not value:
        return EXECUTOR_THREAD
    if value not in EXECUTORS:
        raise EngineError(
            "REPRO_EXECUTOR must be one of %s, got %r"
            % (", ".join(EXECUTORS), value)
        )
    return value


def resolve_parallelism(explicit=None, budget_grant=None):
    """Worker count under the documented precedence.

    Explicit argument > placed/budget grant > ``REPRO_PARALLELISM`` >
    serial.  The grant contributes its *granted* degree — what the
    machine-wide budget actually allocated, not what the job asked for
    — and a *placed* grant (one carrying slot ids) ranks exactly like
    an unplaced one: its degree is the number of slots it holds, which
    the budget keeps equal to ``granted``.
    """
    if explicit is not None:
        if explicit < 1:
            raise EngineError("parallelism must be at least 1")
        return int(explicit)
    if budget_grant is not None:
        slots = getattr(budget_grant, "slots", ())
        if slots:
            return len(slots)
        return int(budget_grant.granted)
    return default_parallelism()


def resolve_placement(explicit=None, budget_grant=None):
    """Placement preference under the same precedence as the degree.

    Explicit argument > placed grant (a grant carrying slot ids turns
    placement on) > ``REPRO_PLACEMENT`` > off.
    """
    if explicit is not None:
        return bool(explicit)
    if budget_grant is not None and getattr(budget_grant, "slots", ()):
        return True
    return default_placement()


def _is_pickling_error(exc):
    """True when ``exc`` reports a pickling failure.

    Submission-side failures (unpicklable partition data) and
    worker-side result failures (unpicklable task output) both surface
    through the task's future as one of these, letting the process
    path distinguish "this stage cannot cross a process boundary" from
    a genuine kernel error.
    """
    if isinstance(exc, pickle.PicklingError):
        return True
    return (isinstance(exc, (TypeError, AttributeError))
            and "pickle" in str(exc).lower())


def _drain_pools_then_release(pools, grant):
    """Join leaked worker pools, then return their budget slots."""
    for pool in pools:
        pool.shutdown(wait=True)
    grant.release()


def _run_pickled_task(kernel_bytes, index, partition):
    """Process-pool worker body: run one pickled kernel over one task.

    Executes in the worker process.  The kernel charges a local
    :class:`TaskContext` (cache accesses deferred, as in every mode)
    and the context travels back as a charge record — the driver never
    shares mutable state with workers.
    """
    kernel = pickle.loads(kernel_bytes)
    tc = TaskContext(task_id=index, partition_id=index, defer_cache=True)
    output = kernel(tc, partition)
    return output, tc.charges()


class Broadcast:
    """Handle for a read-only value replicated to every executor."""

    def __init__(self, value, size_bytes):
        self.value = value
        self.size_bytes = size_bytes


class StageResult:
    """Outputs plus accounting for one executed stage."""

    def __init__(self, outputs, simulated_seconds, tasks):
        self.outputs = outputs
        self.simulated_seconds = simulated_seconds
        self.tasks = tasks


class ClusterContext:
    """A simulated cluster: run stages, broadcast values, cache data.

    ``parallelism`` is the number of real workers partition kernels run
    on and ``executor`` the pool kind (``"thread"`` or ``"process"``;
    see the module docstring).  ``budget_grant`` is an engine-worker
    allocation from a :class:`~repro.service.budget.EngineBudget`;
    when ``parallelism`` is not given explicitly the *granted* degree
    is used, and the grant is released when this cluster closes.  With
    neither, the ``REPRO_PARALLELISM`` / ``REPRO_EXECUTOR``
    environment variables resolve the defaults.
    """

    def __init__(self, spec=None, cost_model=None, hdfs=None,
                 parallelism=None, executor=None, budget_grant=None,
                 placed=None, workers=None):
        self.spec = spec or ClusterSpec()
        self.cost = cost_model or CostModel()
        self.hdfs = hdfs or SimulatedHdfs()
        self.metrics = MetricsRegistry()
        self.cache = CacheManager(self.spec.total_storage_bytes, self.metrics)
        #: The budget allocation backing this cluster's workers (if
        #: any); released on close, on every completion/abort path.
        self.budget_grant = budget_grant
        self.parallelism = resolve_parallelism(parallelism, budget_grant)
        if executor is None:
            executor = default_executor()
        if executor not in EXECUTORS:
            raise EngineError(
                "executor must be one of %s, got %r"
                % (", ".join(EXECUTORS), executor)
            )
        self.executor = executor
        #: Remote shard-worker addresses ("host:port" or (host, port)),
        #: required by — and only meaningful for — the remote executor.
        self.workers = list(workers) if workers else []
        if executor == EXECUTOR_REMOTE:
            if not self.workers:
                raise EngineError(
                    "executor='remote' needs at least one worker address "
                    "(workers=[\"host:port\", ...])"
                )
            if parallelism is None and budget_grant is None \
                    and not os.environ.get("REPRO_PARALLELISM", "").strip():
                # With nothing else claiming a degree, a remote cluster
                # is as wide as its worker fleet.
                self.parallelism = len(self.workers)
        elif self.workers:
            raise EngineError(
                "worker addresses are only valid with executor='remote'"
            )
        #: Placed execution: route shard i to the worker pinned to slot
        #: ``i % workers`` (see the module docstring).  Resolution:
        #: explicit arg > placed grant > ``REPRO_PLACEMENT`` > off.
        self.placed = resolve_placement(placed, budget_grant)
        self.placement = PlacementTracker()
        #: Stages whose kernel did not pickle and ran on the thread
        #: pool instead of the process pool.  A plain attribute, not a
        #: metrics counter — registries stay bit-identical across modes.
        self.fallback_stages = 0
        self._pool = None
        self._process_pool = None
        self._placed_pools = None
        self._remote_clients = None
        self._sample_epoch = 0
        self._sample_lock = threading.Lock()

    @property
    def uses_processes(self):
        """True when partition data must cross a process boundary.

        Process-pool stages and remote stages both need picklable
        shard descriptors (shm or mmap blocks) rather than driver-local
        array views.
        """
        if self.executor == EXECUTOR_REMOTE:
            return True
        return self.executor == EXECUTOR_PROCESS and self.parallelism > 1

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------

    def _thread_pool(self):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix="repro-stage",
            )
        return self._pool

    def _worker_pool(self):
        if self.executor == EXECUTOR_PROCESS:
            if self._process_pool is None:
                self._process_pool = ProcessPoolExecutor(
                    max_workers=self.parallelism,
                )
            return self._process_pool
        return self._thread_pool()

    def _placed_worker_pools(self):
        """One single-worker pool per slot — the addressable topology.

        Stdlib pools cannot route a task to a chosen worker, so placed
        mode holds an array of one-worker pools instead: pool i *is*
        slot i, and submitting shard i to pool ``i % n`` is the whole
        placement mechanism.  Workers (threads or processes) spawn
        lazily on first submit, so unused slots cost nothing.
        """
        if self._placed_pools is None:
            if self.executor == EXECUTOR_PROCESS:
                self._placed_pools = [
                    ProcessPoolExecutor(max_workers=1)
                    for _ in range(self.parallelism)
                ]
            else:
                self._placed_pools = [
                    ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix="repro-shard-%d" % i,
                    )
                    for i in range(self.parallelism)
                ]
        return self._placed_pools

    def _worker_clients(self):
        """One connected client per remote shard-worker address."""
        if self._remote_clients is None:
            from repro.net.worker import ShardWorkerClient

            self._remote_clients = [
                ShardWorkerClient(address) for address in self.workers
            ]
        return self._remote_clients

    def _slot_id(self, local):
        """The reported slot id for local pool index ``local``.

        With a placed grant the machine-wide slot ids are the real
        identity (two clusters holding the same slots pin to the same
        budgeted workers); without one the local index serves.
        """
        slots = getattr(self.budget_grant, "slots", ())
        if slots:
            return slots[local % len(slots)]
        return local

    def close(self):
        """Shut down the worker pools (idempotent; serial mode is a no-op).

        Joins every worker thread and process, whichever executor kinds
        this cluster actually used (process mode keeps a thread pool
        too, for stages whose kernel does not pickle).  A budget grant
        backing this cluster is released last — slots return to the
        machine-wide budget only after the workers they paid for have
        actually exited.
        """
        pools = [self._pool, self._process_pool]
        pools.extend(self._placed_pools or ())
        self._pool = None
        self._process_pool = None
        self._placed_pools = None
        clients = self._remote_clients
        self._remote_clients = None
        for client in clients or ():
            client.close()
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)
        grant = self.budget_grant
        self.budget_grant = None
        if grant is not None:
            grant.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            pools = [self._pool, self._process_pool]
            pools.extend(self._placed_pools or ())
            clients = self._remote_clients
            grant = self.budget_grant
        except AttributeError:  # interpreter teardown / failed __init__
            return
        for client in clients or ():
            try:
                client.close()
            except Exception:
                pass
        live = [pool for pool in pools if pool is not None]
        for pool in live:
            pool.shutdown(wait=False)
        if grant is None:
            return
        if live:
            # A leaked cluster must not return its slots while the
            # workers they paid for may still be running — the budget's
            # aggregate cap would be transiently violated.  Drain on a
            # helper thread (shutdown is idempotent; the second call
            # just joins), then release.
            try:
                threading.Thread(
                    target=_drain_pools_then_release, args=(live, grant),
                    daemon=True,
                ).start()
            except RuntimeError:
                # Interpreter shutdown forbids new threads (3.12+).
                # The process is exiting: release inline so no waiter
                # is left deadlocked; the cap is moot at this point.
                grant.release()
        else:
            grant.release()

    def next_sample_seed(self):
        """A deterministic per-call seed for sampling operators.

        Successive calls yield distinct seeds (so repeated ``sample``
        calls draw different rows) while the sequence itself is a pure
        function of the cluster spec's seed — reruns reproduce.
        Thread-safe, like the cluster's other shared state.
        """
        with self._sample_lock:
            self._sample_epoch += 1
            return int(self.spec.seed) * 1_000_003 + self._sample_epoch

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def bind_shard_map(self, shard_map):
        """Bind placement to ``shard_map`` — the affinity scope.

        Callers that partition through a
        :class:`~repro.engine.placement.ShardMap` (the mining session
        does) bind it here so the tracker knows the shard count and can
        detect a rebind across dataset versions (counted as a
        *rebalance*: the old worker pins are meaningless against new
        data).  Purely observational — routing never depends on it.
        """
        self.placement.bind(shard_map)

    def placement_stats(self):
        """Placement topology and affinity counters, one dict."""
        stats = self.placement.stats()
        stats["enabled"] = bool(self.placed)
        stats["executor"] = self.executor
        stats["workers"] = (
            len(self.workers) if self.executor == EXECUTOR_REMOTE
            else self.parallelism
        )
        if self.executor == EXECUTOR_REMOTE and self._remote_clients:
            stats["healthy_workers"] = sum(
                1 for c in self._remote_clients if c.healthy
            )
            stats["blocks_shipped"] = sum(
                c.blocks_shipped for c in self._remote_clients
            )
            stats["bytes_shipped"] = sum(
                c.bytes_shipped for c in self._remote_clients
            )
        return stats

    # ------------------------------------------------------------------
    # Phase attribution
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name):
        """Attribute simulated time of enclosed stages to phase ``name``."""
        self.metrics.push_phase(name)
        try:
            yield
        finally:
            self.metrics.pop_phase()

    # ------------------------------------------------------------------
    # Broadcast variables
    # ------------------------------------------------------------------

    def broadcast(self, value, size_bytes):
        """Replicate ``value`` to all executors, charging network time.

        The charge models Spark's torrent broadcast: the payload crosses
        the network once per receiving executor.
        """
        if size_bytes < 0:
            raise EngineError("broadcast size must be non-negative")
        receivers = max(self.spec.num_executors - 1, 0)
        self.metrics.charge(
            size_bytes * receivers * self.cost.broadcast_byte_seconds
        )
        self.metrics.increment("broadcast_bytes", size_bytes * receivers)
        return Broadcast(value, size_bytes)

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------

    def run_stage(self, kernel, partitions, name="stage", shuffle_output=False):
        """Execute ``kernel(task_ctx, partition)`` once per partition.

        Parameters
        ----------
        kernel:
            Callable receiving a :class:`TaskContext` and one partition
            object; its return value becomes the task output.  With
            ``parallelism`` > 1 kernels run concurrently and must be
            pure per-partition functions (no shared mutable state
            beyond their own task context).
        partitions:
            Sequence of partition objects (one task each).
        shuffle_output:
            If true, each task's declared ``output_bytes`` are charged
            at the shuffle byte rate (a wide dependency follows).

        Returns a :class:`StageResult` whose ``outputs`` are in
        partition order; outputs, counters and simulated seconds do
        not depend on the execution mode.  A kernel exception aborts
        the stage: pending tasks are cancelled, in-flight tasks are
        drained, the lowest-index failure propagates, and no charge —
        simulated time, counters or cache state — is applied.
        """
        partitions = list(partitions)
        if not partitions:
            return StageResult([], 0.0, [])
        workers = min(self.parallelism, len(partitions))
        if self.executor == EXECUTOR_REMOTE:
            # Remote stages always cross the wire (even a single
            # shard): routing is sticky by shard id, so it is placed
            # execution by construction.
            self.placement.record_stage(True)
            tasks, outputs = self._run_tasks_remote(kernel, partitions)
        elif workers > 1 and self.placed \
                and len(partitions) <= self.parallelism:
            # Every shard can own a worker: placed execution, shard i
            # pinned to slot i.
            self.placement.record_stage(True)
            tasks, outputs = self._run_tasks_placed(kernel, partitions)
        elif workers > 1 and self.executor == EXECUTOR_PROCESS:
            if self.placed:
                # More shards than budgeted workers: pinning would
                # serialize shards behind each other, so degrade to the
                # shared (unplaced) pool.
                self.placement.record_stage(False)
            tasks, outputs = self._run_tasks_process(kernel, partitions)
        elif workers > 1:
            if self.placed:
                self.placement.record_stage(False)
            tasks, outputs = self._run_tasks_threaded(
                kernel, partitions, self._thread_pool()
            )
        else:
            tasks, outputs = self._run_tasks_serial(kernel, partitions)
        # Replay deferred cache accesses in partition order — in every
        # mode, so the hit/miss sequence (and resulting disk charges)
        # is one canonical sequence and an aborted stage above never
        # touched the cache at all.
        for tc in tasks:
            for key, size_bytes in tc.cache_requests:
                tc.add_disk_bytes(self.cache.access(key, size_bytes))
            tc.cache_requests = []
        durations = [
            self.cost.task_seconds(
                tc.ops, tc.records, tc.disk_bytes, tc.light_ops
            )
            for tc in tasks
        ]
        makespan = self._schedule(durations)
        shuffle_seconds = 0.0
        if shuffle_output:
            shuffle_bytes = sum(tc.output_bytes for tc in tasks)
            shuffle_seconds = shuffle_bytes * self.cost.shuffle_byte_seconds
            self.metrics.increment("shuffle_bytes", shuffle_bytes)
        total = (
            makespan
            + shuffle_seconds
            + self.cost.stage_overhead_seconds
            + self.cost.job_launch_seconds
        )
        self.metrics.charge(total)
        self.metrics.increment("stages")
        self.metrics.increment("tasks", len(tasks))
        self.metrics.increment(
            "disk_read_bytes", sum(tc.disk_bytes for tc in tasks)
        )
        self.cache.record_timeline()
        return StageResult(outputs, total, tasks)

    # ------------------------------------------------------------------
    # Task execution (one body per execution mode)
    # ------------------------------------------------------------------

    def _run_tasks_serial(self, kernel, partitions):
        tasks = []
        outputs = []
        for i, part in enumerate(partitions):
            tc = TaskContext(task_id=i, partition_id=i, defer_cache=True)
            outputs.append(kernel(tc, part))
            tasks.append(tc)
        return tasks, outputs

    def _run_tasks_threaded(self, kernel, partitions, pool):
        tasks = [
            TaskContext(task_id=i, partition_id=i, defer_cache=True)
            for i in range(len(partitions))
        ]
        futures = [
            pool.submit(kernel, tc, part)
            for tc, part in zip(tasks, partitions)
        ]
        return tasks, self._collect_in_order(futures)

    def _run_tasks_process(self, kernel, partitions):
        try:
            kernel_bytes = pickle.dumps(
                kernel, protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            # Closures and other unpicklable kernels (the lazy/RDD
            # layers accept arbitrary user functions) cannot cross a
            # process boundary; run this stage on the thread pool.
            return self._fallback_to_threads(kernel, partitions)
        pool = self._worker_pool()
        futures = [
            pool.submit(_run_pickled_task, kernel_bytes, i, part)
            for i, part in enumerate(partitions)
        ]
        try:
            records = self._collect_in_order(futures)
        except BaseException as exc:
            if not _is_pickling_error(exc):
                raise
            # The kernel pickled but something else did not cross the
            # boundary: unpicklable partition elements at submission,
            # an unpicklable task output on the way back — or a kernel
            # that raised an exception whose *instance* does not
            # pickle (worker exception transport reports all of these
            # as pickling failures).  The aborted attempt charged
            # nothing (abort semantics) and kernels are pure, so
            # rerunning on the thread pool is safe and bit-identical;
            # in the unpicklable-exception case it costs a second run
            # but surfaces the kernel's real exception instead of a
            # transport PicklingError.
            return self._fallback_to_threads(kernel, partitions)
        return self._records_to_tasks(records)

    @staticmethod
    def _records_to_tasks(records):
        """Driver-side task contexts from worker charge records."""
        tasks = []
        outputs = []
        for i, (output, charges) in enumerate(records):
            tc = TaskContext(task_id=i, partition_id=i, defer_cache=True)
            tc.apply_charges(charges)
            tasks.append(tc)
            outputs.append(output)
        return tasks, outputs

    def _run_tasks_placed(self, kernel, partitions):
        """Placed execution: shard i on the single-worker pool for
        slot ``i % n`` (``n == parallelism >= len(partitions)``, so in
        practice every shard owns its worker).

        Identical semantics to the shared-pool paths — same charge
        records, same in-order collection, same fallback for kernels
        that do not pickle — only the routing differs.
        """
        pools = self._placed_worker_pools()
        if self.executor == EXECUTOR_PROCESS:
            try:
                kernel_bytes = pickle.dumps(
                    kernel, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                return self._fallback_to_threads(kernel, partitions)
            futures = []
            for i, part in enumerate(partitions):
                slot = i % len(pools)
                self.placement.record(i, self._slot_id(slot))
                futures.append(pools[slot].submit(
                    _run_pickled_task, kernel_bytes, i, part
                ))
            try:
                records = self._collect_in_order(futures)
            except BaseException as exc:
                if not _is_pickling_error(exc):
                    raise
                return self._fallback_to_threads(kernel, partitions)
            return self._records_to_tasks(records)
        tasks = [
            TaskContext(task_id=i, partition_id=i, defer_cache=True)
            for i in range(len(partitions))
        ]
        futures = []
        for i, (tc, part) in enumerate(zip(tasks, partitions)):
            slot = i % len(pools)
            self.placement.record(i, self._slot_id(slot))
            futures.append(pools[slot].submit(kernel, tc, part))
        return tasks, self._collect_in_order(futures)

    def _run_tasks_remote(self, kernel, partitions):
        """Remote execution: ship pickled kernel + shard descriptors to
        shard workers, sticky by shard id; merge in partition order.

        Each worker runs its batch in ascending shard order and ships
        back ``(output, charges)`` records; the driver applies charges
        to driver-side contexts exactly as process mode does, so every
        simulated metric is bit-identical to serial.  Failure semantics
        match too: the lowest-index failing shard's exception
        propagates and the aborted stage charges nothing.  Anything
        that cannot cross the wire (kernel, partition, output or
        exception instance, or a batch whose request or reply exceeds
        the frame cap) falls the stage back to the thread pool; no
        worker is marked dead for it.

        A worker that times out or drops its connection mid-stage is
        marked dead (:meth:`~repro.net.worker.ShardWorkerClient.mark_dead`)
        and its unfinished shards re-place onto the surviving workers
        on the next round — counted as a
        :meth:`~repro.engine.placement.PlacementTracker.worker_failure`
        — repeating until the stage resolves or no worker survives, at
        which point the stage degrades to the local thread pool.
        Re-running a dead worker's shards is safe at-most-once: a
        failed ``run_stage`` call merges *nothing* (records and charges
        apply driver-side only from answered calls) and kernels are
        pure, so the retried result is bit-identical.
        """
        try:
            kernel_bytes = pickle.dumps(
                kernel, protocol=pickle.HIGHEST_PROTOCOL
            )
            blobs = [
                pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL)
                for part in partitions
            ]
        except Exception:
            return self._fallback_to_threads(kernel, partitions)
        clients = self._worker_clients()
        pool = self._thread_pool()
        remaining = dict(enumerate(blobs))  # shard index -> blob
        records = {}
        failures = []
        # Every extra round is caused either by a worker death (at most
        # one per client) or by failure pruning (the lowest failing
        # index strictly decreases), so this backstop never trips on a
        # converging stage.
        rounds_left = len(clients) + len(partitions) + 1
        had_death = False
        while remaining:
            rounds_left -= 1
            alive = [
                (slot, client)
                for slot, client in enumerate(clients) if client.healthy
            ]
            if had_death and alive:
                # A death this stage makes the survivor list suspect
                # (a partitioned network rarely takes exactly one
                # host); probe before committing shards to a peer that
                # would only time out too.
                for slot, client in alive:
                    if not client.heartbeat():
                        client.mark_dead()
                        self.placement.worker_failure()
                alive = [
                    (slot, client)
                    for slot, client in alive if client.healthy
                ]
                had_death = False
            if not alive or rounds_left < 0:
                return self._fallback_to_threads(kernel, partitions)
            batches = {}  # slot -> [(shard index, blob)]
            for i in sorted(remaining):
                slot = alive[i % len(alive)][0]
                self.placement.record(i, slot)
                batches.setdefault(slot, []).append((i, remaining[i]))
            futures = {
                slot: pool.submit(
                    clients[slot].run_stage, kernel_bytes, batch
                )
                for slot, batch in batches.items()
            }
            oversized = False
            for slot, future in futures.items():
                try:
                    worker_records, worker_failures = future.result()
                except FrameTooLargeError:
                    # The batch's request or reply does not fit in one
                    # frame.  The worker is healthy and the connection
                    # intact; only this stage cannot cross the wire.
                    oversized = True
                    continue
                except EngineError:
                    # Timed out, refused or dropped mid-call: the
                    # worker is dead to this stage.  Nothing of its
                    # batch merged, so its shards stay in ``remaining``
                    # and re-place onto the survivors next round.
                    clients[slot].mark_dead()
                    self.placement.worker_failure(
                        [i for i, _blob in batches[slot]]
                    )
                    had_death = True
                    continue
                for i, record in worker_records.items():
                    records[i] = record
                    remaining.pop(i, None)
                failures.extend(worker_failures)
            if oversized:
                return self._fallback_to_threads(kernel, partitions)
            if failures:
                # The lowest-index-failure contract: shards *below* the
                # lowest failure seen so far must still resolve (one of
                # them may fail at an even lower index, which is the
                # exception a serial run would surface); everything at
                # or above it is moot.
                lowest = min(f[0] for f in failures)
                remaining = {
                    i: blob for i, blob in remaining.items() if i < lowest
                }
        if failures:
            failures.sort(key=lambda f: f[0])
            _index, exc, is_pickling = failures[0]
            if is_pickling or any(f[2] for f in failures):
                # Something in this stage does not survive the wire
                # (unpicklable output or exception instance): rerun on
                # the thread pool, like process mode.
                return self._fallback_to_threads(kernel, partitions)
            raise exc
        return self._records_to_tasks(
            [records[i] for i in range(len(partitions))]
        )

    def _fallback_to_threads(self, kernel, partitions):
        self.fallback_stages += 1
        return self._run_tasks_threaded(
            kernel, partitions, self._thread_pool()
        )

    def _collect_in_order(self, futures):
        """Results in submission order; abort cleanly on failure.

        On the first failing task (by partition index — the same task
        whose exception a serial loop would surface), later tasks are
        cancelled, already-running ones are drained, and the original
        exception re-raises.  The caller applies no charges for an
        aborted stage.
        """
        outputs = []
        failure = None
        for index, future in enumerate(futures):
            try:
                outputs.append(future.result())
            except BaseException as exc:
                failure = exc
                for pending in futures[index + 1:]:
                    pending.cancel()
                break
        if failure is not None:
            _wait_futures(futures)
            raise failure
        return outputs

    def _schedule(self, durations):
        """LPT placement of task durations onto executor cores.

        Each executor contributes ``cores_per_executor`` slots running at
        the executor's straggler-adjusted speed; every task also pays the
        task-launch overhead on its slot.  Returns the stage makespan.

        When the spec enables ``speculative_execution``, tasks still
        running past ``speculation_multiplier`` times the stage's median
        task time are re-launched on the next free slot and finish at
        whichever attempt completes first — the straggler mitigation of
        Ananthanarayanan et al. [5] that thesis §5.7.2 points to.
        """
        slots = []  # heap of (available_at, slowdown_factor)
        for e in range(self.spec.num_executors):
            factor = float(self.spec.straggler_factors[e])
            for _ in range(self.spec.cores_per_executor):
                slots.append((0.0, factor))
        heapq.heapify(slots)
        launch = self.cost.task_launch_seconds
        placements = []  # (start, finish, duration)
        for duration in sorted(durations, reverse=True):
            available_at, factor = heapq.heappop(slots)
            finish = available_at + launch + duration * factor
            placements.append((available_at, finish, duration))
            heapq.heappush(slots, (finish, factor))
        if not placements:
            return 0.0
        makespan = max(finish for _s, finish, _d in placements)
        if not getattr(self.spec, "speculative_execution", False):
            return makespan

        # Speculation pass: clone attempts of tasks whose run time
        # exceeds the threshold; the clone starts once the straggling is
        # detectable (median run time after the task started).
        run_times = sorted(finish - start for start, finish, _d in placements)
        median = run_times[len(run_times) // 2]
        threshold = self.spec.speculation_multiplier * median
        makespan = 0.0
        clones = 0
        for start, finish, duration in placements:
            effective = finish
            if finish - start > threshold:
                available_at, factor = heapq.heappop(slots)
                clone_start = max(available_at, start + median)
                clone_finish = clone_start + launch + duration * factor
                effective = min(finish, clone_finish)
                clones += 1
                heapq.heappush(slots, (clone_finish, factor))
            makespan = max(makespan, effective)
        if clones:
            self.metrics.increment("speculative_clones", clones)
        return makespan

    # ------------------------------------------------------------------
    # Cache access helper
    # ------------------------------------------------------------------

    def cached_access(self, tc, key, size_bytes):
        """Access a cached partition inside a task.

        On a cache hit this is free; on a miss the task is charged a
        disk read of the partition's size (HDFS re-read / recompute, as
        in thesis §4.5).  Inside a stage the access is deferred — in
        every execution mode — and replayed by the driver in partition
        order, so the charge lands on ``tc`` after the kernel returns
        rather than inline and the sequence is mode-independent.
        """
        if tc.defer_cache:
            tc.request_cache_access(key, size_bytes)
        else:
            tc.add_disk_bytes(self.cache.access(key, size_bytes))

    def reset_metrics(self):
        """Start a fresh metrics registry (cache contents are kept)."""
        old = self.metrics
        self.metrics = MetricsRegistry()
        self.cache._metrics = self.metrics
        return old
