"""The three workloads: set-up to steady state, then one timed closed loop.

One client process sends every request and waits for its reply before
sending the next; nothing is sent on a schedule.  Each workload object
owns one index instance in a fresh directory: :meth:`setup` builds the
steady state (timed as ``setup_s``), :meth:`run` replays the timed
requests and :meth:`close` releases files and worker processes.

Request latency is the wall time of the client's call.  ``serve`` is the
exception: :class:`~repro.serve.frontend.ServiceFrontend` drives the
index itself and has no per-request timer, so requests are timed at the
index calls it makes, from the end of one request to the end of the
next; the commits, replica ticks and checkpoints the frontend runs
between two requests count toward the second.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.clock import SimulationClock
from repro.core.partition import GridPartitioner
from repro.core.presets import rexp_config
from repro.core.tree import MovingObjectTree
from repro.replication import (
    OnlineMaintainer,
    Replica,
    ReplicaLink,
    ShippingChannel,
    WalShipper,
)
from repro.serve.frontend import FrontendConfig, ServiceFrontend
from repro.shard import ShardConfig, ShardedForest
from repro.workloads.base import UpdateOp

from streams import EXPT, MAX_SPEED, SPACE, UI, Request, Scale, Stream

_clock = time.perf_counter

#: Virtual seconds per request on the frontend's serving clock.  The
#: stream carries ~25 updates per simulated second, so with nine reads
#: per update 1 ms keeps the virtual server far from saturation: nothing
#: queues long enough to be shed or to miss its 5 s deadline.
SERVE_SERVICE_TIME = 0.001


@dataclass
class Timed:
    """What one timed phase measured and checked."""

    kinds: List[str] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    io: List[int] = field(default_factory=list)
    answers: List[object] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Summed request latency: the client's busy wall time."""
        return sum(self.latency)


def tree_config(scale: Scale, buffer_pages: int):
    """The R^exp-tree every workload indexes with (near-optimal TPBRs)."""
    return rexp_config(
        page_size=scale.page_size,
        buffer_pages=buffer_pages,
        default_ui=UI,
    )


def _normalize(kind: str, answer):
    if kind == "query":
        return tuple(sorted(answer))
    if kind == "knn":
        return tuple(answer)
    return answer


def _check(timed: Timed, requests: List[Request]) -> None:
    """Compare every answer with the oracle's; record mismatches."""
    if len(timed.answers) != len(requests):
        timed.failures.append(
            f"{len(timed.answers)} answers for {len(requests)} requests"
        )
    for i, (request, got) in enumerate(zip(requests, timed.answers)):
        if isinstance(got, Exception):
            timed.failures.append(f"request {i} raised {got!r}")
        elif _normalize(request.kind, got) != request.expected:
            timed.failures.append(
                f"request {i} ({request.kind}) answered {got!r}, "
                f"oracle says {request.expected!r}"
            )


def _replay(tree, ops, expected, failures: List[str]) -> None:
    """Replay set-up ops on a local tree, checking every update's find."""
    for op, found in zip(ops, expected):
        tree.clock.advance_to(op.time)
        if isinstance(op, UpdateOp):
            got = tree.update(op.oid, op.old_point, op.new_point)
            if got != found:
                failures.append(
                    f"warm-up update of {op.oid} found={got}, expected {found}"
                )
        else:
            tree.query(op.query)


def _closed_loop(requests: List[Request], call: Callable,
                 io_total: Callable, recorder) -> Timed:
    """Send each request, wait for its reply, time it and count its I/O."""
    timed = Timed()
    io_before = io_total()
    for i, request in enumerate(requests):
        if recorder is not None:
            recorder.request = i
        start = _clock()
        try:
            answer = call(request)
        except Exception as exc:  # counted as a failed request
            answer = exc
        timed.latency.append(_clock() - start)
        io_after = io_total()
        timed.kinds.append(request.kind)
        timed.io.append(io_after - io_before)
        timed.answers.append(answer)
        io_before = io_after
    _check(timed, requests)
    return timed


def _probe(timed: Timed, stream: Stream, query, knn, label: str) -> None:
    """Fresh range and kNN probes at the final time must match the oracle."""
    for q, want in zip(stream.probe_queries, stream.probe_expected):
        got = tuple(sorted(query(q)))
        if got != want:
            timed.failures.append(f"{label} probe {q!r}: {got} != {want}")
    for op, want in zip(stream.probe_knn, stream.probe_knn_expected):
        got = tuple(knn(op.x, op.t, op.k))
        if got != want:
            timed.failures.append(f"{label} kNN probe {op!r}: {got} != {want}")


def _tree_end_checks(timed: Timed, tree, stream: Stream) -> None:
    """Structural checks and the live-entry audit; record the index size."""
    try:
        tree.check_invariants()
    except AssertionError as exc:
        timed.failures.append(f"check_invariants: {exc}")
    _audit(timed, tree.audit(), stream)
    timed.counts["index_pages"] = tree.page_count


def _audit(timed: Timed, audit, stream: Stream) -> None:
    """The index must hold exactly the oracle's live entries."""
    live = audit.leaf_entries - audit.expired_leaf_entries
    if live != stream.final_live:
        timed.failures.append(
            f"audit counts {live} live entries, oracle {stream.final_live}"
        )


class Ingest:
    """The paper's stream on an in-memory R^exp-tree (update path)."""

    name = "ingest"

    def __init__(self, stream: Stream, scale: Scale, workdir: str):
        self.stream = stream
        self.config = tree_config(scale, scale.buffer_pages)
        self.failures: List[str] = []
        self.tree: Optional[MovingObjectTree] = None

    def setup(self, registry=None) -> None:
        tree = MovingObjectTree(self.config, SimulationClock())
        tree.clock.advance_to(2.0 * UI)
        tree.bulk_load(self.stream.population)
        _replay(tree, self.stream.warmup, self.stream.warmup_expected,
                self.failures)
        self.tree = tree

    def run(self, requests: List[Request], recorder=None) -> Timed:
        tree, stats = self.tree, self.tree.stats

        def call(request):
            op = request.op
            tree.clock.advance_to(op.time)
            if request.kind == "update":
                return tree.update(op.oid, op.old_point, op.new_point)
            return tree.query(op.query)

        buffer = tree.buffer
        before = (buffer.hits, buffer.misses, buffer.evictions)
        timed = _closed_loop(
            requests, call, lambda: stats.reads + stats.writes, recorder
        )
        timed.layer.update(_buffer_deltas(buffer, before))
        return timed

    def finish(self, timed: Timed) -> None:
        """End-of-run checks: probes, invariants, audit, index size."""
        tree = self.tree
        _probe(timed, self.stream, tree.query, tree.query_knn, "tree")
        _tree_end_checks(timed, tree, self.stream)

    def close(self) -> None:
        self.tree = None


def _buffer_deltas(buffer, before) -> Dict[str, float]:
    hits = buffer.hits - before[0]
    misses = buffer.misses - before[1]
    return {
        "buffer.hits": hits,
        "buffer.misses": misses,
        "buffer.evictions": buffer.evictions - before[2],
    }


class Serve:
    """Durable primary behind the serving frontend, with a live replica."""

    name = "serve"

    def __init__(self, stream: Stream, scale: Scale, workdir: str):
        self.stream = stream
        self.config = tree_config(scale, scale.buffer_pages)
        self.workdir = workdir
        self.failures: List[str] = []
        self.tree: Optional[MovingObjectTree] = None
        self.replica: Optional[Replica] = None

    def setup(self, registry=None) -> None:
        primary = os.path.join(self.workdir, "primary")
        tree = MovingObjectTree.create_durable(
            primary, self.config, SimulationClock()
        )
        tree.clock.advance_to(2.0 * UI)
        tree.bulk_load(self.stream.population)
        _replay(tree, self.stream.warmup, self.stream.warmup_expected,
                self.failures)
        tree.checkpoint()
        # Start the timed phase from a cold buffer.  Closing the store
        # and reopening it with ``open_from`` would do the same, but the
        # reopened tree loses live entries (README, "Known defect").
        tree.buffer.clear()
        self.tree = tree
        shipper = WalShipper(primary, registry=registry)
        self.replica = Replica.bootstrap(
            tree.disk, shipper, os.path.join(self.workdir, "replica"),
            registry=registry,
        )
        self.shipper = shipper
        self.maintainer = OnlineMaintainer(tree.disk, registry=registry)
        self.link = ReplicaLink(
            ShippingChannel(shipper, registry=registry),
            self.replica,
            self.maintainer,
            promote_config=self.config,
            registry=registry,
        )
        self.registry = registry
        self.frontend = ServiceFrontend(
            tree,
            FrontendConfig(service_time=SERVE_SERVICE_TIME),
            replication=self.link,
        )

    def run(self, requests: List[Request], recorder=None) -> Timed:
        tree, stats = self.tree, self.tree.stats
        timed = Timed()
        ends: List[float] = []
        open_io: List[int] = []
        found: List[bool] = []
        calls = {name: getattr(tree, name) for name in ("insert", "delete", "query")}

        def begin() -> None:
            if not open_io:
                open_io.append(stats.reads + stats.writes)

        def end(answer) -> None:
            ends.append(_clock())
            timed.io.append(stats.reads + stats.writes - open_io.pop())
            timed.answers.append(answer)
            if recorder is not None:
                recorder.request = len(ends)

        def delete(oid, point):
            begin()
            result = calls["delete"](oid, point)
            found.append(result)
            return result

        def insert(oid, point):
            # Every write is an update: its insert ends the request.
            begin()
            calls["insert"](oid, point)
            end(found.pop())

        def query(q):
            begin()
            result = calls["query"](q)
            end(result)
            return result

        tree.insert, tree.delete, tree.query = insert, delete, query
        wal = tree.disk.wal
        wal_before = (wal.bytes_appended, wal.records_appended)
        buffer = tree.buffer
        before = (buffer.hits, buffer.misses, buffer.evictions)
        start = _clock()
        try:
            report = self.frontend.run([r.op for r in requests])
        except Exception as exc:  # the run is reported as failed
            report = None
            timed.failures.append(f"frontend run raised {exc!r}")
        finally:
            del tree.insert, tree.delete, tree.query
        timed.latency = [
            end - prev for prev, end in zip([start] + ends, ends)
        ]
        timed.kinds = [r.kind for r in requests[:len(ends)]]
        _check(timed, requests)
        if report is not None:
            for name in ("shed_queries", "shed_writes", "deadline_timeouts",
                         "degraded_answers", "failed_queries", "retries",
                         "kills"):
                if getattr(report, name):
                    timed.failures.append(
                        f"frontend {name} = {getattr(report, name)}"
                    )
            timed.layer["frontend.checkpoints"] = report.checkpoints
            timed.layer["frontend.shed"] = (
                report.shed_queries + report.shed_writes
            )
            timed.layer["frontend.timeouts"] = report.deadline_timeouts
            timed.layer["frontend.retries"] = report.retries
        timed.layer.update(_buffer_deltas(buffer, before))
        timed.layer["wal.bytes"] = wal.bytes_appended - wal_before[0]
        timed.layer["wal.appends"] = wal.records_appended - wal_before[1]
        timed.layer["replication.cursor_lag"] = self.shipper.lag_batches()
        timed.layer["replication.max_staleness"] = self.link.max_staleness
        if self.registry is not None:
            timed.layer["replication.applied_batches"] = self.registry.value(
                "replication.applied_batches"
            )
            timed.layer["replication.applied_pages"] = self.registry.value(
                "replication.applied_pages"
            )
        return timed

    def finish(self, timed: Timed) -> None:
        """Catch the replica up; hold it and the primary to the oracle."""
        tree, stream = self.tree, self.stream
        # Catch the follower up, then hold it to the primary and oracle.
        self.link.tick(force=True)
        _probe(timed, stream, self.replica.query, self.replica.knn, "replica")
        _probe(timed, stream, tree.query, tree.query_knn, "primary")
        _tree_end_checks(timed, tree, stream)

    def close(self) -> None:
        if self.replica is not None:
            self.replica.close()
        if self.tree is not None:
            self.tree.close()
        self.tree = self.replica = None


class Sharded:
    """Two shard worker processes behind the router, one request at a time."""

    name = "sharded"

    def __init__(self, stream: Stream, scale: Scale, workdir: str):
        self.stream = stream
        self.config = tree_config(scale, scale.shard_buffer_pages)
        self.workdir = workdir
        self.failures: List[str] = []
        self.forest: Optional[ShardedForest] = None
        self.registry = None

    def setup(self, registry=None) -> None:
        # The fitted grid of bench_shards.py: quantile cells over the
        # bulk-loaded positions, pruning queries by the drift bound.
        sample = [point.pos for point, _ in self.stream.population]
        shape = GridPartitioner.for_partitions(2, space=SPACE)
        partitioner = GridPartitioner.fitted(
            sample, shape.cells_x, shape.cells_y,
            space=SPACE, reach=MAX_SPEED * EXPT,
        )
        forest = ShardedForest.create(
            self.workdir,
            ShardConfig(workers=2, tree=self.config, space=SPACE),
            partitioner=partitioner,
            registry=registry,
        )
        self.forest, self.registry = forest, registry
        forest.clock.advance_to(2.0 * UI)
        forest.bulk_load(self.stream.population)
        result = forest.apply_ops(self.stream.warmup)
        if result.failed_deletes != self.stream.warmup_expected_misses:
            self.failures.append(
                f"warm-up missed {result.failed_deletes} old reports, "
                f"expected {self.stream.warmup_expected_misses}"
            )

    def run(self, requests: List[Request], recorder=None) -> Timed:
        forest = self.forest

        def call(request):
            op = request.op
            forest.clock.advance_to(op.time)
            if request.kind == "update":
                return forest.update(op.oid, op.old_point, op.new_point)
            if request.kind == "knn":
                return forest.query_knn(op.x, op.t, op.k)
            return forest.query(op.query)

        def io_total() -> int:
            # A stats gather between requests, outside every timer.
            if recorder is not None:
                recorder.active = False
            total = forest.io_snapshot().total
            if recorder is not None:
                recorder.active = True
            return total

        before = self._worker_counters() if self.registry else None
        timed = _closed_loop(requests, call, io_total, recorder)
        if before is not None:
            after = self._worker_counters()
            for key in after:
                timed.layer[key] = after[key] - before.get(key, 0.0)
            busy = [
                timed.layer.pop(f"busy_s.{i}", 0.0) for i in range(2)
            ]
            timed.layer["worker.busy_s_max"] = max(busy)
            timed.layer["worker.busy_s_sum"] = sum(busy)
        return timed

    def finish(self, timed: Timed) -> None:
        """Probe the forest against the oracle, audit it, record its size."""
        forest = self.forest
        _probe(timed, self.stream, forest.query, forest.query_knn, "forest")
        _audit(timed, forest.audit(), self.stream)
        timed.counts["index_pages"] = forest.page_count

    def _worker_counters(self) -> Dict[str, float]:
        merged = self.forest.registry_snapshot()
        counters = {
            key: merged.value(key)
            for key in ("buffer.hits", "buffer.misses", "buffer.evictions")
        }
        for i in range(2):
            counters[f"busy_s.{i}"] = self.registry.value(
                f"shards.shard{i}.busy_s"
            )
        return counters

    def close(self) -> None:
        if self.forest is not None:
            self.forest.close()
        self.forest = None


WORKLOAD_CLASSES = {cls.name: cls for cls in (Ingest, Serve, Sharded)}


def median_of(runs: List[Timed]) -> Timed:
    """One timed phase from repeated runs of the same requests.

    Every run replays the same requests on an identically set-up index,
    so each request's latency is taken as its median over the runs;
    counts, answers and I/O are the first run's (the caller checks that
    the others equal them).
    """
    first = runs[0]
    return Timed(
        kinds=first.kinds,
        latency=[
            statistics.median(xs) for xs in zip(*(r.latency for r in runs))
        ],
        io=first.io,
        answers=first.answers,
        counts=first.counts,
        layer=first.layer,
    )


def fresh_dir(path: str) -> str:
    """An empty directory at ``path`` (removing what was there)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_setup(workload: str, stream: Stream, scale: Scale, workdir: str,
                registry=None):
    """Build one workload instance in an empty directory; time the set-up."""
    instance = WORKLOAD_CLASSES[workload](stream, scale, fresh_dir(workdir))
    start = _clock()
    try:
        instance.setup(registry)
    except BaseException:
        instance.close()
        raise
    return instance, _clock() - start

