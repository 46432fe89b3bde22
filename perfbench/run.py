"""The repository benchmark: one command, three workloads, oracle-checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the workload twice (untraced, then with layer spans) and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every answer matched the brute-force oracle and every
end-of-run check passed.  The stream length is fixed by the workload and
scale, never by a clock, so ``--seconds`` is accepted but does not
change what runs; see README.md.

The program under test is imported from ``src/`` beside this directory
and nowhere else: without it the command exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> unit, in report order (BENCHMARK.json's ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "request_p95_ms": "ms",
    "update_io_per_op": "pages",
    "index_pages": "pages",
    "peak_rss_mb": "MB",
}

_CALLS_AND_SELF = [
    "rstar.heuristics.choose_child",
    "rstar.heuristics.choose_split",
    "rstar.heuristics.reinsert_candidates",
    "storage.serial.NodeCodec.encode",
    "storage.serial.NodeCodec.decode",
    "storage.wal.WriteAheadLog.flush",
    "storage.pagefile.FilePageStore.commit",
    "storage.pagefile.FilePageStore.checkpoint",
    "storage.pagefile.FilePageStore.finish_checkpoint",
    "os.fsync",
    "serve.frontend.ServiceFrontend.refresh_snapshot",
    "replication.link.ReplicaLink.tick",
    "replication.shipper.WalShipper.fetch",
    "replication.replica.Replica.apply",
    "replication.maintenance.OnlineMaintainer.step",
    "shard.router.ShardedForest.wait",
    "shard.wire.OpCodec.encode_ops",
]

#: name -> unit (BENCHMARK.json's ``per_layer``).
PER_LAYER = {
    "geometry.bounding.compute_tpbr.calls_per_update": "count",
    "geometry.bounding.compute_tpbr.self_s": "s",
    "geometry.bounding.compute_tpbr.share": "%",
    "geometry.kernels.batch_compute_tpbr.calls_per_update": "count",
    "geometry.kernels.batch_compute_tpbr.self_s": "s",
    "geometry.kernels.batch_compute_tpbr.share": "%",
    **{f"{n}.{stat}": unit for n in _CALLS_AND_SELF
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "core.tree.insert.self_s": "s",
    "core.tree.delete.self_s": "s",
    "core.tree.query.self_s": "s",
    "core.tree.query.calls": "count",
    "core.tree.query.io_per_call": "pages",
    "core.tree.query.results_per_call": "count",
    "storage.buffer.BufferPool.hits": "count",
    "storage.buffer.BufferPool.misses": "count",
    "storage.buffer.BufferPool.evictions": "count",
    "storage.buffer.BufferPool.hit_rate": "%",
    "storage.serial.NodeCodec.encode.bytes": "B",
    "storage.serial.NodeCodec.decode.bytes": "B",
    "storage.wal.WriteAheadLog.appends": "count",
    "storage.wal.WriteAheadLog.bytes": "B",
    "storage.wal.WriteAheadLog.bytes_per_update": "B",
    "serve.frontend.ServiceFrontend.run.self_s": "s",
    "serve.frontend.ServiceFrontend.checkpoints": "count",
    "serve.frontend.ServiceFrontend.shed": "count",
    "serve.frontend.ServiceFrontend.timeouts": "count",
    "serve.frontend.ServiceFrontend.retries": "count",
    "replication.replica.Replica.batches": "count",
    "replication.replica.Replica.pages": "count",
    "replication.link.ReplicaLink.max_staleness": "s",
    "replication.link.ReplicaLink.cursor_lag": "count",
    "shard.router.ShardedForest.request.self_s": "s",
    "shard.router.ShardedForest.shards_per_read": "count",
    "shard.wire.OpCodec.encode_ops.bytes_per_request": "B",
    "shard.wire.OpCodec.decode.self_s": "s",
    "shard.wire.OpCodec.decode.bytes": "B",
    "shard.worker.busy_s_max": "s",
    "shard.worker.busy_s_sum": "s",
    "shard.worker.peak_rss_mb": "MB",
    "perfbench.latency.ops_per_s": "1/s",
    "perfbench.latency.request_p50_ms": "ms",
    "perfbench.latency.update_p50_ms": "ms",
    "perfbench.latency.update_p95_ms": "ms",
    "perfbench.latency.range_p50_ms": "ms",
    "perfbench.latency.range_p95_ms": "ms",
    "perfbench.latency.knn_p50_ms": "ms",
    "perfbench.latency.knn_p95_ms": "ms",
    "perfbench.trace.coverage": "%",
    "perfbench.trace.catch_all_self_s": "s",
    "perfbench.trace.overhead": "%",
    "perfbench.trace.spans": "count",
}

#: Span names whose self time is the router's own work per request.
_ROUTER_SPANS = [
    "shard.router.ShardedForest." + name
    for name in ("insert", "delete", "update", "query", "query_knn", "send")
]
#: Spans that wrap a whole request or the whole timed phase.  Their self
#: time is whatever no narrower span names, so coverage leaves it out.
CATCH_ALL = [
    "core.tree.update",
    "serve.frontend.ServiceFrontend.run",
    *_ROUTER_SPANS[:-1],
]
_MIN_COVERAGE = 0.90
#: Set-ups and timed replays per untraced run.
REPEATS = 3


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (informational only)."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def worker_rss_mb() -> float:
    """Peak RSS of the largest child process, once all have been joined.

    Only the sharded workload's shard workers are children worth
    reporting; callers read this for that workload alone.
    """
    return peak_rss_mb(resource.RUSAGE_CHILDREN)


def import_program():
    """Import ``repro`` from ``src/`` beside the benchmark, or fail."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: imported repro from {where}, not {SRC}")
    return repro


def end_to_end(timed, setups, workload: str) -> dict:
    """The end-to-end metrics of one untraced timed phase."""
    ms = [1000.0 * x for x in timed.latency]
    update_io = [io for io, k in zip(timed.io, timed.kinds) if k == "update"]
    values = {
        "setup_s": statistics.median(setups),
        "request_p95_ms": percentile(ms, 95),
        "update_io_per_op": sum(update_io) / len(update_io),
        "index_pages": timed.counts["index_pages"],
        # Sharded keeps its trees in the worker processes.
        "peak_rss_mb": max(
            peak_rss_mb(),
            worker_rss_mb() if workload == "sharded" else 0.0,
        ),
    }
    return values


def class_latencies(timed) -> dict:
    """Throughput, and p50 and p95 per request class in ms, with counts."""
    out = {"perfbench.latency.ops_per_s": len(timed.latency) / timed.wall}
    for kinds, label in ((None, "request"), (("update",), "update"),
                         (("query",), "range"), (("knn",), "knn")):
        ms = [1000.0 * x for x, k in zip(timed.latency, timed.kinds)
              if kinds is None or k in kinds]
        out[f"perfbench.latency.{label}_p50_ms"] = percentile(ms, 50)
        out[f"perfbench.latency.{label}_p95_ms"] = percentile(ms, 95)
        out[f"{label}_samples"] = len(ms)
    return out


def coverage(table, wall: float) -> float:
    """Share of the timed wall spent in the self time of named layers.

    The catch-all spans are left out, as is any time outside every
    span, so the share says how much of the wall the layers account for.
    """
    named = sum(
        row["self_s"] for name, row in table.items() if name not in CATCH_ALL
    )
    return named / wall


def per_layer(recorder, traced, base, worker_rss_mb: float) -> dict:
    """Fold the span table and the run's counters into PER_LAYER."""
    table = recorder.layer_table()
    updates = max(1, traced.kinds.count("update"))
    reads = [i for i, k in enumerate(traced.kinds) if k in ("query", "knn")]
    wall = traced.wall

    def row(name):
        return table.get(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                "bytes": 0})

    out = {}
    for name in ("geometry.bounding.compute_tpbr",
                 "geometry.kernels.batch_compute_tpbr"):
        out[f"{name}.calls_per_update"] = row(name)["calls"] / updates
        out[f"{name}.self_s"] = row(name)["self_s"]
        out[f"{name}.share"] = 100.0 * row(name)["self_s"] / wall
    for name in _CALLS_AND_SELF:
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("insert", "delete", "query"):
        out[f"core.tree.{name}.self_s"] = row(f"core.tree.{name}")["self_s"]
    out["core.tree.query.calls"] = row("core.tree.query")["calls"]
    results = sum(
        len(traced.answers[i]) for i in reads
        if isinstance(traced.answers[i], (list, tuple))
    )
    out["core.tree.query.io_per_call"] = (
        sum(traced.io[i] for i in reads) / len(reads) if reads else 0.0
    )
    out["core.tree.query.results_per_call"] = (
        results / len(reads) if reads else 0.0
    )
    layer = traced.layer
    hits = layer.get("buffer.hits", 0)
    misses = layer.get("buffer.misses", 0)
    out["storage.buffer.BufferPool.hits"] = hits
    out["storage.buffer.BufferPool.misses"] = misses
    out["storage.buffer.BufferPool.evictions"] = layer.get(
        "buffer.evictions", 0
    )
    out["storage.buffer.BufferPool.hit_rate"] = (
        100.0 * hits / (hits + misses) if hits + misses else 0.0
    )
    for name in ("encode", "decode"):
        out[f"storage.serial.NodeCodec.{name}.bytes"] = row(
            f"storage.serial.NodeCodec.{name}"
        )["bytes"]
    out["storage.wal.WriteAheadLog.appends"] = layer.get("wal.appends", 0)
    out["storage.wal.WriteAheadLog.bytes"] = layer.get("wal.bytes", 0)
    out["storage.wal.WriteAheadLog.bytes_per_update"] = (
        layer.get("wal.bytes", 0) / updates
    )
    out["serve.frontend.ServiceFrontend.run.self_s"] = row(
        "serve.frontend.ServiceFrontend.run"
    )["self_s"]
    for stat in ("checkpoints", "shed", "timeouts", "retries"):
        out[f"serve.frontend.ServiceFrontend.{stat}"] = layer.get(
            f"frontend.{stat}", 0
        )
    out["replication.replica.Replica.batches"] = layer.get(
        "replication.applied_batches", 0
    )
    out["replication.replica.Replica.pages"] = layer.get(
        "replication.applied_pages", 0
    )
    out["replication.link.ReplicaLink.max_staleness"] = layer.get(
        "replication.max_staleness", 0.0
    )
    out["replication.link.ReplicaLink.cursor_lag"] = layer.get(
        "replication.cursor_lag", 0
    )
    out["shard.router.ShardedForest.request.self_s"] = sum(
        row(name)["self_s"] for name in _ROUTER_SPANS
    )
    read_spans = ["shard.router.ShardedForest.query",
                  "shard.router.ShardedForest.query_knn"]
    router_reads = sum(row(name)["calls"] for name in read_spans)
    out["shard.router.ShardedForest.shards_per_read"] = (
        recorder.children_of(read_spans, "shard.router.ShardedForest.send")
        / router_reads if router_reads else 0.0
    )
    encode = row("shard.wire.OpCodec.encode_ops")
    out["shard.wire.OpCodec.encode_ops.bytes_per_request"] = (
        encode["bytes"] / len(traced.kinds) if traced.kinds else 0.0
    )
    decoders = [row("shard.wire.OpCodec.decode_answers"),
                row("shard.wire.OpCodec.decode_answer_frame")]
    out["shard.wire.OpCodec.decode.self_s"] = sum(
        d["self_s"] for d in decoders
    )
    out["shard.wire.OpCodec.decode.bytes"] = sum(d["bytes"] for d in decoders)
    out["shard.worker.busy_s_max"] = layer.get("worker.busy_s_max", 0.0)
    out["shard.worker.busy_s_sum"] = layer.get("worker.busy_s_sum", 0.0)
    out["shard.worker.peak_rss_mb"] = worker_rss_mb
    latencies = class_latencies(base)
    for key in PER_LAYER:
        if key.startswith("perfbench.latency."):
            out[key] = latencies[key]
    out["perfbench.trace.catch_all_self_s"] = sum(
        row(name)["self_s"] for name in CATCH_ALL
    )
    out["perfbench.trace.coverage"] = 100.0 * coverage(table, wall)
    out["perfbench.trace.overhead"] = 100.0 * (wall / base.wall - 1.0)
    out["perfbench.trace.spans"] = len(recorder.names)
    return out


def bounding_share_cprofile(stats) -> float:
    """Share of profiled time inside bounding, as cProfile attributes it."""
    raw = stats.stats
    total = sum(entry[2] for entry in raw.values())
    scalar = batch = None
    for key in raw:
        path, _line, func = key
        if func == "compute_tpbr" and path.endswith("bounding.py"):
            scalar = key
        if func == "batch_compute_tpbr" and path.endswith("kernels.py"):
            batch = key
    inside = 0.0
    if scalar is not None:
        # Calls made inside the batched kernel (from its list
        # comprehension) are already in the kernel's cumulative time.
        inside += sum(
            entry[3] for caller, entry in raw[scalar][4].items()
            if not caller[0].endswith("kernels.py")
        )
    if batch is not None:
        inside += raw[batch][3]
    return 100.0 * inside / total if total else 0.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's helper process, if spawning started one."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def measure(args, stream, scale, workdir, failures):
    """The untraced run: set up and replay the timed requests three times.

    Every repetition starts from an empty directory, so ``setup_s`` is
    the median of three set-ups, and replays the same requests on an
    identical index, so each request's latency is its median over the
    three replays: a host slowdown that hits one replay is voted out.
    Page I/O, answers and counts must repeat exactly across replays.
    """
    import workloads

    profiler = None
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
    runs, setups = [], []
    for k in range(REPEATS):
        instance, seconds = workloads.timed_setup(
            args.workload, stream, scale, os.path.join(workdir, f"run{k}")
        )
        setups.append(seconds)
        try:
            if profiler is not None:
                profiler.enable()
            timed = instance.run(stream.requests)
            if profiler is not None:
                profiler.disable()
            instance.finish(timed)
        finally:
            instance.close()
        failures += instance.failures + timed.failures
        runs.append(timed)
    for k, timed in enumerate(runs[1:], 1):
        for name in ("io", "answers", "counts"):
            if getattr(timed, name) != getattr(runs[0], name):
                failures.append(f"replay {k} changed the {name}")
    if profiler is not None:
        import pstats

        share = bounding_share_cprofile(pstats.Stats(profiler))
        print(f"cProfile: geometry.bounding share of the timed phase "
              f"{share:.1f}%", file=sys.stdout)
    return workloads.median_of(runs), setups, runs


def trace(args, stream, scale, workdir, failures):
    """The traced run: an untraced baseline, then the same with spans."""
    from repro.obs import MetricsRegistry

    import workloads
    from spans import SpanRecorder

    base_inst, _ = workloads.timed_setup(
        args.workload, stream, scale, workdir
    )
    try:
        base = base_inst.run(stream.requests)
        base_inst.finish(base)
    finally:
        base_inst.close()
    failures += base_inst.failures + base.failures
    inst, _ = workloads.timed_setup(
        args.workload, stream, scale, workdir, registry=MetricsRegistry()
    )
    recorder = SpanRecorder()
    try:
        with recorder:
            recorder.active = True
            traced = inst.run(stream.requests, recorder)
            recorder.active = False
        inst.finish(traced)
    finally:
        inst.close()
    failures += inst.failures + traced.failures
    for name, want, got in (
        ("page I/O", base.io, traced.io),
        ("answers", base.answers, traced.answers),
        ("counts", base.counts, traced.counts),
    ):
        if want != got:
            failures.append(f"the traced run changed the {name}")
    metrics = per_layer(
        recorder, traced, base,
        worker_rss_mb() if args.workload == "sharded" else 0.0,
    )
    coverage = metrics["perfbench.trace.coverage"]
    if coverage < 100.0 * _MIN_COVERAGE:
        failures.append(
            f"layer spans cover only {coverage:.1f}% of the timed wall "
            f"(need {100 * _MIN_COVERAGE:.0f}%)"
        )
    return metrics


def run(args) -> int:
    repro = import_program()
    from repro.geometry import kernels

    import streams

    scale = streams.SMALL
    out = sys.stdout
    probe_before = host_probe()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"scale={scale.name} population={scale.population} "
        f"page={scale.page_size}B buffer={scale.buffer_pages}p "
        f"timed_updates={scale.timed_updates[args.workload]} "
        f"sha={git_sha()} cpus={os.cpu_count()} "
        f"python={platform.python_version()} "
        f"numpy={kernels.numpy_enabled()} repro={repro.__version__}",
        file=out,
    )
    imported_rss = peak_rss_mb()
    stream = streams.build_stream(args.workload, args.seed, scale)
    baseline_rss = peak_rss_mb()
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    failures = []
    try:
        if args.trace:
            metrics = trace(args, stream, scale, workdir, failures)
            print_layers(out, metrics)
            units = PER_LAYER
            attempted = 2 * len(stream.requests)
        else:
            timed, setups, runs = measure(
                args, stream, scale, workdir, failures
            )
            metrics = end_to_end(timed, setups, args.workload)
            print(f"client peak RSS before set-up: {imported_rss:.1f} MB "
                  f"after imports, {baseline_rss:.1f} MB with the inputs "
                  f"and oracle answers", file=out)
            print_end_to_end(out, metrics, timed, setups, runs)
            units = END_TO_END
            attempted = REPEATS * len(stream.requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
        stop_resource_tracker()
    print(f"host probe (fixed loop): {probe_before * 1000:.1f} ms before, "
          f"{host_probe() * 1000:.1f} ms after (informational only)",
          file=out)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), file=out)
    return 0 if not failures else 1


def print_end_to_end(out, metrics, timed, setups, runs) -> None:
    samples = {"request_p95_ms": len(timed.kinds)}
    latencies = class_latencies(timed)
    print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}",
          file=out)
    for k, run_k in enumerate(runs):
        ms = [1000.0 * x for x in run_k.latency]
        upd = [x for x, kind in zip(ms, run_k.kinds) if kind == "update"]
        print(f"replay {k}: {len(ms) / run_k.wall:.2f} ops/s, request p50 "
              f"{percentile(ms, 50):.4f} ms, update p50 "
              f"{percentile(upd, 50):.4f} ms, update p95 "
              f"{percentile(upd, 95):.4f} ms", file=out)
    for name, unit in END_TO_END.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<18} {metrics[name]:>12.4f} {unit}{note}", file=out)
    print(f"  throughput: {latencies['perfbench.latency.ops_per_s']:.2f} ops/s",
          file=out)
    for label in ("request", "update", "range", "knn"):
        n = latencies[f"{label}_samples"]
        if n:
            print(f"  {label} latency: p50 "
                  f"{latencies[f'perfbench.latency.{label}_p50_ms']:.3f} ms, "
                  f"p95 {latencies[f'perfbench.latency.{label}_p95_ms']:.3f}"
                  f" ms (n={n})", file=out)


def print_layers(out, metrics) -> None:
    print(f"  {'per-layer metric':<56} {'value':>14}", file=out)
    for name, unit in PER_LAYER.items():
        print(f"  {name:<56} {metrics[name]:>14.4f} {unit}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "serve", "sharded"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="accepted for callers that pass a run length; "
                             "streams are fixed length, so it changes nothing")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cprofile", action="store_true",
                        help="profile the untraced timed phase and print "
                             "cProfile's geometry.bounding share")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except Exception:  # report, then fail the command
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
