"""Self-tests of the benchmark: determinism, seeding and its declaration.

Run from the repository root with ``python -m pytest perfbench -q``.
Every workload runs twice at smoke size with one seed; all counts and
answers must repeat exactly: counts are compared across runs of one
commit, and a count that does not repeat cannot be compared.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import streams  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SEED = 3


def _replay(workload: str, seed: int, workdir: str, recorder=None):
    stream = streams.build_stream(workload, seed, streams.SMOKE)
    instance, _ = workloads.timed_setup(
        workload, stream, streams.SMOKE, workdir
    )
    try:
        if recorder is None:
            timed = instance.run(stream.requests)
        else:
            with recorder:
                recorder.active = True
                timed = instance.run(stream.requests, recorder)
                recorder.active = False
        instance.finish(timed)
    finally:
        instance.close()
    return instance, timed


def _fingerprint(instance, timed) -> dict:
    """Everything that must repeat: counts, answers and failures."""
    return {
        "kinds": timed.kinds,
        "io": timed.io,
        "answers": timed.answers,
        "counts": timed.counts,
        "layer": {
            key: value for key, value in timed.layer.items()
            if not key.startswith("worker.busy")
        },
        "failures": instance.failures + timed.failures,
    }


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_counts_and_answers_repeat(workload, tmp_path):
    first = _fingerprint(*_replay(workload, SEED, str(tmp_path / "a")))
    second = _fingerprint(*_replay(workload, SEED, str(tmp_path / "b")))
    assert first == second
    assert first["kinds"].count("update") == (
        streams.SMOKE.timed_updates[workload]
    )


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_tracing_changes_no_count_or_answer(workload, tmp_path):
    plain = _fingerprint(*_replay(workload, SEED, str(tmp_path / "a")))
    recorder = SpanRecorder()
    instance, timed = _replay(
        workload, SEED, str(tmp_path / "b"), recorder=recorder
    )
    assert _fingerprint(instance, timed) == plain
    assert run.coverage(recorder.layer_table(), timed.wall) >= 0.9


def test_seed_changes_the_stream():
    def ops(seed):
        stream = streams.build_stream("sharded", seed, streams.SMOKE)
        return [repr(r.op) for r in stream.requests]

    assert ops(SEED) == ops(SEED)
    assert ops(SEED) != ops(SEED + 1)


def test_span_self_time_excludes_children():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: inner() + inner())
    recorder.active = True
    outer()
    table = recorder.layer_table()
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["wall_s"] - table["inner"]["wall_s"]
    )


def test_benchmark_json_declares_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(streams.WORKLOADS)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: after open_from, float32-decoded bounds can "
    "exclude a live entry, so its update misses it (README)",
)
def test_reopened_durable_tree_finds_every_live_entry(tmp_path):
    # ``serve`` clears its buffer instead of reopening its primary
    # because of this defect; the test fails while the defect stands.
    from repro.core.clock import SimulationClock
    from repro.core.tree import MovingObjectTree

    stream = streams.build_stream("serve", SEED)
    config = workloads.tree_config(streams.SMALL, streams.SMALL.buffer_pages)
    directory = str(tmp_path / "primary")
    tree = MovingObjectTree.create_durable(directory, config, SimulationClock())
    tree.clock.advance_to(2.0 * streams.UI)
    tree.bulk_load(stream.population)
    tree.checkpoint()
    tree.close()
    tree = MovingObjectTree.open_from(directory, config, SimulationClock())
    failures = []
    try:
        workloads._replay(
            tree, stream.warmup, stream.warmup_expected, failures
        )
    finally:
        tree.close()
    assert failures == []
