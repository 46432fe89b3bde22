"""Seeded request streams and their brute-force expected answers.

Every workload starts from the paper's network generator (Section 5.1:
UI = 60, ExpT = 2 UI, W = UI / 2, one query per 100 insertions, query
squares covering 0.25% of the space in the 0.6/0.2/0.2 timeslice/window/
moving mix).  A stream is cut into three fixed-length parts:

* ``population`` -- the latest report of every object at t = 2 UI, which
  set-up bulk-loads;
* ``warmup`` -- the next UI of the stream, which set-up replays so the
  timed phase starts in steady state rather than in the split storm that
  follows an STR bulk load;
* ``requests`` -- the timed phase: a fixed number of stream updates with
  the stream's own queries, plus the workload's extra reads after each
  update.

Expected answers come from replaying the stream over a plain dict of
live reports, outside every timed region: range answers are decided by
the scalar ``region_matches_point`` and kNN answers by
``brute_force_knn``.  When numpy is present, a conservative bounding-box
(range) or distance (kNN) prefilter picks the candidates those scalar
oracles then decide; the prefilter's margin is far wider than any
rounding, so it never changes an answer, only the oracle's run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry.intersection import region_matches_point
from repro.geometry.knn import brute_force_knn
from repro.workloads.base import InsertOp, KnnOp, QueryOp, UpdateOp
from repro.workloads.expiration import FixedPeriod
from repro.workloads.network import NetworkParams, generate_network_workload
from repro.workloads.queries import QueryGenerator, QueryProfile

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is optional
    np = None

UI = 60.0
EXPT = 2.0 * UI
WINDOW = UI / 2.0
SPACE = 1000.0
#: Fastest speed group of the network generator (km/min); with ExpT it
#: bounds how far a report can drift, which the shard grid prunes on.
MAX_SPEED = 3.0
KNN_K = 8
#: Extra reads the client sends after each stream update.
SERVE_READS_PER_UPDATE = 9
#: Sharded reads alternate: one range query, then one kNN request.
SHARDED_READS_PER_UPDATE = 2
#: Prefilter slack in km; positions are O(1000) km, rounding is O(1e-10).
_MARGIN = 1.0

WORKLOADS = ("ingest", "serve", "sharded")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    name: str
    population: int
    page_size: int
    buffer_pages: int
    shard_buffer_pages: int
    timed_updates: Dict[str, int]


#: ROADMAP's ``small`` scale: the one every reported number uses.
SMALL = Scale(
    name="small",
    population=1500,
    page_size=1024,
    buffer_pages=6,
    # 64 pages per worker against a ~30-page member tree: it fits.
    shard_buffer_pages=128,
    timed_updates={"ingest": 1000, "serve": 300, "sharded": 600},
)

#: A seconds-long configuration for the benchmark's own self-tests.
SMOKE = Scale(
    name="smoke",
    population=200,
    page_size=512,
    buffer_pages=4,
    shard_buffer_pages=64,
    timed_updates={"ingest": 60, "serve": 20, "sharded": 30},
)


@dataclass(frozen=True)
class Request:
    """One timed client request and the answer it must produce.

    ``expected`` is the update's must-find flag (the old report is still
    live), a range query's sorted oid tuple, or a kNN answer's oid
    tuple in ``(distance, oid)`` order.
    """

    kind: str  # "update" | "query" | "knn"
    op: object
    expected: object


@dataclass
class Stream:
    """Everything one workload run replays, generated from one seed."""

    workload: str
    seed: int
    population: List[Tuple[object, int]]
    warmup: list
    warmup_expected_misses: int
    warmup_expected: List[Optional[bool]]
    requests: List[Request]
    final_live: int
    probe_queries: list
    probe_expected: List[Tuple[int, ...]]
    probe_knn: List[KnnOp]
    probe_knn_expected: List[Tuple[int, ...]]


class Oracle:
    """The live report of every object, and brute-force answers over it."""

    def __init__(self, population: List[Tuple[object, int]]):
        self.live: Dict[int, object] = {oid: p for p, oid in population}
        self._np = None
        if np is not None:
            size = max(self.live) + 1 if self.live else 0
            self._np = {
                key: np.zeros(size)
                for key in ("px", "py", "vx", "vy", "tref", "texp")
            }
            for oid, point in self.live.items():
                self._store(oid, point)

    def _store(self, oid: int, point) -> None:
        arrays = self._np
        arrays["px"][oid], arrays["py"][oid] = point.pos
        arrays["vx"][oid], arrays["vy"][oid] = point.vel
        arrays["tref"][oid] = point.t_ref
        arrays["texp"][oid] = point.t_exp

    def apply(self, op: UpdateOp) -> bool:
        """Apply an update; return whether its old report is still live."""
        if not isinstance(op, UpdateOp):
            # Objects first report during the ramp (t <= UI), before the
            # bulk load at 2 UI; NewOb = 0 introduces no later objects.
            raise ValueError(f"expected an update after the ramp, got {op!r}")
        self.live[op.oid] = op.new_point
        if self._np is not None:
            self._store(op.oid, op.new_point)
        return not op.old_point.t_exp < op.time

    @staticmethod
    def _candidates(mask) -> List[int]:
        # Oids are dense: the ramp gives objects 0..N-1 their first report.
        return [int(oid) for oid in np.nonzero(mask)[0]]

    def range_answer(self, query) -> Tuple[int, ...]:
        """Sorted oids matching ``query`` (scalar ``region_matches_point``)."""
        region = query.region()
        if self._np is None:
            oids = self.live
        else:
            a = self._np
            mask = None
            for d, (pos, vel) in enumerate((("px", "vx"), ("py", "vy"))):
                lo = min(region.lower_at(d, region.t1),
                         region.lower_at(d, region.t2)) - _MARGIN
                hi = max(region.upper_at(d, region.t1),
                         region.upper_at(d, region.t2)) + _MARGIN
                at1 = a[pos] + a[vel] * (region.t1 - a["tref"])
                at2 = a[pos] + a[vel] * (region.t2 - a["tref"])
                inside = (np.maximum(at1, at2) >= lo) & (
                    np.minimum(at1, at2) <= hi
                )
                mask = inside if mask is None else mask & inside
            oids = self._candidates(mask)
        return tuple(sorted(
            oid for oid in oids
            if region_matches_point(region, self.live[oid])
        ))

    def knn_answer(self, x, t: float, k: int) -> Tuple[int, ...]:
        """The ``k`` nearest live oids at ``t`` (``brute_force_knn``)."""
        if self._np is None:
            oids = list(self.live)
        else:
            a = self._np
            dx = (a["px"] - a["vx"] * a["tref"] + a["vx"] * t) - x[0]
            dy = (a["py"] - a["vy"] * a["tref"] + a["vy"] * t) - x[1]
            d2 = dx * dx + dy * dy
            live = ~(a["texp"] < t)
            if int(live.sum()) <= k:
                oids = self._candidates(live)
            else:
                kth = np.partition(d2[live], k - 1)[k - 1]
                oids = self._candidates(
                    live & (d2 <= kth * (1 + 1e-6) + _MARGIN)
                )
        entries = [(self.live[oid], oid) for oid in oids]
        return tuple(oid for _, oid in brute_force_knn(entries, x, t, k))

    def live_count(self, now: float) -> int:
        """Reports still live at ``now`` (``not t_exp < now``)."""
        return sum(1 for p in self.live.values() if not p.t_exp < now)


def build_stream(workload: str, seed: int, scale: Scale = SMALL) -> Stream:
    """Generate ``workload``'s inputs and expected answers from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    updates = scale.timed_updates[workload]
    params = NetworkParams(
        target_population=scale.population,
        # Ramp to 2 UI (~3 reports per object), one UI of warm-up and
        # the timed updates, with slack.
        insertions=4 * scale.population + updates + scale.population // 2,
        update_interval=UI,
        queries_per_insertions=100,
        space=SPACE,
        seed=seed,
    )
    ops = generate_network_workload(params, FixedPeriod(EXPT)).ops
    latest: Dict[int, object] = {}
    pos = 0
    while pos < len(ops) and ops[pos].time <= 2.0 * UI:
        op = ops[pos]
        if isinstance(op, InsertOp):
            latest[op.oid] = op.point
        elif isinstance(op, UpdateOp):
            latest[op.oid] = op.new_point
        pos += 1
    population = [(latest[oid], oid) for oid in sorted(latest)]
    oracle = Oracle(population)

    warm_start = pos
    while pos < len(ops) and ops[pos].time <= 3.0 * UI:
        pos += 1
    warmup = ops[warm_start:pos]
    warmup_expected = [
        oracle.apply(op) if not isinstance(op, QueryOp) else None
        for op in warmup
    ]
    misses = sum(1 for found in warmup_expected if found is False)

    rng = random.Random(seed * 7919 + 17)
    profile = QueryProfile(space=SPACE)
    queries = QueryGenerator(profile, random.Random(seed * 7919 + 29))
    oids = sorted(oracle.live)
    extra = {
        "ingest": 0,
        "serve": SERVE_READS_PER_UPDATE,
        "sharded": SHARDED_READS_PER_UPDATE,
    }[workload]

    def paper_query(now: float):
        tracked = [oracle.live[oid] for oid in rng.sample(oids, 8)]
        return QueryOp(now, queries.generate(now, WINDOW, tracked))

    requests: List[Request] = []
    done = 0
    while done < updates:
        if pos >= len(ops):
            raise RuntimeError(
                f"stream ran out after {done} of {updates} timed updates"
            )
        op = ops[pos]
        pos += 1
        if isinstance(op, QueryOp):
            requests.append(
                Request("query", op, oracle.range_answer(op.query))
            )
            continue
        found = oracle.apply(op)
        requests.append(Request("update", op, found))
        done += 1
        for i in range(extra):
            if workload == "sharded" and i % 2 == 1:
                x = (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE))
                t = op.time + rng.uniform(0.0, WINDOW)
                knn = KnnOp(op.time, x, t, KNN_K)
                requests.append(
                    Request("knn", knn, oracle.knn_answer(x, t, KNN_K))
                )
            else:
                read = paper_query(op.time)
                requests.append(
                    Request("query", read, oracle.range_answer(read.query))
                )

    now = requests[-1].op.time
    probes = [paper_query(now) for _ in range(24)]
    probe_knn = []
    for _ in range(4):
        x = (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE))
        probe_knn.append(KnnOp(now, x, now + rng.uniform(0.0, WINDOW), KNN_K))
    return Stream(
        workload=workload,
        seed=seed,
        population=population,
        warmup=warmup,
        warmup_expected_misses=misses,
        warmup_expected=warmup_expected,
        requests=requests,
        final_live=oracle.live_count(now),
        probe_queries=[probe.query for probe in probes],
        probe_expected=[oracle.range_answer(p.query) for p in probes],
        probe_knn=probe_knn,
        probe_knn_expected=[
            oracle.knn_answer(p.x, p.t, p.k) for p in probe_knn
        ],
    )
