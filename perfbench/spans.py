"""In-memory spans around the calls the benchmark makes into each layer.

The traced run wraps public functions of the program from the outside:
a span records its name, start, end, parent span and request id, and
spans stay in memory until the run ends.  A layer's self time is its
spans' durations minus the part their child spans cover.

``from ... import`` binds a name in the importing module at import time,
so free functions are wrapped where they are *called* (for instance
``repro.core.tree.compute_tpbr``), never only where they are defined.
Methods are wrapped on their class, which every caller reaches.  Shard
workers start through multiprocessing spawn and never see these
wrappers; their numbers come from the router's replies instead.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


def _result_len(result, args) -> int:
    return len(result)


def _arg_len(result, args) -> int:
    return len(args[1])


#: (module, class or None, attribute, span name, size function or None).
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.core.tree", None, "compute_tpbr",
     "geometry.bounding.compute_tpbr", None),
    ("repro.rstar.metrics", None, "compute_tpbr",
     "geometry.bounding.compute_tpbr", None),
    ("repro.rstar.metrics", None, "batch_compute_tpbr",
     "geometry.kernels.batch_compute_tpbr", None),
    ("repro.core.tree", None, "choose_child",
     "rstar.heuristics.choose_child", None),
    ("repro.core.tree", None, "choose_split",
     "rstar.heuristics.choose_split", None),
    ("repro.core.tree", None, "reinsert_candidates",
     "rstar.heuristics.reinsert_candidates", None),
    ("repro.core.tree", "MovingObjectTree", "insert", "core.tree.insert", None),
    ("repro.core.tree", "MovingObjectTree", "delete", "core.tree.delete", None),
    ("repro.core.tree", "MovingObjectTree", "update", "core.tree.update", None),
    ("repro.core.tree", "MovingObjectTree", "query", "core.tree.query", None),
    ("repro.storage.serial", "NodeCodec", "encode",
     "storage.serial.NodeCodec.encode", _result_len),
    ("repro.storage.serial", "NodeCodec", "decode",
     "storage.serial.NodeCodec.decode", _arg_len),
    ("repro.storage.wal", "WriteAheadLog", "flush",
     "storage.wal.WriteAheadLog.flush", None),
    ("repro.storage.pagefile", "FilePageStore", "commit",
     "storage.pagefile.FilePageStore.commit", None),
    ("repro.storage.pagefile", "FilePageStore", "checkpoint",
     "storage.pagefile.FilePageStore.checkpoint", None),
    ("repro.storage.pagefile", "FilePageStore", "finish_checkpoint",
     "storage.pagefile.FilePageStore.finish_checkpoint", None),
    ("os", None, "fsync", "os.fsync", None),
    ("repro.serve.frontend", "ServiceFrontend", "run",
     "serve.frontend.ServiceFrontend.run", None),
    ("repro.serve.frontend", "ServiceFrontend", "_refresh_snapshot",
     "serve.frontend.ServiceFrontend.refresh_snapshot", None),
    ("repro.replication.link", "ReplicaLink", "tick",
     "replication.link.ReplicaLink.tick", None),
    ("repro.replication.shipper", "WalShipper", "fetch",
     "replication.shipper.WalShipper.fetch", None),
    ("repro.replication.replica", "Replica", "apply",
     "replication.replica.Replica.apply", None),
    ("repro.replication.maintenance", "OnlineMaintainer", "step",
     "replication.maintenance.OnlineMaintainer.step", None),
    ("repro.shard.router", "ShardedForest", "insert",
     "shard.router.ShardedForest.insert", None),
    ("repro.shard.router", "ShardedForest", "delete",
     "shard.router.ShardedForest.delete", None),
    ("repro.shard.router", "ShardedForest", "update",
     "shard.router.ShardedForest.update", None),
    ("repro.shard.router", "ShardedForest", "query",
     "shard.router.ShardedForest.query", None),
    ("repro.shard.router", "ShardedForest", "query_knn",
     "shard.router.ShardedForest.query_knn", None),
    ("repro.shard.router", "ShardedForest", "_send",
     "shard.router.ShardedForest.send", None),
    ("repro.shard.router", "ShardedForest", "_recv",
     "shard.router.ShardedForest.wait", None),
    ("repro.shard.wire", "OpCodec", "encode_ops",
     "shard.wire.OpCodec.encode_ops", _result_len),
    ("repro.shard.wire", "OpCodec", "decode_answers",
     "shard.wire.OpCodec.decode_answers", _arg_len),
    ("repro.shard.wire", "OpCodec", "decode_answer_frame",
     "shard.wire.OpCodec.decode_answer_frame", _arg_len),
]


class SpanRecorder:
    """Column-wise span storage plus the wrappers that fill it."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.sizes: List[int] = []
        self._stack: List[int] = []
        #: Id of the request the next spans belong to (set by the client).
        self.request = 0
        #: Spans are recorded only while active (the client pauses it
        #: around its own bookkeeping, such as shard stats gathers).
        self.active = False
        self._saved: List[Tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = len(rec.names)
            stack = rec._stack
            rec.names.append(name)
            rec.parents.append(stack[-1] if stack else -1)
            rec.requests.append(rec.request)
            rec.sizes.append(0)
            rec.ends.append(0.0)
            stack.append(index)
            start = _clock()
            rec.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[index] = _clock()
                stack.pop()
            if size is not None:
                rec.sizes[index] = size(result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry (undone by :meth:`uninstall`)."""
        for module_name, owner_name, attr, name, size in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(name, original, size))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.active = False
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``wall_s``, ``self_s`` and ``bytes``."""
        count = len(self.names)
        child = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        for i in range(count):
            row = table[self.names[i]]
            wall = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["wall_s"] += wall
            row["self_s"] += wall - child[i]
            row["bytes"] += self.sizes[i]
        return dict(table)

    def children_of(self, parent_names, child_name: str) -> int:
        """How many ``child_name`` spans sit directly under the parents."""
        wanted = set(parent_names)
        return sum(
            1
            for i, name in enumerate(self.names)
            if name == child_name
            and self.parents[i] >= 0
            and self.names[self.parents[i]] in wanted
        )

