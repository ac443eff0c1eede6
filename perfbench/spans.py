"""Span recording for the traced benchmark run.

A span is one timed call at a layer boundary: name, start, end, parent
span and run id. Spans are kept in memory and written as JSON lines when
the run ends. ``Tracer.install()`` wraps the public names the drivers call
on the Spark driver; calls that run inside Spark tasks are invisible to
these wrappers and are read from the stats the drivers return instead.

Never wrap a name that a closure shipped to executors looks up as a module
global (for example ``repro.core.parallel.prune_dij_rq``): cloudpickle
would then try to ship the wrapper, which executors cannot import. The
names wrapped here are all called on the driver only; executors resolve
methods through their own unpatched copy of each class.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """The untraced run: spans cost nothing and are dropped."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """In-memory span recorder for one run (single-threaded driver)."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Inclusive seconds over every span called ``name``."""
        return sum(self.durations(name))

    def _child_totals(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return child

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix before the first dot).

        A span's self time is its duration minus its children's; children
        of one parent never overlap because the driver is single-threaded.
        """
        child = self._child_totals()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"].split(".", 1)[0]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def self_total(self, names) -> float:
        """Self seconds summed over the spans whose name is in ``names``."""
        child = self._child_totals()
        return sum(
            s["end"] - s["start"] - child[s["id"]] for s in self.spans if s["name"] in names
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def span_cost_s(self, reps: int = 20_000) -> float:
        """Measured cost of recording one span, on a throwaway tracer."""
        probe = Tracer("probe")
        t0 = time.perf_counter()
        for _ in range(reps):
            with probe.span("x"):
                pass
        return (time.perf_counter() - t0) / reps

    # ------------------------------------------------------------------ #
    @contextmanager
    def install(self):
        """Wrap the driver-side layer entry points for the duration."""
        import repro.core.gll as gll_mod
        import repro.core.pll as pll_mod
        import repro.dist.dgll as dgll_mod
        import repro.dist.hybrid as hybrid_mod
        import repro.dist.plant_dist as plant_mod
        from repro.core.labels import LabelStore
        from repro.core.query import QueryIndex
        from repro.dist.cluster import SimCluster

        saved = []

        def patch(owner, attr, make):
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

        def timed(name, on_result=None, on_args=None):
            def make(orig):
                def wrapper(*args, **kwargs):
                    if on_args is not None:
                        on_args(args)
                    with self.span(name):
                        out = orig(*args, **kwargs)
                    if on_result is not None:
                        on_result(args, out)
                    return out

                wrapper.__wrapped__ = orig
                return wrapper

            return make

        def on_tree(args, labels):
            self.count("dijkstra.trees")
            self.count("dijkstra.labels", len(labels))

        def on_commit(args, out):
            self.count("labels.commit_calls")
            self.count("labels.commit_labels", len(args[1]))

        def on_batch(args):
            self.count("parallel.serial_batches" if args[0] is None else "parallel.spark_batches")

        patch(pll_mod, "prune_dij_rq", timed("dijkstra.prune_dij_rq", on_tree))
        patch(LabelStore, "commit", timed("labels.commit", on_commit))
        patch(LabelStore, "delete", timed("labels.delete", lambda a, k: self.count("labels.deleted", k)))
        patch(gll_mod, "build_trees", timed("parallel.build_trees", on_args=on_batch))
        patch(gll_mod, "find_redundant", timed("parallel.find_redundant"))
        patch(SimCluster, "__init__", timed("cluster.init"))
        patch(SimCluster, "superstep", timed("cluster.superstep"))
        patch(SimCluster, "map_states", timed("cluster.map_states"))
        for mod in (dgll_mod, plant_mod, hybrid_mod):
            patch(mod, "collect_store", timed("engine.collect_store"))
        patch(QueryIndex, "query_batch", timed("query.batch"))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
