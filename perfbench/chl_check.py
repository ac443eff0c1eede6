"""Output checks of the CHL benchmark.

Every build and every query is one operation. A build fails when it raises
(a simulated OOM included), reports a timeout, differs from the set-up
reference CHL by a single label, or answers a sampled pair differently
from ``reference_dijkstra``. A query fails when its answer differs from
``ground_truth_pairs``. Failures are counted against attempts, and a
failed build never contributes a time to the metrics.

The checks read labels straight from ``LabelStore.hubs``/``dists`` and
answer pairs with their own hub intersection, so they do not share code
with the query paths under test.
"""
from __future__ import annotations

import numpy as np


def label_set(store) -> frozenset:
    """Order-free (v, hub, dist) identity of a labeling."""
    return frozenset(
        (v, int(h), int(d))
        for v in range(store.n)
        for h, d in zip(store.hubs[v], store.dists[v])
    )


def answer(store, u: int, v: int, inf: int) -> int:
    """min over common hubs of d(u,h) + d(v,h); ``inf`` if none."""
    hu = dict(zip(store.hubs[u], store.dists[u]))
    best = inf
    for h, d in zip(store.hubs[v], store.dists[v]):
        du = hu.get(h)
        if du is not None and du + d < best:
            best = du + d
    return int(best)


class Checker:
    """Counts attempted and failed operations and keeps one line per failure."""

    def __init__(self, reference, sample_pairs: np.ndarray, sample_truth: np.ndarray, inf: int):
        self.reference_labels = label_set(reference)
        self.sample_pairs = sample_pairs
        self.sample_truth = sample_truth
        self.inf = inf
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, msg: str, k: int = 1) -> None:
        self.failed += k
        if len(self.failures) < 50:
            self.failures.append(msg)

    def build(self, name: str, store, *, timed_out: bool = False, canonical: bool = True) -> bool:
        """Check one finished build; returns whether it passed."""
        self.attempted += 1
        if timed_out:
            self._fail(f"{name}: timed out")
            return False
        if store is None:
            self._fail(f"{name}: no labels returned")
            return False
        if canonical:
            got = label_set(store)
            if got != self.reference_labels:
                missing = len(self.reference_labels - got)
                extra = len(got - self.reference_labels)
                self._fail(f"{name}: CHL mismatch ({missing} missing, {extra} extra labels)")
                return False
        wrong = sum(
            answer(store, int(u), int(v), self.inf) != int(t)
            for (u, v), t in zip(self.sample_pairs, self.sample_truth)
        )
        if wrong:
            self._fail(f"{name}: {wrong}/{len(self.sample_truth)} sampled answers differ from Dijkstra")
            return False
        return True

    def build_error(self, name: str, err: BaseException) -> None:
        """A build that raised (OOM, deadline, crash) is one failed operation."""
        self.attempted += 1
        self._fail(f"{name}: {type(err).__name__}: {err}")

    def answers(self, name: str, got: np.ndarray, truth: np.ndarray) -> int:
        """Check a batch of query answers; each wrong answer is one failed query."""
        got = np.asarray(got, dtype=np.int64)
        self.attempted += len(truth)
        if got.shape != truth.shape:
            self._fail(f"{name}: {got.shape} answers for {truth.shape} queries", len(truth))
            return len(truth)
        wrong = int((got != truth).sum())
        if wrong:
            self._fail(f"{name}: {wrong}/{len(truth)} answers differ from ground truth", wrong)
        return wrong
