"""Aggregate perfbench results into a committed ``BENCH_<n>.json``.

Reads the ``result-*.json`` files that ``perfbench/run.py`` leaves in a
checkout's ``.perfbench/`` directory, once for the checkout before a
change and once for the checkout after it, both run on the same box with
the same seeds:

    python jobs/bench_json.py --before ../parent/.perfbench \\
        --after .perfbench --out BENCH_9.json --title "..."

For each workload it records ``nproc``, the Spark master and the seeds,
then the median, quartiles and IQR of each side, with each side's runs
in seed order so that the interleaved pairs can be read off:

- ``end_to_end``: every bounded metric in ``BENCHMARK.json``, over the
  untraced (``--trace 0``) runs;
- ``builds_s``: the wall time of each build, over the same runs;
- ``traced``: from the ``--trace 1`` runs, every per-layer time, the
  node-work makespan and total apart from them (node compute, not wall
  time), and every count and byte metric, which read the same on both
  sides when a change leaves the work unchanged; plus, from the runs'
  spans files, the calls per round behind each ``cluster.*`` time
  (``cluster.map_states`` is a run's final read as a Spark job of its own).
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Traced metrics that sum node compute inside Spark tasks, not wall time.
NODE_WORK = ("engine.node_work_makespan_s", "engine.node_work_total_s")


def load(directory: Path) -> list[dict]:
    """Each run's result, with the path of its spans file (traced runs)."""
    runs = []
    for p in sorted(directory.glob("result-*.json")):
        spans = p.with_name(p.name.replace("result-", "spans-", 1)).with_suffix(".jsonl")
        runs.append({**json.loads(p.read_text()), "spans": spans})
    return runs


def span_calls(run: dict) -> dict:
    """Calls per round of each ``cluster.*`` span (SimCluster's init,
    supersteps and final reads) in a traced run's spans file."""
    calls: dict = {}
    for line in run["spans"].read_text().splitlines():
        name = json.loads(line)["name"]
        if name.startswith("cluster."):
            calls[name] = calls.get(name, 0) + 1
    return {k: v / max(1, run["rounds"]) for k, v in sorted(calls.items())}


def summary(vals: list[float]) -> dict:
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = med = q3 = vals[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": vals}


def compare(before: list[dict], after: list[dict], names, get) -> dict:
    """{name: {"before": summary, "after": summary, "change_frac"}}, where
    ``get(run, name)`` reads one run's value (None: the run lacks it)."""
    out = {}
    for name in names:
        sides = []
        for runs in (before, after):
            runs = sorted(runs, key=lambda r: r["env"]["seed"])
            vals = [v for v in (get(r, name) for r in runs) if v is not None]
            sides.append(summary(vals) if vals else None)
        if None in sides:
            continue
        b, a = sides
        out[name] = {
            "before": b,
            "after": a,
            "change_frac": (a["median"] - b["median"]) / b["median"] if b["median"] else None,
        }
    return out


def metric(run: dict, name: str):
    m = run["metrics"].get(name)
    return None if m is None else m["value"]


def workload_report(before: list[dict], after: list[dict], end_to_end: list[str]) -> dict:
    untraced = [[r for r in rs if not r["env"]["trace"]] for rs in (before, after)]
    traced = [[r for r in rs if r["env"]["trace"]] for rs in (before, after)]
    env = (untraced[0] or traced[0])[0]["env"]
    builds = env["builds"].split(",")
    report = {
        "nproc": env["nproc"],
        "spark_master": env["spark_master"],
        "graph": env["graph"],
        "seeds": sorted({r["env"]["seed"] for r in untraced[0] + untraced[1]}),
        "end_to_end": compare(*untraced, end_to_end, metric),
        "builds_s": compare(*untraced, builds, lambda r, op: r["build_medians_s"].get(op)),
    }
    if traced[0] and traced[1]:
        units = {k: m["unit"] for k, m in traced[0][0]["metrics"].items()}
        counts = [k for k, u in units.items() if u in ("count", "bytes")]
        times = [k for k, u in units.items() if u == "s" and k not in NODE_WORK]
        report["traced"] = {
            "seeds": sorted({r["env"]["seed"] for r in traced[0] + traced[1]}),
            "per_layer_s": compare(*traced, times, metric),
            "node_work_s": compare(*traced, NODE_WORK, metric),
            "counts": {
                k: {"before": v["before"]["runs"], "after": v["after"]["runs"]}
                for k, v in compare(*traced, counts, metric).items()
            },
        }
        calls = [[span_calls(r) for r in rs if r["spans"].is_file()] for rs in traced]
        if calls[0] and calls[1]:
            names = sorted({k for side in calls for c in side for k in c})
            report["traced"]["span_calls_per_round"] = {
                k: {"before": [c.get(k, 0.0) for c in calls[0]], "after": [c.get(k, 0.0) for c in calls[1]]}
                for k in names
            }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path, required=True, help="the parent's .perfbench directory")
    ap.add_argument("--after", type=Path, required=True, help="the change's .perfbench directory")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--title", default="")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    before, after = load(args.before), load(args.after)
    names = sorted({r["env"]["workload"] for r in before} & {r["env"]["workload"] for r in after})
    out = {
        "title": args.title,
        "workloads": {
            w: workload_report(
                [r for r in before if r["env"]["workload"] == w],
                [r for r in after if r["env"]["workload"] == w],
                end_to_end,
            )
            for w in names
        },
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
