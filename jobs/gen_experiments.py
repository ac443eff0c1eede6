"""Render EXPERIMENTS.md from results/*.json next to the paper's numbers.

Paper values are transcribed from the VLDB 2019 text (Tables 2-4, Figs.
8-9 claims). Run the table jobs first; then:  python jobs/gen_experiments.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

# ---- paper ground truth ------------------------------------------------- #
PAPER_T3 = {  # dataset: (spara_als, spara_t, chl_als, seq_t, lcc_t, gll_t)
    "CAL": (108.3, 51.2, 83.4, 215, 41.4, 35.4),
    "EAS": (138.1, 116.3, 116.8, 680.6, 108.7, 88),
    "CTR": (178.7, 424.2, 160.9, 5045, 664.1, 567.7),
    "USA": (185.6, 816.9, 166.1, "inf", 1148.6, 834),
    "SKIT": (88.3, 2.5, 85.1, 95.8, 4.85, 3.9),
    "WND": (39.6, 2.4, 23.5, 21.98, 2.94, 2.1),
    "AUT": (240.2, 10.4, 229.6, 670, 18.4, 14.6),
    "YTB": (208.9, 69.6, 207.5, 2692.6, 126.7, 104.6),
    "ACT": (376.1, 112.4, 366.3, "inf", 151.3, 141.9),
    "BDU": (100.1, 103.1, 90.7, 4736, 133.9, 99.9),
    "POK": (2243.4, 4159.3, 2230.7, "inf", "inf", 3916.5),
    "LIJ": ("-", "inf", 1222.5, "inf", "inf", "inf"),
}

PAPER_T4 = {  # dataset: (qlsn_thr, qfdl_thr, qdol_thr, qlsn_lat, qfdl_lat,
    #            qdol_lat, qlsn_mem, qfdl_mem, qdol_mem)  [Mq/s, µs, GB]
    "CAL": (10.1, 12.1, 29.6, 2.8, 22.3, 8.4, 43.8, 2.4, 13.7),
    "EAS": (7.1, 8.9, 14.6, 3.6, 24, 11.4, 125.4, 7.4, 39.2),
    "CTR": ("-", 6.5, 9, "-", 26.6, 14.7, "-", 45, 242.1),
    "USA": ("-", 5.4, 10, "-", 29.5, 20, "-", 80, 413.3),
    "SKIT": (15.8, 18.5, 29.8, 1, 20.7, 7.9, 4.5, 0.3, 1.4),
    "WND": (37.5, 19.6, 42.7, 0.3, 22.7, 7.1, 0.6, 0.1, 0.6),
    "AUT": (4.9, 9.9, 27.5, 3.7, 21.7, 12.9, 16.6, 1, 5.2),
    "YTB": (10.4, 23.3, 30.3, 2.2, 23.9, 13.6, 74.9, 4.6, 23.4),
    "ACT": (3.2, 10.4, 21.3, 4.8, 22.8, 18.1, 46.1, 2.8, 14.4),
    "BDU": (13.2, 16.4, 21.5, 1.5, 22.1, 11.1, 54.7, 3.2, 17.1),
    "POK": ("-", 5.1, 7.5, "-", 32, 34.5, "-", 77.6, 388.9),
    "LIJ": ("-", 6, "-", "-", 31.6, "-", "-", 125.8, "-"),
}


def load(tag):
    f = RESULTS / f"{tag}.json"
    if not f.exists():
        return None
    with open(f) as fh:
        return json.load(fh)


def md_table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def ratio(a, b):
    try:
        return f"{float(a) / float(b):.2f}"
    except (TypeError, ValueError, ZeroDivisionError):
        return "-"


def main():
    parts = []
    parts.append(HEADER)

    t2 = load("table2")
    if t2:
        parts.append("\n## Table 2 — datasets\n")
        parts.append(
            md_table(
                ["dataset", "type", "paper n", "paper m", "ours n", "ours m", "ranking"],
                [
                    (r["dataset"], r["kind"], f'{r["paper_n"]:,}', f'{r["paper_m"]:,}',
                     r["ours_n"], r["ours_m"], r["ranking"])
                    for r in t2
                ],
            )
        )
        parts.append(T2_NOTES)

    t3 = load("table3")
    if t3:
        parts.append("\n## Table 3 — shared-memory labeling (ALS and time)\n")
        hdr = [
            "dataset",
            "SparaPLL ALS (paper→ours)", "CHL ALS (paper→ours)",
            "ALS ratio paper", "ALS ratio ours",
            "seqPLL s (paper→ours)", "LCC s (paper→ours)", "GLL s (paper→ours)",
        ]
        rows = []
        for r in t3:
            p = PAPER_T3[r["dataset"]]
            rows.append(
                (
                    r["dataset"],
                    f'{p[0]} → {r["spara_als"]}',
                    f'{p[2]} → {r["chl_als"]}',
                    ratio(p[0], p[2]),
                    ratio(r["spara_als"], r["chl_als"]),
                    f'{p[3]} → {r["seqpll_time_s"]}',
                    f'{p[4]} → {r["lcc_time_s"]}',
                    f'{p[5]} → {r["gll_time_s"]}',
                )
            )
        parts.append(md_table(hdr, rows))
        parts.append(T3_NOTES)

    t4 = load("table4")
    if t4:
        parts.append("\n## Table 4 — query modes on 16 simulated nodes\n")
        hdr = [
            "dataset",
            "thr Mq/s paper (L/F/D)", "thr kq/s ours (L/F/D)",
            "lat µs paper (L/F/D)", "lat µs ours (L/F/D)",
            "mem GB paper (L/F/D)", "mem MB ours (L/F/D)",
        ]
        rows = []
        for r in t4:
            p = PAPER_T4[r["dataset"]]
            rows.append(
                (
                    r["dataset"],
                    f"{p[0]}/{p[1]}/{p[2]}",
                    f'{r["QLSN_kqps"]}/{r["QFDL_kqps"]}/{r["QDOL_kqps"]}',
                    f"{p[3]}/{p[4]}/{p[5]}",
                    f'{r["QLSN_lat_us"]}/{r["QFDL_lat_us"]}/{r["QDOL_lat_us"]}',
                    f"{p[6]}/{p[7]}/{p[8]}",
                    f'{r["QLSN_mem_MB"]}/{r["QFDL_mem_MB"]}/{r["QDOL_mem_MB"]}',
                )
            )
        parts.append(md_table(hdr, rows))
        parts.append(T4_NOTES)

    f8 = load("fig8_scaling")
    if f8:
        parts.append("\n## Fig. 8/9 (supplementary) — strong scaling and ALS vs q\n")
        parts.append(
            md_table(
                ["dataset", "q", "algo", "wall s", "node-work makespan s", "comm MB", "ALS"],
                [
                    (r["dataset"], r["q"], r["algo"], r["time_s"],
                     r["makespan_s"], r["comm_MB"], r["als"])
                    for r in f8
                ],
            )
        )
        parts.append(F8_NOTES)

    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(parts) + "\n")
    print(f"wrote {out}")


HEADER = """# EXPERIMENTS — paper vs. measured

Every table from the paper's evaluation (§7), reproduced on the synthetic
analogues of DESIGN.md §2 (≈1/1000 scale, `local[*]` Spark on a 4-core machine
(`nproc` = 4), simulated q-node cluster). **Absolute numbers are not comparable** — the paper ran C++
/OpenMP/MPI on 36-core and 512-core systems against 10⁷–10⁸-edge graphs; we run
Python kernels inside Spark tasks on 10³–10⁴-edge graphs — so each section
compares the *shape*: which algorithm wins, by what factor, and where the
crossovers/failures fall. Regenerate any section with the job listed in
DESIGN.md §5, then `python jobs/gen_experiments.py`."""

T2_NOTES = """
**Shape check.** 12 datasets, 4 road (betweenness-ranked) + 8 scale-free/random
(degree-ranked), with the paper's weight scheme (uniform ints, [1,√n) for the
originally-unweighted graphs). Directed sources are symmetrised (DESIGN.md §2)."""

T3_NOTES = """
**Shape checks (paper → ours):**
- *CHL is minimal*: GLL/LCC ALS equals seqPLL ALS exactly in both (ours: verified
  label-for-label, `tests/test_lcc_gll.py`).
- *SparaPLL redundancy*: ALS ratio SparaPLL/CHL > 1 on every dataset in both.
  Paper averages ≈1.17; ours ≈1.5–2.2 because our staleness unit is a Spark batch
  (up to 512 concurrent trees) vs 36 OS threads — the paper itself reports the
  ratio grows with thread count, and our trend test
  (`test_redundancy_grows_with_parallelism`) shows the same monotonicity.
- *Hard instances*: POK/LIJ have far larger ALS than all others in both (weak
  hierarchy), and they are the slowest rows in both.
- *seqPLL vs parallel*: the paper gets 6–25× from 72 threads on 10⁷-edge graphs.
  At lite scale a Spark job (~0.19 s for a GLL batch of 4 tasks, one per
  core, with next to no work: `parallel.SPARK_JOB_S`) rivals whole-tree cost.
  GLL/LCC/SparaPLL send a batch or cleaning round to Spark only when its
  serial seconds, predicted from a sample of its own items run on the driver
  (`parallel.run_sampled`), × (1 − 1/cores) exceed that cost
  (`parallel.fan_out`), so the small rows run on the driver and GLL/LCC
  wall-time only beats seqPLL on the hardest instances (POK: 6.1 s seq vs
  3.8/3.4 s LCC/GLL; LIJ: 20.4 s seq vs 8.2/7.4 s — a 1.6–2.8× win) —
  exactly the regime where per-tree work amortises the fan-out. The clean parallel-speedup
  signal at fixed overhead is the Fig. 8 makespan section below.
- *GLL vs LCC cleaning* (paper Fig. 7): GLL restricts witnesses to the
  superstep-local table; measured per-candidate cleaning cost drops ~2×
  (10.5 µs → 4.8 µs on USA, both run on the driver). GLL's cleaning takes
  13–27 % of its wall time on the scale-free rows, 24–37 % on the road rows
  and 26–28 % on POK/LIJ (CAL 0.46 s of 1.91 s, USA 2.97 s of 8.11 s) — the
  paper's own α-tradeoff (Fig. 5). The times are the mean of two runs."""

T4_NOTES = """
**Shape checks (paper → ours):**
- *Memory*: measured 8-B/label totals. QFDL < QDOL < QLSN everywhere in both;
  ours matches the §6 model exactly: QLSN = q·L, QFDL = L, QDOL = (ζ−1)·L, ζ=6.
- *Feasibility ("-")*: with the scaled 64 GB node budget (1.5 MB), QLSN is
  infeasible exactly on the paper's four datasets (CTR/USA/POK/LIJ). One cell
  differs: the paper also drops QDOL on LIJ; our measured QDOL/node for LIJ
  (2/ζ·L ≈ 1.26 MB) squeezes under the scaled budget, so we report it.
- *Runs*: each throughput and latency cell is the median of three runs on a
  4-core box (`local[4]`); every memory cell and the "-" pattern were equal
  in all three.
- *Latency*: QLSN < QDOL < QFDL ordering holds (QLSN has no network hop; QDOL
  pays one P2P round-trip; QFDL pays a broadcast + reduction). Network constants
  are the documented model of DESIGN.md §2.3 (scaled ×10 to keep the
  compute:network ratio faithful); the compute part still times the scalar
  Python kernel (`QueryIndex.query`), one query at a time. Each sampled
  query's compute is timed on the node(s) its mode sends it to. QDOL's
  routed node holds the full label lists of both endpoints, so its compute
  is close to QLSN's (CAL 8.5 vs 6.8 µs); QFDL counts the slowest of its 16
  shards per query. POK and LIJ, the largest-ALS rows, have the largest
  QDOL compute (23 and 30 µs). That is where the paper's QFDL overtakes
  QDOL (POK: 32 vs 34.5 µs); here the modelled 400 µs broadcast +
  reduction keeps QFDL the slowest. The latency cells read the same as
  three runs of the previous batch kernel on the same box (SKIT 3.1 vs
  3.1, BDU 4.9 vs 5.1 µs): the batch kernel does not time them.
- *Throughput*: every node answers its batch with one vectorised kernel
  (`QueryIndex.query_batch`). It groups the pairs by source, scatters a
  block of sources' labels into dense rows over the node's own hubs and
  probes them with the targets' labels (DESIGN.md §1). Against three runs
  of the previous kernel (a sorted join on hub) on the same box, no cell
  fell. The medians rose 1.4–2.1× for QLSN (EAS 222 → 475, ACT 445 →
  934 kq/s; not CAL, see below), 1.05–1.56× for QFDL (ACT 330 → 487, LIJ
  159 → 248) and 1.02–1.98× for QDOL (POK 190 → 346, LIJ 120 → 237). The
  largest-label rows gain most, since their kernel was the largest part of
  a batch. QDOL beats QFDL on ten rows, as in the paper; QFDL still
  out-serves it on USA (186 vs 154 kq/s), and on LIJ the two overlap
  across the three runs (QFDL 222–253, QDOL 225–238). QFDL's 16 scans of
  the whole batch over 1/16th of the labels touch as many hub entries as
  QDOL's 15 routed scans over full label lists, and QDOL ships ζ−1 = 5
  copies of the labels to QFDL's one (LIJ: 11.7 vs 2.6 MB pickled per
  batch). Where QLSN fits the node budget it is the fastest mode on every
  row but CAL, unlike the paper: one Spark task answers the whole batch,
  while QDOL pays the dispatch of its 15 pair-nodes (4 Spark tasks on 4
  cores) and the footnote-9 routing. CAL is the exception only because it
  runs first: its QLSN batch carries the session's Spark warm-up. On the
  largest-ALS rows (USA, POK, LIJ) QLSN does not fit, and QFDL and QDOL are
  the feasible modes, as in the paper."""

F8_NOTES = """
**Shape checks (paper → ours):**
- *PLaNT scales near-linearly with zero label traffic* (paper: avg 42× on 64
  nodes): our per-node work makespan drops 7.8× (CAL 0.62→0.08 s), 10.8×
  (SKIT 0.43→0.04 s), 10.4× (ACT 1.97→0.19 s) and 11.6× (POK 5.11→0.44 s)
  from q=1 to q=16, with 0 communicated bytes at every q. Each cell is one
  run, and the makespans below ~0.2 s move by tens of percent between runs.
- *DGLL/DparaPLL do not scale*: their delivered broadcast volume grows ~q²
  (CAL DGLL 1.4→11.7→78.5 MB) and wall time *rises* from q=4 to q=16 on every
  dataset (CAL DGLL 1.23→3.36 s) — the paper's flat/worsening curves.
- *DparaPLL label explosion (Fig. 9)*: ALS grows with q (CAL 36.6→101.8→235.4;
  SKIT 14.2→165.8→325.9) while Hybrid/DGLL/PLaNT output the CHL ALS at every q;
  under the scaled node budget DparaPLL OOMs on the dense weak-hierarchy POK at
  q=16 — the paper's missing curves.
- *Topology split*: on scale-free graphs Hybrid's makespan beats pure PLaNT
  (ACT q=1: 0.73 vs 1.97 s, where the paper reports an order of magnitude;
  q=16: 0.07 vs 0.19 s) because the low-yield tail is DGLL-pruned; on road networks
  PLaNT alone is already efficient and Hybrid ≈ PLaNT + sync cost.
- *Small-dataset caveat, as in the paper (§7.3)*: at our scale "even few
  synchronizations … dominate the small pre-processing time" — Hybrid/DGLL wall
  time is mostly fixed per-superstep Spark cost, so the compute story is the
  makespan column. An empty superstep costs about 0.15 s at q=4 and 0.34 s
  at q=16 (16 tasks on 4 cores), so CAL's DGLL at q=16 still spends 3.4 s of
  wall time on 0.09 s of makespan. A PLaNT run needs no synchronisation
  until its output is read (§5.2), so its windows share one superstep,
  which also returns the read (DESIGN.md §3): it is one Spark job at every
  q. A DGLL window is one superstep too: the next superstep cleans it
  before it builds, and the last window is cleaned by one superstep that
  builds nothing (DESIGN.md §3), where the paper cleans at every superstep
  boundary. Against a run of the previous schedule (a cleaning superstep
  after every DGLL window) on the same box, DGLL's comm MB fell at every
  q > 1 (q=16: CAL 107.8→78.5, SKIT 18.0→13.1, ACT 53.5→27.6, POK
  131.5→125.0), because a label doomed one window later still prunes the
  next window's trees; its q=16 wall time fell too (CAL 4.32→3.36 s, SKIT
  1.48→1.21 s, ACT 3.43→1.64 s, POK 5.94→5.48 s; one run per side). Every
  ALS cell and every Hybrid comm-MB cell is equal: Hybrid's DGLL tail on
  ACT and POK ships the same bytes.
  PLaNT (no traffic, one superstep) has the lowest wall time on every
  dataset at q=4 and q=16 except ACT at q=4, and on CAL at q=1; at q=1
  there is no traffic to avoid. DparaPLL, whose replica
  merge rides in its next build superstep (one Spark job per sync), is
  faster than PLaNT at q=1 on SKIT, ACT and POK, slower at q=16 wherever
  it fits in memory, and pays for its speed with the label explosion above.
"""


if __name__ == "__main__":
    sys.exit(main())
