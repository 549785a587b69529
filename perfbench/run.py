"""mostream benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload idle-drift --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (metric names and units
come from ``BENCHMARK.json``). ``--workload all`` runs each workload in a
fresh process, so one workload's peak RSS does not leak into the next, and
prints a table.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the engine runs single-threaded, and numpy reads
# these only when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import functools
import gzip
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
# printed but kept out of BENCHMARK.json: it reads 0 on a healthy run, and the
# result line's ``failed``/``attempted`` carry the same count
EXTRA_UNITS = {"failed_window_ratio": "1"}


def import_package() -> None:
    """Import mostream from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mostream", "__init__.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}/mostream")
    sys.path.insert(0, SRC)
    import mostream

    if os.path.dirname(os.path.abspath(mostream.__file__)) != os.path.join(SRC, "mostream"):
        raise SystemExit(f"benchmark: mostream imported from {mostream.__file__}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(wl, seed: int) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": seed,
        "params": wl.params(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def end_to_end(passes, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced passes, plus details. Times are
    scaled to the reference machine speed; quality and synopsis size come
    from the first pass of each stream."""
    from harness import mean, tail_stat

    runs = [res for _, res in passes.plain]
    first_of: dict = {}
    for idx, res in passes.plain:
        first_of.setdefault(idx, res)
    first = list(first_of.values())
    commits = [ms for p in runs for ms in p.commit_ms]
    tail, tail_pct = tail_stat(commits)
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)

    def pooled(field):
        return mean([v for p in first for v in getattr(p, field)])

    metrics = {
        "setup_s": statistics.median(p.setup_s for p in runs),
        "commit_ms_p50": statistics.median(commits),
        "commit_ms_tail": tail,
        "idle_gens_per_s": sum(p.idle_gens for p in runs) / sum(p.idle_s for p in runs),
        "stream_points_per_s": statistics.median(p.points / p.stream_s for p in runs),
        "nmi_mean": pooled("nmi"),
        "hv_mean": pooled("hypervolume"),
        "stored_vectors_mean": pooled("stored_vectors"),
        "peak_rss_mb": peak_rss_mb,
        "failed_window_ratio": failed / attempted,
    }
    slowdowns = [x for p in runs for x in p.slowdowns]
    details = {
        "streams": len(first),
        "passes": len(runs),
        "commit_samples": len(commits),
        "commit_tail_percentile": round(tail_pct, 2),
        "commit_ms_p50_wall": statistics.median(ms for p in runs for ms in p.commit_wall_ms),
        "slowdown_median": statistics.median(slowdowns),
        "slowdown_range": (min(slowdowns), max(slowdowns)),
        "stored_vectors_tree_mean": pooled("tree_vectors"),
        "stored_vectors_archive_mean": pooled("archive_vectors"),
    }
    return metrics, details


def per_layer(passes) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced passes of per-pass values."""
    from harness import mean
    from tracer import summarize

    def one(res, tracer) -> dict:
        summary = summarize(tracer.spans)
        by = summary["by_name"]
        idle = summary["phases"]["idle"]

        def per_call_ms(name):
            row = by[name]
            return 1000.0 * row["self_s"] / row["calls"] if row["calls"] else 0.0

        mapped = by["anttree.map_point"]
        insert = by["objectives.ParetoArchive.insert"]
        evaluated = idle["evolution.breed"]["sum"]
        out = {
            "engine.process_window.self_ms": per_call_ms("engine.process_window"),
            "anttree.build_initial_tree.s": by["anttree.build_initial_tree"]["s"],
            "anttree.map_point.calls": mapped["calls"],
            "anttree.map_point.self_s": mapped["self_s"],
            "anttree.nodes_opened": mapped["true"],
            "anttree.nodes_pruned": by["anttree.fade_and_prune"]["sum"],
            "anttree.absorb_ratio": (mapped["calls"] - mapped["true"]) / max(1, mapped["calls"]),
            "anttree.node_count_mean": mean(res.tree_vectors),
            "anttree.macro_clusters.self_ms": per_call_ms("anttree.macro_clusters"),
            "anttree.macro_offer_accept_ratio": res.macro_accepted / max(1, res.macro_offers),
            "seeders.kmeans_sweep.s": by["seeders.kmeans_sweep"]["s"],
            "seeders.seed_dbscan.s": by["seeders.seed_dbscan"]["s"],
            "seeders.seed_gng.s": by["seeders.seed_gng"]["s"],
            "core.assign_batch.calls": by["core.assign_batch"]["calls"],
            "core.assign_batch.self_s": by["core.assign_batch"]["self_s"],
            "core.merge_prototype.calls": by["core.merge_prototype"]["calls"],
            "core.merge_prototype.self_s": by["core.merge_prototype"]["self_s"],
            "objectives.evaluate_solution.calls": by["objectives.evaluate_solution"]["calls"],
            "objectives.evaluate_solution.self_s": by["objectives.evaluate_solution"]["self_s"],
            "objectives.update_compactness.self_s": by["objectives.update_compactness"]["self_s"],
            "objectives.separateness.calls": by["objectives.separateness"]["calls"],
            "objectives.separateness.self_s": by["objectives.separateness"]["self_s"],
            "objectives.ParetoArchive.insert.calls": insert["calls"],
            "objectives.insert_accept_ratio": insert["true"] / max(1, insert["calls"]),
            "objectives.rescreen_survivor_ratio": res.rescreen_survivors / max(1, res.rescreen_before),
            "objectives.archive_size_mean": mean(res.archive_size),
            "objectives.archive_vectors_mean": mean(res.archive_vectors),
            "objectives.hypervolume_in_box.self_ms": per_call_ms("objectives.hypervolume_in_box"),
            "evolution.select_parents.self_s": by["evolution.select_parents"]["self_s"],
            "evolution.breed.self_s": by["evolution.breed"]["self_s"],
            "evolution.crossover.self_s": by["evolution.crossover"]["self_s"],
            "evolution.mutate.calls": by["evolution.mutate"]["calls"],
            "evolution.mutate.self_s": by["evolution.mutate"]["self_s"],
            "evolution.offspring_evaluated": evaluated,
            "evolution.offspring_accept_ratio":
                idle["objectives.ParetoArchive.insert"]["true"] / max(1, evaluated),
            "metrics.select_best.self_ms": per_call_ms("metrics.select_best"),
            "metrics.davies_bouldin.calls": by["metrics.davies_bouldin"]["calls"],
            "metrics.nmi.self_ms": per_call_ms("metrics.nmi"),
            "metrics.arand.self_ms": per_call_ms("metrics.arand"),
            "stream_io.load_csv.s": by["stream_io.load_csv"]["s"],
        }
        return out, summary

    rows, summaries = zip(*(one(r, t) for _, r, t in passes.traced))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    # each traced pass streamed the same windows as the untraced pass before it
    metrics["trace.overhead_ratio"] = statistics.median(
        t.stream_s / u.stream_s for (_, u), (_, t, _) in zip(passes.plain, passes.traced))
    return metrics, {"summary": summaries[0]}


def coverage_guard(summary: dict) -> list[str]:
    """Wrapped functions that recorded no call: a missed binding would
    otherwise read as a 0 ms layer."""
    from tracer import LOAD_CSV, TRACED

    names = [name for _, _, name, _ in TRACED] + [LOAD_CSV]
    return [n for n in names if summary["by_name"][n]["calls"] == 0]


def phase_table(summary: dict) -> list[str]:
    """Self time by module within each phase; each phase sums to its roots."""
    lines = []
    for phase in ("setup", "read", "commit", "idle"):
        rows = summary["phases"].get(phase, {})
        total = summary["roots"].get(phase, 0.0)
        by_module: dict = {}
        for name, row in rows.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + row["self_s"]
        accounted = sum(by_module.values())
        top = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:4]
        lines.append(
            f"  {phase:<6} {total:8.3f} s  accounted {accounted:8.3f} s  modules "
            + ", ".join(f"{m} {100 * v / total:.0f}%" for m, v in
                        sorted(by_module.items(), key=lambda kv: -kv[1]) if total > 0)
        )
        lines.append("         top self: " + ", ".join(
            f"{n} {r['self_s']:.3f}s" for n, r in top))
    return lines


def print_metrics(metrics: dict, units: dict, details: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
    for name, value in details.items():
        print(f"  ({name}: {value})")


def run_one(args) -> int:
    import_package()
    import harness
    from mostream import StreamConfig
    from workloads import WORKLOADS, csv_windows, make_windows, stream_seed, write_csv

    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload]
    units = dict(EXTRA_UNITS)
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    os.makedirs(OUT, exist_ok=True)
    prov = provenance(wl, args.seed)
    n_streams = args.streams or wl.streams
    prov["stream_seeds"] = [stream_seed(args.seed, j) for j in range(n_streams)]
    print("provenance " + json.dumps(prov, sort_keys=True))

    streams, csv_paths = [], []
    try:
        for sub in prov["stream_seeds"]:
            windows = make_windows(wl, sub, args.windows)
            if args.inject_bad_window is not None:
                windows = inject_bad_window(windows, args.inject_bad_window)
            if wl.via_csv:
                path = os.path.join(OUT, f"{wl.name}-{sub}-{os.getpid()}.csv")
                csv_paths.append(path)
                write_csv(windows, path)
                source = functools.partial(csv_windows, wl, path)
            else:
                source = functools.partial(list, windows)
            cfg = StreamConfig(window_size=wl.window, idle_generations_cap=wl.idle_gens,
                               rng_seed=sub)
            streams.append(harness.Stream(cfg, source))
        passes = harness.run_passes(streams, args.seconds, bool(args.trace))
    finally:
        for path in csv_paths:
            os.remove(path)

    digests = passes.digests()
    problems = sorted({e for _, res, *_ in passes.plain + passes.traced for e in res.errors})
    for idx, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append(f"stream {idx}: report bytes differ between passes")
    # one digest per run: the streams' report bytes, in stream order
    run_digest = hashlib.sha256(
        "".join(min(digests[i]) for i in sorted(digests)).encode()).hexdigest()
    n_passes = collections.Counter(i for i, *_ in passes.plain + passes.traced)
    print(f"reports_sha256 {run_digest} workload={wl.name} seed={args.seed} "
          f"streams={len(digests)} streams_repeated={sum(c > 1 for c in n_passes.values())} "
          f"identical_on_repeat={not any(len(d) > 1 for d in digests.values())}")

    runs = [res for _, res in passes.plain]
    if args.trace:
        metrics, extra = per_layer(passes)
        missing = coverage_guard(extra["summary"])
        if missing:
            raise SystemExit(f"benchmark: traced functions with zero calls: {missing}")
        print(f"per-layer metrics, median over {len(passes.traced)} traced passes "
              f"(per pass unless the unit says per call):")
        print_metrics(metrics, units, {})
        print("phase accounting, first traced pass:")
        for line in phase_table(extra["summary"]):
            print(line)
        span_path = os.path.join(OUT, f"spans-{wl.name}.jsonl.gz")
        with gzip.open(span_path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov}) + "\n")
            passes.traced[0][2].dump(fh)
        print(f"spans of the first traced pass: {os.path.relpath(span_path, ROOT)}")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, details = end_to_end(passes, rss_mb)
        details["reports_sha256"] = run_digest
        print("end-to-end metrics:")
        print_metrics(metrics, units, details)
        wanted = [m["name"] for m in spec["end_to_end"]]
    for line in problems:
        print(f"problem: {line}")

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(p.failed for p in runs),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


def inject_bad_window(windows: list, position: int) -> list:
    """Insert a window of the wrong dimension before ``position``; the engine
    rejects it without touching its state, so the stream carries on."""
    from mostream import WindowBatch

    good = windows[position]
    bad = WindowBatch(good.data[:, :1].copy(), good.window_id, good.labels, good.start_index)
    return windows[:position] + [bad] + windows[position:]


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = {m: [r["metrics"][m]["value"] for r in results.values()]
            for m in next(iter(results.values()))["metrics"]}
    rows["failed_window_ratio"] = [r["failed"] / r["attempted"] for r in results.values()]
    units = {m: v["unit"] for m, v in next(iter(results.values()))["metrics"].items()}
    units.update(EXTRA_UNITS)
    print(f"{'metric':<44}" + "".join(f"{n:>18}" for n in results) + "  unit")
    for m, values in rows.items():
        print(f"{m:<44}" + "".join(f"{v:>18.6g}" for v in values) + f"  {units[m]}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--windows", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--streams", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--inject-bad-window", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
