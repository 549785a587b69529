"""Fast self-test of the benchmark harness at a tiny input size.

    python3 perfbench/selftest.py

Checks, on every workload with three windows and one stream:
- both modes print every metric name with its unit, and the result line
  carries exactly the metrics BENCHMARK.json declares for that mode;
- the traced run passes its coverage guard (every wrapped function called);
- two runs of one seed print the same reports_sha256;
- an injected failing window is counted in failed_window_ratio and the
  stream carries on;
- layer_map.json covers every per-layer metric and names only declared
  metrics and workloads;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "0", "--windows", "3", "--streams", "1"]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout + proc.stderr


def result_of(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from run import EXTRA_UNITS  # noqa: E402

    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = dict(declared, **(EXTRA_UNITS if mode == 0 else {}))
        for wl in workloads:
            code, out = bench("--workload", wl, "--seed", "3", "--trace", str(mode), *TINY)
            tag = f"{wl} --trace {mode}"
            expect(code == 0, f"{tag}: exit code 0 (got {code})")
            if code != 0:
                print(out[-2000:])
                continue
            res = result_of(out)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] == 3,
                   f"{tag}: correct, 3 windows attempted, none failed")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == declared, f"{tag}: result carries exactly the declared metrics and units")
            missing = [n for n, u in printed.items()
                       if not re.search(rf"^\s+{re.escape(n)}\s+\S+\s+{re.escape(u)}$", out, re.M)]
            expect(not missing, f"{tag}: every metric printed with its unit {missing or ''}")

    digests = []
    for _ in range(2):
        _, out = bench("--workload", "highdim-overlap", "--seed", "5", *TINY)
        digests.append(re.search(r"^reports_sha256 (\w+)", out, re.M).group(1))
    expect(digests[0] == digests[1], "same seed, same reports_sha256 across processes")
    _, out = bench("--workload", "highdim-overlap", "--seed", "6", *TINY)
    other = re.search(r"^reports_sha256 (\w+)", out, re.M).group(1)
    expect(other != digests[0], "another seed, another reports_sha256")

    code, out = bench("--workload", "idle-drift", "--seed", "3", "--inject-bad-window", "1", *TINY)
    res = result_of(out)
    ratio = re.search(r"^\s+failed_window_ratio\s+(\S+)", out, re.M)
    expect(code == 0 and res["attempted"] == 4 and res["failed"] == 1,
           "injected window: 4 attempted, 1 failed, exit code 0")
    expect(ratio is not None and abs(float(ratio.group(1)) - 0.25) < 1e-9,
           "injected window: failed_window_ratio 0.25")
    expect(not res["correct"] and "problem: window 1: ValueError" in out,
           "injected window: run reported incorrect, with the window's error")

    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        groups = json.load(fh)["groups"]
    mapped = {n for g in groups for n in g["layer_metrics"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | set(EXTRA_UNITS)
    layer = {m["name"] for m in spec["per_layer"]}
    named_wl = {w for g in groups for w in g["on"] + g.get("no_change_on", [])}
    expect(mapped == layer, f"layer_map covers exactly the per-layer metrics {sorted(mapped ^ layer)}")
    expect({m for g in groups for m in g["moves"]} <= e2e, "layer_map moves only end-to-end metrics")
    expect(named_wl <= set(workloads), "layer_map names only declared workloads")

    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, out = bench("--workload", "idle-drift", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        expect(code != 0 and '"correct"' not in out,
               f"without the package source: exit code {code}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
