"""perfbench: the fusionsys benchmark.

Runs one workload for up to ``--seconds`` seconds, each pass in a fresh
interpreter (``child.py``); a pass starts only if one as long as the
longest so far still fits.  It checks every answer against ``answers.py``
and prints every metric with its unit and sample count.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured on
untraced passes.  With ``--trace 1`` untraced and traced passes
alternate, and the metrics are the per-layer ones: self times from the
spans, counts, and the tracing overhead.  Spans and a full record of the
run (environment, failures, every sample) are written to
``perfbench/out/``.

    python3 perfbench/run.py --workload c3-exhaustive --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload p2-lattice --seed 1 --seconds 1 --trace 1 --smoke

``--smoke`` runs one cheap step of the workload instead of the whole
pass, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("catalog-reports", "c3-exhaustive", "p2-lattice")
SETUP_PROBES = 7     # extra cold starts that only set up, for setup_s
RUN_LIMIT_S = 170    # a run must end within 180 s
CLI_KINDS = (
    "fusion_of_group", "analyze", "factorize", "factorize_exhaustive", "krs", "goldschmidt",
)

# Per-layer time metrics: the sum over a pass of the self time of the
# call spans of that name.
LAYER_CALLS = (
    "groups.closure", "groups.sylow", "groups.subgroups",
    "fusion.table", "fusion.saturation", "fusion.center", "fusion.focal",
    "fusion.invariants", "fusion.alperin", "fusion.generate",
    "morphisms.product_check",
    "factor.factorize", "factor.factorize_all", "factor.fusion_automorphisms",
    "factor.normal_automorphisms", "factor.krs", "factor.omega_context",
    "factor.factorize_all_omega", "factor.normal_automorphisms_omega", "factor.krs_omega",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    pass


def spawn(args, deadline: float, *, traced: bool = False, setup_only: bool = False) -> dict:
    """One cold interpreter; returns its record with ``setup_s`` added."""
    argv = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(int(traced))]
    if args.smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    started = now()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass overran the time limit of the run") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = record["setup_done"] - started - record["setup_sampling_s"]
    record["setup_s"] = record["setup_raw_s"] * record["setup_speed"]
    return record


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans: list) -> dict[str, float]:
    """Each span's duration minus its children's, normalised by the host
    speed around the span, summed by name."""
    child_cover = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    out: dict[str, float] = {}
    for sid, _, name, start, end, speed in spans:
        out[name] = out.get(name, 0.0) + (end - start - child_cover[sid]) * speed
    return out


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Times are normalised: raw time times the host speed seen meanwhile."""
    latencies = [dt * speed for p in passes for _, dt, speed in p["calls"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] * p["speed"] for p in passes), "s", len(passes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
        "call_p50_ms": (1000 * statistics.median(latencies), "ms", len(latencies)),
        "call_p90_ms": (1000 * quantile(latencies, 90), "ms", len(latencies)),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    n = len(traced)
    selfs = [self_times(p["spans"]) for p in traced]
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}_s"] = (statistics.median(s.get(name, 0.0) for s in selfs), "s", n)
    counts = traced[0]["counts"]
    out["groups.subgroups_n"] = (counts["subgroups_n"], "count", n)
    out["fusion.morphisms_n"] = (counts["morphisms_n"], "count", n)
    out["factor.factorizations_n"] = (counts["factorizations_n"], "count", n)
    out["factor.krs_n"] = (counts["krs_n"], "count", n)
    out["factor.krs_constructive_ratio"] = (
        counts["krs_constructive_n"] / counts["krs_n"] if counts["krs_n"] else 0.0, "ratio", n,
    )
    for kind in CLI_KINDS:
        samples = [dt * speed for p in traced
                   for name, dt, speed in p["calls"] if name == f"cli.{kind}"]
        out[f"cli.{kind}_ms"] = (
            1000 * statistics.median(samples) if samples else 0.0, "ms", len(samples),
        )
    call_names = set(LAYER_CALLS) | {f"cli.{k}" for k in CLI_KINDS}
    glue = [sum(t for k, t in s.items() if k not in call_names) for s in selfs]
    out["trace.glue_s"] = (statistics.median(glue), "s", n)
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] * p["speed"] for p in traced)
        - statistics.median(p["wall_s"] * p["speed"] for p in untraced),
        "s", n + len(untraced),
    )
    out["host.speed"] = (statistics.median(p["speed"] for p in traced + untraced),
                         "ratio", n + len(untraced))
    return out


def repeat_failures(args, passes: list[dict], source: str) -> list[str]:
    """Values without a derivation must repeat across passes and across
    earlier runs of the same sources in this checkout (kept in
    ``perfbench/out/observed-<source digest>.json``)."""
    path = os.path.join(OUT, f"observed-{source[:16]}.json")
    seen = {}
    if os.path.exists(path) and not args.smoke:  # smoke inputs differ from a full pass's
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    problems = []
    for p in passes:
        for key, value in p["observed"].items():
            # report hashes include the relabelled permutations, so they
            # repeat only for the same seed
            scope = f"seed{args.seed}/" if key.startswith("hash/") else ""
            full = f"{args.workload}/{scope}{key}"
            if full in seen and seen[full] != value:
                problems.append(f"{full}: {value!r} differs from earlier {seen[full]!r}")
            seen.setdefault(full, value)
    if not args.smoke:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=0, sort_keys=True)
    return problems


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fusionsys", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(setup_record: dict, source: str) -> dict:
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": source,
        "guardrails": setup_record["guardrails"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one cheap step per pass")
    args = ap.parse_args()

    if os.environ.get("FUSIONSYS_GUARDRAIL"):
        print("refusing to run: FUSIONSYS_GUARDRAIL is set", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "fusionsys")):
        print(f"no fusionsys sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    started = now()
    deadline = started + RUN_LIMIT_S

    try:
        probes = [spawn(args, deadline, setup_only=True)
                  for _ in range(1 if args.smoke else SETUP_PROBES)]
        untraced: list[dict] = []
        traced: list[dict] = []
        while True:
            tracing = bool(args.trace) and len(traced) < len(untraced)
            (traced if tracing else untraced).append(spawn(args, deadline, traced=tracing))
            done = untraced + traced
            need = 2 if args.trace else 1
            # start another pass only if one as long as the longest yet fits
            longest = max(p["wall_s"] + p["setup_raw_s"] for p in done)
            if len(done) >= need and (args.smoke or now() - started + longest > args.seconds):
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    done = untraced + traced
    source = source_digest()
    repeats = repeat_failures(args, done, source)
    failures = [f for p in done for f in p["failures"]] + repeats
    attempted = sum(len(p["calls"]) for p in done)
    failed = sum(p["failed_calls"] for p in done) + len(repeats)
    setups = [p["setup_s"] for p in probes + done]
    metrics = end_to_end(untraced, setups)
    if args.trace:
        metrics.update(per_layer(traced, untraced))
    env = environment(probes[0], source)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "speed"],
                       "passes": [p["spans"] for p in traced]}, fh)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "failures": failures,
                   "metrics": metrics, "passes": [
                       {k: v for k, v in p.items() if k != "spans"} for p in done
                   ]}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={len(untraced)} untraced"
          f" + {len(traced)} traced, setups={len(setups)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:40s} {value:14.6f} {unit:6s} n={samples}")
    print(f"# raw (not normalised): wall_s median {statistics.median(p['wall_s'] for p in done):.6f}"
          f" s, setup_s median {statistics.median(p['setup_raw_s'] for p in probes + done):.6f} s,"
          f" host speed median {statistics.median(p['speed'] for p in done):.4f}")
    print(f"# fail_ratio {failed / attempted:.6f} ({failed} of {attempted} calls)")
    for message in failures[:20]:
        print(f"# FAILED {message}")

    wanted = ("wall_s", "setup_s", "peak_rss_mb", "call_p50_ms", "call_p90_ms")
    if args.trace:
        wanted = tuple(k for k in metrics if k not in wanted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
