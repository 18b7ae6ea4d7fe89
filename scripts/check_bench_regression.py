#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON artifacts.

Compares the key metrics of freshly produced BENCH_table4.json /
BENCH_serve.json against the checked-in baselines under
bench/baselines/, with noise-aware thresholds: bench numbers on shared
CI machines jitter by tens of percent, so only changes beyond 2x
(lower-is-better metrics growing past 2x baseline, higher-is-better
metrics falling below 0.5x) fail the gate. Anything subtler is reported
but does not gate — a real perf story needs a human and a quiet
machine.

Usage:
  scripts/check_bench_regression.py [--build-dir build]
      [--baseline-dir bench/baselines] [--factor 2.0]
  scripts/check_bench_regression.py --self-test

Exit status: 0 when every present metric is within bounds (missing
bench files are skipped with a note: the gate only judges what ran),
1 on any regression beyond the factor, 2 on usage/IO errors.

The metric list is intentionally short and headline-grade: pipeline
solve time, serving throughput/latency, and the cache speedup. Adding
every counter would only manufacture flakes.

Besides the baseline ratios, a few *absolute* limits gate invariants of
the fresh run alone (no baseline needed): the request-tracing overhead
must stay within 5% (tracing.overhead_ratio <= 1.05) and the per-stage
spans must attribute >= 90% of pipeline wall time
(stages.attributed_fraction >= 0.9). See docs/observability.md.
"""

import argparse
import json
import os
import sys

# (json_path, direction) — direction "lower" means smaller is better.
TABLE4_METRICS = [
    ("avg_total_seconds", "lower"),
    ("closure_comparison[0].total_speedup", "higher"),
]
# Absolute limits on the fresh run, judged without a baseline ratio:
# (json_path, kind, bound[, guard_path]). "max" fails when current >
# bound, "min" when current < bound; a falsy guard_path value skips the
# check. These gate invariants rather than trajectories: tracing must
# stay cheap relative to the untraced pipeline, and the stage spans must
# explain >= 90% of the wall-clock solve time (docs/observability.md).
# Both are meaningless when the tracing layer is compiled out, hence the
# guard.
#
# The tracing bound moved 1.02 -> 1.05 when the intersection-kernel /
# d-ary-heap rewrite made the pipeline ~2.3x faster: the tracing clock
# reads cost the same absolute nanoseconds, so their RELATIVE overhead
# (and the run-to-run noise of the ratio itself) grew with the shrinking
# denominator; measured ratios now jitter ~0.95-1.04 on an idle machine.
#
# stages.edge_cost_ms is the ISSUE-9 optimization target pinned at its
# post-rewrite level: the capped common-neighbor counting that used to
# take ~13.4ms of the 20-query sample now measures ~4.3-5.7ms; 6.7 (2x
# the old baseline's headroom, ~17% above the worst observed run) fails
# the gate if the kernels or the ConScratch bitmap path fall off.
TABLE4_LIMITS = [
    ("tracing.overhead_ratio", "max", 1.05, "tracing.compiled_in"),
    ("stages.attributed_fraction", "min", 0.90, "tracing.compiled_in"),
    ("stages.edge_cost_ms", "max", 6.7, "tracing.compiled_in"),
]
SERVE_METRICS = [
    ("sweep[0].throughput_rps", "higher"),
    ("sweep[0].overall.p50_ms", "lower"),
    ("sweep[0].cache_median_speedup", "higher"),
    ("sweep[-1].throughput_rps", "higher"),
    ("sweep[-1].overall.p99_ms", "lower"),
]
SCALE_METRICS = [
    ("sweep[-1].snapshot_load_seconds", "lower"),
    ("sweep[-1].load_speedup", "higher"),
    ("sweep[-1].query_latency.p50_ms", "lower"),
]
INTERSECT_METRICS = [
    ("headline.adaptive_balanced_ns", "lower"),
    ("headline.adaptive_skewed_ns", "lower"),
]
# The adaptive dispatcher must never lose badly to the plain two-pointer
# merge anywhere on the size-ratio grid. Dimensionless (both sides are
# measured in the same run on the same machine), so unlike the ns gates
# it holds absolutely on any hardware; measured worst case ~1.1x, and
# 1.5 fails if dispatch ever routes a regime to the wrong kernel.
INTERSECT_LIMITS = [
    ("headline.adaptive_worst_ratio_vs_merge", "max", 1.5),
]
CHURN_METRICS = [
    ("flip_p99_ms", "lower"),
    ("churn.throughput_rps", "higher"),
    ("churn.cache_hit_rate", "higher"),
]
# Invariants of the churn run itself, no baseline needed: an epoch flip
# must be invisible to live traffic (zero request errors, in either
# phase), the churn phase must actually have flipped, and the stale
# stamps must drain lazily (rate > 0 proves no global clear hid them;
# the ceiling proves eviction stays bounded by the request stream — at
# most one stale entry can be evicted per lookup).
CHURN_LIMITS = [
    ("errors", "max", 0),
    ("churn.epoch_flips", "min", 1),
    ("stale_eviction_rate", "min", 1e-9),
    ("stale_eviction_rate", "max", 1.0),
]


def resolve(doc, path):
    """Walks 'a.b[0].c' through nested dicts/lists; None when absent."""
    node = doc
    for part in path.split("."):
        index = None
        if "[" in part:
            part, bracket = part.split("[", 1)
            index = int(bracket.rstrip("]"))
        if part:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        if index is not None:
            if not isinstance(node, list) or not (-len(node) <= index < len(node)):
                return None
            node = node[index]
    return node


def check_file(name, current_doc, baseline_doc, metrics, factor, report):
    failures = 0
    for path, direction in metrics:
        base = resolve(baseline_doc, path)
        cur = resolve(current_doc, path)
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
            report.append(f"  skip  {name}:{path} (missing in baseline or current)")
            continue
        if base <= 0:
            report.append(f"  skip  {name}:{path} (non-positive baseline {base})")
            continue
        ratio = cur / base
        if direction == "lower":
            bad = ratio > factor
            arrow = "slower" if ratio > 1 else "faster"
        else:
            bad = ratio < 1.0 / factor
            arrow = "worse" if ratio < 1 else "better"
        verdict = "FAIL" if bad else "ok"
        report.append(
            f"  {verdict:4}  {name}:{path}  baseline={base:.6g} "
            f"current={cur:.6g}  ({ratio:.2f}x, {arrow})"
        )
        if bad:
            failures += 1
    return failures


def check_limits(name, current_doc, limits, report):
    """Absolute bounds on the fresh run; no baseline involved."""
    failures = 0
    for entry in limits:
        path, kind, bound = entry[:3]
        guard = entry[3] if len(entry) > 3 else None
        if guard is not None and not resolve(current_doc, guard):
            report.append(f"  skip  {name}:{path} (guard {guard} is off)")
            continue
        cur = resolve(current_doc, path)
        if not isinstance(cur, (int, float)):
            report.append(f"  skip  {name}:{path} (missing in current)")
            continue
        bad = cur > bound if kind == "max" else cur < bound
        verdict = "FAIL" if bad else "ok"
        report.append(f"  {verdict:4}  {name}:{path}  current={cur:.6g}  "
                      f"(limit: {kind} {bound:g})")
        if bad:
            failures += 1
    return failures


def run_gate(build_dir, baseline_dir, factor):
    pairs = [
        ("BENCH_table4.json", TABLE4_METRICS, TABLE4_LIMITS),
        ("BENCH_serve.json", SERVE_METRICS, []),
        ("BENCH_scale.json", SCALE_METRICS, []),
        ("BENCH_intersect.json", INTERSECT_METRICS, INTERSECT_LIMITS),
        ("BENCH_churn.json", CHURN_METRICS, CHURN_LIMITS),
    ]
    report = []
    failures = 0
    compared = 0
    for filename, metrics, limits in pairs:
        current_path = os.path.join(build_dir, filename)
        baseline_path = os.path.join(baseline_dir, filename)
        if not os.path.exists(current_path):
            report.append(f"  skip  {filename} (no current run at {current_path})")
            continue
        with open(current_path) as f:
            current_doc = json.load(f)
        # Absolute limits only need the fresh run, so they gate even when
        # a baseline has not been checked in yet.
        failures += check_limits(filename, current_doc, limits, report)
        if not os.path.exists(baseline_path):
            report.append(f"  skip  {filename} (no baseline at {baseline_path})")
            continue
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
        compared += 1
        failures += check_file(filename, current_doc, baseline_doc, metrics,
                               factor, report)
    print(f"bench regression gate (fail beyond {factor}x):")
    for line in report:
        print(line)
    if compared == 0:
        print("nothing to compare: run the benches first "
              "(./bench_table4_runtime, ./bench_serve_load, ./bench_scale, "
              "./bench_intersect, ./bench_churn)")
    if failures:
        print(f"FAILED: {failures} metric(s) regressed beyond {factor}x")
        return 1
    print("passed")
    return 0


def self_test():
    """The gate must flag a synthetic 3x regression and pass identity."""
    baseline = {
        "avg_total_seconds": 0.010,
        "closure_comparison": [{"total_speedup": 12.0}],
    }
    regressed = {
        "avg_total_seconds": 0.030,  # 3x slower: must fail
        "closure_comparison": [{"total_speedup": 12.0}],
    }
    report = []
    if check_file("fixture", baseline, baseline, TABLE4_METRICS, 2.0, report) != 0:
        print("self-test FAILED: identity comparison flagged a regression")
        return 1
    if check_file("fixture", regressed, baseline, TABLE4_METRICS, 2.0, report) == 0:
        print("self-test FAILED: 3x regression not flagged")
        return 1
    # Higher-is-better direction: a collapsed speedup must fail too.
    collapsed = {
        "avg_total_seconds": 0.010,
        "closure_comparison": [{"total_speedup": 3.0}],  # 4x worse
    }
    if check_file("fixture", collapsed, baseline, TABLE4_METRICS, 2.0, report) == 0:
        print("self-test FAILED: collapsed speedup not flagged")
        return 1
    # Noise inside the band must NOT fail (1.5x slower < 2x threshold).
    noisy = {
        "avg_total_seconds": 0.015,
        "closure_comparison": [{"total_speedup": 8.5}],
    }
    if check_file("fixture", noisy, baseline, TABLE4_METRICS, 2.0, report) != 0:
        print("self-test FAILED: in-band noise flagged as regression")
        return 1
    # Absolute limits: the tracing-overhead ceiling and the attribution
    # floor must both trip, a healthy run must pass, and a compiled-out
    # tracing build must be skipped rather than failed.
    healthy = {
        "tracing": {"compiled_in": True, "overhead_ratio": 1.005},
        "stages": {"attributed_fraction": 0.97, "edge_cost_ms": 4.5},
    }
    if check_limits("fixture", healthy, TABLE4_LIMITS, report) != 0:
        print("self-test FAILED: in-bound limits flagged")
        return 1
    over_budget = {
        "tracing": {"compiled_in": True, "overhead_ratio": 1.10},
        "stages": {"attributed_fraction": 0.97, "edge_cost_ms": 4.5},
    }
    if check_limits("fixture", over_budget, TABLE4_LIMITS, report) != 1:
        print("self-test FAILED: 10% tracing overhead not flagged")
        return 1
    unattributed = {
        "tracing": {"compiled_in": True, "overhead_ratio": 1.0},
        "stages": {"attributed_fraction": 0.5, "edge_cost_ms": 4.5},
    }
    if check_limits("fixture", unattributed, TABLE4_LIMITS, report) != 1:
        print("self-test FAILED: 50% stage attribution not flagged")
        return 1
    slow_edge_cost = {
        "tracing": {"compiled_in": True, "overhead_ratio": 1.0},
        "stages": {"attributed_fraction": 0.97, "edge_cost_ms": 13.4},
    }
    if check_limits("fixture", slow_edge_cost, TABLE4_LIMITS, report) != 1:
        print("self-test FAILED: pre-optimization edge_cost_ms not flagged")
        return 1
    compiled_out = {
        "tracing": {"compiled_in": False, "overhead_ratio": 1.0},
        "stages": {"attributed_fraction": 0.0, "edge_cost_ms": 99.0},
    }
    if check_limits("fixture", compiled_out, TABLE4_LIMITS, report) != 0:
        print("self-test FAILED: compiled-out tracing should skip limits")
        return 1
    # Intersect-kernel gate: a dispatcher that loses 2x to the plain
    # merge somewhere on the grid must fail its dimensionless limit.
    sane_dispatch = {"headline": {"adaptive_worst_ratio_vs_merge": 1.1}}
    bad_dispatch = {"headline": {"adaptive_worst_ratio_vs_merge": 2.0}}
    if check_limits("fixture", sane_dispatch, INTERSECT_LIMITS, report) != 0:
        print("self-test FAILED: sane kernel dispatch flagged")
        return 1
    if check_limits("fixture", bad_dispatch, INTERSECT_LIMITS, report) != 1:
        print("self-test FAILED: 2x kernel-dispatch loss not flagged")
        return 1
    # Churn gate: a flip that errors live requests, a churn phase that
    # never flipped, and a globally-cleared cache (stale rate 0) must
    # each fail; a healthy churn run must pass.
    healthy_churn = {
        "errors": 0,
        "stale_eviction_rate": 0.2,
        "churn": {"epoch_flips": 30},
    }
    if check_limits("fixture", healthy_churn, CHURN_LIMITS, report) != 0:
        print("self-test FAILED: healthy churn run flagged")
        return 1
    erroring_churn = {
        "errors": 3,
        "stale_eviction_rate": 0.2,
        "churn": {"epoch_flips": 30},
    }
    if check_limits("fixture", erroring_churn, CHURN_LIMITS, report) != 1:
        print("self-test FAILED: request errors under churn not flagged")
        return 1
    cleared_cache = {
        "errors": 0,
        "stale_eviction_rate": 0.0,
        "churn": {"epoch_flips": 30},
    }
    if check_limits("fixture", cleared_cache, CHURN_LIMITS, report) != 1:
        print("self-test FAILED: zero stale evictions not flagged")
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding the checked-in baselines")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="regression threshold (default 2.0)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches a synthetic 3x "
                             "regression, then exit")
    args = parser.parse_args()
    if args.factor <= 1.0:
        print("--factor must be > 1", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    return run_gate(args.build_dir, args.baseline_dir, args.factor)


if __name__ == "__main__":
    sys.exit(main())
