#!/usr/bin/env python3
"""Regression gates: a fresh bench run against its committed artifact.

  python3 bench/gates.py e8 e8_now.json            # bench_e8 steady state
  python3 bench/gates.py e9-aggregate e9_now.json  # service throughput
  python3 bench/gates.py e9-overflow e9_overflow_now.json
  python3 bench/gates.py e9-wireparse e9_wireparse_now.json  # parse stage
  python3 bench/gates.py e4 e4_now.json            # batch checker nodes

Every gate of the named group checks one metric of every matching row of
the fresh run (one JSON object per line, as the benches print them).
Relative rules compare against the same row of the committed artifact and
pass within the larger of the tolerance and an absolute noise floor;
absolute rules need no artifact row. Every committed row of the group must
still be emitted, so a rename or filter drift cannot silently disable a
gate. Exit status is 0 only when every gate passes.
"""

import json
import re
import sys

# Group -> (committed artifact, which rows of a bench run belong to it,
# which committed rows must reappear).
GROUPS = {
    "e4": ("BENCH_e4.json",
           lambda r: "nodes_per_trace" in r
           and re.search(r"NewDefinition|Classical", r["name"]),
           r"."),
    "e8": ("BENCH_e8.json",
           lambda r: "nodes_per_check" in r or "PrefixCorpus" in r["name"],
           r"SteadyState|IncrementalSlin|AppendOne_Incremental|ReorderSlin"
           r"|PrefixCorpus"),
    "e9-aggregate": ("BENCH_e9.json",
                     lambda r: r["name"].startswith("BM_E9_Service_Aggregate"),
                     r"."),
    "e9-overflow": ("BENCH_e9.json",
                    lambda r: r["name"].startswith(
                        "BM_E9_Service_OverflowRecovery"),
                    r"."),
    "e9-wireparse": ("BENCH_e9.json",
                     lambda r: r["name"].startswith("BM_E9_WireParse"),
                     r"."),
}

# (group, row pattern, metric, rule, tolerance or value, noise floor).
#   grow: now <= max(base * (1 + tolerance), floor)   lower is better
#   drop: now >= min(base * (1 - tolerance), floor)   higher is better
#   same: now == base (tolerance and floor unused)
#   eq / gt / le: now == value / now > value / now <= value, over every
#     matching row of the run; the last column is then the value a row
#     lacking the metric counts as (None: the metric is required)
GATES = [
    # The batch checkers' DFS: every new-definition and classical row
    # explores exactly the artifact's nodes per trace. Node counts are
    # deterministic, so any change to the engine's move order shows here.
    ("e4", r".", "nodes_per_trace", "same", None, None),
    # Node counts are deterministic (unlike times on shared runners), so
    # they are the steady-state regression metric. ReorderSlin is the miss
    # path: a verdict that leaves the fast step must resume at the chain's
    # last quiescent cut, not search the window from the root.
    ("e8", r"SteadyState|IncrementalSlin|AppendOne_Incremental|ReorderSlin",
     "nodes_per_check", "grow", 0.10, None),
    # The miss path's split is deterministic too: how many verdicts miss the
    # fast step, what a miss expands, and which seed point answers it (the
    # chain's quiescent cut or an uncapped search from its boundary).
    ("e8", r"ReorderSlin", "nodes_per_miss", "same", None, None),
    ("e8", r"ReorderSlin", "miss_per_check", "same", None, None),
    ("e8", r"ReorderSlin", "cut_resumes_per_miss", "same", None, None),
    ("e8", r"ReorderSlin", "root_searches_per_miss", "same", None, None),
    # The miss path's largest session memo stays within twice its first
    # array (512 slots, 4 KiB): one epoch's keys, spread by the mixed home
    # slot, fit it. The byte count is deterministic; the former 4,096-slot
    # first array read 32 KiB here. (That the memo also stays flat over a
    # long stream is steady_alloc_test's footprint test.)
    ("e8", r"ReorderSlin", "memo_bytes_max", "le", 8192.0, None),
    # Steady state never replays seed steps.
    ("e8", r".", "seed_replay_per_check", "eq", 0.0, 0.0),
    # Hot-path latency: nearest-rank median and tail over per-event wall
    # samples. A short isolated smoke run's warm-up inflates them, so each
    # row passes within +10% of the artifact or under its absolute ceiling
    # (500 ns lin / 1 us slin p50, 5 us p99) — a real hot-path regression
    # blows through both; the p99 catches a steady state that periodically
    # falls off the fast path (a botched fold, a memo salting bug).
    ("e8", r"SteadyState_Monitor_Long", "p50_ns_per_event", "grow", 0.10,
     500.0),
    ("e8", r"SteadyState_MonitorSlin", "p50_ns_per_event", "grow", 0.10,
     1000.0),
    ("e8", r"SteadyState_Monitor_Long", "p99_ns_per_event", "grow", 0.10,
     5000.0),
    ("e8", r"SteadyState_MonitorSlin", "p99_ns_per_event", "grow", 0.10,
     5000.0),
    # The slin steady row stays on the family fast step: every verdict
    # served without entering the DFS.
    ("e8", r"SteadyState_MonitorSlin", "fast_path_per_check", "eq", 1.0,
     None),
    # The corpus driver's SharePrefixes lever over a prefix-closed corpus:
    # one verdict per trace (no extra priming checks), every trace Yes, and
    # the shared drain's node count within +10% — the reuse it exists for.
    ("e8", r"PrefixCorpus", "checks_per_trace", "eq", 1.0, None),
    ("e8", r"PrefixCorpus", "yes_per_iter", "eq", 192.0, None),
    ("e8", r"PrefixCorpus/1", "nodes_per_trace", "grow", 0.10, None),
    # Composed verdict Yes on every block, and aggregate throughput at
    # >= 90% of the artifact or the 1M events/s floor — a service falling
    # off the per-shard fast path loses an order of magnitude and blows
    # through both.
    ("e9-aggregate", r".", "composed_yes", "eq", 1.0, None),
    ("e9-aggregate", r".", "events_per_sec", "drop", 0.10, 1e6),
    # Per-shard memory is sized to what a shard touches: every aggregate
    # row's largest shard stays within 16 KiB. The byte count is
    # deterministic, so this gate does not depend on the box.
    ("e9-aggregate", r".", "shard_memory_max_bytes", "le", 16384.0, None),
    # The straggler lifecycle: one overflow per cycle, graded verdicts
    # during the excursion, a recovered Yes at its end, and the cycle cost
    # within +10% or 250 us — a drain that loses its capped sub-search
    # structure re-searches exponentially.
    ("e9-overflow", r".", "recovered_yes_per_cycle", "eq", 1.0, None),
    ("e9-overflow", r".", "overflows_per_cycle", "eq", 1.0, None),
    ("e9-overflow", r".", "bounded_yes_per_cycle", "gt", 0.0, None),
    ("e9-overflow", r".", "ns_per_op", "grow", 0.10, 250e3),
    # The cycle's search nodes (deterministic): one per fast-step verdict
    # before the overflow, one capped round over the first 64 obligations
    # (read by the grade, then by the fold) and the ladder after the fold.
    # A fold that searches the round again spends 64 more (199).
    ("e9-overflow", r".", "nodes_per_cycle", "le", 135.0, None),
    # The parse stage alone: wire lines/s at >= 90% of the artifact or the
    # 5M lines/s floor. The one-pass parser clears the floor by half again;
    # a parse that re-tokenizes each line (under 3M lines/s on the box
    # that captured BENCH_e9.json) fails it.
    ("e9-wireparse", r".", "lines_per_sec", "drop", 0.10, 5e6),
]

EPS = 1e-9

# The absolute rules: (value of the run, bound) -> pass.
ABSOLUTE = {
    "eq": lambda v, b: v == b,
    "gt": lambda v, b: v > b,
    "le": lambda v, b: v <= b,
}


def load(path, belongs):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                if belongs(r):
                    rows[r["name"].strip()] = r
    return rows


def check(group, base, now):
    """Yields one message per failed gate."""
    for g, pattern, metric, rule, bound, floor in GATES:
        if g != group:
            continue
        match = re.compile(pattern).search
        if rule in ABSOLUTE:
            for name, r in now.items():
                if not match(name):
                    continue
                v = r.get(metric, floor)
                if v is None or not ABSOLUTE[rule](v, bound):
                    yield f"{name}: {metric} {v!r}, want {rule} {bound}"
            continue
        names = [n for n in base if match(n)]
        if not names:
            yield f"no {pattern!r} row with {metric} in the artifact"
        for name in names:
            b, v = base[name].get(metric), now.get(name, {}).get(metric)
            if b is None or v is None:
                yield f"{name}: {metric} missing"
            elif rule == "grow" and v > max(b * (1 + bound), floor or 0) + EPS:
                yield f"{name}: {metric} regressed {b:g} -> {v:g}"
            elif rule == "drop" and v < min(b * (1 - bound), floor or b) - EPS:
                yield f"{name}: {metric} regressed {b:g} -> {v:g}"
            elif rule == "same" and abs(v - b) > EPS:
                yield f"{name}: {metric} changed {b:g} -> {v:g}"


def run_group(group, run):
    """One message per failed gate of group on the bench output file run."""
    artifact, belongs, required = GROUPS[group]
    base, now = load(artifact, belongs), load(run, belongs)
    failures = []
    if not base or not now:
        failures.append(f"no {group} rows in {artifact if not base else run}")
    failures += [f"gated row vanished from the run: {n}" for n in base
                 if re.search(required, n) and n not in now]
    return failures + list(check(group, base, now))


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in GROUPS:
        sys.exit(f"usage: gates.py {{{'|'.join(GROUPS)}}} RUN.json")
    group, run = sys.argv[1], sys.argv[2]
    failures = run_group(group, run)
    for msg in failures:
        print(f"GATE FAILED [{group}]: {msg}")
    if failures:
        return 1
    print(f"{group} gates ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
