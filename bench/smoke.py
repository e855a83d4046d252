#!/usr/bin/env python3
"""CI's checks after the build, one declarative table per job.

  python3 bench/smoke.py build-and-test   # example smokes, Release tree
  python3 bench/smoke.py bench-smoke      # bench JSON, artifact gates,
                                          # benchmark/run.py --smoke
  python3 bench/smoke.py fuzz-smoke       # seeded trace_fuzz_test runs
                                          # (ASan+UBSan Debug tree)
  python3 bench/smoke.py JOB --build DIR  # binaries from DIR instead

Each check runs one command from the repository root ({b} is the build
tree) and reads its fields from where the command prints them:

  summary   the "summary" object of the last stdout line
  rows      every other stdout line, one JSON object each; every rule must
            hold on every row, and there must be a row
  families  the rows' per-family verdict counts, as one field "families"
  exit      nothing but the exit status
  e4, e8, ... a bench run, checked by that group of bench/gates.py

A rule is (field, op, value). The field "exit" is the exit status; every
command must exit 0 unless a rule reads it. A value may be Ref(field,
scale), another field of the same record times scale, or Output(cmd), the
same field as read from another command. A missing summary, a missing
field, a command glob that matched no file and a rows check with no row
all fail. Outputs are kept under {b}/smoke/. Exit status is 0 only when
every check passes.
"""

import argparse
import glob
import json
import operator
import os
import re
import shlex
import subprocess
import sys
from collections import namedtuple

import gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Check = namedtuple("Check", "title cmd at rules env", defaults=((), None))
Ref = namedtuple("Ref", "field scale", defaults=(1,))
Output = namedtuple("Output", "cmd")

OPS = {"==": operator.eq, "!=": operator.ne, ">=": operator.ge,
       ">": operator.gt, "<=": operator.le, "exists": lambda v, b: True}


def usage_error(cmd):
    """A count that is not an integer in range is a usage error (exit 2),
    never a request for billions of traces, events or verdicts."""
    return Check(cmd, "{b}/" + cmd, "exit", [("exit", "==", 2)])


def prefix_sharing(traces):
    """Prefix-shared resumable sessions must not change a per-family verdict
    count (timing and search counters may differ with the order the shared
    session sees the traces in)."""
    cmd = f"{{b}}/corpus_check traces {traces}"
    return Check(f"corpus_check traces {traces}: prefix sharing keeps the "
                 "verdicts", cmd, "families",
                 [("families", "==", Output(cmd + " --share-prefixes"))])


def fuzz(title, seed, traces, gtest_filter=""):
    """A seeded trace_fuzz_test run under the sanitizers' CI options."""
    return Check(title, "{b}/trace_fuzz_test" + (
        gtest_filter and " --gtest_filter=" + gtest_filter), "exit",
        [("exit", "==", 0)],
        {"ASAN_OPTIONS": "detect_leaks=1:strict_string_checks=1",
         "UBSAN_OPTIONS": "print_stacktrace=1",
         "SLIN_FUZZ_SEED": seed, "SLIN_FUZZ_TRACES": str(traces)})


def monitor(flags=""):
    """The session monitor: a one-object service run over a 4096-operation
    stream, which must stay definitive the whole way, with zero seed
    replay, a bounded live window, continuous retirement and, past warm-up,
    zero heap allocations per event (the operator-new gauge the binary
    interposes)."""
    return "{b}/service_monitor " + flags + "objects 1 clients 3 ops 4096"


# The weak-relation configuration keeps the Strict steady-state contract on
# an all-flushed stream (simulated SMR responses are post-consensus, hence
# flushed, so TsoHb derives the same masks), every steady check served by
# the fast path, in both session kinds.
TSO_MONITOR = [("order", "==", "tso"), ("verdict", "==", "yes"),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("steady_checks", ">", 0), ("allocs_per_event", "==", 0),
               ("fast_path_per_check", "==", 1.0)]
# Graded degradation end to end: a straggler pins one extra shard past the
# 64-slot window, the composed verdict degrades to a BoundedYes-graded
# Unknown naming it, and the drain recovers a definitive Yes; the steady
# region before the injection stays allocation-free.
STRAGGLER = [("verdict", "==", "yes"), ("composed_grade", "==", "yes"),
             ("straggler_degraded", "==", 1), ("straggler_recovered", "==", 1),
             ("bounded_shards", "==", 0), ("bounded_shards_peak", "==", 1),
             ("bounded_yes_verdicts", ">", 0), ("window_overflows", "==", 1),
             ("alloc_gauge_active", "==", 1), ("allocs_per_event", "==", 0)]
BENCH_JSON = [(f, "exists", True)
              for f in ("name", "params", "iterations", "ns_per_op")]
E8_FILTER = ("AppendOne_Incremental|SteadyState_Monitor|IncrementalSlin"
             "|ReorderSlin|PrefixCorpus")

JOBS = {
    "build-and-test": ("build", [
        Check("monitor: long trace, retirement, allocation-free",
              monitor(), "summary",
              [("verdict", "==", "yes"), ("events", ">=", 8192),
               ("seed_steps_replayed", "==", 0),
               ("live_window_high_water", "<=", 64),
               ("retired_obligations", ">=", 4000),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("steady_events", ">", 4096), ("allocs_per_event", "==", 0)]),
        Check("monitor --slin: the family fast path end to end",
              monitor("--slin "), "summary",
              [("mode", "==", "slin"), ("verdict", "==", "yes"),
               ("events", ">=", 8192), ("fast_path_verdicts", ">", 0),
               ("live_window_high_water", "<=", 64),
               ("retired_obligations", ">=", 1000),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("steady_events", ">", 2048), ("allocs_per_event", "==", 0)]),
        Check("monitor --order tso", monitor("--order tso "), "summary",
              TSO_MONITOR),
        Check("monitor --slin --order tso", monitor("--slin --order tso "),
              "summary", TSO_MONITOR),
        prefix_sharing(50),
        prefix_sharing(200),
        usage_error("corpus_check traces -1"),
        usage_error("corpus_check traces x"),
        usage_error("service_monitor objects 2 ops 16 batch -1"),
        usage_error("service_monitor objects 2x"),
        usage_error("service_monitor seed x"),
        usage_error("service_monitor objects 65536 clients 63"),
        usage_error("trace_lint --phases 1 x"),
        # 64 objects x 10 clients x 512 ops: a composed Yes with a shard
        # verdict per event, every window bounded, allocation-free.
        Check("service: composed verdict, every event, allocation-free",
              "{b}/service_monitor objects 64 ops 512", "summary",
              [("verdict", "==", "yes"), ("events", "==", 64 * 512 * 2),
               ("parse_errors", "==", 0),
               ("shard_verdicts", "==", Ref("events")),
               ("live_window_high_water", "<=", 64),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("steady_events", ">", 0), ("allocs_per_event", "==", 0)]),
        Check("service --slin",
              "{b}/service_monitor --slin objects 64 ops 512", "summary",
              [("mode", "==", "slin"), ("verdict", "==", "yes"),
               ("live_window_high_water", "<=", 64),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("allocs_per_event", "==", 0)]),
        Check("service --order tso reaches every shard",
              "{b}/service_monitor --order tso objects 64 ops 512", "summary",
              [("order", "==", "tso"), ("verdict", "==", "yes"),
               ("parse_errors", "==", 0), ("window_overflows", "==", 0),
               ("alloc_gauge_active", "==", 1),
               ("allocs_per_event", "==", 0)]),
        # BatchWindow batches publication only. (At ops 256 the shards never
        # leave warm-up, so the allocation rule needs 512.)
        Check("service batch 16: batched publication",
              "{b}/service_monitor objects 32 ops 512 batch 16", "summary",
              [("verdict", "==", "yes"),
               ("shard_verdicts", "<=", Ref("events", 1 / 8)),
               ("window_overflows", "==", 0), ("alloc_gauge_active", "==", 1),
               ("allocs_per_event", "==", 0)]),
        # One corrupted response on object 0 turns that shard and the
        # composition No and names the object; over a long stream the
        # refuted shard stays frozen at its No and allocates nothing.
        Check("service --violate: fault localized",
              "{b}/service_monitor --violate objects 32 ops 128", "summary",
              [("verdict", "==", "no"), ("culprit_object", "==", 0),
               ("reason", "!=", ""), ("live_window_high_water", "<=", 64)]),
        Check("service --violate: refuted shard frozen",
              "{b}/service_monitor --violate objects 4 ops 4000", "summary",
              [("verdict", "==", "no"), ("culprit_object", "==", 0),
               ("live_window_high_water", "<=", 64),
               ("allocs_per_event", "==", 0)]),
        Check("service --straggler: degradation and recovery",
              "{b}/service_monitor --straggler objects 32 ops 512", "summary",
              STRAGGLER),
        Check("service --slin --straggler",
              "{b}/service_monitor --slin --straggler objects 32 ops 512",
              "summary", STRAGGLER),
    ]),
    "bench-smoke": ("build", [
        # Plain-double seconds parse on benchmark 1.7 and 1.8 alike.
        Check("bench JSON shape", "{b}/bench_e* --benchmark_min_time=0.01",
              "rows", BENCH_JSON),
        Check("e8 steady-state gates (vs BENCH_e8.json)",
              "{b}/bench_e8_incremental --benchmark_filter='%s' "
              "--benchmark_min_time=0.02" % E8_FILTER, "e8"),
        Check("e4 batch checker node counts (== BENCH_e4.json)",
              "{b}/bench_e4_checker --benchmark_min_time=0.01"
              " --benchmark_filter='NewDefinition|Classical'", "e4"),
        Check("e9 service aggregate throughput (vs BENCH_e9.json)",
              "{b}/bench_e9_service --benchmark_filter=BM_E9_Service_Aggregate"
              " --benchmark_min_time=0.05", "e9-aggregate"),
        Check("e9 overflow recovery (vs BENCH_e9.json)",
              "{b}/bench_e9_service"
              " --benchmark_filter=BM_E9_Service_OverflowRecovery"
              " --benchmark_min_time=0.05", "e9-overflow"),
        Check("e9 wire parse throughput (vs BENCH_e9.json)",
              "{b}/bench_e9_service --benchmark_filter=BM_E9_WireParse"
              " --benchmark_min_time=0.05", "e9-wireparse"),
        # slinbench at 1/50 scale: every verdict against ground truth.
        Check("service benchmark smoke", "python3 benchmark/run.py --smoke",
              "exit", [("exit", "==", 0)]),
    ]),
    "fuzz-smoke": ("build-fuzz", [
        fuzz("fuzz (fixed seed, bounded budget)", "0xF0221", 60),
        # Per prefix, Yes(Strict) => Yes(Tso) and No(Tso) => No(Strict);
        # all-flushed traces agree bit for bit.
        fuzz("TSO differential", "0x7501", 80, "*OrderMonotonicity*"),
        # Every Yes witness of the witness-carrying slin session passes
        # verifySlinWitness.
        fuzz("slin witness differential", "0x5117", 200, "*SlinFastStep*"),
        # Every retained chain's aligned-prefix mask equals its rescan after
        # every append and verdict (the Debug build asserts it on every read).
        fuzz("alignment differential", "0xA119", 200,
             "*AlignmentDifferential*"),
    ]),
}

FAMILY_FIELDS = ("family", "traces", "yes", "no", "unknown", "budget_limited")


def rows(text):
    out = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in out if "summary" not in r]


def summary(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or "summary" not in json.loads(lines[-1]):
        raise ValueError("no summary line")
    return [json.loads(lines[-1])["summary"]]


def families(text):
    return [{"families": [{k: r[k] for k in FAMILY_FIELDS}
                          for r in rows(text)]}]


# Where a command prints its fields -> the records its rules read.
RECORDS = {"summary": summary, "rows": rows, "families": families,
           "exit": lambda text: [{}]}


class Runner:
    def __init__(self, build):
        self.build, self.runs = build, 0
        self.out_dir = os.path.join(build, "smoke")
        os.makedirs(self.out_dir, exist_ok=True)

    def run(self, argv, env):
        """Runs argv; returns (exit status, stdout path, stdout text)."""
        self.runs += 1
        slug = re.sub(r"[^\w.-]+", "_", " ".join(argv[:3]))[:60]
        path = os.path.join(self.out_dir, f"{self.runs:02d}_{slug}.out")
        with open(path, "w") as out:
            try:
                rc = subprocess.run(argv, cwd=ROOT, stdout=out,
                                    env={**os.environ, **(env or {})}
                                    ).returncode
            except OSError as e:  # No such binary: the shell's 127.
                print(e, file=sys.stderr)
                rc = 127
        with open(path) as f:
            return rc, path, f.read()

    def commands(self, cmd):
        """The argv lists of cmd: one per match of a glob in its program."""
        argv = shlex.split(cmd.replace("{b}", self.build))
        if not glob.has_magic(argv[0]):
            return [argv]
        return [[p] + argv[1:] for p in sorted(glob.glob(
            os.path.join(ROOT, argv[0])))]

    def records(self, cmd, at, env):
        """[(label, exit status, stdout path, records, why none)] for cmd."""
        out = []
        for argv in self.commands(cmd):
            rc, path, text = self.run(argv, env)
            try:
                recs, err = RECORDS[at](text), ""
            except (ValueError, KeyError, TypeError) as e:
                recs, err = [], f": {e!r}"
            out.append((" ".join(argv), rc, path, recs, err))
        return out

    def check(self, c):
        """The failures of check c: per failing run, where its output is,
        then one line per failed rule and the record the rules read."""
        gate = c.at in gates.GROUPS
        at = "exit" if gate else c.at
        runs = self.records(c.cmd, at, c.env)
        if not runs:
            return [f"{c.cmd!r} matched no file"]
        failures = []
        for label, rc, path, recs, err in runs:
            msgs = [] if recs else [f"no {at} record{err}"]
            if rc != 0 and not any(f == "exit" for f, _, _ in c.rules):
                msgs.append(f"exit status {rc}, want 0")
            elif gate:
                msgs += [f"gate {c.at}: {m}"
                         for m in gates.run_group(c.at, path)]
            for rec in recs:
                bad = list(self.rules(c, {**rec, "exit": rc}))
                msgs += bad + [f"read {json.dumps(rec)}"] * bool(bad and rec)
            if msgs:
                failures += [f"{label} -> {os.path.relpath(path, ROOT)}"]
                failures += ["  " + m for m in msgs]
        return failures

    def rules(self, c, rec):
        for field, op, value in c.rules:
            if field not in rec:
                yield f"field {field!r} missing"
                continue
            if isinstance(value, Ref):
                if value.field not in rec:
                    yield f"field {value.field!r} missing"
                    continue
                value = rec[value.field] * value.scale
            elif isinstance(value, Output):
                (_, rc, _, other, _), = self.records(value.cmd, c.at, c.env)
                if rc != 0 or not other:
                    yield f"{value.cmd!r} exited {rc} or printed nothing"
                    continue
                value = other[0][field]
            if not OPS[op](rec[field], value):
                yield f"{field} {rec[field]!r}, want {op} {value!r}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("job", choices=JOBS)
    p.add_argument("--build", help="the build tree (default: the job's)")
    a = p.parse_args()
    default_build, checks = JOBS[a.job]
    build = os.path.join(ROOT, a.build or default_build)
    runner = Runner(build)
    failed = []
    for c in checks:
        print(f"== {c.title}", flush=True)
        msgs = runner.check(c)
        print("\n".join(["FAILED: " + m for m in msgs[:1]] + msgs[1:]) or "ok",
              flush=True)
        failed += [c.title] * bool(msgs)
    print(f"{a.job}: {len(checks) - len(failed)} of {len(checks)} checks "
          f"passed" + "".join("\n  failed: " + t for t in failed))
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
