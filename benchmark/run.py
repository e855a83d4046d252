#!/usr/bin/env python3
"""slinbench: the one command of the monitoring-service benchmark.

Builds benchmark/slinbench in Release from the repository's sources, runs
the correctness checks and the workloads, and prints every metric by name
and unit. See benchmark/README.md for the workloads and the metrics.

  python3 benchmark/run.py                  # paper checks + 5 interleaved
                                            # untraced runs per workload
  python3 benchmark/run.py --trace          # per-layer ledger per workload
  python3 benchmark/run.py --smoke          # 1/50 scale, every check
  python3 benchmark/run.py --save A.json    # keep the runs for --compare
  python3 benchmark/run.py --compare A.json B.json
  python3 benchmark/run.py --workload steady-64 --seed 1 --seconds 10 \\
      --trace 0                             # one run; last line is JSON

Exit status is 0 only when every check passes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "slinbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["steady-64", "fleet-1024", "reorder-slin-256", "faults-64"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Traced passes: events measured one at a time without spans (the
# reference for the tracing overhead), then events with spans.
TRACE_UNTRACED_EVENTS = 200_000
TRACE_EVENTS = 1_000_000
SMOKE_SCALE = 50
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures once and builds slinbench; a no-op when up to date."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found beside benchmark/: "
                             "the benchmark builds the slin sources")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        call(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    call(["cmake", "--build", BUILD, "--target", "slinbench", "-j", jobs],
         BUILD_TIMEOUT_S)


def call(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        raise BenchError(f"failed ({done.returncode}): {' '.join(cmd)}")


def slinbench(*args):
    """Runs slinbench once and returns its JSON line."""
    cmd = [BINARY, *map(str, args)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        raise BenchError(f"failed ({done.returncode}): {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Checks. Each returns a list of failure messages (empty when all pass).
# ---------------------------------------------------------------------------

def paper_checks():
    r = slinbench("paper-checks")
    bad = []
    for servers in (3, 5, 7, 13):
        if r[f"e1.hops.{servers}"] != 2.0:
            bad.append(f"E1 hops per decision at {servers} servers is "
                       f"{r[f'e1.hops.{servers}']}, expected 2.0")
        if r[f"e1.fast_frac.{servers}"] != 1.0:
            bad.append(f"E1 fast-path fraction at {servers} servers is "
                       f"{r[f'e1.fast_frac.{servers}']}, expected 1.0")
        if r[f"e1_paxos.hops.{servers}"] != 3.0:
            bad.append(f"E1 Paxos-only hops at {servers} servers is "
                       f"{r[f'e1_paxos.hops.{servers}']}, expected 3.0")
    for k in (2, 4, 8):
        if r[f"e5_control.hops.{k}"] != 2.0:
            bad.append(f"E5 contention-free hops at k={k} is "
                       f"{r[f'e5_control.hops.{k}']}, expected 2.0")
    return r, bad


def expected_final(workload):
    return "no" if workload == "faults-64" else "yes"


def service_checks(workload, r):
    bad = []
    if r["failed"]:
        bad.append(f"fail_frac {r['failed'] / max(r['attempted'], 1):.3g} "
                   f"({r['failed']} of {r['attempted']} events)")
    if not r["final_ok"] or r["final_verdict"] != expected_final(workload):
        bad.append(f"final composed verdict {r['final_verdict']} "
                   f"(grade {r['final_grade']}, culprit {r['culprit']})")
    if r["ring_overflows"]:
        bad.append(f"ring_overflows {r['ring_overflows']}")
    if r["seed_replay"]:
        bad.append(f"engine.seed_replay {r['seed_replay']}")
    return bad


SHADOW_FIELDS = ("checks", "yes", "no", "unknown", "fast_path", "nodes")
# Printed beside the end-to-end metrics: the times before scaling by the
# reference kernel, the kernel's own speed, and the failure share.
UNSCALED_UNITS = {
    "events_per_s_raw": "events/s",
    "event_p50_ns_raw": "ns",
    "event_p99_ns_raw": "ns",
    "setup_s_raw": "s",
    "reference_ns_per_op": "ns",
    "fail_frac": "failed/attempted",
}


def ledger_checks(workload, service, shadow):
    bad = service_checks(workload, service)
    if shadow["seed_replay"]:
        bad.append(f"engine.seed_replay {shadow['seed_replay']} (shadow)")
    for field in SHADOW_FIELDS:
        if service[field] != shadow[field]:
            bad.append(f"shadow {field} {shadow[field]} != service "
                       f"{service[field]}: the ledger measured other work")
    return bad


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------

def untraced_metrics(r, spec):
    """slinbench names each end-to-end metric as BENCHMARK.json does."""
    return {m["name"]: r[m["name"]] for m in spec["end_to_end"]}


def run_untraced(workload, seed, seconds, setup_reps=0):
    r = slinbench(workload, "--seed", seed, "--seconds", seconds,
                  "--setup-reps", setup_reps)
    return r, service_checks(workload, r)


def run_traced(workload, seed, seconds, scale=1):
    """Both traced passes; returns the per-layer metrics, pass 1's attempted
    and failed events, the failure messages and the merged trace file."""
    parts = [os.path.join(BUILD, f"trace-{workload}-{p}.json")
             for p in ("service", "shadow")]
    untraced = TRACE_UNTRACED_EVENTS // scale
    svc = slinbench(workload, "--pass", "service", "--seed", seed,
                    "--seconds", seconds / 2, "--untraced", untraced,
                    "--events", TRACE_EVENTS // scale,
                    "--trace-out", parts[0])
    shadow = slinbench(workload, "--pass", "shadow", "--seed", seed,
                       "--untraced", svc["untraced_events"],
                       "--events", svc["traced_events"],
                       "--trace-out", parts[1])
    bad = ledger_checks(workload, svc, shadow)
    trace_file = os.path.join(BUILD, f"trace-{workload}.json")
    merge_traces(parts, trace_file)
    return ledger(svc, shadow), svc["attempted"], svc["failed"], bad, \
        trace_file


def merge_traces(parts, out):
    events = []
    for p in parts:
        with open(p) as f:
            events += json.load(f)["traceEvents"]
        os.remove(p)
    with open(out, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, f)


def ledger(svc, sh):
    """The per-layer metrics of one traced workload, named as in
    BENCHMARK.json."""
    n = max(svc["traced_events"], 1)
    verdicts = max(sh["verdicts"], 1)
    event, parse, ingest, poll = (svc[f"{k}_ns.sum"] / n for k in
                                  ("event", "parse", "ingest", "poll"))
    append = sh["append_ns_per_event"]
    verdict = sh["verdict_ns_per_event"]
    compose = sh["compose_ns_per_event"]
    named = parse + ingest + append + verdict + compose
    return {
        "wire.parse_ns.p50": svc["parse_ns.p50"],
        "wire.parse_ns.p99": svc["parse_ns.p99"],
        "wire.bad_lines": svc["bad_lines"],
        "service.ingest_ns.p50": svc["ingest_ns.p50"],
        "service.ingest_ns.p99": svc["ingest_ns.p99"],
        "service.poll_ns.p50": svc["poll_ns.p50"],
        "service.poll_ns.p99": svc["poll_ns.p99"],
        "service.stalls": svc["stalls"],
        "service.ring_overflows": svc["ring_overflows"],
        "service.rejected": svc["rejected"],
        "service.publish_per_event": svc["publish_per_event"],
        "service.bytes_per_shard": svc["bytes_per_shard"],
        "engine.append_ns.p50": sh["append_ns.p50"],
        "engine.append_ns.p99": sh["append_ns.p99"],
        "engine.fast_ns.p50": sh["fast_ns.p50"],
        "engine.fast_ns.p99": sh["fast_ns.p99"],
        "engine.search_ns.p50": sh["search_ns.p50"],
        "engine.search_ns.p99": sh["search_ns.p99"],
        "engine.absorbed_ns.p50": sh["absorbed_ns.p50"],
        "engine.graded_ns.p50": sh["graded_ns.p50"],
        "engine.graded_ns.p99": sh["graded_ns.p99"],
        "engine.verdicts": sh["verdicts"],
        "engine.fast_frac": sh["fast"] / verdicts,
        "engine.searches": sh["search"],
        "engine.search_frac": sh["search"] / verdicts,
        "engine.nodes_per_search": sh["nodes_per_search"],
        "engine.memo_hits_per_search": sh["memo_hits_per_search"],
        "engine.seed_replay": sh["seed_replay"],
        "engine.window_hw": sh["window_hw"],
        "engine.overflows": sh["overflows_traced"],
        "engine.bounded_yes": sh["bounded_yes_traced"],
        "engine.retired_per_event": sh["retired_per_event"],
        "engine.bytes_per_session": sh["bytes_per_session"],
        "engine.max_session_bytes": sh["max_session_bytes"],
        "compose.update_ns.p50": sh["compose_ns.p50"],
        "compose.update_ns.p99": sh["compose_ns.p99"],
        "ledger.event_ns.p50": svc["event_ns.p50"],
        "ledger.event_ns.mean": event,
        "ledger.parse_ns": parse,
        "ledger.ingest_ns": ingest,
        "ledger.poll_ns": poll,
        "ledger.append_ns": append,
        "ledger.verdict_ns": verdict,
        "ledger.compose_ns": compose,
        "ledger.poll_residual_ns": poll - (append + verdict + compose),
        "ledger.residual_frac": 1 - named / svc["untraced_ns_per_event"],
        "ledger.trace_overhead_frac":
            svc["traced_ns_per_event"] / svc["untraced_ns_per_event"] - 1,
        "ledger.span_overhead_ns": svc["span_overhead_ns"],
        "harness.gen_ns_per_event": svc["gen_ns_per_event"],
    }


def with_units(values, metrics):
    """Attaches units in BENCHMARK.json's order; the names must match."""
    names = [m["name"] for m in metrics]
    if set(names) != set(values):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics}


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------

def single_run(args, spec):
    """One run of one workload; the last stdout line is its JSON result."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    _, bad = paper_checks()
    if args.trace:
        values, attempted, failed, more, _ = run_traced(
            args.workload, args.seed, args.seconds)
        metrics = with_units(values, spec["per_layer"])
    else:
        r, more = run_untraced(args.workload, args.seed, args.seconds)
        attempted, failed = r["attempted"], r["failed"]
        metrics = with_units(untraced_metrics(r, spec), spec["end_to_end"])
    bad += more
    for msg in bad:
        log(f"CHECK FAILED [{args.workload}]: {msg}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(rows, units):
    """rows: {workload: {metric: [values]}}"""
    print(f"{'workload':<18} {'metric':<30} {'unit':<12} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'n':>3}")
    for workload, metrics in rows.items():
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            print(f"{workload:<18} {name:<30} {units[name]:<12} "
                  f"{q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}")


def one_command(args, spec):
    build()
    scale = SMOKE_SCALE if args.smoke else 1
    seconds = args.seconds / scale
    runs = 1 if args.smoke else args.runs
    failures = []

    paper, bad = paper_checks()
    failures += [f"paper: {m}" for m in bad]
    print("paper-shape checks (StackHarness):")
    for key, value in paper.items():
        if key != "pass":
            gate = "" if key.startswith("e5_cascade") else "  [gated]"
            print(f"  {key:<32} {value:g}{gate}")

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace or args.smoke:
        rows = {}
        for w in WORKLOADS:
            values, _, _, bad, trace_file = run_traced(
                w, args.seed, seconds, scale)
            failures += [f"{w} traced: {m}" for m in bad]
            rows[w] = {k: [v] for k, v in values.items()}
            print(f"{w}: trace written to {os.path.relpath(trace_file)}")
        print_table(rows, units)

    if not args.trace:
        results = {w: [] for w in WORKLOADS}
        for i in range(runs):
            for w in WORKLOADS:
                seed = args.seed + i if args.vary_seeds else args.seed
                r, bad = run_untraced(w, seed, seconds,
                                      1 if args.smoke else 0)
                failures += [f"{w} seed {seed}: {m}" for m in bad]
                results[w].append(r)
                log(f"run {i + 1}/{runs} {w} seed {seed}: "
                    f"{r['events_per_s']:.0f} events/s, "
                    f"p50 {r['event_p50_ns']:.0f} ns, failed {r['failed']}")
        rows = {w: {} for w in WORKLOADS}
        for w, rs in results.items():
            for r in rs:
                r["fail_frac"] = r["failed"] / max(r["attempted"], 1)
                for k, v in untraced_metrics(r, spec).items():
                    rows[w].setdefault(k, []).append(v)
                for k in UNSCALED_UNITS:
                    rows[w].setdefault(k, []).append(r[k])
        print_table(rows, {**units, **UNSCALED_UNITS})
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"seed": args.seed, "vary_seeds": args.vary_seeds,
                           "seconds": seconds, "metrics": rows}, f, indent=1)

    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print("all checks passed" if not failures else
          f"{len(failures)} check(s) failed")
    return 1 if failures else 0


def compare(path_a, path_b, spec):
    """Applies BENCHMARK.json's bounds to each (metric, workload) pair of two
    saved result files: A is the parent, B the change."""
    with open(path_a) as f:
        a = json.load(f)["metrics"]
    with open(path_b) as f:
        b = json.load(f)["metrics"]
    regressions = 0
    print(f"{path_b} against {path_a}: how much worse each median is "
          "(negative is better)")
    for w in WORKLOADS:
        cells = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = a[w][name], b[w][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            spread = max(spread_of(va), spread_of(vb))
            a_wins = all(sign * (x - y) < 0 for x in va for y in vb)
            b_wins = all(sign * (y - x) < 0 for x in va for y in vb)
            if spread > bound and not (a_wins or b_wins):
                status = "unresolved"
            elif worse > bound:
                status = "WORSE"
                regressions += 1
            else:
                status = "ok"
            cells.append(f"{name} {worse:+.1%} {status}")
        print(f"{w:<18} " + " | ".join(cells))
    return 1 if regressions else 0


def spread_of(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload once; the last "
                   "line printed is one JSON result")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; seed "
                   f"{HELD_OUT_SEED} is held out for validating claims)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds "
                   "in BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                   choices=(0, 1), help="per-layer traced run")
    p.add_argument("--runs", type=int, default=5,
                   help="untraced runs per workload (default 5)")
    p.add_argument("--vary-seeds", action="store_true",
                   help="run i uses seed --seed + i")
    p.add_argument("--smoke", action="store_true",
                   help=f"1/{SMOKE_SCALE} of every run length, all checks")
    p.add_argument("--save", help="write the untraced runs to this file")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two --save files under the bounds")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload:
            return single_run(args, spec)
        return one_command(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"slinbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
