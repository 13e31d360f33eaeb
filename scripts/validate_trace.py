#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON emitted by javelin_bench --trace.

Checks, in order:
  1. the file parses as JSON and has a non-empty traceEvents array;
  2. every event carries the required trace_event fields (name/ph/ts/pid/tid)
     and a known phase ('B', 'E' or 'X');
  3. per (pid, tid), 'B'/'E' events balance like parentheses with matching
     names — an unbalanced stream renders as garbage in Perfetto;
  4. per (pid, tid), 'B'/'E' timestamps are monotone non-decreasing in
     recorded order ('X' events carry their own start and are exempt).

With --bench BENCH.json (a schema >= 5 file from the same run, produced with
both --trace and --verify), the dynamic telemetry is additionally
cross-checked against the static analysis:
  5. in every stall_profile (the `p2p` default sweep and the `barrier`
     CSR-LS sweep), waits_immediate + waits_stalled == waits (the spin-wait
     counters partition);
  6. for every matrix whose stall_profile and verifier stats are both
     present, the observed P2P wait count equals sweeps x waits_total as
     predicted by the verifier — the executed synchronization is exactly
     the statically proven wait set, no more and no less;
  7. (schema >= 6) verifier coverage splits exactly: direct + regime +
     transitive == cross-thread deps, nothing uncovered — regime coverage
     is how tagged schedules (serial or barrier levels; CSR-LS is every
     level kBarrier) account for the waits their sync points made
     redundant;
  8. (schema >= 6) every autotune block is self-consistent: parity true,
     the chosen candidate is in the measured grid, and the serial anchor
     candidate is present.

Exit code 0 on success, 1 on any violation (CI gates on it).

Usage: validate_trace.py trace.json [--bench BENCH.json]
"""

import collections
import json
import sys


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_bench(path):
    """Static-vs-dynamic cross-check: verifier-predicted wait counts against
    the stall-profile counters of the instrumented pass."""
    doc = load_json(path)
    schema = doc.get("schema_version", 0)
    if schema < 5:
        fail(f"{path}: --bench needs schema_version >= 5 (--verify runs)")
    checked = 0
    autotuned = 0
    for r in doc.get("results", []):
        if schema >= 6:
            # Verifier coverage identity, hybrid-aware: every cross-thread
            # dependency is covered directly, by a regime sync point, or
            # transitively — and the split is exact.
            for row in r.get("timings", []):
                for direction in ("fwd", "bwd"):
                    vb = row.get(f"verify_{direction}")
                    if not vb:
                        continue
                    covered = (
                        vb["deps_covered_direct"]
                        + vb.get("deps_covered_regime", 0)
                        + vb["deps_covered_transitive"]
                    )
                    if covered != vb["deps_cross_thread"]:
                        fail(
                            f"{r['matrix']} {direction} t={row['threads']}: "
                            f"coverage split {covered} != cross-thread "
                            f"{vb['deps_cross_thread']}"
                        )
                    if vb["deps_uncovered"] != 0:
                        fail(
                            f"{r['matrix']} {direction} t={row['threads']}: "
                            f"{vb['deps_uncovered']} uncovered deps"
                        )
            ab = r.get("autotune")
            if ab:
                names = [c["name"] for c in ab.get("candidates", [])]
                if not ab["autotune_parity"]:
                    fail(f"{r['matrix']}: autotune_parity is false")
                if ab["chosen"] not in names:
                    fail(
                        f"{r['matrix']}: chosen '{ab['chosen']}' not in the "
                        f"measured grid"
                    )
                if "serial" not in names:
                    fail(f"{r['matrix']}: autotune grid has no serial anchor")
                autotuned += 1
        stall = r.get("stall_profile")
        if not stall:
            continue
        for backend in ("p2p", "barrier"):
            for direction in ("fwd", "bwd"):
                prof = stall[backend][direction]
                if not prof:
                    continue
                w, wi, ws = (
                    prof["waits"],
                    prof["waits_immediate"],
                    prof["waits_stalled"],
                )
                if wi + ws != w:
                    fail(
                        f"{r['matrix']} {backend} {direction}: "
                        f"waits_immediate + waits_stalled != waits "
                        f"({wi} + {ws} != {w})"
                    )
        # Verifier prediction: the instrumented P2P pass executes exactly
        # sweeps x waits_total spin-waits (the statically proven wait set).
        row = next(
            (t for t in r["timings"] if t["threads"] == stall["threads"]),
            None,
        )
        if row is None or "verify_fwd" not in row:
            continue
        for direction in ("fwd", "bwd"):
            prof = stall["p2p"][direction]
            if not prof:
                continue
            predicted = prof["sweeps"] * row[f"verify_{direction}"][
                "waits_total"
            ]
            observed = prof["waits"]
            if observed != predicted:
                fail(
                    f"{r['matrix']} p2p {direction}: observed {observed} "
                    f"waits, verifier predicts {prof['sweeps']} sweeps x "
                    f"{row[f'verify_{direction}']['waits_total']} = "
                    f"{predicted}"
                )
            checked += 1
    print(
        f"validate_trace: bench OK: {checked} stall-profile regions match "
        f"the verifier's predicted wait counts, {autotuned} autotune blocks "
        f"consistent"
    )


def main():
    argv = sys.argv[1:]
    bench = None
    if "--bench" in argv:
        i = argv.index("--bench")
        if i + 1 >= len(argv):
            fail("--bench needs a path")
        bench = argv[i + 1]
        del argv[i : i + 2]
    if len(argv) != 1:
        fail("usage: validate_trace.py trace.json [--bench BENCH.json]")
    path = argv[0]

    doc = load_json(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents array")
    if not events:
        fail("traceEvents is empty (tracing enabled but nothing recorded)")

    stacks = collections.defaultdict(list)
    last_ts = {}
    phases = collections.Counter()
    for i, e in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in e:
                fail(f"event {i} missing field {field!r}: {e}")
        ph = e["ph"]
        phases[ph] += 1
        if ph not in ("B", "E", "X"):
            fail(f"event {i} has unknown phase {ph!r}")
        if ph == "X":
            if e.get("dur", -1) < 0:
                fail(f"event {i} ('X' {e['name']}) missing/negative dur")
            continue
        key = (e["pid"], e["tid"])
        ts = float(e["ts"])
        if key in last_ts and ts < last_ts[key]:
            fail(
                f"event {i} ({ph} {e['name']}): non-monotone ts on tid "
                f"{e['tid']} ({ts} < {last_ts[key]})"
            )
        last_ts[key] = ts
        if ph == "B":
            stacks[key].append(e["name"])
        else:
            if not stacks[key]:
                fail(f"event {i}: E({e['name']}) with empty span stack")
            top = stacks[key].pop()
            if top != e["name"]:
                fail(f"event {i}: E({e['name']}) closes B({top})")

    for (pid, tid), stack in stacks.items():
        if stack:
            fail(f"tid {tid}: {len(stack)} unclosed B events: {stack[:5]}")

    tids = sorted({e["tid"] for e in events})
    print(
        f"validate_trace: OK: {len(events)} events on {len(tids)} threads "
        f"(B={phases['B']} E={phases['E']} X={phases['X']})"
    )
    if bench is not None:
        check_bench(bench)


if __name__ == "__main__":
    main()
