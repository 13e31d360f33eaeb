#!/usr/bin/env python3
"""Gate the factor-time autotuner's decision quality from a bench JSON.

For every non-degenerate matrix row carrying an `autotune` block
(schema >= 6):

  * `autotune_parity` must be true — the pinned policy is required to be a
    bitwise-neutral transformation of the serial sweep (the bench's own exit
    code also enforces this; the gate re-checks so a doctored JSON can't
    pass);
  * in wall-clock mode, the re-measured auto solve must not regress the best
    FIXED candidate (serial or any uniform P2P / all-barrier team/granule
    point) by more than --slack (default 10%), with a small absolute epsilon so
    sub-100us solves on a noisy oversubscribed runner cannot flap the gate;
  * in cost-model mode (--verify runs) the timing gate is skipped — the
    grid numbers are dimensionless scores — but the block must still be
    present, parity-clean and self-consistent.

Exit code 0 on success, 1 on any violation (CI gates on it).

Usage: check_autotune.py BENCH.json [--slack 0.10] [--epsilon-s 50e-6]
"""

import json
import sys


def fail(msg):
    print(f"check_autotune: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    argv = sys.argv[1:]
    slack = 0.10
    epsilon_s = 50e-6
    if "--slack" in argv:
        i = argv.index("--slack")
        slack = float(argv[i + 1])
        del argv[i : i + 2]
    if "--epsilon-s" in argv:
        i = argv.index("--epsilon-s")
        epsilon_s = float(argv[i + 1])
        del argv[i : i + 2]
    if len(argv) != 1:
        fail("usage: check_autotune.py BENCH.json [--slack S] [--epsilon-s E]")

    try:
        with open(argv[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{argv[0]}: {e}")
    if doc.get("schema_version", 0) < 6:
        fail(f"{argv[0]}: needs schema_version >= 6 (autotune blocks)")

    checked = 0
    for r in doc.get("results", []):
        ab = r.get("autotune")
        if not ab:
            if not r.get("robust_only", False) and not r.get("trimmed", False):
                fail(f"{r['matrix']}: timing row without an autotune block")
            continue
        name = r["matrix"]
        if not ab["autotune_parity"]:
            fail(f"{name}: autotuned solve is not bitwise-equal to serial")
        cands = ab.get("candidates", [])
        if not cands:
            fail(f"{name}: empty candidate grid")
        names = [c["name"] for c in cands]
        if "serial" not in names:
            fail(f"{name}: grid is missing the serial anchor candidate")
        if ab["chosen"] not in names:
            fail(f"{name}: chosen '{ab['chosen']}' not in the measured grid")
        if ab["mode"] == "wallclock":
            auto_s, best_s = ab["auto_solve_s"], ab["best_fixed_s"]
            bound = best_s * (1.0 + slack) + epsilon_s
            if auto_s > bound:
                fail(
                    f"{name}: auto solve {auto_s:.3e}s regresses best fixed "
                    f"'{ab['best_fixed']}' {best_s:.3e}s beyond "
                    f"{slack:.0%} + {epsilon_s:.0e}s"
                )
            print(
                f"check_autotune: {name}: chose {ab['chosen']} "
                f"({auto_s:.3e}s vs best fixed {ab['best_fixed']} "
                f"{best_s:.3e}s, ratio {ab['ratio_vs_best_fixed']:.3f})"
            )
        else:
            if ab.get("ratio_vs_best_fixed", -1) != -1:
                fail(f"{name}: cost-model run reports a wall-clock ratio")
            print(
                f"check_autotune: {name}: deterministic decision "
                f"{ab['chosen']} (cost-model mode, timing gate skipped)"
            )
        checked += 1

    if checked == 0:
        fail("no autotune blocks found (nothing gated)")
    print(f"check_autotune: OK: {checked} autotune decisions gated")


if __name__ == "__main__":
    main()
