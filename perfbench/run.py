#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(release profile, into _build/), runs it, and prints its report.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics BENCHMARK.json lists for
--trace 0, the per-layer ones for --trace 1.  The per-layer metrics
a workload does not exercise (NOT_EXERCISED) are reported as 0 and
named on a line before the result.  Traced runs write their spans to
.bench_out/.
Exits non-zero, printing no result, if the build, the run or the
metric check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SPANS_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload does not exercise.  They are
# reported as 0; any other per-layer metric a traced run leaves out, or
# one of these it does report, fails the run.
RESTART_ONLY = [
    "tc.redo_self_ms", "tc.resent_per_restart", "dc.recover_ms",
    "dc.redo_request_ms", "dc.dups_absorbed_per_restart",
    "dc.applied_per_restart", "cache.misses_per_restart",
    "disk.page_reads_per_restart",
]
MIX_ONLY = [
    "tc.read_us", "tc.write_us", "tc.scan_us", "tc.commit_us",
    "tc.blocked_per_txn", "tc.deadlocks_per_ktxn",
]
FRONT_ONLY = [
    "front.submit_us", "front.pump_us_per_txn", "front.batched_frac",
    "front.pending_p99", "repl.ships_per_txn", "repl.ship_bytes_per_txn",
    "repl.lag_p99_lsn", "layer.ingest_ops_per_txn", "layer.compactions_per_ktxn",
]
# front_ingest's transports belong to Deploy, so its run has no kernel spans
KERNEL_SPANS = [
    "tc.self_us_per_txn", "transport.self_us_per_txn", "dc.request_us",
    "dc.request_us_per_txn", "dc.control_us", "dc.control_us_per_txn",
    "wire.decode_ns", "wire.encode_ns",
]
NOT_EXERCISED = {
    "oltp_mix": RESTART_ONLY + FRONT_ONLY,
    "dc_restart": MIX_ONLY + FRONT_ONLY,
    "front_ingest": RESTART_ONLY + MIX_ONLY + KERNEL_SPANS,
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run(cmd, timeout):
    """Run cmd to completion, capturing its output; kill it and wait if
    it overruns."""
    # dune's shared cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s overran %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    code, out = run(
        dune_command()
        + ["build", "--root", ".", "--profile", "release", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
    )
    if code != 0:
        sys.stderr.write(out or "")
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-dir", SPANS_DIR]
    code, out = run(cmd, RUN_TIMEOUT_S)
    lines = (out or "").rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out or "")
        fail("benchmark exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("benchmark printed no result")
    print("\n".join(lines[:-1]))

    got = result["metrics"]
    idle = NOT_EXERCISED[args.workload] if args.trace else []
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in idle:
            if name in got:
                fail("%s reports %s, listed as not exercised" % (args.workload, name))
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        elif name not in got:
            fail("%s reports no metric %s" % (args.workload, name))
        elif got[name]["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" % (name, got[name]["unit"], m["unit"]))
        else:
            metrics[name] = got[name]
    if idle:
        print("not exercised by %s (reported as 0): %s" % (args.workload, " ".join(idle)))
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
