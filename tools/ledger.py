#!/usr/bin/env python3
"""The benchmark ledger: perfbench results kept per commit, and A/B pairs.

Record (run from the repository root):

    python3 tools/ledger.py [--rev REV] [--workload W ...] [--seed N] [--seconds S]

runs perfbench/run.py once untraced and once traced for each workload
(default: every workload BENCHMARK.json lists) and adds one entry to
BENCH_<workload>.json at the root: every metric with its unit, the
seed, the run length, the git rev, run.slowness and the operation
counts.  An entry for the same rev, seed and run length is replaced.
Without --rev it measures the checkout at HEAD, and refuses when
tracked files differ from HEAD: an entry must name a commit that
--compare can find, so commit first, or record an export with --rev.

Compare:

    python3 tools/ledger.py --compare REV [--pairs N] [--trace 0|1]
        [--workload W ...] [--seed N] [--seconds S] [--scratch DIR]

exports REV (the parent) and the checkout's tracked files (the change)
into two directories under DIR (default: a fresh temporary directory),
then runs N pairs per workload, alternating which side runs first.  For
every metric of the trace mode (end-to-end for 0, per-layer for 1) it
prints both sides' medians and quartiles, the median change, the
change's wins (ties count for neither), the parent's interquartile
range, and, for the metrics BENCHMARK.json bounds, the verdict: "ok"
within the bound, "WORSE" beyond it, "unresolved" when the parent's
own spread exceeds the bound and the change does not beat every parent
run.  A metric is marked "gain" when the change wins at least nine
pairs in ten and its median beats the parent's by more than the
parent's interquartile range.  Every run's bounded metrics are printed
as it finishes, and the raw results go to DIR/compare_<workload>.json.

Both sides are exports rather than git worktrees, so an interrupted
comparison leaves nothing registered in the repository.  Each side
builds its own release binary on its first run (run.py does); setup
is not timed by the metrics.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 1200


def fail(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args, cwd="."):
    out = subprocess.run(
        ["git"] + list(args), cwd=cwd, check=True, capture_output=True
    ).stdout
    return out.decode()


def export_rev(rev, dest):
    os.makedirs(dest)  # fails if [dest] exists: never mix two trees
    archive = subprocess.run(
        ["git", "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_checkout(dest):
    """Copy the checkout's tracked files, uncommitted edits included."""
    os.makedirs(dest)
    files = subprocess.run(
        ["git", "ls-files", "-z"], check=True, capture_output=True
    ).stdout
    tar = subprocess.run(
        ["tar", "--null", "-T", "-", "-c"],
        input=files,
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def checkout_rev():
    rev = git("rev-parse", "HEAD").strip()
    if git("status", "--porcelain", "--untracked-files=no").strip():
        rev += "+dirty"
    return rev


def perfbench(tree, workload, seed, seconds, trace):
    """One run.py run in [tree]; its result object (the last line)."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s failed in %s (exit %d)" % (" ".join(cmd), tree, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json (run from the repository root): %s" % e)


# ---------------------------------------------------------------- record


def record(args, bench):
    if args.rev:
        rev = git("rev-parse", args.rev).strip()
        tree = os.path.join(tempfile.mkdtemp(prefix="ledger-"), "tree")
        export_rev(rev, tree)
    else:
        rev, tree = checkout_rev(), "."
        if rev.endswith("+dirty"):
            fail("the checkout has uncommitted changes, and an entry must "
                 "name a commit: commit them, then record it with --rev REV")
    for w in args.workload:
        untraced = perfbench(tree, w, args.seed, args.seconds, 0)
        traced = perfbench(tree, w, args.seed, args.seconds, 1)
        entry = {
            "rev": rev,
            "recorded": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seed": args.seed,
            "seconds": args.seconds,
            "run.slowness": traced["metrics"]["run.slowness"]["value"],
            "untraced": {k: untraced[k] for k in ("correct", "attempted", "failed")},
            "traced": {k: traced[k] for k in ("correct", "attempted", "failed")},
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        path = "BENCH_%s.json" % w
        ledger = {"workload": w, "entries": []}
        if os.path.exists(path):
            with open(path) as f:
                ledger = json.load(f)
        key = (rev, args.seed, args.seconds)
        ledger["entries"] = [
            e for e in ledger["entries"]
            if (e["rev"], e["seed"], e["seconds"]) != key
        ] + [entry]
        with open(path, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
        print("%s: entry for %s (slowness %.2f)"
              % (path, rev, entry["run.slowness"]))


# --------------------------------------------------------------- compare


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def rel(a, base):
    return (a - base) / base if base else (0.0 if a == base else float("inf"))


def verdict(parent, change, higher_better, bound):
    """Per-metric summary of N pairs (index i of each list is pair i)."""
    better = (lambda c, p: c > p) if higher_better else (lambda c, p: c < p)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    change_rel = rel(mc, mp)
    worse = -change_rel if higher_better else change_rel
    beats_all = all(better(c, p) for c in change for p in parent)
    if bound is None:
        mark = ""
    elif mp and iqr / abs(mp) > bound and not beats_all:
        mark = "unresolved"
    elif worse > bound:
        mark = "WORSE"
    else:
        mark = "ok"
    gain = (wins >= 0.9 * len(parent) and better(mc, mp) and abs(mc - mp) > iqr)
    return {
        "parent_median": mp, "parent_q": (q1, q3),
        "change_median": mc, "change_q": quartiles(change),
        "change_rel": change_rel, "wins": wins,
        "parent_iqr_rel": iqr / abs(mp) if mp else 0.0,
        "verdict": mark, "gain": gain,
    }


def compare(args, bench):
    scratch = args.scratch or tempfile.mkdtemp(prefix="ledger-")
    base_rev = git("rev-parse", args.compare).strip()
    head_rev = checkout_rev()
    trees = {
        "parent": os.path.join(scratch, "parent"),
        "change": os.path.join(scratch, "change"),
    }
    export_rev(base_rev, trees["parent"])
    export_checkout(trees["change"])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = bench[kind]
    bounded = [m["name"] for m in metrics if "bound" in m]
    print("parent %s, change %s; %d pairs of %d s, seed %d, trace %d; trees in %s"
          % (base_rev[:12], head_rev[:12] + head_rev[40:], args.pairs,
             args.seconds, args.seed, args.trace, scratch))
    for w in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = perfbench(trees[side], w, args.seed, args.seconds, args.trace)
                runs[side].append(r)
                print("%s pair %d %s: %s failed %d/%d" % (
                    w, i + 1, side,
                    " ".join("%s=%.6g" % (n, r["metrics"][n]["value"]) for n in bounded),
                    r["failed"], r["attempted"]), flush=True)
        with open(os.path.join(scratch, "compare_%s.json" % w), "w") as f:
            json.dump({"parent": base_rev, "change": head_rev, "runs": runs}, f)
        print("\n%s: medians [quartiles] over %d pairs; change = change vs parent median"
              % (w, args.pairs))
        rows = [("metric", "unit", "parent [q1, q3]", "change [q1, q3]",
                 "change", "wins", "parent IQR", "bound", "verdict")]
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            v = verdict(p, c, m["better"] == "higher", m.get("bound"))
            rows.append((
                name, m["unit"],
                "%.5g [%.4g, %.4g]" % ((v["parent_median"],) + v["parent_q"]),
                "%.5g [%.4g, %.4g]" % ((v["change_median"],) + v["change_q"]),
                "%+.1f%%" % (100 * v["change_rel"]),
                "%d/%d" % (v["wins"], args.pairs),
                "%.1f%%" % (100 * v["parent_iqr_rel"]),
                "%.0f%%" % (100 * m["bound"]) if "bound" in m else "",
                v["verdict"] + (" gain" if v["gain"] else "")))
        widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
        for r in rows:
            print("  ".join(cell.ljust(wd) for cell, wd in zip(r, widths)).rstrip())
        share = {
            side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
            for side, rs in runs.items()
        }
        print("failed share: parent %.6f, change %.6f%s\n" % (
            share["parent"], share["change"],
            "  MORE FAILURES" if share["change"] > share["parent"] else ""))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rev", help="record an export of REV, not the checkout")
    ap.add_argument("--compare", metavar="REV", help="compare the checkout against REV")
    ap.add_argument("--workload", action="append",
                    help="a workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", help="directory for the compared trees")
    args = ap.parse_args()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    args.workload = args.workload or names
    for w in args.workload:
        if w not in names:
            fail("unknown workload " + w)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.compare:
        if args.rev:
            fail("--rev and --compare do not combine")
        compare(args, bench)
    else:
        record(args, bench)


if __name__ == "__main__":
    main()
