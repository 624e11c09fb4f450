#!/usr/bin/env python3
"""Lines of OCaml code per top-level directory.

    python3 tools/loc.py [--rev REV]

counts the non-blank, non-comment lines of every .ml and .mli file under
lib, bench, test, perfbench, bin and examples, one row per directory and
a total.  Comments nest, as OCaml's do; a comment marker inside a string
or character literal (in code or inside a comment, where OCaml lexes
literals too) is not one.  A line holding any code outside a comment
counts once.

Without --rev it counts the checkout as it stands: tracked files plus
untracked ones git does not ignore.  With --rev it also counts a
`git archive` export of REV and prints both columns and the change.
Run it from the repository root.  Stdlib only.
"""

import argparse
import bisect
import os
import re
import subprocess
import sys
import tempfile

DIRS = ["lib", "bench", "test", "perfbench", "bin", "examples"]

# A character literal: an escape or any one character but a quote.
CHAR = re.compile(
    r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2})|[^\\'\n])'"
)
# The opening of a quoted string literal: {|...|} or {id|...|id}.
QUOTED = re.compile(r"\{([a-z_]*)\|")


def spans(text):
    """Yield (start, end, kind) for the code of [text] outside comments:
    kind "literal" for a string or character literal, "code" for one
    other non-blank character.  Comments nest, as OCaml's do; a comment
    marker inside a literal (in code or inside a comment, where OCaml
    lexes literals too) is not one."""
    depth = 0  # comment nesting
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        j = None  # the end of a literal starting at i
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
        elif c == "{" and QUOTED.match(text, i):
            close = "|" + QUOTED.match(text, i).group(1) + "}"
            k = text.find(close, i + 1)
            j = n if k < 0 else k + len(close)
        elif c == "'" and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] in "_'")) \
                and CHAR.match(text, i):
            j = CHAR.match(text, i).end()
        if j is not None:
            if depth == 0:
                yield i, j, "literal"
            i = j
        else:
            if depth == 0 and not c.isspace():
                yield i, i + 1, "code"
            i += 1


def code_lines(text):
    """The number of lines holding code outside comments."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    lines = set()
    for start, end, _ in spans(text):
        first = bisect.bisect_right(starts, start) - 1
        lines.update(range(first, bisect.bisect_right(starts, end - 1)))
    return len(lines)


def count(root, files):
    """Code lines per directory of DIRS, over [files] relative to [root]."""
    per = {d: 0 for d in DIRS}
    for f in files:
        top = f.split("/", 1)[0]
        if top in per and f.endswith((".ml", ".mli")):
            with open(os.path.join(root, f), encoding="utf-8", errors="replace") as h:
                per[top] += code_lines(h.read())
    return per


def checkout_files():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout
    return [f for f in out.decode().split("\0") if f and os.path.isfile(f)]


def rev_counts(rev):
    with tempfile.TemporaryDirectory() as dest:
        archive = subprocess.run(
            ["git", "archive", rev], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        files = [
            os.path.relpath(os.path.join(d, f), dest)
            for d, _, fs in os.walk(dest)
            for f in fs
        ]
        return count(dest, files)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", help="also count this revision and print the change")
    args = ap.parse_args()
    if not os.path.isdir(".git"):
        sys.exit("loc: run from the repository root")
    now = count(".", checkout_files())
    rows = [(d, now[d]) for d in DIRS] + [("total", sum(now.values()))]
    if args.rev is None:
        for d, v in rows:
            print(f"{d:<10} {v:>8}")
        return
    old = rev_counts(args.rev)
    old_rows = dict([(d, old[d]) for d in DIRS] + [("total", sum(old.values()))])
    print(f"{'dir':<10} {args.rev[:12]:>12} {'checkout':>12} {'change':>8}")
    for d, v in rows:
        print(f"{d:<10} {old_rows[d]:>12} {v:>12} {v - old_rows[d]:>+8}")


if __name__ == "__main__":
    main()
