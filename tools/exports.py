#!/usr/bin/env python3
"""Exported values that nothing outside their own module calls.

    python3 tools/exports.py

lists every `val` (and `external`) of lib/**/*.mli that no .ml or .mli
file under lib, bench, test, perfbench, bin or examples names, other
than the module's own .ml and .mli: each is an export to delete, or to
keep for a stated reason.  A file names `M.v` when it writes `M.v` (or
`Sub.v` for a value of a submodule `M.Sub`, or `A.v` after
`module A = ...M`), or writes a bare `v` where it opens `M` (`open M`,
`let open M in`, `M.( ... )`).  Comments and literals are skipped, as
are the values of module types, which are implemented rather than
called.  The check is textual, so it is advisory: a value reached some
other way (a functor argument, an `include`) shows up here too.  It
prints one `file:line: Module.value` row per candidate and exits 0.
Run it from the repository root.  Stdlib only.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from loc import DIRS, checkout_files, spans  # noqa: E402

IDENT = r"[a-z_][A-Za-z0-9_']*"
VAL = re.compile(r"\b(?:val|external)\s+(" + IDENT + r"|\(\s*[^)\s]+\s*\))")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def code_of(text):
    """[text] with comments blanked and every literal reduced to `""`,
    newlines kept, so offsets still map to the same lines."""
    out = [c if c == "\n" else " " for c in text]
    for start, end, kind in spans(text):
        if kind == "code":
            out[start] = text[start]
        else:
            out[start:start + 2] = '""'
    return "".join(out)


def vals(code):
    """(path, name, offset) for each value of a .mli's code: path is the
    submodule chain below the file's module.  The values of module types
    and of anonymous signatures (functor parameters) are skipped."""
    found = []
    stack = []  # one entry per open sig/struct/object: a name, or None
    for m in re.finditer(r"\bmodule\s+type\s+\w+\s*=\s*sig\b|"
                         r"\bmodule\s+(\w+)\s*:\s*sig\b|"
                         r"\b(sig|struct|object|end)\b|" + VAL.pattern, code):
        if m.group(0).startswith("module"):
            stack.append(m.group(1))  # None for a module type
        elif m.group(2) == "end":
            if stack:
                stack.pop()
        elif m.group(2):
            stack.append(None)
        elif None not in stack:
            name = m.group(3)
            if name.startswith("("):
                name = name[1:-1].strip()
            found.append((list(stack), name, m.start()))
    return found


def uses(code, words, module, path, name):
    """Whether [code], whose identifiers are [words], names [name] of
    [module]'s submodule [path]."""
    ident = WORD.fullmatch(name)
    if ident and name not in words:
        return False
    owner = path[-1] if path else module
    aliases = {owner}
    for m in re.finditer(r"\bmodule\s+(\w+)\s*=\s*(?:[\w.]*\.)?" + owner + r"\b",
                         code):
        aliases.add(m.group(1))
    bare = r"\b" + name + r"\b" if ident else re.escape(name)
    for a in aliases:
        if a not in words:
            continue
        if re.search(r"\b" + a + r"\s*\.\s*" + bare, code):
            return True
        if re.search(r"\bopen!?\s+(?:[\w.]*\.)?" + a + r"\b|\b" + a + r"\.\(",
                     code) and re.search(bare, code):
            return True
    return False


def main():
    if not os.path.isdir(".git"):
        sys.exit("exports: run from the repository root")
    files = [f for f in checkout_files()
             if f.split("/", 1)[0] in DIRS and f.endswith((".ml", ".mli"))]
    code = {}
    for f in files:
        with open(f, encoding="utf-8", errors="replace") as h:
            text = code_of(h.read())
        code[f] = (text, set(WORD.findall(text)))
    rows = []
    for mli in sorted(f for f in files if f.startswith("lib/") and f.endswith(".mli")):
        own = (mli, mli[:-1])
        module = os.path.basename(mli)[:-4].capitalize()
        for path, name, offset in vals(code[mli][0]):
            if not any(uses(c, words, module, path, name)
                       for f, (c, words) in code.items() if f not in own):
                line = code[mli][0].count("\n", 0, offset) + 1
                rows.append(f"{mli}:{line}: {'.'.join([module] + path + [name])}")
    for r in rows:
        print(r)
    print(f"{len(rows)} exported value(s) with no caller outside their module",
          file=sys.stderr)


if __name__ == "__main__":
    main()
