#!/usr/bin/env python3
"""Resolves an allocation census (see shim.c) into its top allocation sites.

    resolve.py --pass PASS_JSON --census CENSUS_TXT [--top N] [--tolerance F]

PASS_JSON is the jets_perfbench pass's stdout (its last line is the pass
JSON); CENSUS_TXT is the stderr the shim wrote. Each recorded stack is
walked from the allocation outwards, past the allocator itself (the shim,
operator new, the perfbench counter) and the standard library's inlined
internals, to the first frame of the program's own code: that frame is the
site the allocation is charged to. Prints the sites with their allocations
per job, largest first.

Exits 1 if the census's operator-new allocations differ from the pass's own
`allocs` by more than the tolerance (default 0.001, i.e. 0.1 %).
"""

import argparse
import collections
import json
import re
import subprocess
import sys

# Frames that belong to the allocator, not to the code that allocated.
ALLOCATOR = ("malloc", "calloc", "realloc", "memalign", "aligned_alloc",
             "posix_memalign", "record", "operator new",
             "perfbench::(anonymous namespace)::counted_alloc",
             "perfbench::(anonymous namespace)::counted_aligned_alloc")
LIBRARY = ("std::", "__gnu_cxx::", "void std::", "__cxx", "_Unwind", "__libc")


def function_name(func):
    """The qualified name without return type, parameters or clone tag."""
    func = func.split(" [clone ")[0]
    # Template functions demangle with their return type in front.
    for ret in ("void ", "bool "):
        if func.startswith(ret):
            func = func[len(ret):]
    if func.endswith(" const"):
        func = func[:-len(" const")]
    if func.endswith(")"):
        depth = 0
        for i in range(len(func) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(func[i], 0)
            if depth == 0:
                return func[:i]
    return func


def short_name(func):
    """function_name() with every parameter list emptied, for printing."""
    name = function_name(func).replace("(anonymous namespace)", "{anon}")
    while True:
        shorter = re.sub(r"\([^()]*\)", "", name)
        if shorter == name:
            break
        name = shorter
    return re.sub(r"_Z\w+\.Frame\*", "", name).replace("::operator", "")[:90]


def is_special_member(func):
    """A constructor or assignment: charge its allocation to the caller."""
    parts = function_name(func).split("::")
    return (len(parts) >= 2 and parts[-1].split("<")[0] == parts[-2].split("<")[0]) \
        or parts[-1].startswith("operator=")


def is_allocator(func):
    return function_name(func).startswith(ALLOCATOR)


def is_library(func, loc):
    return function_name(func).startswith(LIBRARY) or "/include/c++/" in loc


def parse_census(path):
    stacks, total = [], None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "census":
                frames = []
                for token in parts[2:]:
                    module, _, offset = token.rpartition("+0x")
                    frames.append((module, int(offset, 16)))
                stacks.append((int(parts[1]), frames))
            elif parts[0] == "census-total":
                total = (int(parts[1]), int(parts[2]))
    if total is None:
        raise SystemExit("census: no census-total line (did the pass exit cleanly?)")
    return stacks, total


def resolve(stacks):
    """{(module, offset): [(function, file:line), ...]} innermost first."""
    by_module = collections.defaultdict(set)
    for _, frames in stacks:
        for module, offset in frames:
            if module != "?":
                by_module[module].add(offset)
    names = {}
    for module, offsets in by_module.items():
        ordered = sorted(offsets)
        # Return addresses: the call instruction is the byte before.
        query = "\n".join(hex(max(o - 1, 0)) for o in ordered)
        out = subprocess.run(["addr2line", "-a", "-C", "-f", "-i", "-e", module],
                             input=query, capture_output=True, text=True).stdout
        chains, current = [], None
        lines = out.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                current = []
                chains.append(current)
                i += 1
                continue
            func = lines[i]
            loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
            current.append((func, loc))
            i += 2
        for offset, chain in zip(ordered, chains):
            names[(module, offset)] = chain
    return names


def site_of(frames, names):
    """The allocating site of a stack and whether it went through operator
    new (what the pass's own counter sees)."""
    through_new = False
    for frame in frames:
        for func, loc in names.get(frame, [("??", "??:0")]):
            if is_allocator(func):
                through_new |= function_name(func).startswith("operator new")
                continue
            if is_library(func, loc) or is_special_member(func) or func == "??":
                continue
            short = loc.split(" ")[0]
            for root in ("/src/", "/perfbench/"):
                if root in short:
                    short = short[short.find(root) + 1:]
                    break
            return f"{short_name(func)} ({short})", through_new
    return "(unresolved)", through_new


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pass", dest="pass_json", required=True)
    ap.add_argument("--census", required=True)
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--tolerance", type=float, default=0.001)
    args = ap.parse_args()

    with open(args.pass_json) as f:
        p = json.loads(f.read().strip().splitlines()[-1])
    stacks, (total, dropped) = parse_census(args.census)
    names = resolve(stacks)
    jobs = p["jobs"]

    sites = collections.Counter()
    via_new = 0
    for count, frames in stacks:
        site, through_new = site_of(frames, names)
        sites[site] += count
        if through_new:
            via_new += count

    print(f"census: {total} allocations ({via_new} through operator new, "
          f"{dropped} not tabled); pass allocs {int(p['allocs'])}, "
          f"jobs {int(jobs)}")
    print(f"{'per job':>9}  site")
    for site, count in sites.most_common(args.top):
        print(f"{count / jobs:9.2f}  {site}")
    rest = sum(sites.values()) - sum(c for _, c in sites.most_common(args.top))
    print(f"{rest / jobs:9.2f}  (other sites)")

    drift = abs(via_new - p["allocs"]) / max(p["allocs"], 1)
    if drift > args.tolerance or dropped:
        print(f"census: FAILED: census and pass disagree by {drift:.4%} "
              f"(tolerance {args.tolerance:.1%}), {dropped} stacks not tabled",
              file=sys.stderr)
        return 1
    print(f"census: OK (census and pass agree to {drift:.4%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
