#!/usr/bin/env python3
"""Fold a hostprof.so dump into shares by function and by source line.

    fold.py <binary> <hostprof.out> [top N, default 25]

A sample inside <binary> is charged to the function that was called —
the ELF symbol enclosing it (`nm -C -n`), so a function is one row
whatever was inlined into it and however DWARF spells its name — and to
a source line: the innermost inline frame outside the standard library
(`addr2line -a -f -C -i`). Shares are of the samples inside the binary;
samples elsewhere (libc, vdso, kernel entry) are counted, by mapping, in
the header line only, with the samples the sampler had no room for.
"""
import bisect
import collections
import os
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    binary, dump = os.path.realpath(sys.argv[1]), sys.argv[2]
    top = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    with open(dump) as f:
        maps, _, rest = f.read().partition("--samples--\n")
    # Load bias of a PIE: its lowest mapping (file offset 0, vaddr 0).
    mapped = []
    for line in maps.splitlines():
        cols = line.split()
        lo, hi = (int(x, 16) for x in cols[0].split("-"))
        mapped.append((lo, hi, os.path.realpath(cols[5]) if len(cols) > 5 else "[anon]"))
    base = min((lo for lo, _, path in mapped if path == binary), default=None)
    if base is None:
        sys.exit(f"{binary} is not mapped in {dump}")
    rest, _, dropped = rest.partition("--dropped--\n")
    ips = [int(x, 16) for x in rest.split()]
    where = collections.Counter()
    inside = collections.Counter()
    for ip in ips:
        path = next((p for lo, hi, p in mapped if lo <= ip < hi), "[unmapped]")
        where[path] += 1
        if path == binary:
            inside[ip - base] += 1
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="\n".join(hex(a) for a in inside),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    # Text symbols by start address; a sample belongs to the last one at
    # or below it.
    symbols = []
    for line in subprocess.run(
        ["nm", "-C", "-n", "--defined-only", binary], capture_output=True, text=True, check=True
    ).stdout.splitlines():
        addr, kind, name = line.split(" ", 2)
        if kind in "tTwW":
            symbols.append((int(addr, 16), name))
    starts = [a for a, _ in symbols]
    by_func, by_line = collections.Counter(), collections.Counter()
    for addr, n in inside.items():
        at = bisect.bisect_right(starts, addr) - 1
        by_func[symbols[at][1] if at >= 0 else "[no symbol]"] += n
    # Per address: "0x<addr>", then (function, file:line) pairs, innermost first.
    i = 0
    while i < len(out):
        addr = int(out[i], 16)
        i += 1
        frames = []
        while i + 1 < len(out) and not out[i].startswith("0x"):
            frames.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
        own = next((f for f in frames if not f[1].startswith("/rustc/")), frames[0])
        by_line[own[1]] += inside[addr]
    total = sum(inside.values())
    print(
        f"{len(ips)} samples: "
        + ", ".join(f"{n} {os.path.basename(p)}" for p, n in where.most_common())
        + f"; {int(dropped or 0)} dropped by the sampler"
    )
    for title, table in (("function (ELF symbol)", by_func), ("source line", by_line)):
        print(f"\n  share  samples  {title}")
        for name, n in table.most_common(top):
            print(f"{100 * n / total:6.1f}% {n:8}  {name}")


if __name__ == "__main__":
    main()
