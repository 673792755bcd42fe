#!/usr/bin/env python3
"""Turns a hostprof sample file into a per-function or per-line report.

Usage:

    tools/hostprof/symbolize.py PROFILE [--top N]
    tools/hostprof/symbolize.py PROFILE --lines SUBSTRING [--top N]

The first form prints each function's share of the samples, most-sampled first. The
second takes the functions whose demangled name contains SUBSTRING and prints their
samples per source line (addr2line), which needs a binary built with -g. Symbols come from
`nm` (the full table, or the dynamic one for stripped libraries), so a PC in a library's
local function is charged to the nearest preceding exported symbol, marked with a leading
"~": glibc's local memmove, for one, shows up as ~__nss_database_lookup.
"""
import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_profile(path):
    """Returns (header, mappings, pcs): mappings is [(start, end, offset, path)]."""
    with open(path) as f:
        header = f.readline().split()
        if f.readline().strip() != "maps":
            sys.exit("%s: not a hostprof profile" % path)
        mappings = []
        for line in f:
            line = line.rstrip("\n")
            if line == "pcs":
                break
            fields = line.split(None, 5)
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue  # anonymous, heap, stack, vdso
            start, end = (int(x, 16) for x in fields[0].split("-"))
            mappings.append((start, end, int(fields[2], 16), fields[5]))
        pcs = [int(line, 16) for line in f if line.strip()]
    return header, sorted(mappings), pcs


def load_segments(path):
    """ELF type and PT_LOAD (offset, vaddr, filesz) triples of a 64-bit ELF file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if len(ident) < 64 or ident[:4] != b"\x7fELF" or ident[4] != 2:
            return None, []
        endian = "<" if ident[5] == 1 else ">"
        e_type = struct.unpack_from(endian + "H", ident, 16)[0]
        phoff = struct.unpack_from(endian + "Q", ident, 32)[0]
        phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
        segments = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                endian + "IIQQQQ", f.read(40))
            if p_type == 1:  # PT_LOAD
                segments.append((p_offset, p_vaddr, p_filesz))
    return e_type, segments


def file_address(pc, mapping, elf):
    """The link-time address of `pc` inside `mapping`'s file."""
    start, _, offset, _ = mapping
    e_type, segments = elf
    if e_type == 2:  # ET_EXEC: loaded at its link addresses
        return pc
    file_offset = pc - start + offset
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= file_offset < p_offset + p_filesz:
            return file_offset - p_offset + p_vaddr
    return file_offset


def load_symbols(path):
    """Sorted (address, size, name) of the file's functions, demangled."""
    for extra in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", "-n"] + extra + [path],
                             capture_output=True, text=True).stdout
        symbols = []
        for line in out.splitlines():
            fields = line.split(None, 3)
            if len(fields) == 4 and fields[2] in "tTwWiI":
                symbols.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
            elif len(fields) == 3 and fields[1] in "tTwWiI":
                symbols.append((int(fields[0], 16), 0, fields[2]))
        if symbols:
            return sorted(symbols)
    return []


class Resolver:
    def __init__(self, mappings):
        self.mappings = mappings
        self.starts = [m[0] for m in mappings]
        self.elf = {}
        self.symbols = {}

    def locate(self, pc):
        """(path, file address) of `pc`, or (None, pc) outside every file mapping."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.mappings[i][1]:
            return None, pc
        mapping = self.mappings[i]
        path = mapping[3]
        if path not in self.elf:
            self.elf[path] = load_segments(path) if os.path.exists(path) else (None, [])
        return path, file_address(pc, mapping, self.elf[path])

    def function(self, path, address):
        if path not in self.symbols:
            self.symbols[path] = load_symbols(path) if os.path.exists(path) else []
        symbols = self.symbols[path]
        i = bisect.bisect_right(symbols, (address, float("inf"), "")) - 1
        if i < 0:
            return "?"
        start, size, name = symbols[i]
        if size and address >= start + size:
            return "~" + name  # past the symbol's end: a local function after it
        return name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--lines", metavar="SUBSTRING",
                        help="per-line report for functions whose name contains this")
    args = parser.parse_args()

    header, mappings, pcs = read_profile(args.profile)
    if not pcs:
        sys.exit("%s: no samples" % args.profile)
    resolver = Resolver(mappings)
    by_function = collections.Counter()
    line_addresses = collections.defaultdict(collections.Counter)  # path -> address -> n
    for pc, n in collections.Counter(pcs).items():
        path, address = resolver.locate(pc)
        if path is None:
            by_function["[unmapped]"] += n
            continue
        name = resolver.function(path, address)
        by_function["%s  [%s]" % (name, os.path.basename(path))] += n
        if args.lines and args.lines in name:
            line_addresses[path][address] += n

    total = len(pcs)
    print("# %s: %d samples (%s)" % (args.profile, total, " ".join(header[1:])))
    if not args.lines:
        for name, n in by_function.most_common(args.top):
            print("%6.2f%% %7d  %s" % (100.0 * n / total, n, name))
        return 0

    by_line = collections.Counter()
    for path, counts in line_addresses.items():
        addresses = sorted(counts)
        out = subprocess.run(["addr2line", "-e", path] + ["%x" % a for a in addresses],
                             capture_output=True, text=True).stdout.splitlines()
        for address, where in zip(addresses, out):
            by_line[where] += counts[address]
    selected = sum(by_line.values())
    print("# functions matching %r: %d samples, %.2f%% of all" %
          (args.lines, selected, 100.0 * selected / total))
    for where, n in by_line.most_common(args.top):
        print("%6.2f%% %7d  %s" % (100.0 * n / total, n, where))
    return 0


if __name__ == "__main__":
    sys.exit(main())
