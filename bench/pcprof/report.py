#!/usr/bin/env python3
"""Resolve and summarize the samples pcprof.cc wrote.

    python3 bench/pcprof/report.py [--lines] PREFIX

Reads PREFIX.pcs and PREFIX.maps, maps every PC to the object file it
falls in, turns it into that file's ELF address (program headers read
with struct) and resolves it with `addr2line -a -f -C -i`. -i lists the
inline chain innermost first; the last entry is the outermost function,
the one that was really called. Prints:

  * the top 25 outermost functions, by share of all samples;
  * the share of each src/<dir> of the repo, by the outermost frame's
    source file (so the event loop inlined into api::Workload::run
    counts for src/api). Samples outside src/ count under their object's
    file name;
  * with --lines, also the top 25 innermost functions and the top 25
    innermost source lines (file:line, repo files relative to the repo
    root, others by base name): where the sampled instruction itself
    sits, which names the load that stalls rather than the function it
    was inlined into.

Each addr2line record is found by the address that -a echoes in front
of it, never by counting lines, so a frame that does not resolve
("??") cannot shift the results after it. Exits 1 when there are no
samples.
"""

import argparse
import collections
import os
import re
import struct
import subprocess
import sys


def read_pcs(path):
    pcs = []
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                pcs.append(int(line, 16))
    return pcs


def read_maps(path):
    """Executable file-backed mappings: (start, end, offset, file)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    return maps


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) of a 64-bit little-endian ELF."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
            return None
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        ptype, _, offset, vaddr, _, filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if ptype == 1:
            segments.append((offset, vaddr, filesz))
    return segments


def to_elf_address(pc, mapping, segments):
    start, _, map_offset, _ = mapping
    file_offset = pc - start + map_offset
    for offset, vaddr, filesz in segments:
        if offset <= file_offset < offset + filesz:
            return file_offset - offset + vaddr
    return None


def addr2line(path, addresses):
    """{address: [(function, file, line), ...]} innermost first."""
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="".join(f"{a:#x}\n" for a in addresses),
        stdout=subprocess.PIPE, text=True, check=True)
    frames = {}
    expected = iter(addresses)
    upcoming = next(expected, None)
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if (upcoming is not None and re.fullmatch(r"0x[0-9a-f]+", lines[i])
                and int(lines[i], 16) == upcoming):
            current, upcoming = upcoming, next(expected, None)
            frames[current] = []
            i += 1
            continue
        source = lines[i + 1] if i + 1 < len(lines) else "??:0"
        path, _, line = source.split(" (discriminator")[0].rpartition(":")
        frames[current].append((lines[i], path, line))
        i += 2
    return frames


def source_key(source, obj):
    m = re.search(r"(?:^|/)src/([^/]+)/", source)
    if m:
        return "src/" + m.group(1)
    return os.path.basename(obj)


REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def line_key(path, line, obj):
    """file:line, repo files relative to the repo root."""
    if path == "??":
        return f"?? ({os.path.basename(obj)})"
    if path.startswith(REPO + os.sep):
        path = os.path.relpath(path, REPO)
    else:
        path = os.path.basename(path)
    return f"{path}:{line}"


def print_top(counter, total, title, n=25):
    print(f"\n# {title}")
    for key, count in counter.most_common(n):
        print(f"{100.0 * count / total:6.2f}%  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prefix")
    ap.add_argument("--lines", action="store_true",
                    help="also report innermost functions and source lines")
    args = ap.parse_args()

    pcs = read_pcs(args.prefix + ".pcs")
    maps = read_maps(args.prefix + ".maps")
    if not pcs:
        print("no samples", file=sys.stderr)
        return 1

    # PC -> (object, ELF address); unmapped or unreadable -> a label.
    located = {}
    per_object = collections.defaultdict(set)
    segments = {}
    for pc in set(pcs):
        mapping = next((m for m in maps if m[0] <= pc < m[1]), None)
        if mapping is None or not os.path.isfile(mapping[3]):
            located[pc] = (mapping[3] if mapping else "[unmapped]", None)
            continue
        obj = mapping[3]
        if obj not in segments:
            segments[obj] = load_segments(obj)
        addr = (to_elf_address(pc, mapping, segments[obj])
                if segments[obj] else None)
        located[pc] = (obj, addr)
        if addr is not None:
            per_object[obj].add(addr)

    resolved = {}
    for obj, addrs in per_object.items():
        for addr, frames in addr2line(obj, sorted(addrs)).items():
            resolved[(obj, addr)] = frames

    def label(name, obj):
        return f"?? ({os.path.basename(obj)})" if name == "??" else name

    outer = collections.Counter()
    outer_dir = collections.Counter()
    inner = collections.Counter()
    inner_line = collections.Counter()
    for pc in pcs:
        obj, addr = located[pc]
        frames = resolved.get((obj, addr)) or [("??", "??", "0")]
        outer[label(frames[-1][0], obj)] += 1
        outer_dir[source_key(frames[-1][1], obj)] += 1
        inner[label(frames[0][0], obj)] += 1
        inner_line[line_key(frames[0][1], frames[0][2], obj)] += 1

    total = len(pcs)
    print(f"# {total} samples; share of all samples, outermost function "
          f"(inlined callees counted in their caller)")
    for name, n in outer.most_common(25):
        print(f"{100.0 * n / total:6.2f}%  {name}")
    print_top(outer_dir, total, "share by source dir of the outermost "
              "function", n=None)
    if args.lines:
        print_top(inner, total, "share by innermost function")
        print_top(inner_line, total, "share by innermost source line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
