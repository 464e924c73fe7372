#!/usr/bin/env python3
"""A ptrace stack sampler for the simulation thread of benchmark children.

    scripts/hotspots.py <benchmark-bin> <workload> <runs> [top] [--lines]

Starts `runs` children (`<benchmark-bin> --child <workload> --seed <i>`,
SHMCAFFE_THREADS=1, seeds 1..runs) one after another. Every ~0.5 ms it stops
each thread of the child whose name starts with `simnet-run` (the thread a
`Simulation::run` takes; the idle pool worker and the main thread are left
out), reads its registers, walks its frame-pointer chain and lets it go.
It then prints, per function, the self share (samples whose innermost
frame is that function) and the inclusive share (samples with that
function anywhere on the stack), highest inclusive first.

A sample whose innermost frame is in libc also counts, self and inclusive,
in a row `[libc] <- caller`, named after the return address in the word
at the stack pointer, or `[libc] <- ?` when that word is not code. These
rows split libc's self share by direct caller. The word is the return
address only inside a leaf routine that has pushed nothing (memcpy,
memset); inside malloc or free it is mostly a saved register or a local,
so their samples land in `?` or name libc itself.

With `--lines` it prints source lines instead of functions. Each sampled
address in the benchmark binary is mapped through `addr2line -i`, which
lists the inline chain at that address, innermost first. A line's `self`
share counts the samples whose innermost line it is. A sample whose
innermost line is library code (std, core, alloc, `vendor/`, libc) also
counts, as `+lib`, for the first workspace line of its inline chain,
then of its callers' chains (for a libc sample the direct caller is read
from the word at the stack pointer, as above). So an inlined
`Mutex::lock` lands on the line that locks, not on `futex.rs` or on the
caller's function as a whole. A second table splits the `+lib` samples
by what the library code was: `lock` when any library frame of the chain
is a mutex (std's `futex.rs` or `mutex.rs`, or the `parking_lot`
stand-in), else the innermost library file.

The chain is only whole in a build with `-C force-frame-pointers=yes`
(scripts/hotspots.sh makes one, with line tables for `--lines`). A frame
in code built without frame pointers (libc, the prebuilt std) ends the
walk early, so inclusive shares are lower bounds. Needs only the python3
standard library, Linux x86-64 ptrace, `nm` and, for `--lines`,
`addr2line`.
"""

import bisect
import collections
import ctypes
import os
import re
import struct
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
WALL = 0x40000000
# user_regs_struct: r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi
# rdi orig_rax rip cs eflags rsp ss fs_base gs_base ds es fs gs.
REG_RBP, REG_RIP, REG_RSP = 4, 16, 19
MAX_DEPTH = 256
# Frames kept per sample for `--lines`: enough to climb out of a non-inlined
# library routine (a contended lock, an allocation) to its workspace caller.
LINE_DEPTH = 8
USER_TOP = 1 << 47
INTERVAL_S = 0.0005

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, tid, addr=0, data=0):
    return libc.ptrace(request, tid, ctypes.c_void_p(addr), ctypes.c_void_p(data)) != -1


class Symbols:
    """Function symbols of one ELF file, by address relative to its load base.

    Only a full symbol table is used: the nearest exported symbol of a
    stripped library (libc) would name the wrong function, so its frames
    are named after the library instead.
    """

    cache = {}

    @classmethod
    def of(cls, path):
        if path not in cls.cache:
            cls.cache[path] = cls(path)
        return cls.cache[path]

    def __init__(self, path):
        out = subprocess.run(["nm", "-C", "--defined-only", path],
                             capture_output=True, text=True).stdout
        table = {}
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                table[int(parts[0], 16)] = re.sub(r"::h[0-9a-f]{16}$", "", parts[2])
        self.addrs = sorted(table)
        self.names = [table[a] for a in self.addrs]

    def name(self, offset):
        i = bisect.bisect_right(self.addrs, offset) - 1
        return self.names[i] if i >= 0 else None


class Maps:
    """The executable mappings of a process, symbolised per file."""

    def __init__(self, pid):
        self.ranges, self.bases = [], {}
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                f = line.split()
                if len(f) < 6 or not f[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in f[0].split("-"))
                if int(f[2], 16) == 0:
                    self.bases.setdefault(f[5], start)
                if "x" in f[1]:
                    self.ranges.append((start, end, f[5]))
        self.ranges.sort()
        self.starts = [r[0] for r in self.ranges]

    def path(self, addr):
        """The file mapped executable at `addr`, or None."""
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.ranges[i][1]:
            return None
        return self.ranges[i][2]

    def name(self, addr):
        path = self.path(addr)
        if path is None:
            return "[anonymous]"
        name = Symbols.of(path).name(addr - self.bases.get(path, 0))
        return name or f"[{os.path.basename(path)}]"

    def offset(self, exe, addr):
        """`addr` relative to the load base of `exe`, or None when it is
        not in `exe`'s code."""
        return addr - self.bases[exe] if self.path(addr) == exe else None


def sim_threads(pid):
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    out = []
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/comm") as comm:
                if comm.read().startswith("simnet-run"):
                    out.append(int(tid))
        except OSError:
            pass
    return out


def is_libc(path):
    return path is not None and os.path.basename(path).startswith(("libc.so", "libc-"))


def sample(tid, mem):
    """Stops `tid`, returns its stack as return addresses (innermost first)
    and the word at its stack pointer (None if unreadable)."""
    if not ptrace(PTRACE_SEIZE, tid):
        return None
    try:
        if not ptrace(PTRACE_INTERRUPT, tid):
            return None
        try:
            os.waitpid(tid, WALL)
        except ChildProcessError:
            return None
        regs = (ctypes.c_ulonglong * 27)()
        if not ptrace(PTRACE_GETREGS, tid, 0, ctypes.addressof(regs)):
            return None
        stack = [regs[REG_RIP]]
        fp, sp = regs[REG_RBP], regs[REG_RSP]
        try:
            top = struct.unpack("<Q", os.pread(mem, 8, sp))[0]
        except (OSError, struct.error):
            top = None
        # Code without frame pointers may leave anything in rbp: stop at a
        # pointer that is not into the user half of the address space.
        while len(stack) < MAX_DEPTH and sp <= fp < USER_TOP and fp % 8 == 0:
            try:
                saved_fp, ret = struct.unpack("<QQ", os.pread(mem, 16, fp))
            except OSError:
                break
            if ret == 0:
                break
            stack.append(ret - 1)
            if saved_fp <= fp:
                break
            sp, fp = fp, saved_fp
        return stack, top
    finally:
        ptrace(PTRACE_DETACH, tid)


def run_child(exe, workload, seed, self_counts, incl_counts, line_keys):
    """Samples one child. With `line_keys` (a Counter) it also counts each
    sample's stack as offsets into the benchmark binary (None for a frame
    elsewhere), innermost first, for `--lines`."""
    env = dict(os.environ, SHMCAFFE_THREADS="1")
    child = subprocess.Popen([exe, "--child", workload, "--seed", str(seed)], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    maps, mem, samples = None, None, 0
    try:
        while child.poll() is None:
            time.sleep(INTERVAL_S)
            threads = sim_threads(child.pid)
            if threads and maps is None:
                # The first simulation runs after the libraries are loaded.
                maps = Maps(child.pid)
                mem = os.open(f"/proc/{child.pid}/mem", os.O_RDONLY)
            for tid in threads:
                got = sample(tid, mem)
                if not got:
                    continue
                stack, top = got
                samples += 1
                names = [maps.name(addr) for addr in stack]
                code = top is not None and maps.path(top) is not None
                if is_libc(maps.path(stack[0])):
                    names.append(f"[libc] <- {maps.name(top - 1) if code else '?'}")
                    self_counts[names[-1]] += 1
                self_counts[names[0]] += 1
                for name in set(names):
                    incl_counts[name] += 1
                if line_keys is not None:
                    if is_libc(maps.path(stack[0])) and code:
                        stack = [stack[0], top - 1] + stack[1:]
                    line_keys[tuple(maps.offset(exe, addr) for addr in stack[:LINE_DEPTH])] += 1
    finally:
        if mem is not None:
            os.close(mem)
        child.wait()
    return samples


class Lines:
    """Inline chains of code addresses in the benchmark binary, by
    `addr2line -i`, as `(label, is_workspace)` pairs, innermost first."""

    def __init__(self, exe, offsets):
        root = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
        query = "".join(f"{off:x}\n" for off in offsets)
        out = subprocess.run(["addr2line", "-e", exe, "-i", "-a"], input=query,
                             capture_output=True, text=True, check=True).stdout
        self.chains, chain = {}, None
        for line in out.splitlines():
            if line.startswith("0x"):
                chain = self.chains.setdefault(int(line, 16), [])
            elif chain is not None:
                chain.append(self.place(root, line.split(" (discriminator")[0]))

    @staticmethod
    def place(root, where):
        path, _, line = where.rpartition(":")
        path = os.path.normpath(path)
        if path.startswith(root + os.sep):
            rel = os.path.relpath(path, root)
            return f"{rel}:{line}", "/vendor/" not in f"/{rel}"
        lib = path.partition("/library/")[2]
        return (f"{lib}:{line}" if lib else where), False


def is_lock(label):
    return label.startswith("std/src/sys/sync/mutex/") or "/mutex.rs:" in label \
        or "vendor/parking_lot/" in label


def print_lines(exe, line_keys, total, top):
    offsets = {off for key in line_keys for off in key if off is not None}
    lines = Lines(exe, sorted(offsets))
    own, credited, kinds = collections.Counter(), collections.Counter(), collections.Counter()
    for key, n in line_keys.items():
        chains = [lines.chains.get(off, [("??", False)]) if off is not None else None
                  for off in key]
        inner = chains[0][0] if chains[0] else ("[shared library]", False)
        own[inner[0]] += n
        if inner[1]:
            continue
        lib = []
        for chain in chains:
            for label, workspace in chain or []:
                if workspace:
                    break
                lib.append(label)
            else:
                continue
            kind = "lock" if any(is_lock(x) for x in lib) else \
                (lib[0].rpartition(":")[0] if lib else "[shared library]")
            credited[label] += n
            kinds[(kind, label)] += n
            break
    print(f"{'self':>7} {'+lib':>7} {'total':>7}  line")
    rows = sorted(set(own) | set(credited), key=lambda x: -(own[x] + credited[x]))
    for label in rows[:top]:
        print(f"{100 * own[label] / total:6.1f}% {100 * credited[label] / total:6.1f}% "
              f"{100 * (own[label] + credited[label]) / total:6.1f}%  {label}")
    locks = sum(n for (kind, _), n in kinds.items() if kind == "lock")
    print(f"\n{'+lib':>7}  library code <- workspace line ({100 * locks / total:.1f}% lock)")
    for (kind, label), n in kinds.most_common(top):
        print(f"{100 * n / total:6.1f}%  {kind} <- {label}")


def main():
    args = [a for a in sys.argv[1:] if a != "--lines"]
    if len(args) < 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    exe, workload, runs = os.path.realpath(args[0]), args[1], int(args[2])
    top = int(args[3]) if len(args) > 3 else 25
    Symbols.of(exe)
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    line_keys = collections.Counter() if "--lines" in sys.argv else None
    total = sum(run_child(exe, workload, seed, self_counts, incl_counts, line_keys)
                for seed in range(1, runs + 1))
    if total == 0:
        sys.exit("hotspots.py: no sample of a simnet-run thread was taken")
    print(f"{workload}: {total} samples of the simulation thread over {runs} children")
    if line_keys is not None:
        print_lines(exe, line_keys, total, top)
        return
    print(f"{'self':>7} {'incl':>7}  function")
    for name, incl in incl_counts.most_common(top):
        print(f"{100 * self_counts[name] / total:6.1f}% {100 * incl / total:6.1f}%  {name}")


if __name__ == "__main__":
    main()
