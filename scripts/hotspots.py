#!/usr/bin/env python3
"""A ptrace stack sampler for the simulation thread of benchmark children.

    scripts/hotspots.py <benchmark-bin> <workload> <runs> [top]

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

The chain is only whole in a build with `-C force-frame-pointers=yes`
(scripts/hotspots.sh makes one). A frame in code built without frame
pointers (libc, the prebuilt std) ends the walk early, so inclusive shares
are lower bounds. Needs only the python3 standard library, Linux x86-64
ptrace and `nm`.
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


def run_child(exe, workload, seed, self_counts, incl_counts):
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
                if is_libc(maps.path(stack[0])):
                    code = top is not None and maps.path(top) is not None
                    names.append(f"[libc] <- {maps.name(top - 1) if code else '?'}")
                    self_counts[names[-1]] += 1
                self_counts[names[0]] += 1
                for name in set(names):
                    incl_counts[name] += 1
    finally:
        if mem is not None:
            os.close(mem)
        child.wait()
    return samples


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    exe, workload, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 25
    Symbols.of(os.path.realpath(exe))
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    total = sum(run_child(exe, workload, seed, self_counts, incl_counts)
                for seed in range(1, runs + 1))
    if total == 0:
        sys.exit("hotspots.py: no sample of a simnet-run thread was taken")
    print(f"{workload}: {total} samples of the simulation thread over {runs} children")
    print(f"{'self':>7} {'incl':>7}  function")
    for name, incl in incl_counts.most_common(top):
        print(f"{100 * self_counts[name] / total:6.1f}% {100 * incl / total:6.1f}%  {name}")


if __name__ == "__main__":
    main()
