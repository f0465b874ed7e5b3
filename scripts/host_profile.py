#!/usr/bin/env python3
"""Flat host-CPU profile of a command, by PC sampling.

    scripts/host_profile.py [options] -- <command> [args...]

The command runs with a small sampler preloaded (LD_PRELOAD). The sampler
arms ITIMER_PROF, and each SIGPROF records the interrupted program counter.
At exit every sampled process writes its PCs and its memory map; this script
then maps each PC to its object file and symbolizes it with `nm -C`, and
prints a flat profile per executable: share of samples and sample count
per function.

Coroutine bodies keep their own entries. GCC compiles a coroutine into a
ramp (the function's own symbol) and `[clone .actor]`/`[clone .destroy]`
bodies, and the body is where the work is. A `-pg` build attributes such
bodies to whatever global symbol precedes them, so gprof's flat profile of
this simulator is unreliable; PC sampling against the full symbol table is
not.

Profiling one part of a run: the sampler exports

    extern "C" void namtree_host_profile(int on);

A program that declares it weak,

    extern "C" void namtree_host_profile(int) __attribute__((weak));
    if (namtree_host_profile) namtree_host_profile(1);

switches sampling on and off around the part of interest (a run without
the sampler sees a null symbol and skips the call). With --start-off the
sampler records nothing until the first `namtree_host_profile(1)`.

Example, a ledger build of perfbench (run perfbench/run.py once first):

    scripts/host_profile.py --top 25 -- \\
        .bench_build/perf_ledger --workload point_uniform --seconds 2
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys
import tempfile

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1L << 23)

static uintptr_t* samples;
static long nsamples;
static volatile sig_atomic_t enabled;

void namtree_host_profile(int on) { enabled = on != 0; }

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (!enabled || samples == NULL) return;
  const long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
  if (i >= MAX_SAMPLES) return;
  const ucontext_t* uc = (const ucontext_t*)context;
  samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void host_profile_start(void) {
  if (getenv("HOST_PROFILE_DIR") == NULL) return;
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uintptr_t),
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  const char* start = getenv("HOST_PROFILE_START");
  enabled = !(start != NULL && strcmp(start, "off") == 0);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const char* hz_env = getenv("HOST_PROFILE_HZ");
  long hz = hz_env != NULL ? atol(hz_env) : 1000;
  if (hz <= 0) hz = 1000;
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / hz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void host_profile_stop(void) {
  if (samples == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  enabled = 0;
  long n = __atomic_load_n(&nsamples, __ATOMIC_RELAXED);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  if (n == 0) return;
  char path[4096];
  snprintf(path, sizeof(path), "%s/%ld.prof", getenv("HOST_PROFILE_DIR"),
           (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[len > 0 ? len : 0] = '\0';
  fprintf(out, "exe %s\n", exe);
  for (long i = 0; i < n; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) fprintf(out, "map %s", line);
    fclose(maps);
  }
  fclose(out);
}
"""


def build_sampler(work):
    src = os.path.join(work, "host_sampler.c")
    lib = os.path.join(work, "host_sampler.so")
    with open(src, "w", encoding="utf-8") as f:
        f.write(SAMPLER_C)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, src],
                   check=True)
    return lib


class Mapping:
    def __init__(self, start, end, offset, path):
        self.start, self.end, self.offset, self.path = start, end, offset, path


def read_profile(path):
    exe, pcs, maps = "?", [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("exe "):
                exe = line[4:].strip() or "?"
            elif line.startswith("pc "):
                pcs.append(int(line[3:], 16))
            elif line.startswith("map "):
                fields = line[4:].split()
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append(Mapping(lo, hi, int(fields[2], 16),
                                    " ".join(fields[5:])))
    maps.sort(key=lambda m: m.start)
    return exe, pcs, maps


_SEGMENTS = {}


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of `path`."""
    if path not in _SEGMENTS:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                             text=True).stdout
        segs = []
        for line in out.splitlines():
            fields = line.split()
            if fields and fields[0] == "LOAD":
                segs.append((int(fields[1], 16), int(fields[2], 16),
                             int(fields[4], 16)))
        _SEGMENTS[path] = segs
    return _SEGMENTS[path]


class SymbolTable:
    """Sorted text symbols of one object; `nm -D` when it is stripped."""

    def __init__(self, path):
        self.addrs, self.names = [], []
        self.suffix = ""
        for flags in (["-C", "-n", "--defined-only"],
                      ["-C", "-n", "--defined-only", "-D"]):
            out = subprocess.run(["nm"] + flags + [path], capture_output=True,
                                 text=True).stdout
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    self.addrs.append(int(parts[0], 16))
                    self.names.append(parts[2])
            if self.addrs:
                break
            # Stripped object: only exported symbols remain, and a sample
            # in a local function lands on the nearest one below it.
            self.suffix = f"  [{os.path.basename(path)}, nearest export]"

    def lookup(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return shorten(self.names[i]) + self.suffix if i >= 0 else None


_FRAME_ARG = re.compile(
    r"^(?P<fn>[^(]+)\((?P=fn)(?P<args>\(.*\))::\S+\.Frame\*\)"
    r"(?P<clone>( \[clone [^\]]+\])+)$")


def shorten(name):
    """`f(f(args)::<mangled>.Frame*) [clone .actor]` -> `f(args) [clone .actor]`."""
    m = _FRAME_ARG.match(name)
    return m["fn"] + m["args"] + m["clone"] if m else name


def symbolize(pcs, maps, tables):
    starts = [m.start for m in maps]
    counts = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i].end:
            counts["[unmapped]"] += 1
            continue
        m = maps[i]
        obj = os.path.basename(m.path)
        if not m.path.startswith("/"):
            counts[f"[{obj}]"] += 1
            continue
        file_off = pc - m.start + m.offset
        vaddr = None
        for p_off, p_vaddr, p_filesz in load_segments(m.path):
            if p_off <= file_off < p_off + p_filesz:
                vaddr = file_off - p_off + p_vaddr
                break
        if vaddr is None:
            counts[f"[{obj}]"] += 1
            continue
        if m.path not in tables:
            tables[m.path] = SymbolTable(m.path)
        name = tables[m.path].lookup(vaddr)
        counts[name or f"[{obj}]"] += 1
    return counts


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--hz", type=int, default=1000,
                        help="samples per CPU-second (default 1000)")
    parser.add_argument("--top", type=int, default=40,
                        help="functions to print per executable")
    parser.add_argument("--start-off", action="store_true",
                        help="record nothing until namtree_host_profile(1)")
    parser.add_argument("--work-dir",
                        help="where the sampler and raw samples go "
                             "(default: a fresh temporary directory)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")

    work = args.work_dir or tempfile.mkdtemp(prefix="host_profile_")
    os.makedirs(work, exist_ok=True)
    lib = build_sampler(work)
    raw = os.path.join(work, "samples")
    os.makedirs(raw, exist_ok=True)
    for stale in os.listdir(raw):
        os.remove(os.path.join(raw, stale))
    env = dict(os.environ, HOST_PROFILE_DIR=raw, HOST_PROFILE_HZ=str(args.hz))
    env["LD_PRELOAD"] = ":".join(filter(None, [lib, env.get("LD_PRELOAD")]))
    if args.start_off:
        env["HOST_PROFILE_START"] = "off"
    status = subprocess.run(command, env=env).returncode

    tables = {}
    by_exe = collections.defaultdict(collections.Counter)
    for name in sorted(os.listdir(raw)):
        exe, pcs, maps = read_profile(os.path.join(raw, name))
        by_exe[os.path.basename(exe)] += symbolize(pcs, maps, tables)
    if not by_exe:
        print("host_profile: no samples recorded", file=sys.stderr)
    for exe, counts in sorted(by_exe.items(),
                              key=lambda kv: -sum(kv[1].values())):
        total = sum(counts.values())
        print(f"# {exe}: {total} samples at {args.hz} Hz")
        print(f"{'share':>7} {'samples':>8}  function")
        for name, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
