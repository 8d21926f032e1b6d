#!/usr/bin/env python3
"""Line-coverage census of src/: which code the programs run.

Runs these sets against a coverage build, each writing its .gcda files
under its own GCOV_PREFIX directory:

  unit    ctest -E cli_smoke (the unit tests)
  smoke   ctest -R cli_smoke (the `tarr` driver end to end, and the demos)
  bench   every bench binary (split into `gated`, the benches with a
          committed bench/baselines snapshot, and `ungated`)
  demo    every example_* demo

then copies each object's .gcno beside its .gcda, runs `gcov -j -t` on
them, and counts a src/ line for a set when its count there is above 0.
A line is executable when gcov lists it for any object, run or not.
Prints the totals and writes unit_only.txt and unreached.txt (per-file
counts, then every file:line) into BUILD_DIR/gcov-sets.

Judge reach by lines, not gcov's function counts: at -O1 an inlined static
function reads as never called although its lines run.

usage: tools/gcov_census.py BUILD_DIR

BUILD_DIR is a build of this checkout configured with
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-O1 --coverage"
  -DCMAKE_EXE_LINKER_FLAGS=--coverage
"""

import collections
import concurrent.futures
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
SETS = ("unit", "smoke", "gated", "ungated", "demo")


def run(cmd, prefix, cwd):
    env = dict(os.environ, GCOV_PREFIX=prefix, GCOV_PREFIX_STRIP="0")
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit("gcov_census: %s exited %d" % (" ".join(cmd),
                                                done.returncode))


def run_sets(build, sets):
    shutil.rmtree(sets, ignore_errors=True)
    scratch = os.path.join(sets, "cwd")
    os.makedirs(scratch)
    run(["ctest", "-E", "cli_smoke"], os.path.join(sets, "unit"), build)
    run(["ctest", "-R", "cli_smoke"], os.path.join(sets, "smoke"), build)
    gated = {os.path.basename(p)[len("BENCH_"):-len(".json")]
             for p in glob.glob(os.path.join(ROOT, "bench", "baselines",
                                             "BENCH_*.json"))}
    for exe in sorted(glob.glob(os.path.join(build, "bench", "*"))):
        if os.path.isfile(exe) and os.access(exe, os.X_OK):
            name = os.path.basename(exe)
            run([exe], os.path.join(sets, "gated" if name in gated
                                    else "ungated"), scratch)
    for exe in sorted(glob.glob(os.path.join(build, "examples",
                                             "example_*"))):
        run([exe], os.path.join(sets, "demo"), scratch)


def gcov_lines(data_file):
    """(file, line, count) of every src/ line gcov reports for one object."""
    d = os.path.dirname(data_file)
    out = subprocess.run(["gcov", "-j", "-t", "-o", d, data_file], cwd=d,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    dec = json.JSONDecoder()
    pos, res = 0, []
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return res
        doc, pos = dec.raw_decode(out, pos)
        for f in doc.get("files", []):
            name = os.path.normpath(os.path.join(d, f["file"]))
            if name.startswith(SRC):
                res.extend((name[len(SRC):], ln["line_number"], ln["count"])
                           for ln in f["lines"])


def each(paths):
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        for res in pool.map(gcov_lines, paths):
            yield from res


def count(build, sets):
    executable = set()
    gcnos = []
    for dp, _, files in os.walk(build):
        if dp.startswith(sets):
            continue
        gcnos += [os.path.join(dp, f) for f in files if f.endswith(".gcno")]
    # A .gcno alone lists the object's executable lines (all counts 0).
    bare = os.path.join(sets, "gcno")
    copies = []
    for g in gcnos:
        dst = os.path.join(bare, os.path.relpath(g, build))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(g, dst)
        copies.append(dst)
    executable.update((f, n) for f, n, _ in each(copies))

    reached = {}
    for s in SETS:
        mirror = os.path.join(sets, s, build.lstrip(os.sep))
        gcdas = []
        for dp, _, files in os.walk(mirror):
            for f in files:
                if f.endswith(".gcda"):
                    gcda = os.path.join(dp, f)
                    gcno = os.path.join(build, os.path.relpath(gcda, mirror))
                    shutil.copyfile(gcno[:-5] + ".gcno", gcda[:-5] + ".gcno")
                    gcdas.append(gcda)
        reached[s] = {(f, n) for f, n, c in each(gcdas) if c > 0}

    program = reached["smoke"] | reached["gated"] | reached["ungated"] | \
        reached["demo"]
    unit_only = reached["unit"] - program
    unreached = executable - program - reached["unit"]
    ci = reached["unit"] | reached["smoke"] | reached["gated"]
    for label, n in (("executable src/ lines", len(executable)),
                     ("reached by smoke, benches or demos", len(program)),
                     ("reached by unit tests only", len(unit_only)),
                     ("reached by nothing", len(unreached)),
                     ("reached by unit, smoke or gated benches", len(ci))):
        print("%-40s %6d" % (label, n))
    for name, lines in (("unit_only.txt", unit_only),
                        ("unreached.txt", unreached)):
        per_file = collections.Counter(f for f, _ in lines)
        with open(os.path.join(sets, name), "w") as out:
            for f, n in sorted(per_file.items(), key=lambda x: (-x[1], x[0])):
                out.write("%5d %s\n" % (n, f))
            out.write("\n")
            for f, n in sorted(lines):
                out.write("%s:%d\n" % (f, n))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build = os.path.realpath(sys.argv[1])
    sets = os.path.join(build, "gcov-sets")
    run_sets(build, sets)
    count(build, sets)


if __name__ == "__main__":
    main()
