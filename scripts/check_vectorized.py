#!/usr/bin/env python3
"""Vectorization guard for the fused kernel's bulk path (a ctest, GCC only).

    python3 scripts/check_vectorized.py CXX PROBE_SOURCE SRC_DIR [FLAG ...]

FLAGs are the build's own compile flags (language standard, options,
definitions); tests/CMakeLists.txt passes the swlb library's, so the guard
checks the configuration the build compiles.  Compiles PROBE_SOURCE
(tests/vectorize_fused.cpp) with them once per combination of storage
(double, float), collision policy (BGK, BGK+Guo) and optimization level
(-O2 as in RelWithDebInfo, -O3 as in Release, both with -DNDEBUG), adding
GCC's -fopt-info-vec-optimized report.  Each compile instantiates one D3Q19
fused sweep.  Every loop in SRC_DIR/core/kernels.hpp whose `for` line
carries a `// vectorized: NAME` comment must be reported "loop vectorized"
in every compile.  GCC places an omp-simd loop's report on a statement of
its body, so a report belongs to a tagged loop when its line falls between
the tag and the `}` closing the loop body opened on the tag line.

Exits 0 when every tagged loop vectorizes and 1 otherwise, with one line
per problem.
"""
import re
import subprocess
import sys
from pathlib import Path

TAG = re.compile(r"for \(.*//\s*vectorized:\s*(\w+)")
REPORT = re.compile(r"^(?P<file>[^:\s]+):(?P<line>\d+):\d+: "
                    r"optimized: loop vectorized")


def tagged_loops(header):
    """(name, first line, last line) of every tagged loop in `header`."""
    lines = header.read_text(encoding="utf-8").splitlines()
    loops = []
    for i, text in enumerate(lines):
        m = TAG.search(text)
        if not m:
            continue
        depth = 0
        for j in range(i, len(lines)):
            code = lines[j].split("//")[0]
            depth += code.count("{") - code.count("}")
            if depth <= 0:
                break
        loops.append((m.group(1), i + 1, j + 1))
    return loops


def vectorized_lines(cxx, probe, src, header, flags):
    """Lines of `header` that one compile of `probe` reports vectorized."""
    cmd = [cxx, *flags, f"-I{src}", "-fopt-info-vec-optimized",
           "-c", str(probe), "-o", "/dev/null"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"compile failed: {' '.join(cmd)}\n{p.stderr}")
    return {int(m["line"]) for m in map(REPORT.match, p.stderr.splitlines())
            if m and Path(m["file"]).resolve() == header.resolve()}


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    cxx, probe, src, *build_flags = sys.argv[1:]
    header = Path(src) / "core" / "kernels.hpp"
    loops = tagged_loops(header)
    if not loops:
        print(f"{header}: no loop tagged `// vectorized: NAME`")
        return 1
    print("build flags:", " ".join(build_flags) or "(none)")
    problems = []
    for opt in ("-O2", "-O3"):
        for storage in ("double", "float"):
            for force, policy in ((0, "BGK"), (1, "BGK+Guo")):
                lines = vectorized_lines(
                    cxx, probe, src, header,
                    build_flags + [opt, "-DNDEBUG",
                                   f"-DSWLB_VEC_STORAGE={storage}",
                                   f"-DSWLB_VEC_FORCE={force}"])
                for name, lo, hi in loops:
                    if not any(lo <= line <= hi for line in lines):
                        problems.append(f"{opt} {storage} {policy}: loop "
                                        f"`{name}` (kernels.hpp:{lo}) not "
                                        "vectorized")
    for p in problems:
        print(p)
    if not problems:
        print(f"vectorized: {', '.join(n for n, _, _ in loops)} at -O2 and "
              "-O3, double and float storage, BGK and BGK+Guo")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
