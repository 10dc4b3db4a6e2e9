#!/usr/bin/env python3
"""Build and run the yardstick benchmark (see yardstick/README.md).

    python3 yardstick/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 yardstick/run.py --smoke

The first form builds the swlb library and the benchmark program into
.bench_build/ (Release, incremental) and runs one workload; its last stdout line
is the result JSON.  --smoke runs every workload at tiny sizes, checks that
every named metric is printed with its unit, and checks that each output
check fails a deliberately corrupted run.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "yardstick")
OUT = os.path.join(ROOT, ".bench_build", "yardstick-out")
WORKLOADS = ("cavity_bulk", "porous_ranks", "serve_churn")

# Figures the table prints besides the contract metrics, per workload.
TABLE_METRICS = {
    "cavity_bulk": ["step_p50_ms", "step_p90_ms", "mlups_mean", "error_rate"],
    "porous_ranks": ["step_p50_ms", "step_p90_ms", "mlups_mean", "error_rate"],
    "serve_churn": ["jobs_per_s", "ttfs_p50_s", "ttfs_p90_s", "job_p50_s",
                    "job_p90_s", "error_rate"],
}

# (workload, trace, check to sabotage): each run must fail that check.
CORRUPTIONS = [
    ("cavity_bulk", 0, "finite"),
    ("cavity_bulk", 0, "mass"),
    ("cavity_bulk", 0, "hash_threads"),
    ("cavity_bulk", 1, "breakdown"),
    ("porous_ranks", 0, "finite"),
    ("porous_ranks", 0, "mass"),
    ("porous_ranks", 0, "hash_passes"),
    ("porous_ranks", 1, "breakdown"),
    ("serve_churn", 0, "jobs_done"),
    ("serve_churn", 0, "state_hash"),
    ("serve_churn", 0, "no_debris"),
    ("serve_churn", 1, "breakdown"),
]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("yardstick: no swlb sources at %s" % os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(BUILD, "yardstick")


def run(binary, args):
    return subprocess.run([binary] + args + ["--out", OUT],
                          capture_output=True, text=True, timeout=170)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p = run(binary, ["--workload", workload, "--seed", "1",
                             "--seconds", "0.5", "--trace", str(trace),
                             "--smoke"])
            where = "%s trace %d" % (workload, trace)
            if p.returncode != 0:
                failures.append("%s: exit %d\n%s" % (where, p.returncode,
                                                     p.stderr))
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            if got != want:
                failures.append("%s: metrics %s, BENCHMARK.json lists %s"
                                % (where, got, want))
            table = {line.split()[0] for line in p.stdout.splitlines()
                     if len(line.split()) == 3}  # "name value unit" rows
            for name in TABLE_METRICS[workload] if trace == 0 else []:
                if name not in table:
                    failures.append("%s: table lacks %s" % (where, name))
            print("ok   %-14s trace %d  %d metrics" % (workload, trace, len(got)))
    for workload, trace, check in CORRUPTIONS:
        p = run(binary, ["--workload", workload, "--seed", "1", "--seconds",
                         "0.5", "--trace", str(trace), "--smoke",
                         "--corrupt", check])
        tripped = ("CHECK FAILED: %s:" % check) in p.stderr
        if p.returncode != 1 or not tripped:
            failures.append("%s --corrupt %s: exit %d, check %s"
                            % (workload, check, p.returncode,
                               "tripped" if tripped else "did not trip"))
        else:
            print("ok   %-14s --corrupt %-12s fails its check"
                  % (workload, check))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--smoke"]:
        return smoke(binary)
    return subprocess.run([binary] + args + ["--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
