#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the CLI and the
measuring program (perfbench/bench.ml) with dune, makes the workload's
inputs from the seed out of process (cached under perfbench/_work, keyed
by workload, seed, size and the digests of the two built programs, and
checked by MD5), then runs the measuring
program once in a fresh process. Its last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
BUILD = os.path.join(ROOT, "_build", "default")
CLI = os.path.join(BUILD, "bin", "rpslyzer_cli.exe")
BENCH = os.path.join(BUILD, "perfbench", "bench.exe")

WORKLOADS = ("verify_rib", "ingest_irr", "registry_churn", "stream_feed")

# Size. The world (registry, relationships, collector RIBs) is the paper
# preset at this scale, generated once from a fixed world seed; --seed
# varies what each workload draws from it (RIB order, NRTM journal,
# query schedule, events).
WORLD_SEED = 42
SCALE = "0.05"
JOURNAL_OPS = 80
EVENTS = 2000
SIZE_KEY = f"x{SCALE}-w{WORLD_SEED}-j{JOURNAL_OPS}-e{EVENTS}"

# Aggregate.fingerprint of verify_rib on this world. The fingerprint is
# independent of route order, so it holds for every seed.
EXPECTED_FINGERPRINT = "8780303a4ff595b8c32cc4171cf45afb"

# A run must end within 180 s (900 s for the first, which builds).
BUILD_TIMEOUT = 800
STEP_TIMEOUT = 60
RUN_TIMEOUT = 150


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def file_md5(path):
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def manifest(directory):
    digests = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name != "MANIFEST.json" and os.path.isfile(path):
            digests[name] = file_md5(path)
    return digests


def cached(directory, make):
    """Return directory, (re)making it unless its MANIFEST.json matches."""
    stamp = os.path.join(directory, "MANIFEST.json")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if json.load(f) == manifest(directory):
                return directory
    shutil.rmtree(directory, ignore_errors=True)
    partial = directory + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    make(partial)
    with open(os.path.join(partial, "MANIFEST.json"), "w") as f:
        json.dump(manifest(partial), f, indent=1, sort_keys=True)
    os.rename(partial, directory)
    return directory


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a source checkout", code=2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", code=2)

    # dune's shared cache lives outside the checkout; build without it
    os.environ["DUNE_CACHE"] = "disabled"
    run(["dune", "build", "--root", ROOT, "./bin/rpslyzer_cli.exe", "./perfbench/bench.exe"],
        BUILD_TIMEOUT)

    # The world, the IR snapshots and the journals are written by the
    # programs themselves, so the cache keys name the builds: inputs made
    # by one build are never measured by another.
    cli_md5, bench_md5 = file_md5(CLI)[:12], file_md5(BENCH)[:12]
    os.makedirs(WORK, exist_ok=True)
    world = cached(
        os.path.join(WORK, f"world-x{SCALE}-w{WORLD_SEED}-c{cli_md5}"),
        lambda d: run([CLI, "gen", "--seed", str(WORLD_SEED), "--world-scale", "paper",
                       "--scale", SCALE, "-o", d], STEP_TIMEOUT),
    )
    inputs = cached(
        os.path.join(WORK, f"{args.workload}-s{args.seed}-{SIZE_KEY}-c{cli_md5}-b{bench_md5}"),
        lambda d: run([BENCH, "prepare", "--workload", args.workload, "--world", world,
                       "--dir", d, "--seed", str(args.seed), "--journal-ops", str(JOURNAL_OPS),
                       "--events", str(EVENTS)], STEP_TIMEOUT),
    )

    cmd = [BENCH, "run", "--workload", args.workload, "--dir", inputs, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-fingerprint", EXPECTED_FINGERPRINT]
    if args.trace:
        cmd += ["--trace-out", os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json")]
    out = run(cmd, RUN_TIMEOUT, capture=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the measuring program printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
