#!/usr/bin/env python3
"""Build and run the BNS-GCN end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 benchmark/run.py --workload train-uds-p1 --seed 3 --seconds 30 --trace 0

The driver is built from source into .bench_build/ on first use. The last
line of standard output is the run's summary JSON; the lines before it are
one JSON row per check and per metric, each metric row with its provenance.
`--workload all` runs every workload and prints a combined summary.
`--record-golden 0-31` records the per-seed golden entries that the
correctness checks compare against.
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
WORKLOADS = ["train-mailbox-p0.1", "train-uds-p1", "serve-uds-cache"]
BUILD_DIR = ".bench_build"
# Beyond --seconds, a run spends up to about a minute finishing its last
# iteration, running the parity serve and (with --trace 1) the probes.
DRIVER_GRACE_S = 135
# A --record-golden run is one iteration, far below this.
RECORD_TIMEOUT_S = 170


def whole_number(lo, hi):
    def parse(text):
        if not text.isdigit() or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"needs a whole number in [{lo}, {hi}], got '{text}'")
        return int(text)
    return parse


def seed_range(text):
    lo, sep, hi = text.partition("-")
    if not lo.isdigit() or (sep and not hi.isdigit()):
        raise argparse.ArgumentTypeError(f"needs N or N-M, got '{text}'")
    first, last = int(lo), int(hi) if sep else int(lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range '{text}'")
    return list(range(first, last + 1))


def parse_args(argv):
    p = argparse.ArgumentParser(prog="benchmark/run.py", allow_abbrev=False,
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=whole_number(0, 2**40))
    p.add_argument("--seconds", type=whole_number(1, 600))
    p.add_argument("--trace", type=whole_number(0, 1))
    p.add_argument("--record-golden", type=seed_range, metavar="SEEDS",
                   help="record golden entries for seeds N or N-M")
    args = p.parse_args(argv)
    if args.record_golden is not None:
        if args.seed is not None or args.seconds is not None or args.trace is not None:
            p.error("--record-golden takes no --seed, --seconds or --trace")
    elif args.seed is None or args.seconds is None or args.trace is None:
        p.error("--seed, --seconds and --trace are required")
    return args


def log(msg):
    print(f"[benchmark] {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the driver; returns its path or None."""
    bdir = os.path.join(root, BUILD_DIR)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "bnsgcn_benchmark", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode != 0:
        return None
    return os.path.join(bdir, "bnsgcn_benchmark")


def provenance(root):
    """(git sha or "none", sha256 over the sources the driver is built from)."""
    digest = hashlib.sha256()
    tops = [os.path.join(root, "src"), HERE, os.path.join(root, "CMakeLists.txt")]
    for top in tops:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            if path.endswith(".pyc"):
                continue
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(root, ".git")):
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    return sha, digest.hexdigest()[:16]


def run_driver(binary, args, timeout_s):
    """Run the driver in its own process group; kill the group on timeout.
    Returns (exit code, stdout lines)."""
    env = dict(os.environ)
    # Rank sockets live inside the checkout (relative, so sun_path stays short).
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"driver timed out after {timeout_s} s")
    finally:
        # However the run ended, none of its processes (the driver and any
        # forked ranks share its process group) may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return 1, []
    return proc.returncode, out.splitlines()


def write_golden(path, golden):
    """One line per (workload, seed) entry, so diffs stay reviewable."""
    parts = []
    for w in sorted(golden):
        seeds = sorted(golden[w], key=int)
        body = ",\n".join(f'  "{s}": {json.dumps(golden[w][s], sort_keys=True)}'
                           for s in seeds)
        parts.append(f' "{w}": {{\n{body}\n }}')
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(parts) + "\n}\n")


def record_golden(binary, workloads, seeds):
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path) as f:
            golden = json.load(f)
    for w in workloads:
        for seed in seeds:
            code, lines = run_driver(binary, ["--workload", w, "--seed", str(seed),
                                              "--record-golden"], RECORD_TIMEOUT_S)
            if code != 0 or not lines:
                log(f"recording {w} seed {seed} failed")
                return 1
            golden.setdefault(w, {})[str(seed)] = json.loads(lines[-1])["golden"]
            write_golden(path, golden)
            log(f"recorded {w} seed {seed}")
    return 0


def main(argv):
    args = parse_args(argv)
    # A terminated run still stops its driver (see run_driver's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    binary = build(root)
    if binary is None:
        log("build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.record_golden is not None:
        return record_golden(binary, workloads, args.record_golden)

    sha, digest = provenance(root)
    summaries = {}
    for w in workloads:
        code, lines = run_driver(binary, [
            "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--git-sha", sha, "--src-digest", digest],
            args.seconds + DRIVER_GRACE_S)
        summary = None
        if lines:
            try:
                summary = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if summary is None or "correct" not in summary:
            log(f"{w}: driver exited {code} without a result")
            return code or 1
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return code
        print("\n".join(lines[:-1]), flush=True)
        summaries[w] = summary

    combined = {"correct": all(s["correct"] for s in summaries.values()),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": {f"{w}/{k}": v for w, s in summaries.items()
                            for k, v in s["metrics"].items()}}
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
