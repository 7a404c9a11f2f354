#!/usr/bin/env python3
"""OIPA time-to-plan benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

On first use, or when a source or build file changed, it builds the program
and the benchmark from source with sbt and runs the benchmark's own helper
tests.
It then runs one driver JVM with Spark local[<nproc>] and prints that JVM's
output; the last line is the JSON result. Everything it writes goes under
.bench_build/ and the sbt target directories of the checkout.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LAUNCH = os.path.join(BENCH_DIR, "target", "launch.txt")
STAMP = os.path.join(OUT_DIR, "build.stamp")
DRIVER_HEAP = "4g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# sbt's build output inside the source directories.
SKIP_DIRS = {"target"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over every build input: the program's sources and build files
    and the benchmark's own files."""
    h = hashlib.sha256()
    inputs = [os.path.join(d, f) for d in (ROOT, BENCH_DIR) for f in ("build.sbt", "project", "src")]
    inputs.append(os.path.join(ROOT, "jobs"))
    files = []
    for top in inputs:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout, stdout):
    """Run a child in its own process group to completion; on timeout kill
    the whole group (sbt forks JVMs of its own) and wait for the child."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} did not finish within {timeout} s", 1)
    return proc.returncode, out


def build(digest):
    """Compile the program and the benchmark, run the benchmark's helper
    tests, and write the launch file; skipped when nothing changed."""
    if os.path.exists(STAMP) and os.path.exists(LAUNCH):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "test", "writeLaunch"]
    code, _ = run_child(cmd, BENCH_DIR, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not os.path.exists(LAUNCH):
        die(f"build failed (sbt exit code {code})", 1)
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    for need in ("build.sbt", os.path.join("src", "main", "scala"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"run from the root of a repository checkout: {need} is missing")

    os.makedirs(OUT_DIR, exist_ok=True)
    digest = source_digest()
    build(digest)
    with open(LAUNCH) as fh:
        lines = fh.read().splitlines()
    classpath, jvm_opts = lines[0], [l for l in lines[1:] if l]

    nproc = len(os.sched_getaffinity(0))
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_MASTER"] = f"local[{nproc}]"
    env["SPARK_LOCAL_DIRS"] = scratch
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{DRIVER_HEAP}", *jvm_opts,
           f"-Djava.io.tmpdir={scratch}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
           "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.local.dir={scratch}",
           f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
           f"-Dperfbench.out={OUT_DIR}",
           f"-Dperfbench.commit={git_commit()}",
           f"-Dperfbench.source={digest}",
           "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code, out = run_child(cmd, ROOT, env, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if code != 0:
        die(f"benchmark JVM exited with code {code}", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("benchmark JVM printed no result line", 1)
    missing = expected_metrics(bool(a.trace)) ^ set(result["metrics"])
    if missing:
        die(f"metrics differ from BENCHMARK.json: {sorted(missing)}", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
