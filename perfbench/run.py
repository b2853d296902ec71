#!/usr/bin/env python3
"""Build gqkg and the gqbench harness from source, then run one workload.

    python3 perfbench/run.py --workload serve-hot|serve-churn|analytic \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout.  The last line of standard output is
the JSON result.  Nothing is read or written outside the checkout: the
build goes to _build/ (dune's shared cache is disabled) and the
generated graphs, pid file, daemon log and span dumps to perfbench/_work/.

Process hygiene: the harness runs in its own process group with
PR_SET_PDEATHSIG, this script is a child subreaper, and on every exit
path the group is killed and every child reaped, so no `gqkg serve`
outlives the command.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-hot", "serve-churn", "analytic")
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def prctl(option, arg):
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(option, arg, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def die_with_parent():
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def reap_children(deadline_s=10.0):
    """Wait for every child (including orphans adopted as subreaper)."""
    end = time.monotonic() + deadline_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > end:
                return
            time.sleep(0.01)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("dune-project", "bin/gqkg.ml", "lib", "perfbench/gqbench.ml"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("not the root of a gqkg checkout (missing %s)" % needed)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/gqkg.exe", "./perfbench/gqbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    work = os.path.join("perfbench", "_work")
    os.makedirs(work, exist_ok=True)
    prctl(PR_SET_CHILD_SUBREAPER, 1)

    cmd = [os.path.join("_build", "default", "perfbench", "gqbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--gqkg", os.path.join("_build", "default", "bin", "gqkg.exe"),
           "--work", work]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                             preexec_fn=die_with_parent, env=env)

    timed_out = []

    def on_signal(signum, _frame):
        kill_group(child.pid)
        reap_children()
        sys.exit(128 + signum)

    def on_alarm(_signum, _frame):
        timed_out.append(True)
        kill_group(child.pid)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        for raw in child.stdout:
            sys.stdout.write(raw.decode("utf-8", "replace"))
            sys.stdout.flush()
        child.wait()
    finally:
        signal.alarm(0)
        kill_group(child.pid)
        reap_children()
    if timed_out:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(child.returncode if child.returncode is not None else 1)


if __name__ == "__main__":
    main()
