#!/usr/bin/env python3
"""Build the synthesizer and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold|warm --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to dune's _build directory
with the shared dune cache off, so nothing is written outside the tree;
run-time files (daemon sockets, stores, traces) go to .perfbench/.  The
last line of standard output is the benchmark's JSON result; build output
and diagnostics go to standard error.  Exits non-zero, without a result,
when the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = "_build/default/perfbench/perfbench.exe"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/noc_synth.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        cmd = ["opam", "exec", "--"] + cmd
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def stop_group(pgid):
    """Kill whatever the run left in its process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [BENCH] + argv
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        stop_group(child.pid)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
