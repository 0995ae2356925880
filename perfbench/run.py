#!/usr/bin/env python3
"""Build the benchmark from the checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is built with cargo (into $CARGO_TARGET_DIR, default
.bench_build) and run in its own process, so its peak RSS belongs to this
workload alone. Fixture files and the daemon socket live in a scratch
directory under .bench_work/ that is removed afterwards. The last line of
standard output is the result object; a failed build or run exits non-zero
without one.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # The ingest path is chosen by file size, as users get it.
    env.pop("TEMPO_STREAM_INGEST", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    # Relative, so the daemon's socket path stays short.
    workdir = os.path.join(".bench_work", "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        return subprocess.run([binary, *sys.argv[1:], "--workdir", workdir],
                              env=env).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
