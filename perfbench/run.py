"""qflag benchmark: exact verify runs end to end, layer spans from outside.

Run from the repository root:

    python3 perfbench/run.py --workload default6 --seed 1 --seconds 5 --trace 0

Workloads (inputs are fixed and exact; the seed only picks the sample of
real kernel operands that a traced run replays):

- default6: all nine suites on the six default flags at their default depths;
- ring2:    all nine suites on A4/2 and D4/1 at depth 2, guard 400;
- warm_cg:  A4/2 at depth 2 with a CG cache that set-up fills by a cold pass;
- ladder:   three modules of dim 300-330, then braiding and Yang-Baxter for
            A4 w2, C3 w3 and A5 w3.

Each workload runs in its own process (``workload.py``), with qflag on one
thread, on the qflag sources under ``src/``, which are pure Python and need
no build.
With ``--trace 0`` the metrics are the ``end_to_end`` entries of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` entries.  Set-up
(process start until qflag is imported and the inputs are ready) is timed in
eight extra probe processes and in the workload process, and the median is
reported; for warm_cg the cold pass is added to it.  wall_s and setup_s are
wall seconds scaled by the machine speed sampled during the same work (see
speed.py), because the speed of a shared host swings by up to 1.8x for
minutes; the summary line gives the raw seconds too.

Every output is checked against ``reference.json``.  The lines before the
last one are a readable summary and an environment stamp; the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 8
RUN_LIMIT = 170.0      # seconds; the whole command must end well within 180
PROBE_RESERVE = 10.0   # seconds kept for the probes after the workload


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child(args, timeout):
    """Run a workload process; returns its final JSON line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--t0", repr(time.time())] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounded(values):
    return [round(v, 3) for v in values]


def stamp(backend: str, load) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".c", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"kernel_backend": backend,
            "python": sys.version.split()[0],
            "git_rev": rev,
            "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": list(load)}


def _terminate(signum, frame):
    # Raising here makes subprocess.run kill and reap the workload process.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    t_start = time.time()
    load = os.getloadavg()
    p = argparse.ArgumentParser(description="qflag benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qflag", "__init__.py")):
        return fail(f"no qflag sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(spec_path):
        return fail("BENCHMARK.json not found")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    probe = ["--workload", args.workload, "--probe", "--work", work]
    setups = []
    try:
        # Half the probes run before the workload and half after, so that
        # one slow phase of a shared machine does not set the median.
        for _ in range(0 if args.trace else PROBES // 2):
            setups.append(child(probe, 30))
        left = RUN_LIMIT - PROBE_RESERVE - (time.time() - t_start)
        res = child(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--work", work, "--deadline", repr(time.time() + left - 5)],
                    left)
        for _ in range(0 if args.trace else PROBES - PROBES // 2):
            setups.append(child(probe, 30))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    setups.append(res)
    if args.trace:
        values = dict(res["layers"])
    else:
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(s["setup_s"] for s in setups)
                  + res["cold_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        return fail(f"metrics {sorted(set(values) ^ set(names))} do not "
                    "match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}: {res['attempted']} operations, "
          f"{res['failed']} failed (fail_frac "
          f"{res['failed'] / max(res['attempted'], 1):.4f}), "
          f"{res['refusals']} guard refusals as in the reference, "
          f"pass seconds {_rounded(res['passes_raw'])} raw, "
          f"{_rounded(res['passes'])} scaled, scale factors "
          f"{_rounded(w / r for w, r in zip(res['passes'], res['passes_raw']))}; "
          f"set-up seconds {_rounded(s['setup_raw_s'] for s in setups)} raw, "
          f"{_rounded(s['setup_s'] for s in setups)} scaled (the last from the "
          f"workload process), cold pass {res['cold_raw_s']:.3f} raw")
    for note in dict.fromkeys(res["notes"]):
        print(f"  {res['notes'].count(note)}x {note}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        # Self times of all spans plus the time outside any span make up the
        # traced pass; kernel time sits in the self time of its callers.
        by_layer = {}
        for name, value in values.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + value
        parts = ", ".join(f"{k} {v:.3f}" for k, v in sorted(by_layer.items()))
        print(f"self seconds by layer: {parts}, outside spans "
              f"{values['trace.outside_s']:.3f}; sum = traced pass "
              f"{values['trace.wall_s']:.3f} s raw; the untraced pass took "
              f"{res['wall_raw_s']:.3f} s raw, and tracing adds "
              f"{values['trace.overhead_frac']:.3f} of it at equal speed")
    print(json.dumps({"stamp": stamp(res["backend"], load)}, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
