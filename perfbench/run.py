"""Benchmark launcher for the lehmann library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metric names are defined in ``BENCHMARK.json``. Each run
starts fresh single-threaded worker processes (``worker.py``) against
the library in ``src/``: with ``--trace 0``, two set-up probes and one
measured run, reporting every end-to-end metric; with ``--trace 1``, one
run that measures the per-layer metrics. One closed loop, one caller.

Human-readable lines come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``. The full
result, with environment metadata, is also written to
``perfbench/out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=10)
        return rev.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, worker_env: dict, versions: dict) -> dict:
    rev, dirty = _git_revision()
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_revision": rev,
        "git_dirty": dirty,
        "seed": seed,
        "threads": {k: worker_env[k] for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_worker(args, env, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-time", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lehmann benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lehmann" / "__init__.py").is_file():
        return _fail(f"no library source at {ROOT / 'src' / 'lehmann'}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")

    env = {k: v for k, v in os.environ.items() if k != "LEHMANN_LOG"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    try:
        probes = [] if args.trace else [
            run_worker(args, env, out_dir, deadline, setup_only=True)
            for _ in range(SETUP_PROBES)
        ]
        res = run_worker(args, env, out_dir, deadline, setup_only=False)
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc))

    produced = dict(res["metrics"])
    setups = [p["setup_s"] for p in probes + [res]]
    raw_setups = [p["setup_raw_s"] for p in probes + [res]]
    produced["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        return _fail(f"worker did not produce {missing}")
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
               for m in wanted}

    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": res["correct"],
        "attempted": res["attempted"], "failed": res["failed"],
        "setup_s_samples": setups, "setup_raw_s_samples": raw_setups,
        "unexpected": res["unexpected"],
        "known_defects": res["known_defects"], "checks": res["checks"],
        "detail": res["detail"], "metrics": metrics, "all_values": produced,
        "env": environment(args.seed, env, res["versions"]),
    }
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {res['correct']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        d = res["detail"]
        print(f"  setup_s is the median of {len(setups)} fresh processes: "
              + ", ".join(f"{s:.3f}" for s in setups))
        print(f"  ops: {d['completed_ops']} completed in {d['timed_wall_s']:.3f} s; "
              f"latency samples {d['op_samples']}, tail percentile "
              f"{d['op_tail_percentile'] or 'max'}")
        print(f"  times above are rescaled to the nominal machine speed "
              f"({d['speed_samples']} speed samples); raw: "
              f"setup_s {statistics.median(raw_setups):.6g} s, "
              + ", ".join(f"{k} {v:.6g}" for k, v in d["raw"].items()))
        for q in ("failed_ratio", "fit_loglik_gap_nats"):
            if q in produced:
                unit = "nats" if q.endswith("nats") else "ratio"
                print(f"  {q:44s} {produced[q]:>16.6g} {unit}")
    for note in res["known_defects"]:
        print(f"  known defect: {note}")
    for note in res["unexpected"]:
        print(f"  FAILED: {note}")
    print(f"  checks: {json.dumps(res['checks'])}")
    print(f"  env: {json.dumps(full['env'])}")
    print(f"  full result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
