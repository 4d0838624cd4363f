"""One benchmark workload in one fresh process.

Started by ``run.py``; never run by hand. Set-up time is measured from
the launcher's spawn timestamp (``--spawn-time``) to the first timed
operation, so it covers interpreter start, ``import lehmann,
lehmann.cli`` and input generation. With ``--setup-only`` the process
stops there. The result is one JSON object on the last line of stdout.

An untraced run (``--trace 0``) loops whole rounds until ``--seconds``
have been spent inside operations, with the machine-speed sampler of
``speed.py`` running; its end-to-end times are rescaled to the nominal
speed, and the raw times are kept beside them. A traced run
(``--trace 1``) runs a fixed plan twice on the same inputs, first
untraced and then traced, so its counts repeat exactly and the tracing
overhead is measured on identical work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler


def run_pass(wl, seconds=None, rounds=None, tracer=None):
    """Run rounds of operations; return (spans, outcomes, rounds run).

    ``spans`` holds each operation's (start, end) in ``perf_counter`` time.
    """
    from lehmann import LehmannError

    clock = time.perf_counter
    spans, outcomes = [], []
    spent, r = 0.0, 0
    while True:
        for key, call in wl.round_ops(r):
            if tracer is not None:
                tracer.op = len(spans)
            t0 = clock()
            try:
                value, err = call(), None
            except LehmannError as exc:
                value, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            spans.append((t0, t1))
            spent += t1 - t0
            outcomes.append((key, None if err else wl.record(key, value), err))
        r += 1
        if wl.single_round or (rounds is not None and r >= rounds):
            break
        if rounds is None and spent >= seconds:
            break
    return spans, outcomes, r


def fingerprint(outcomes) -> str:
    """Digest of every kept record; equal passes give equal digests."""
    h = hashlib.sha256()
    for key, rec, err in outcomes:
        if isinstance(rec, dict):  # the power-study record: its report bytes
            rec = rec["json"]
        h.update(repr((key, rec, err)).encode())
    return h.hexdigest()


def _timings(durations, completed) -> dict:
    from tracer import latency_summary

    lat = latency_summary(durations)
    return {"ops_per_s": completed / sum(durations), "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"]}


def untraced(wl, seconds, sampler: SpeedSampler):
    from tracer import tail_percentile

    spans, outcomes, rounds = run_pass(wl, seconds=seconds)
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    active, rescaled = zip(*(sampler.rescale(a, b) for a, b in spans))
    ev = wl.evaluate(outcomes)
    completed = ev.attempted - ev.failed
    metrics = _timings(rescaled, completed)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["failed_ratio"] = ev.failed / ev.attempted
    metrics.update(ev.quality)
    detail = {"timed_wall_s": sum(active), "completed_ops": completed,
              "calls": len(spans), "rounds": rounds,
              "op_tail_percentile": tail_percentile(len(spans)), "op_samples": len(spans),
              "speed_samples": len(sampler.rates),
              "raw": _timings(active, completed),
              "outcomes_sha256": fingerprint(outcomes)}
    return ev, metrics, detail


def traced(wl, seconds, out_dir: Path, tag: str):
    import tracer as tr

    rounds = wl.trace_rounds(seconds)
    base_spans, base_outcomes, _ = run_pass(wl, rounds=rounds)
    before = tr.binding_snapshot()
    t = tr.Tracer()
    with t:
        spans, outcomes, _ = run_pass(wl, rounds=rounds, tracer=t)
    restored = tr.binding_snapshot() == before
    ev = wl.evaluate(outcomes)
    metrics = tr.layer_metrics(t)
    lrt_calls = metrics.get("lrt_sim.lrt_statistics.calls", 0)
    metrics["lrt_sim.replications_kept_ratio"] = (
        t.lrt_returns / lrt_calls if lrt_calls else 0.0
    )
    wall = sum(b - a for a, b in spans)
    base_wall = sum(b - a for a, b in base_spans)
    metrics["trace.overhead_ratio"] = wall / base_wall - 1.0
    metrics["failed_ratio"] = ev.failed / ev.attempted
    metrics["fit_loglik_gap_nats"] = 0.0  # applies to fit_weibull only
    metrics.update(ev.quality)
    same = fingerprint(outcomes) == fingerprint(base_outcomes)
    ev.checks["traced_outputs_equal_untraced"] = same
    ev.checks["bindings_restored"] = restored
    ev.checks["nesting_full_ge_misspec_ge_0"] = t.nesting_violations == 0
    if not same:
        ev.unexpected.append("traced outputs differ from untraced outputs")
    if not restored:
        ev.unexpected.append("a wrapped attribute was not restored")
    if t.nesting_violations:
        ev.unexpected.append(f"{t.nesting_violations} replications broke full >= misspec >= 0")
    spans_path = out_dir / f"spans-{tag}.npz"
    t.save(spans_path)
    detail = {"rounds": rounds, "calls": len(spans), "spans": len(t.s_name),
              "spans_file": str(spans_path), "outcomes_sha256": fingerprint(outcomes)}
    return ev, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sampler = SpeedSampler()
    if not args.trace:
        sampler.start()

    import lehmann  # noqa: F401  (set-up time includes the library import)
    import lehmann.cli  # noqa: F401

    import workloads

    wl = workloads.make(args.workload, args.seed, args.seconds, args.out_dir)
    now = time.perf_counter()
    setup_raw = time.time() - args.spawn_time
    setup_active, setup_s = sampler.rescale(now - setup_raw, now)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_active}))
        return 0
    try:
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            ev, metrics, detail = traced(wl, args.seconds, args.out_dir, tag)
        else:
            ev, metrics, detail = untraced(wl, args.seconds, sampler)
    finally:
        sampler.stop()
        wl.close()
    import numpy
    import scipy

    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_active,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "attempted": ev.attempted,
        "failed": ev.failed,
        "correct": not ev.unexpected,
        "unexpected": ev.unexpected[:20],
        "known_defects": ev.known,
        "checks": ev.checks,
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
