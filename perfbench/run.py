"""apex-opt campaign benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in its own process

One workload runs in one fresh process against ``src/`` of the checkout.
``--trace 0`` measures the end-to-end metrics; the only instrumentation is
a timestamp at each executor ``run_trial`` call. ``--trace 1`` runs the
same campaigns twice, untraced and then with the layers wrapped in spans,
and reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last line of standard output is one JSON object; the
exit code is 1 when an output check fails and 2 on a usage or set-up error.
BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import Calibrator, Speed
from layers import CAMPAIGN_TARGETS, CLOCK_TARGETS, layer_metrics
from spans import Patcher, Tracer, TrialClock, min_over_passes, percentile, top_percentile
from workloads import (ROUNDS_PER_PASS, WORKLOADS, ReplayAudit, build_specs,
                       check_outputs, run_reference, run_timed, summarize_quality,
                       warm_up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_DECISIONS = 1000
PROBE_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def probe_setup(workload: str, trace: int, calibrator) -> list[dict]:
    """Set the workload up in fresh interpreters, one sample per probe.
    Each sample carries the speed factor of a calibration run just before."""
    samples = []
    for _ in range(SETUP_PROBES):
        speed = Speed()
        calibrator.sample(speed)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = elapsed
        sample["speed"] = speed.wall_factor
        samples.append(sample)
    return samples


def instrumented(fn, tracer=None):
    """Call ``fn(clock, on_campaign)`` with the decision clock (and optionally
    the tracer) installed; returns its result, the clock and the replay audit."""
    audit = ReplayAudit()
    clock = TrialClock(on_release=audit)
    patcher = Patcher()
    on_campaign = None
    try:
        patcher.install(CLOCK_TARGETS, lambda f, t: clock.wrap(f))
        if tracer is not None:
            patcher.install(CAMPAIGN_TARGETS,
                            lambda f, t: tracer.wrap(f, t.span, t.size, t.bind))
            on_campaign = lambda approach: setattr(tracer, "approach", approach)  # noqa: E731
        result = fn(clock, on_campaign)
    finally:
        patcher.restore()
    clock.finish()
    return result, clock, audit


def run_workload(args, calibrator) -> int:
    loadavg = os.getloadavg()
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    probes = probe_setup(workload.name, args.trace, calibrator)
    specs = build_specs(workload, ROOT)
    warm_up(workload, specs, calibrator)

    ref, ref_clock, ref_audit = instrumented(
        lambda clock, on_campaign: run_reference(workload, specs, calibrator))
    quality = summarize_quality(ref.results[0])
    errors = check_outputs(workload, ref.results[0], quality)
    audits = [ref_audit]
    # The result's counts are those of the reference block: they depend on
    # neither the seed nor on how many timed passes the machine's speed
    # allowed, so every run of a commit reports the same counts.
    attempted, failed = ref.attempted, ref.failed

    if not args.trace:
        wanted = spec["end_to_end"]
        pass_ends = []
        phase, clock, audit = instrumented(lambda clock, _: run_timed(
            workload, specs, calibrator, args.seed, args.seconds,
            lambda: pass_ends.append(len(clock.gap_starts))))
        audits.append(audit)
        pass_ends = pass_ends[ROUNDS_PER_PASS - 1::ROUNDS_PER_PASS]
        passes = len(pass_ends)
        per_round = [summarize_quality(r) for r in phase.results]
        if any(q != per_round[i % ROUNDS_PER_PASS] for i, q in enumerate(per_round)):
            errors.append("a repeated pass gave different campaign results")
        try:
            # Two passes for every run, so that the minimum does not
            # depend on how many passes the machine's speed allowed.
            decisions_ms = [g * 1e3 for g in
                            min_over_passes(clock.gaps[:pass_ends[1]], pass_ends[:2])]
        except ValueError as e:
            errors.append(f"a repeated pass made a different number of decisions: {e}")
            decisions_ms = [g * 1e3 for g in clock.gaps]
        if len(decisions_ms) < MIN_DECISIONS:
            raise RuntimeError(f"only {len(decisions_ms)} decisions per pass; "
                               f"the workload needs at least {MIN_DECISIONS}")
        top = top_percentile(len(decisions_ms))
        f_wall, f_cpu = phase.speed.wall_factor, phase.speed.cpu_factor
        f_setup = statistics.median(p["speed"] for p in probes)
        raw_setup = statistics.median(p["setup_s"] for p in probes)
        raw = {
            "trials_per_s": clock.trials / phase.wall_s,
            "cpu_ms_per_trial": phase.cpu_s * 1e3 / clock.trials,
            "decision_ms_p50": percentile(decisions_ms, 50.0),
            "decision_ms_p99": percentile(decisions_ms, 99.0),
        }
        metrics = {
            "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in probes),
            "trials_per_s": raw["trials_per_s"] * f_wall,
            "cpu_ms_per_trial": raw["cpu_ms_per_trial"] / f_cpu,
            "decision_ms_p50": raw["decision_ms_p50"] / f_wall,
            "decision_ms_p99": raw["decision_ms_p99"] / f_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_iter_pct": quality["completed_iter_pct"],
            "optimality_auc_pct": quality["optimality_auc_pct"],
            "rmsd_alpha": quality["rmsd_alpha"],
        }
        notes = [
            f"timed phase: {passes} passes of {ROUNDS_PER_PASS} rounds, "
            f"{phase.attempted} iterations, {phase.failed} failed, {clock.trials} "
            f"trials in {phase.wall_s:.2f} s of campaign time",
            f"decisions: {len(decisions_ms)} per pass, each timed as its minimum over "
            "the first two passes; highest percentile with >= 10 samples beyond it: "
            f"p{top:g} = {percentile(decisions_ms, top):.4f} ms (raw)",
            f"machine speed vs reference: wall x{f_wall:.3f}, cpu x{f_cpu:.3f} "
            f"({phase.speed.runs} kernel runs), set-up x{f_setup:.3f}; timings below "
            "are scaled to the reference machine",
            "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in
                                {"setup_s": raw_setup, **raw}.items()),
        ]
    else:
        wanted = spec["per_layer"]
        tracer = Tracer()
        traced, t_clock, t_audit = instrumented(
            lambda clock, on_campaign: run_reference(workload, specs, calibrator,
                                                     on_campaign), tracer)
        audits.append(t_audit)
        if (traced.attempted, traced.failed) != (attempted, failed):
            errors.append(f"traced block: {traced.failed} of {traced.attempted} iterations "
                          f"failed, untraced: {failed} of {attempted}")
        if summarize_quality(traced.results[0]) != quality:
            errors.append("quality numbers differ between the traced and the untraced run")
        metrics = layer_metrics(tracer, t_clock.gap_starts, t_clock.gap_ends,
                                traced.wall_s)
        for key in ("cli.import_s", "cli.parse_config_s", "executor.load_dataset_s"):
            metrics[key] = statistics.median(p[key] for p in probes)
        untraced_tps = ref_clock.trials / ref.wall_s * ref.speed.wall_factor
        traced_tps = t_clock.trials / traced.wall_s * traced.speed.wall_factor
        metrics["trace.overhead_pct"] = 100.0 * (untraced_tps / traced_tps - 1.0)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.jsonl"
        tracer.write_jsonl(trace_path)
        notes = [
            f"reference block: {ref_clock.trials} trials in {ref.wall_s:.2f} s untraced "
            f"(speed x{ref.speed.wall_factor:.3f}), {t_clock.trials} in "
            f"{traced.wall_s:.2f} s traced (speed x{traced.speed.wall_factor:.3f})",
            f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}",
        ]

    if workload.name == "replay-crystal":
        for audit in audits:
            if audit.executors == 0 or audit.reused:
                errors.append(f"replay: {audit.reused} of {audit.executors} "
                              "iterations consumed a record twice")
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metric set mismatch: {sorted(set(names) ^ set(metrics))}")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"reference block: {attempted} iterations attempted, {failed} failed "
          f"(failed_iter_ratio {failed / attempted:.4f})")
    for line in notes:
        print(line)
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"reference block ({workload.reference_iterations} iterations per approach):")
    for a, q in quality["per_approach"].items():
        print(f"  {a:<10} EM1 {q['em1']} EM2 {q['em2']} EM3 {q['em3']} "
              f"auc {q['auc_pct']:.3f} rmsd_alpha {q['rmsd_alpha']:.3f} "
              f"failures {q['failures']}/{q['iterations'] + q['failures']}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print("env " + json.dumps(environment(loadavg), sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if errors else 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in load_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name['name']}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apexopt" / "__init__.py").is_file():
        print(f"error: no apexopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    with Calibrator() as calibrator:
        return run_workload(args, calibrator)


if __name__ == "__main__":
    sys.exit(main())
