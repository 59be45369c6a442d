"""Runs one workload for a time budget and assembles its metrics.

A run has four phases:

1. **set-up** - the inputs are generated from the seed several times
   (each must hash the same) and timed;
2. **probe** - one untimed repetition with passive instrumentation checks
   the outputs and yields the virtual metrics (deterministic per seed);
3. **measurement** - fresh repetitions run until the budget is spent, each
   sliced and interleaved with calibration; every repetition's virtual
   outcome must hash the same as the probe's.  With tracing on, every
   second repetition runs with the layer wrappers installed;
4. **critical path** (tracing on only) - one repetition with the program's
   own tracer on splits the virtual makespan into compute, network and
   queueing.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from types import SimpleNamespace

from repro.obs import critical_path

from perfbench.calibration import HostTimer
from perfbench.layers import LAYERS, ROOTS, Patch, SpanRecorder
from perfbench.workloads import client_ops

#: Times the inputs are generated (and set-up timed) per run.
GEN_REPEATS = 3

#: Fewest measured repetitions per run.
MIN_REPS = 2

#: The metrics ``--trace 0`` reports: (name, unit, kind).
END_TO_END = (
    ("setup_s", "s", "host"),
    ("host_work_per_s", "1/s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("virtual_makespan_s", "s", "virtual"),
    ("wire_bytes", "bytes", "virtual"),
    ("read_p50_s", "s", "virtual"),
    ("read_p99_s", "s", "virtual"),
)

#: Every end-to-end metric the benchmark prints, by workload-specific name.
REPORTED = (
    ("setup_s", "s", "host"),
    ("host_iters_per_s", "1/s", "host"),
    ("host_ops_per_s", "1/s", "host"),
    ("host_requests_per_s", "1/s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("virtual_makespan_s", "s", "virtual"),
    ("wire_bytes", "bytes", "virtual"),
    ("train_loss", "loss", "virtual"),
    ("time_to_loss_s", "s", "virtual"),
    ("read_p50_s", "s", "virtual"),
    ("read_p99_s", "s", "virtual"),
    ("update_p95_s", "s", "virtual"),
    ("slo_miss_frac", "fraction", "virtual"),
    ("capacity_rps", "req/s", "virtual"),
    ("failed_op_frac", "fraction", "virtual"),
)

#: The metrics ``--trace 1`` reports: (name, unit).
PER_LAYER = tuple(
    [(layer + suffix, unit) for layer in LAYERS
     for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [
        ("cluster.network.nic_busy_max_frac", "fraction"),
        ("cluster.network.wire_messages", "count"),
        ("ps.transport.coalesce_ratio", "ratio"),
        ("ps.transport.retries", "count"),
        ("ps.server.cpu_busy_max_frac", "fraction"),
        ("ps.replication.fanouts", "count"),
        ("ps.replication.fanout_wasted_frac", "fraction"),
        ("ps.replication.promotions", "count"),
        ("ps.costmodel.compressed_frac", "fraction"),
        ("ps.master.lazy_creates", "count"),
        ("ps.master.recover_stall_s", "s"),
        ("ps.master.delayed_requests", "count"),
        ("sparklite.scheduler.tasks", "count"),
        ("sim.events", "count"),
        ("sim.events_per_host_s", "1/s"),
        ("critical_path.compute_s", "s"),
        ("critical_path.network_s", "s"),
        ("critical_path.queueing_s", "s"),
        ("tracing.host_s", "s"),
        ("tracing.remainder_s", "s"),
        ("tracing.overhead_frac", "fraction"),
    ]
)


def _timed(fn):
    """``(result, raw_s, calibrated_s)`` of one calibrated call."""
    timer = HostTimer()
    timer.start()
    result = fn()
    timer.stop()
    return result, timer.raw_s, timer.calibrated(timer.raw_s)


def _repetition(workload, inputs, recorder=None):
    """One fresh repetition of *workload*, timed and calibrated.

    Traced repetitions run inside root spans and without calibration
    ticks, which would otherwise land inside the layers' spans.
    """
    timer = HostTimer()
    patch = Patch(recorder).install() if recorder is not None else None
    try:
        started = time.perf_counter()
        if recorder is not None:
            state = recorder.root("bench.setup", workload.build, inputs)
        else:
            state = workload.build(inputs)
        build_raw = time.perf_counter() - started
        out = {}
        if recorder is not None:
            started = time.perf_counter()
            work = recorder.root("bench.workload", workload.run, state,
                                 inputs, out)
            raw = time.perf_counter() - started
        else:
            timer.start()
            work = workload.run(state, inputs, out, timer.tick)
            timer.stop()
            raw = timer.raw_s
    finally:
        if patch is not None:
            patch.restore()
    return SimpleNamespace(
        raw=raw, cal=timer.calibrated(raw), work=work, build_raw=build_raw,
        build_cal=timer.calibrated(build_raw), traced=recorder is not None,
        tracer_on=state.ctx.cluster.tracer.enabled,
        summary=workload.summary(state, out),
    )


def _critical_path_rep(workload, inputs):
    """One repetition with the program's own tracer on.

    Returns the critical-path split of the virtual makespan and the
    repetition's virtual digest, which must equal the untraced one.
    """
    state = workload.build(inputs)
    state.ctx.cluster.tracer.enable()
    out = {}
    workload.run(state, inputs, out)
    summary = workload.summary(state, out)
    return critical_path.analyze(state.ctx.cluster.tracer).categories, \
        summary.digest


def run_benchmark(workload, seed, seconds, trace, span_dir=None):
    """Run *workload* under *seed* for about *seconds*; returns a report."""
    checks = []

    gens = [_timed(lambda: workload.make_inputs(seed))
            for _ in range(GEN_REPEATS)]
    inputs = gens[0][0]
    checks.append(("inputs are a pure function of the seed",
                   len({workload.inputs_digest(g[0]) for g in gens}) == 1, ""))

    probe = workload.probe(inputs, full=not trace)
    checks += probe.checks

    recorder = SpanRecorder() if trace else None
    reps = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(_repetition(workload, inputs,
                                recorder if traced else None))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break
    same = all(rep.summary.digest == probe.summary.digest for rep in reps)
    checks.append(("every repetition's virtual outcome is bit-identical"
                   + (" (traced and untraced)" if trace else ""), same,
                   "%d repetitions" % len(reps)))
    checks.append(("program tracer stays off in measured repetitions",
                   not any(rep.tracer_on for rep in reps), ""))

    plain = [rep for rep in reps if not rep.traced]
    rate = sum(rep.work for rep in plain) / sum(rep.cal for rep in plain)
    raw_rate = sum(rep.work for rep in plain) / sum(rep.raw for rep in plain)
    setup_cal = (statistics.median(g[2] for g in gens)
                 + statistics.median(rep.build_cal for rep in plain))
    setup_raw = (statistics.median(g[1] for g in gens)
                 + statistics.median(rep.build_raw for rep in plain))
    snap = probe.summary.snapshot
    n_ops = client_ops(snap)
    dropped = snap["counters"].get("client-dropped-ops", 0)

    metrics = dict(probe.metrics)
    metrics.update({
        "setup_s": setup_cal,
        workload.throughput_name: rate,
        "host_work_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failed_op_frac": dropped / n_ops,
    })
    notes = dict(probe.notes)
    notes.update({
        "setup_s": "calibrated; raw %.4f s (input generation x%d, "
                   "deployment build x%d, medians)" % (
                       setup_raw, GEN_REPEATS, len(plain)),
        workload.throughput_name: "%s per calibrated s; raw %.1f/s; "
                                  "%d repetitions pooled" % (
                                      workload.work_unit, raw_rate,
                                      len(plain)),
        "failed_op_frac": "%d of %d client ops" % (dropped, n_ops),
    })

    layer = None
    if trace:
        layer = _layer_metrics(workload, inputs, probe, reps, recorder,
                               checks)
        if span_dir is not None:
            os.makedirs(span_dir, exist_ok=True)
            path = os.path.join(span_dir, "spans-%s-seed%d.csv"
                                % (workload.name, seed))
            recorder.write(path)
            notes["spans"] = "%d spans written to %s (%d more not kept)" % (
                len(recorder.span_id), path, recorder.dropped)

    return SimpleNamespace(
        metrics=metrics, notes=notes, layer=layer, checks=checks,
        attempted=sum(client_ops(rep.summary.snapshot) for rep in reps)
        + n_ops,
        failed=dropped * (len(reps) + 1),
    )


def _layer_metrics(workload, inputs, probe, reps, recorder, checks):
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    n = len(traced)
    out = {}
    for name in LAYERS:
        i = recorder.index(name)
        out[name + ".calls"] = recorder.calls[i] / n
        out[name + ".self_s"] = recorder.self_s[i] / n
    out.update(probe.extras)
    untraced_raw = statistics.median(rep.raw for rep in plain)
    out["sim.events_per_host_s"] = out["sim.events"] / untraced_raw

    categories, cp_digest = _critical_path_rep(workload, inputs)
    checks.append(("program-traced run is virtually bit-identical",
                   cp_digest == probe.summary.digest, ""))
    out["critical_path.compute_s"] = categories["compute"]
    out["critical_path.network_s"] = categories["network"]
    out["critical_path.queueing_s"] = categories["queueing"]

    roots = [recorder.index(name) for name in ROOTS]
    total_self = sum(recorder.self_s)
    remainder = sum(recorder.self_s[i] for i in roots)
    traced_host = sum(rep.raw + rep.build_raw for rep in traced)
    # Every wrapped call ran inside a root span, so the layers' self times
    # plus the roots' own (untraced) remainder cover the traced host time.
    checks.append(("layer self times + remainder == traced host time",
                   not recorder.stack
                   and abs(total_self - traced_host) <= 0.02 * traced_host,
                   "self %.4f s, traced %.4f s" % (total_self, traced_host)))
    out["tracing.host_s"] = total_self / n
    out["tracing.remainder_s"] = remainder / n
    out["tracing.overhead_frac"] = (
        statistics.median(rep.raw for rep in traced) / untraced_raw - 1.0)
    return out
