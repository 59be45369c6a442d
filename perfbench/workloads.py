"""The benchmark's three workloads and their output checks.

Each workload turns the benchmark seed into inputs (``make_inputs``),
builds a fresh simulated deployment for one repetition (``build``) and
runs the repetition (``run``), returning the work it did.  ``run`` calls
``tick`` at the workload's natural boundaries, a few tens of host
milliseconds apart, where the harness interleaves calibration.
``probe`` runs one extra, untimed repetition with passive instrumentation
attached, checks the program's outputs and computes the virtual metrics.
The program only ever sees generated inputs; its own RNG streams use the
fixed ``PROGRAM_SEED``.

The workloads drive the program only through its public entry points:
``make_context``, ``PS2Context``/``PSClient``, ``train_logistic_regression``,
``run_serving`` and ``MetricsRegistry.snapshot()``.  Passive observation
uses documented attributes only: the registry's ``window_sink``,
``cluster.stage_end_hooks``, ``run_serving``'s ``autoscaler`` argument,
NIC and CPU timelines' busy seconds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import repro.ml
from repro.config import FailureConfig
from repro.data import dataset, spec
from repro.experiments import make_context
from repro.ml import evaluate_logistic_loss
from repro.serving import ServingScenario, TrafficGenerator, run_serving

#: Seed of the program's own RNG streams (sampling, initialisation); the
#: benchmark seed only shapes the generated inputs.
PROGRAM_SEED = 17

#: Client-op tags the PS client records one latency observation under.
CLIENT_OPS = ("pull", "pull-create", "push", "pull-range", "push-range",
              "pull-block", "push-block", "rowagg", "kernel", "fill")

#: Percentiles tried, highest first, for "the highest percentile with at
#: least ``MIN_BEYOND`` samples beyond it".
TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10


# -- shared helpers ---------------------------------------------------------

class LatencySink:
    """A passive ``MetricsRegistry.window_sink`` keeping exact latencies.

    The registry mirrors every ``observe(tag, seconds)`` into its window
    sink; this one keeps the observations of the tags it was given, in
    order.  The registry's own histograms are 2%-bucketed, so exact
    percentiles need the raw values.
    """

    def __init__(self, tags):
        self.tags = frozenset(tags)
        self.values = []

    def observe(self, tag, seconds):
        if tag in self.tags:
            self.values.append((tag, seconds))

    def of(self, *tags):
        return [v for t, v in self.values if t in tags]


def percentile(values, q):
    """Nearest-rank *q* percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values):
    """``(q, value, beyond)`` for the highest supported tail percentile."""
    for q in TAIL_QUANTILES:
        value, beyond = percentile(values, q)
        if beyond >= MIN_BEYOND:
            break
    return q, value, beyond


def digest(*parts):
    """A stable hash of nested snapshot data (dicts with tuple keys)."""
    def norm(obj):
        if isinstance(obj, dict):
            return sorted((repr(k), norm(v)) for k, v in obj.items())
        if isinstance(obj, (list, tuple)):
            return [norm(v) for v in obj]
        return repr(obj)
    return hashlib.sha256(repr(norm(list(parts))).encode()).hexdigest()


def client_ops(snapshot):
    """Client PS ops attempted, from the per-op latency histograms."""
    latency = snapshot["latency"]
    return sum(latency[tag]["count"] for tag in latency
               if tag.split(".")[0] in CLIENT_OPS)


def summarize(ctx, *extra):
    """Virtual outcome of one repetition: makespan, bytes, full digest."""
    snapshot = ctx.metrics.snapshot()
    return SimpleNamespace(
        makespan=ctx.elapsed(),
        wire_bytes=sum(snapshot["bytes_by_tag"].values()),
        snapshot=snapshot,
        digest=digest(ctx.elapsed(), snapshot, *extra),
    )


def common_checks(summary):
    """Checks every workload's snapshot must pass."""
    snap = summary.snapshot
    by_tag = sum(snap["bytes_by_tag"].values())
    sent = sum(snap["bytes_sent"].values())
    received = sum(snap["bytes_received"].values())
    return [
        ("bytes by tag == bytes sent per node",
         by_tag == sent == received,
         "by tag %r, sent %r, received %r" % (by_tag, sent, received)),
    ]


def layer_extras(ctx, summary):
    """Per-layer counters read from one repetition's deployment."""
    snap = summary.snapshot
    counters = snap["counters"]
    makespan = summary.makespan
    network = ctx.cluster.network
    nic_busy = max(max(network.nic_utilization(node))
                   for node in ctx.cluster.node_ids)
    cpu_busy = max(server.cpu.busy_seconds() for server in ctx.master.servers)
    wire_messages = sum(snap["messages_by_tag"].values())
    logical = sum(snap["logical_messages_by_tag"].values())
    fanouts = counters.get("chain-fanouts", 0) + counters.get(
        "replica-fanouts", 0)
    wasted = counters.get("replica-fanout-skipped", 0) + counters.get(
        "replica-fanout-fenced", 0)
    decisions = snap["codec_decisions"]
    compressed = sum(n for (_tag, codec), n in decisions.items()
                     if codec != "identity")
    task = snap["latency"].get("task")
    return {
        "cluster.network.nic_busy_max_frac": nic_busy / makespan,
        "cluster.network.wire_messages": wire_messages,
        "ps.transport.coalesce_ratio": logical / wire_messages,
        "ps.transport.retries": counters.get("op-retries", 0),
        "ps.server.cpu_busy_max_frac": cpu_busy / makespan,
        "ps.replication.fanouts": fanouts,
        "ps.replication.fanout_wasted_frac": wasted / fanouts if fanouts
        else 0.0,
        "ps.replication.promotions": counters.get("chain-promotions", 0),
        "ps.costmodel.compressed_frac": (
            compressed / sum(decisions.values()) if decisions else 0.0),
        "ps.master.lazy_creates": counters.get("lazy-creates", 0),
        "ps.master.recover_stall_s": 0.0,
        "ps.master.delayed_requests": 0,
        "sparklite.scheduler.tasks": task["count"] if task else 0,
        "sim.events": wire_messages + sum(snap["compute_counts"].values()),
    }


# -- lr-train -----------------------------------------------------------------

class LrTrain:
    """BSP sparse logistic regression with server-side Adam (the paper's own
    workload; the only one that runs sparklite, DCVs and the ml layer)."""

    name = "lr-train"
    work_unit = "iterations"
    throughput_name = "host_iters_per_s"
    EXECUTORS = 20
    SERVERS = 20
    ITERATIONS = 50
    BATCH_FRACTION = 0.1
    TARGET_LOSS = 0.3

    def describe(self):
        return ("closed loop, %d executors / %d servers, kddb analogue, "
                "Adam, batch_fraction=%g, %d iterations per repetition"
                % (self.EXECUTORS, self.SERVERS, self.BATCH_FRACTION,
                   self.ITERATIONS))

    def make_inputs(self, seed):
        return SimpleNamespace(rows=dataset("kddb", seed=seed),
                               dim=spec("kddb").params["dim"])

    def inputs_digest(self, inputs):
        return digest([(r.indices.tobytes(), r.values.tobytes(), r.label)
                       for r in inputs.rows])

    def build(self, inputs):
        return SimpleNamespace(ctx=make_context(
            n_executors=self.EXECUTORS, n_servers=self.SERVERS,
            seed=PROGRAM_SEED))

    def _train(self, ctx, inputs, n_iterations):
        return repro.ml.train_logistic_regression(
            ctx, inputs.rows, inputs.dim, optimizer="adam",
            n_iterations=n_iterations, batch_fraction=self.BATCH_FRACTION,
            seed=PROGRAM_SEED)

    def run(self, state, inputs, out, tick=None):
        if tick is not None:
            state.ctx.cluster.stage_end_hooks.append(tick)
        out["result"] = self._train(state.ctx, inputs, self.ITERATIONS)
        return self.ITERATIONS

    def summary(self, state, out):
        return summarize(state.ctx, out["result"].history)

    def probe(self, inputs, full):
        state = self.build(inputs)
        sink = LatencySink(("pull",))
        state.ctx.metrics.window_sink = sink
        out = {}
        self.run(state, inputs, out)
        summary = self.summary(state, out)
        history = out["result"].history
        reads = sink.of("pull")
        checks = common_checks(summary)

        # Recompute the last reported loss: it is the mean batch loss of
        # iteration N under the weights after N-1 steps.  A run of N-1
        # iterations ends with exactly those weights (same seeds), and
        # iteration N's batch is the sample training drew for it.
        last = self.ITERATIONS - 1
        check_state = self.build(inputs)
        shorter = self._train(check_state.ctx, inputs, last)
        weights = shorter.extras["weight"].pull()
        batch = check_state.ctx.parallelize(inputs.rows).sample(
            self.BATCH_FRACTION, seed=PROGRAM_SEED * 10000 + last).collect()
        recomputed = evaluate_logistic_loss(batch, weights)
        reported = history[-1][1]
        checks.append((
            "loss recomputed from pulled weights == last reported loss",
            math.isclose(recomputed, reported, rel_tol=1e-9),
            "recomputed %r, reported %r" % (recomputed, reported)))
        checks.append((
            "N-1 iteration run is a prefix of the N iteration run",
            shorter.history == history[:last], ""))

        q, p_tail, beyond = tail(reads)
        metrics = {
            "virtual_makespan_s": summary.makespan,
            "wire_bytes": summary.wire_bytes,
            "read_p50_s": percentile(reads, 0.5)[0],
            "read_p99_s": p_tail,
            "train_loss": reported,
            "time_to_loss_s": out["result"].time_to(self.TARGET_LOSS),
        }
        notes = {
            "read_p50_s": "%d weight pulls" % len(reads),
            "read_p99_s": "p%g, %d pulls, %d beyond" % (q * 100, len(reads),
                                                        beyond),
            "time_to_loss_s": "first loss <= %g" % self.TARGET_LOSS,
        }
        return SimpleNamespace(summary=summary, metrics=metrics, notes=notes,
                               checks=checks,
                               extras=layer_extras(state.ctx, summary))


# -- ps-storm -----------------------------------------------------------------

class PsStorm:
    """The fig13 PS-op storm: dense and sparse push/pull plus coalesced
    block ops over 100 workers / 50 servers (framework-bound, bulk path)."""

    name = "ps-storm"
    work_unit = "client ops"
    throughput_name = "host_ops_per_s"
    EXECUTORS = 100
    SERVERS = 50
    #: Matrix width; the seed moves each matrix's width within +-DIM_JITTER
    #: so that the virtual metrics, which depend on sizes only, differ
    #: (slightly) from seed to seed.
    DIM = 5000
    DIM_JITTER = 250
    DENSE_ROWS = 16
    SPARSE_ROWS = 4
    ITERATIONS = 500
    #: Storm iterations between timing boundaries.
    SLICE = 5
    BLOCK_EVERY = 5
    BLOCK_ROWS = 8
    VECTORS = 8

    def describe(self):
        return ("closed loop, %d workers / %d servers, widths %d+-%d, %d "
                "storm iterations per repetition (4 row ops each, plus a "
                "block pull and push every %d)" % (
                    self.EXECUTORS, self.SERVERS, self.DIM, self.DIM_JITTER,
                    self.ITERATIONS, self.BLOCK_EVERY))

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = self.ITERATIONS
        n_blocks = len(range(0, n, self.BLOCK_EVERY))
        dense_dim, sparse_dim = (
            self.DIM + rng.integers(-self.DIM_JITTER, self.DIM_JITTER + 1,
                                    size=2)).tolist()
        # Multiples of 1/8 keep every sum exact, so pulled rows can be
        # compared with the analytic sums bit for bit.
        strides = rng.integers(5, 10, size=self.VECTORS)
        offsets = rng.integers(0, 5, size=self.VECTORS)
        return SimpleNamespace(
            dense_dim=dense_dim,
            sparse_dim=sparse_dim,
            workers=rng.integers(0, self.EXECUTORS, size=n).tolist(),
            dense_rows=rng.integers(0, self.DENSE_ROWS, size=n).tolist(),
            dense_pick=rng.integers(0, self.VECTORS, size=n).tolist(),
            dense_values=rng.integers(1, 9, size=(self.VECTORS, dense_dim))
            / 8.0,
            sparse_rows=rng.integers(0, self.SPARSE_ROWS, size=n).tolist(),
            sparse_pick=rng.integers(0, self.VECTORS, size=n).tolist(),
            sparse_idx=[np.arange(o, sparse_dim, s, dtype=np.int64)
                        for o, s in zip(offsets, strides)],
            sparse_scale=(rng.integers(1, 5, size=n) / 4.0).tolist(),
            block_start=rng.integers(
                0, self.DENSE_ROWS - self.BLOCK_ROWS + 1,
                size=n_blocks).tolist(),
            block=rng.integers(1, 9, size=(self.BLOCK_ROWS, dense_dim)) / 8.0,
        )

    def inputs_digest(self, inputs):
        return digest(inputs.dense_dim, inputs.sparse_dim, inputs.workers,
                      inputs.dense_rows, inputs.dense_pick,
                      inputs.dense_values.tobytes(), inputs.sparse_rows,
                      inputs.sparse_pick,
                      [i.tobytes() for i in inputs.sparse_idx],
                      inputs.sparse_scale, inputs.block_start,
                      inputs.block.tobytes())

    def build(self, inputs):
        ctx = make_context(n_executors=self.EXECUTORS, n_servers=self.SERVERS,
                           seed=PROGRAM_SEED)
        dense = ctx.dense(inputs.dense_dim, rows=self.DENSE_ROWS,
                          name="storm-dense")
        sparse = ctx.sparse(inputs.sparse_dim, rows=self.SPARSE_ROWS,
                            name="storm-sparse")
        sparse_values = [np.full(inputs.sparse_idx[pick].size, scale)
                         for pick, scale in zip(inputs.sparse_pick,
                                                inputs.sparse_scale)]
        return SimpleNamespace(ctx=ctx, dense=dense.matrix_id,
                               sparse=sparse.matrix_id,
                               sparse_values=sparse_values)

    def run(self, state, inputs, out, tick=None, check=None):
        ctx = state.ctx
        dense, sparse = state.dense, state.sparse
        executors = ctx.cluster.executors
        coord = ctx.coordinator_client
        ops = 0
        for lo in range(0, self.ITERATIONS, self.SLICE):
            for it in range(lo, min(lo + self.SLICE, self.ITERATIONS)):
                client = ctx.client_for(executors[inputs.workers[it]])
                drow = inputs.dense_rows[it]
                dvals = inputs.dense_values[inputs.dense_pick[it]]
                srow = inputs.sparse_rows[it]
                idx = inputs.sparse_idx[inputs.sparse_pick[it]]
                svals = state.sparse_values[it]
                client.push_add(dense, drow, dvals)
                if check is not None:
                    check.push(dense, drow, dvals)
                    t0 = check.now(client)
                pulled = client.pull_row(dense, drow)
                if check is not None:
                    check.pull(client, t0, pulled, dense, drow)
                client.push_add(sparse, srow, svals, idx)
                if check is not None:
                    check.push(sparse, srow, svals, idx)
                    t0 = check.now(client)
                pulled = client.pull_row(sparse, srow, idx)
                if check is not None:
                    check.pull(client, t0, pulled, sparse, srow, idx)
                ops += 4
                if it % self.BLOCK_EVERY == 0:
                    start = inputs.block_start[it // self.BLOCK_EVERY]
                    rows = list(range(start, start + self.BLOCK_ROWS))
                    if check is not None:
                        t0 = check.now(coord)
                    pulled = coord.pull_block(dense, rows)
                    if check is not None:
                        check.pull(coord, t0, pulled, dense, rows)
                    coord.push_block_add(dense, rows, inputs.block)
                    if check is not None:
                        check.push(dense, rows, inputs.block)
                    ops += 2
            if tick is not None:
                tick()
        return ops

    def summary(self, state, out):
        return summarize(state.ctx)

    def probe(self, inputs, full):
        state = self.build(inputs)
        check = _StormCheck(state, self, inputs)
        self.run(state, inputs, {}, check=check)
        summary = self.summary(state, {})
        extras = layer_extras(state.ctx, summary)
        checks = common_checks(summary)
        checks.append(("every pulled row == analytic sum of prior pushes",
                       not check.mismatches,
                       "%d of %d pulls differ" % (check.mismatches,
                                                  len(check.latencies))))
        coord = state.ctx.coordinator_client
        final_ok = all(
            np.array_equal(coord.pull_row(matrix, row), expected[row])
            for matrix, expected in check.expected.items()
            for row in range(expected.shape[0]))
        checks.append(("final rows == analytic sum of all pushes", final_ok,
                       ""))
        reads = check.latencies
        q, p_tail, beyond = tail(reads)
        metrics = {
            "virtual_makespan_s": summary.makespan,
            "wire_bytes": summary.wire_bytes,
            "read_p50_s": percentile(reads, 0.5)[0],
            "read_p99_s": p_tail,
        }
        notes = {
            "read_p50_s": "%d row and block pulls" % len(reads),
            "read_p99_s": "p%g, %d pulls, %d beyond" % (q * 100, len(reads),
                                                        beyond),
        }
        return SimpleNamespace(summary=summary, metrics=metrics, notes=notes,
                               checks=checks, extras=extras)


class _StormCheck:
    """Tracks the analytic state of the storm's matrices and each pull's
    virtual latency (send to last response on the caller's clock)."""

    def __init__(self, state, storm, inputs):
        self.clock = state.ctx.cluster.clock
        self.expected = {
            state.dense: np.zeros((storm.DENSE_ROWS, inputs.dense_dim)),
            state.sparse: np.zeros((storm.SPARSE_ROWS, inputs.sparse_dim)),
        }
        self.latencies = []
        self.mismatches = 0

    def now(self, client):
        return self.clock.now(client.node_id)

    def push(self, matrix, row, values, idx=None):
        target = self.expected[matrix]
        if idx is None:
            target[row] += values
        else:
            target[row, idx] += values

    def pull(self, client, t0, pulled, matrix, row, idx=None):
        self.latencies.append(self.clock.now(client.node_id) - t0)
        want = self.expected[matrix][row]
        if idx is not None:
            want = want[idx]
        if not np.array_equal(np.asarray(pulled), want):
            self.mismatches += 1


# -- serve-chain --------------------------------------------------------------

@dataclass(frozen=True)
class _Replay(ServingScenario):
    """A serving scenario that replays a request stream made elsewhere."""

    requests: tuple = ()

    def traffic(self, seed):
        return _Recorded(self.requests)


class _Recorded:
    def __init__(self, requests):
        self.requests = requests

    def generate(self, duration):
        return list(self.requests)


class _Poll:
    """A passive stand-in for the autoscaler ``run_serving`` polls after
    every request: it never scales, it only marks timing boundaries."""

    def __init__(self, tick, every):
        self.events = []
        self._tick = tick
        self._every = every
        self._n = 0

    def maybe_scale(self, now):
        self._n += 1
        if self._n % self._every == 0:
            self._tick()


class ServeChain:
    """Open-loop Zipf serving on lazy tables with replica chains, the auto
    codec and one server crash mid-stream (the per-message slow path)."""

    name = "serve-chain"
    work_unit = "requests"
    throughput_name = "host_requests_per_s"
    WORKERS = 2
    SERVERS = 2
    #: Fixed offered rate: about 0.75x the capacity of the code the
    #: benchmark was written against.
    RATE = 6000.0
    DURATION = 2.0
    N_ITEMS = 4096
    DIM = 32
    KEYS = 4
    ZIPF = 1.1
    READ_FRACTION = 0.9
    SLO = 0.002
    #: Capacity search: rate bounds as multiples of RATE, and the number
    #: of bisection steps (log-spaced) between them.
    CAPACITY_BOUNDS = (0.5, 2.0)
    CAPACITY_STEPS = 6
    #: Requests served between timing boundaries.
    POLL_EVERY = 40

    def describe(self):
        return ("open loop, Poisson arrivals at %g req/s for %g virtual s, "
                "Zipf %g over %d items, %d keys per request, %d%% updates, "
                "%d workers / %d servers, chain_replicas=1, wire_codec=auto, "
                "server 0 crashes at %g s" % (
                    self.RATE, self.DURATION, self.ZIPF, self.N_ITEMS,
                    self.KEYS, round(100 * (1 - self.READ_FRACTION)),
                    self.WORKERS, self.SERVERS, self.DURATION / 2))

    def make_inputs(self, seed):
        stream = TrafficGenerator(
            seed=seed, n_items=self.N_ITEMS, base_rate=self.RATE,
            zipf_exponent=self.ZIPF, read_fraction=self.READ_FRACTION,
            keys_per_request=self.KEYS, profile="flat",
        ).generate(self.DURATION)
        return SimpleNamespace(stream=tuple(stream))

    def inputs_digest(self, inputs):
        return digest(inputs.stream)

    def build(self, inputs, crash=True):
        failures = FailureConfig(
            server_failure_times=((0, self.DURATION / 2),)) if crash else None
        return SimpleNamespace(ctx=make_context(
            n_executors=self.WORKERS, n_servers=self.SERVERS,
            seed=PROGRAM_SEED, chain_replicas=1, wire_codec="auto",
            failures=failures))

    def _scenario(self, stream):
        return _Replay(name=self.name, duration=self.DURATION,
                       base_rate=self.RATE, n_items=self.N_ITEMS, dim=self.DIM,
                       keys_per_request=self.KEYS, zipf_exponent=self.ZIPF,
                       read_fraction=self.READ_FRACTION, slo_target=self.SLO,
                       requests=stream)

    def run(self, state, inputs, out, tick=None):
        poll = _Poll(tick, self.POLL_EVERY) if tick is not None else None
        out["result"] = run_serving(state.ctx, self._scenario(inputs.stream),
                                    autoscaler=poll)
        return len(inputs.stream)

    def summary(self, state, out):
        result = out["result"]
        return summarize(state.ctx, result["slo"], result["created_rows"])

    def _replay(self, stream, crash):
        """One instrumented run; returns (state, result, per-request s)."""
        state = self.build(None, crash=crash)
        sink = LatencySink(("serve:read", "serve:update"))
        state.ctx.metrics.window_sink = sink
        result = run_serving(state.ctx, self._scenario(stream))
        return state, result, sink

    def capacity(self, stream):
        """Highest offered rate with read p99 <= SLO and no growing backlog,
        bisected (log-spaced) on crash-free copies of *stream*."""
        def ok(rate):
            scaled = tuple(r._replace(time=r.time * self.RATE / rate)
                           for r in stream)
            _state, _result, sink = self._replay(scaled, crash=False)
            latencies = [v for _t, v in sink.values]
            last_quarter = latencies[-max(1, len(latencies) // 4):]
            return (percentile(sink.of("serve:read"), 0.99)[0] <= self.SLO
                    and percentile(last_quarter, 0.5)[0] <= self.SLO)

        low, high = (self.RATE * b for b in self.CAPACITY_BOUNDS)
        lo, hi = low, high
        for _ in range(self.CAPACITY_STEPS):
            mid = math.sqrt(lo * hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        if lo == low or hi == high:
            return lo, "at the edge of the search range %g..%g" % (low, high)
        return lo, "bisected to within %.1f%%" % (100 * (hi / lo - 1))

    def probe(self, inputs, full):
        stream = inputs.stream
        state, result, sink = self._replay(stream, crash=True)
        summary = self.summary(state, {"result": result})
        snap = summary.snapshot
        counters = snap["counters"]
        latencies = [v for _t, v in sink.values]
        reads = sink.of("serve:read")
        updates = sink.of("serve:update")
        distinct = len({i for r in stream for i in r.ids})
        dropped = counters.get("client-dropped-ops", 0)
        checks = common_checks(summary)
        checks += [
            ("requests served == requests offered",
             result["requests"] == len(stream) == len(latencies),
             "served %d, observed %d, offered %d" % (
                 result["requests"], len(latencies), len(stream))),
            ("created rows == distinct ids in the stream",
             result["created_rows"] == distinct,
             "created %d, distinct %d" % (result["created_rows"], distinct)),
            ("no request dropped", dropped == 0, "%d dropped" % dropped),
            ("server 0 crashed once and was promoted",
             counters.get("server-crashes", 0) == 1
             and counters.get("chain-promotions", 0) >= 1, ""),
        ]
        # The crash's cost, request by request, against a crash-free copy
        # of the same stream at the same rate.
        _s, _r, free_sink = self._replay(stream, crash=False)
        free = [v for _t, v in free_sink.values]
        extra = [c - f for c, f in zip(latencies, free)]
        extras = layer_extras(state.ctx, summary)
        extras["ps.master.recover_stall_s"] = max(extra)
        extras["ps.master.delayed_requests"] = sum(1 for e in extra if e > 0)

        q_upd, p_upd, beyond_upd = tail(updates)
        q, p_tail, beyond = tail(reads)
        missed = sum(1 for v in latencies if v > self.SLO) + dropped
        metrics = {
            "virtual_makespan_s": summary.makespan,
            "wire_bytes": summary.wire_bytes,
            "read_p50_s": percentile(reads, 0.5)[0],
            "read_p99_s": p_tail,
            "update_p95_s": p_upd,
            "slo_miss_frac": missed / len(stream),
        }
        notes = {
            "read_p50_s": "%d reads" % len(reads),
            "read_p99_s": "p%g, %d reads, %d beyond" % (q * 100, len(reads),
                                                        beyond),
            "update_p95_s": "p%g, %d updates, %d beyond" % (
                q_upd * 100, len(updates), beyond_upd),
            "slo_miss_frac": "%d of %d over %g s or failed" % (
                missed, len(stream), self.SLO),
        }
        if full:
            metrics["capacity_rps"], notes["capacity_rps"] = self.capacity(
                stream)
        return SimpleNamespace(summary=summary, metrics=metrics, notes=notes,
                               checks=checks, extras=extras)


WORKLOADS = {wl.name: wl for wl in (LrTrain(), PsStorm(), ServeChain())}
