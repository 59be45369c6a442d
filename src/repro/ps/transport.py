"""The client-side RPC transport: routing, transfer, dispatch, retry.

This module is the explicit wire between a :class:`~repro.ps.client.PSClient`
and the servers.  The client's job ends at *building* typed
:mod:`~repro.ps.messages` values and grouping them by destination; the
transport owns everything below that line, in one staged round
(:meth:`Transport._round`) whose stages run in order:

- **routing and trace context** — the per-matrix layout cache, the routing
  RPC to the coordinator on a cold (or invalidated) entry, and the causal
  context stamped on each message when tracing is on;
- **request booking** — every request of the round through one
  :meth:`~repro.cluster.network.NetworkModel.transfer_many` call, priced by
  each message's own ``wire_bytes()``;
- **serving** — :func:`~repro.ps.server.serve_fast_fanout`, the one serve
  lane: plain primary pulls and pushes inline, everything else through
  ``server.begin`` + ``server.dispatch`` on the *current*
  :class:`~repro.ps.server.PSServer` object resolved through the master (no
  closures over server objects exist anywhere, so a retry can never replay
  work pinned to a pre-failure process);
- **response booking** — every reply through one ``transfer_gather``,
  departing at its request's service completion and priced by the
  message's ``response_bytes()``.

The retry loop lives in the same round: a failed attempt charges the
:class:`~repro.ps.retry.RetryPolicy` penalty to the client's virtual clock,
repairs/recovers the server through the master, drops the cached routing,
and then **re-sends the same message** through the network model.  A round
is the whole fan-out when no attempt can interleave with another
(:meth:`Transport._whole_round`); otherwise each message is a round of its
own, which books in exactly the per-message order.

Per-server request coalescing (Section 5.1's fat requests): when one client
op produces several messages for the same server — block pulls/pushes issue
one message per (row, shard) — :meth:`Transport.send_all` wraps each
server's group in a single :class:`~repro.ps.messages.BatchRequest`
envelope: one request header, one NIC booking, shared index lists encoded
once.  The ``coalesce_requests`` config knob (default on) disables this for
A/B measurements of the header-amortization win.
"""

from __future__ import annotations

from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    PSError, ServerDownError
from repro.ps import messages
from repro.ps.retry import RetryPolicy
from repro.ps.server import serve_fast_fanout

#: Failures a message attempt can hit that are retryable under the policy.
RETRYABLE_ERRORS = (ServerDownError, MatrixNotFoundError,
                    NetworkPartitionedError)

#: Client-side CPU cost of issuing one RPC (serialization, bookkeeping).
RPC_CPU_SECONDS = 5e-6

#: Memoized ``tag -> (tag + ":req", tag + ":resp")`` — tags come from a
#: small fixed vocabulary, so the hot transmit loops never re-concatenate.
_TAG_PAIRS = {}


def _tag_pair(tag):
    pair = _TAG_PAIRS.get(tag)
    if pair is None:
        pair = _TAG_PAIRS[tag] = (tag + ":req", tag + ":resp")
    return pair


class Transport:
    """One node's typed-message channel to the parameter servers."""

    def __init__(self, cluster, master, node_id, retry_policy=None):
        self.cluster = cluster
        self.master = master
        self.node_id = node_id
        self.retry_policy = retry_policy or RetryPolicy.from_config(
            cluster.config.failures
        )
        self.coalesce = bool(
            getattr(cluster.config, "coalesce_requests", True)
        )
        self._routing = {}
        # A live resize replaces every layout object wholesale; routing
        # cached before the migration would hand out stale shard ranges.
        cluster.topology_change_hooks.append(self.invalidate)

    # -- routing -----------------------------------------------------------

    def layout(self, matrix_id):
        """Resolve a matrix's layout, fetching the routing table once.

        Section 5.1: the PS-master "provides some meta information,
        including the locations and routing tables for PS-client to locate
        parameters."  The first touch of each matrix costs one RPC to the
        coordinator; afterwards the transport routes from its cache — until
        :meth:`invalidate` drops the entry (server recovery), at which
        point the next touch pays the routing RPC again.
        """
        layout = self._routing.get(matrix_id)
        if layout is None:
            layout = self.master.layout(matrix_id)
            from repro.cluster.cluster import DRIVER

            if self.node_id != DRIVER:
                clock = self.cluster.clock
                network = self.cluster.network
                fetch_start = clock.now(self.node_id)
                arrival = network.transfer(
                    self.node_id, DRIVER, messages.REQUEST_HEADER_BYTES,
                    tag="routing:req", deliver=False,
                )
                # The master answers from its metadata cache; the response
                # departs when THIS request was served, not when the
                # driver's (unrelated) clock says.
                response = network.transfer(
                    DRIVER, self.node_id,
                    messages.routing_response_bytes(layout.n_servers),
                    tag="routing:resp", deliver=False,
                    depart_at=arrival + RPC_CPU_SECONDS,
                )
                clock.set_at_least(self.node_id, response)
                self.cluster.metrics.observe(
                    "routing", clock.now(self.node_id) - fetch_start
                )
                tracer = self.cluster.tracer
                if tracer.enabled:
                    tracer.record(self.node_id, "routing", fetch_start,
                                  response, cat="op", matrix_id=matrix_id)
            self._routing[matrix_id] = layout
        return layout

    def invalidate(self, matrix_id=None):
        """Drop cached routing for *matrix_id* (or for every matrix).

        Called on the server-recovery retry path so a retried message
        re-resolves routing through the master instead of trusting a table
        that predates the failure; the next :meth:`layout` call pays the
        routing RPC again.
        """
        if matrix_id is None:
            self._routing.clear()
        else:
            self._routing.pop(matrix_id, None)

    # -- sending -----------------------------------------------------------

    def send_all(self, requests, pooled=False):
        """Ship a message list; returns ``(values, arrivals)`` aligned.

        With a replica substrate configured, each read is first offered
        to :meth:`~repro.ps.replication.ReplicaSubstrate.route_read`, which
        may retarget it at a replica holder (responses stay positional, so
        callers are oblivious).  Messages are then grouped
        by destination server (first-appearance order).  With coalescing
        on, each group of two or more becomes one
        :class:`~repro.ps.messages.BatchRequest` envelope — one header and
        one NIC booking per server; singleton groups always go standalone,
        so ops that already issue one message per server are byte-for-byte
        unaffected by the knob.  Client-side RPC CPU is charged once per
        outgoing transfer, before anything touches the wire.  The wire
        messages then go out in staged rounds (:meth:`_round`): the whole
        fan-out in one round when :meth:`_whole_round` allows it, one
        round per message otherwise.  After every original was transmitted
        (mutations applied to their primaries), replica fan-out messages
        are built from the post-apply version counters and shipped the
        same way.

        ``pooled=True`` marks *requests* as a client plan-pool list whose
        composition never changes between calls: the grouping (and any
        batch envelopes) is then memoized master-wide keyed on the list's
        identity, skipping the group/coalesce rebuild on every op.  With a
        substrate the memo is bypassed — ``route_read`` may retarget
        ``server_index`` in place, invalidating any cached grouping — but
        the requests themselves may still come from the client plan pool:
        the router undoes any retarget left over from a previous call
        before re-offering, so a pooled read routes exactly like a freshly
        built one.
        """
        costmodel = getattr(self.cluster, "costmodel", None)
        if costmodel is not None:
            # Codec selection runs before routing so decisions key on the
            # primary server_index and the sender's NIC backlog.
            for request in requests:
                costmodel.prepare(request, self.node_id)
        substrate = self.cluster.substrate
        entry = None
        if substrate is not None:
            for request in requests:
                substrate.route_read(request)
        elif pooled:
            entry = self.master.fanout_group_plans.get(
                (id(requests), self.coalesce))
            if entry is not None and entry[0] is not requests:
                entry = None
        if entry is None:
            groups = {}
            for position, request in enumerate(requests):
                groups.setdefault(request.server_index, []).append(position)
            wire = []
            slots = []
            for positions in groups.values():
                if self.coalesce and len(positions) > 1:
                    wire.append(messages.BatchRequest(
                        [requests[p] for p in positions]
                    ))
                    slots.append(positions)
                else:
                    for p in positions:
                        wire.append(requests[p])
                        slots.append((p,))
            # The last slot caches the whole round's staging (see _round);
            # one mutable cell per plan.
            entry = (requests, wire, slots, [None])
            if pooled and substrate is None:
                plans = self.master.fanout_group_plans
                if len(plans) >= 64:
                    plans.clear()
                plans[(id(requests), self.coalesce)] = entry
        _requests, wire, slots, staging = entry
        self._charge_rpc(len(wire))
        values = [None] * len(requests)
        arrivals = [None] * len(requests)
        if self._whole_round(wire):
            self._round(wire, slots, values, arrivals, staging)
        else:
            for message, positions in zip(wire, slots):
                self._round((message,), (positions,), values, arrivals)
        if substrate is not None:
            self._send_fanout(substrate.fan_out_messages(requests))
        return values, arrivals

    def _send_fanout(self, extras):
        """Ship replica fan-out messages (all fire-and-forget).

        Grouped and coalesced per destination like :meth:`send_all`, but
        never re-offered to routing or fan-out — induced traffic does not
        recurse.  Fan-out exists only with a replica substrate, which
        :meth:`_whole_round` never admits, so every message is its own
        round.
        """
        if not extras:
            return
        groups = {}
        for message in extras:
            groups.setdefault(message.server_index, []).append(message)
        wire = []
        for group in groups.values():
            if self.coalesce and len(group) > 1:
                wire.append(messages.BatchRequest(group))
            else:
                wire.extend(group)
        self._charge_rpc(len(wire))
        for message in wire:
            self._round((message,))

    # -- the staged round --------------------------------------------------

    def _whole_round(self, wire):
        """Whether a whole fan-out may go out as one staged round.

        A whole round books every request, then serves every message, then
        books every response.  That is bit-identical to one round per
        message only when no attempt can interleave with another: no span
        tracing (span ids follow record order), no partition windows and no
        pending or past server crash (a retry re-sends one message), no
        replica substrate (a lazy create books ``chain-sync`` transfers from
        inside ``dispatch``, which a whole round would reorder against
        later requests), and no cold routing entry (a routing RPC books the
        client NIC between two sends).  Every condition is a cheap check.
        """
        cluster = self.cluster
        if cluster.tracer.enabled or cluster.substrate is not None:
            return False
        failures = cluster.failures
        if failures.has_partitions() or failures.has_pending_server_failures():
            return False
        routing = self._routing
        servers = self.master.servers
        for message in wire:
            if message.matrix_id is not None \
                    and message.matrix_id not in routing:
                return False
            if not servers[message.server_index].alive:
                return False
        return True

    def _stage(self, wire):
        """The request-independent part of a round, per wire message.

        Returns ``(topology_epoch, servers, fan_items, answered,
        shard_entries)``: the serving servers, the request bookings
        ``(node, bytes, tag, count)``, one ``(index, node, bytes, tag,
        count)`` response shape per message that expects a reply, and the
        shard-telemetry entries.  It depends only on the messages and the
        server topology, so a pooled plan computes it once and replays it
        until :attr:`~repro.ps.master.PSMaster.topology_epoch` moves.
        """
        servers_of = self.master.servers
        BatchRequest = messages.BatchRequest
        servers = []
        fan_items = []
        answered = []
        shard_entries = []
        for i, message in enumerate(wire):
            request_bytes = message.wire_bytes()
            response_bytes = message.response_bytes()
            count = 1
            if type(message) is BatchRequest:
                count = len(message.requests)
                shard_entries.extend(_batch_heat(message))
            elif message.matrix_id is not None:
                # A replica-routed read heats its *primary* shard key:
                # rerouting must never drain the signal that justified it.
                shard_entries.append((
                    message.matrix_id,
                    message.server_index if message.replica_of is None
                    else message.replica_of,
                    message.n_values, request_bytes + (response_bytes or 0),
                ))
            server = servers_of[message.server_index]
            node = server.node_id
            tag_req, tag_resp = _tag_pair(message.tag)
            servers.append(server)
            fan_items.append((node, request_bytes, tag_req, count))
            if response_bytes is not None:
                answered.append((i, node, response_bytes, tag_resp, count))
        return (self.master.topology_epoch, servers, fan_items, answered,
                shard_entries)

    def _round(self, wire, slots=None, values=None, arrivals=None,
               staging=None):
        """Transmit *wire* as one staged round.

        The stages run in order: record shard telemetry and stamp the trace
        context; then, per attempt, check routing (a cold entry pays the
        routing RPC), book every request through one
        :meth:`~repro.cluster.network.NetworkModel.transfer_many` and serve
        every message through :func:`~repro.ps.server.serve_fast_fanout`;
        finally book every response through one ``transfer_gather``, each
        departing at its request's service completion.

        A round of one is exactly the per-message protocol: a failure
        anywhere in an attempt — including halfway through a batch —
        charges the :class:`~repro.ps.retry.RetryPolicy` penalty, repairs
        or recovers the server through the master, drops the cached routing
        and re-sends the *same message* to the *current* server object (a
        recovery replaces it; a retry must never talk to the pre-failure
        process).  A whole round forms only when no attempt can fail on a
        crash or partition (:meth:`_whole_round`), so it has no retry.

        *slots* gives each wire message's positions in the caller's
        *values* / *arrivals* lists, which the round fills (a batch's
        sub-results go to its sub-requests' positions; a fire-and-forget
        arrival stays ``None``); without *slots* the results are dropped.
        *staging*, when given, is the one-element cell of a pooled send
        plan that caches :meth:`_stage`.
        """
        cluster = self.cluster
        if staging is None:
            stage = self._stage(wire)
        else:
            stage = staging[0]
            if stage is None or stage[0] != self.master.topology_epoch:
                stage = staging[0] = self._stage(wire)
        _epoch, servers, fan_items, answered, shard_entries = stage
        if shard_entries:
            cluster.metrics.record_shard_access_many(shard_entries)
        trace_parent = None
        if cluster.tracer.enabled:
            for message in wire:
                trace_parent = self._stamp(message)
        network = cluster.network
        node_id = self.node_id
        routing = self._routing
        attempt = 0
        while True:
            for message in wire:
                matrix_id = message.matrix_id
                if matrix_id is not None and matrix_id not in routing:
                    self.layout(matrix_id)
            try:
                request_arrivals = network.transfer_many(
                    node_id, fan_items, trace_parent=trace_parent)
                served, completions = serve_fast_fanout(
                    cluster, servers, wire, request_arrivals)
                break
            except RETRYABLE_ERRORS as exc:
                if len(wire) > 1:
                    raise
                message = wire[0]
                attempt += 1
                if attempt > self.retry_policy.max_retries:
                    cluster.metrics.increment("op-retries-exhausted")
                    raise PSError(
                        "server %s kept failing after %d attempts: %r"
                        % (servers[0].node_id, attempt, exc)
                    ) from exc
                self._handle_failure(
                    exc, message.server_index, message.matrix_id, attempt
                )
                servers = [self.master.server(message.server_index)]
        if answered:
            response_items = []
            for i, node, response_bytes, tag_resp, count in answered:
                response_items.append((node, response_bytes, tag_resp, count,
                                       completions[i]))
            recv_times = network.transfer_gather(
                node_id, response_items, trace_parent=trace_parent)
        if slots is None:
            return
        BatchRequest = messages.BatchRequest
        for message, positions, value in zip(wire, slots, served):
            if type(message) is BatchRequest:
                metrics = cluster.metrics
                metrics.increment("coalesced-batches")
                metrics.increment("coalesced-requests", len(positions))
                for p, sub_value in zip(positions, value):
                    values[p] = sub_value
            else:
                values[positions[0]] = value
        if answered:
            for shape, arrival in zip(answered, recv_times):
                for p in slots[shape[0]]:
                    arrivals[p] = arrival

    # -- plumbing ----------------------------------------------------------

    def _charge_rpc(self, n_transfers):
        """Charge the client CPU for serializing *n_transfers* requests."""
        if n_transfers:
            self.cluster.charge_seconds(
                self.node_id, RPC_CPU_SECONDS * n_transfers, tag="rpc-cpu"
            )

    def _stamp(self, message):
        """Stamp the enclosing client op's causal context on *message*.

        The op span accumulates the fan-out, bytes and coalesced count, and
        the message carries ``(trace_id, span_id)`` so the server's CPU
        slots and both NIC bookings parent to the op that caused them.
        The sizes were computed before the stamp and never read it —
        tracing is byte-free.  Returns the parent span id (or ``None``
        when no op span is open).
        """
        span = self.cluster.tracer.current(self.node_id)
        if span is None:
            return None
        args = span.args
        args["fanout"] = args.get("fanout", 0) + 1
        args["bytes"] = (args.get("bytes", 0) + message.wire_bytes()
                         + (message.response_bytes() or 0))
        count = message.message_count()
        if count > 1:
            args["coalesced"] = args.get("coalesced", 0) + count
        message.trace_ctx = (span.trace_id, span.span_id)
        return span.span_id

    def _handle_failure(self, exc, server_index, matrix_id, attempt):
        """Recover from one failed attempt; charges the retry penalty.

        The failure-detection timeout and the exponential backoff are
        charged to the client's *virtual* clock (a retried message takes
        longer in simulated time), then the failure is repaired: a down
        server is recovered by the master, a stale shard set is reconciled,
        and a partition is simply waited out.  Cached routing for the
        touched matrix is dropped either way, so the next attempt
        re-resolves through the master.
        """
        metrics = self.cluster.metrics
        metrics.increment("op-retries")
        penalty_start = self.cluster.clock.now(self.node_id)
        self.cluster.charge_seconds(
            self.node_id, self.retry_policy.penalty_for(attempt),
            tag="retry-backoff",
        )
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.record(
                self.node_id, "retry-backoff", penalty_start,
                self.cluster.clock.now(self.node_id), cat="op",
                attempt=attempt, error=type(exc).__name__,
                server_index=server_index,
            )
        if isinstance(exc, ServerDownError):
            self.master.recover(server_index)
            metrics.increment("routing-invalidations")
        elif isinstance(exc, MatrixNotFoundError):
            self.master.repair(server_index)
            metrics.increment("routing-invalidations")
        # NetworkPartitionedError: nothing to repair — the backoff advances
        # the client clock toward the end of the partition window.
        if matrix_id is not None:
            self.invalidate(matrix_id)


def _batch_heat(message):
    """Hot-shard telemetry entries for one batch envelope.

    Each entry is ``(matrix_id, heat_server, n_values, nbytes)`` for
    :meth:`~repro.cluster.metrics.MetricsRegistry.record_shard_access_many`:
    one access per distinct (matrix, shard) the batch touches, with the
    summed value count — matching the pre-coalescing fat block request it
    replaces.  Each sub-request is attributed its *standalone-equivalent*
    request + response bytes, so per-shard volume stays comparable across
    the coalescing knob, and a replica-routed read heats its primary key.
    Per-key accumulation of these integer-valued quantities is
    order-insensitive, so recording a round's entries together is exact.
    """
    # The common batch touches one (matrix, shard) key — a block op fanned
    # over rows of one matrix — so accumulate scalars and only fall back
    # to a dict for genuinely mixed batches.
    first_key = None
    n_values = 0
    nbytes = 0.0
    by_shard = None
    for request in message.requests:
        if request.matrix_id is None:
            continue
        heat_server = (request.replica_of if request.replica_of is not None
                       else request.server_index)
        key = (request.matrix_id, heat_server)
        sub_bytes = request.wire_bytes() + (request.response_bytes() or 0)
        if by_shard is None:
            if first_key is None or key == first_key:
                first_key = key
                n_values += request.n_values
                nbytes += sub_bytes
                continue
            by_shard = {first_key: (n_values, nbytes)}
        prev_values, prev_bytes = by_shard.get(key, (0, 0.0))
        by_shard[key] = (prev_values + request.n_values,
                         prev_bytes + sub_bytes)
    if by_shard is not None:
        return [key + totals for key, totals in by_shard.items()]
    if first_key is not None:
        return ((first_key[0], first_key[1], n_values, nbytes),)
    return ()
