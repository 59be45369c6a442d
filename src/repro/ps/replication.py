"""Replica placement: one substrate, two placement policies.

Two features keep copies of a primary server's shards on other servers:

- **Heat replicas** (:class:`HeatPolicy`) — NuPS-style (Renz-Wieland et
  al.) *selective* replication of the hot shard keys for read scaling.
  Rebalance sweeps classify on the :meth:`MetricsRegistry.shard_heat`
  delta since the previous sweep, copy hot keys to the coldest servers,
  demote cooled ones, and route reads to the nearest-by-queue holder.
- **Chain copies** (:class:`ChainPolicy`) — ElasticDL-style durability:
  every primary's full store is mirrored on its next ``chain_replicas``
  live ring successors and promoted (max-version merge) into the
  replacement on a crash, so recovery pauses for a checkpoint restore
  only when every holder died.

Both run on one :class:`ReplicaSubstrate`: the holder map, the validity
fence, install and retire, the write fan-out builder and the read router.
A policy supplies only what differs — which holders a key should have,
when a holder may serve a read, how an install is priced and tagged, and
what happens when a key falls out of lockstep (heat replicas demote,
chain copies re-stream).

Every holder records the primary's recovery epoch at install time — the
PR-4 fencing token — and the primary's per-row mutation counters.  After
the transport applies a mutation to a primary, the substrate emits one
:class:`~repro.ps.messages.ReplicatedPushRequest` per valid holder,
stamped with that epoch and the post-apply counters; holders apply it
idempotently (counters already caught up skip the apply) and fenced (an
epoch mismatch means the primary recovered and may have rolled back).

With ``replication == "off"`` and ``chain_replicas == 0`` no substrate is
constructed and every transport/server path is bit-identical to a
pre-replication build — the golden-run guarantee.
"""

from __future__ import annotations

from repro.common.errors import MatrixNotFoundError, ServerDownError
from repro.common.sizeof import FLOAT_BYTES, INDEX_BYTES
from repro.ps import messages
from repro.ps.server import RowShard

#: Request types a heat replica may serve (reads — never mutations).
READ_TYPES = (messages.PullRowRequest, messages.PullRangeRequest,
              messages.AggregateRequest)

#: Request types a chain successor may stand in for while its primary is
#: down: the heat read set plus lazy-table reads (served only when the
#: copy already holds the row — creation stays the primary's job).
CHAIN_READ_TYPES = READ_TYPES + (messages.PullOrCreateRequest,)

#: Mutation types whose effect must fan out to holders.
MUTATION_TYPES = (messages.PushRequest, messages.PushRangeRequest,
                  messages.FillRequest, messages.KernelRequest)


class ReplicaSubstrate:
    """Coordinator-resident holder map, fence, fan-out and read router.

    ``holders`` maps ``(matrix_id, primary_index) -> {policy: {holder:
    install_epoch}}``: the holders each policy claims for a key, with the
    primary's epoch at that policy's last install onto the holder.  No
    key or policy entry is ever kept empty.  A claim is *valid* while its
    epoch equals the primary's current epoch; recovery refreshes the map,
    so a stale claim exists only between a crash and its recovery.  A
    copy both policies validly claim is fanned out to once (under the
    first policy) and physically dropped only when its last claim goes.

    Lifecycle events reach the policies through :meth:`notify`; hooks are
    ``on_matrix_created(matrix_id)``, ``on_direct_write(key)``,
    ``on_row_created(key, row)``, ``before_resize()`` (ahead of the
    migration sweep), ``on_topology_resized()`` (after it, while every
    pre-resize server is addressable), ``after_resize()`` and
    ``on_repaired(server_index)``; a policy implements the ones it needs.
    """

    def __init__(self, cluster, master):
        self.cluster = cluster
        self.master = master
        config = cluster.config
        self.holders = {}
        self.heat = HeatPolicy(self) if config.replication != "off" else None
        self.chain = (ChainPolicy(self) if int(config.chain_replicas) > 0
                      else None)
        #: Fan-out and read-routing order: heat before chain.
        self.policies = tuple(
            policy for policy in (self.heat, self.chain) if policy is not None
        )
        #: Every request type some policy may route.
        self.read_types = CHAIN_READ_TYPES if self.chain else READ_TYPES

    # -- the holder map -----------------------------------------------------

    def holders_of(self, key, policy, epoch=None):
        """Sorted holders *policy* claims for *key* (installed at *epoch*,
        when given)."""
        claims = self.holders.get(key, {}).get(policy, {})
        if epoch is None:
            return sorted(claims)
        return sorted(h for h, e in claims.items() if e == epoch)

    def claimed(self, policy):
        """``{key: {holder: install_epoch}}`` over *policy*'s claims."""
        return {key: dict(by_policy[policy])
                for key, by_policy in self.holders.items()
                if policy in by_policy}

    def release(self, key, holder_index, policy):
        """Forget *policy*'s claim on a holder it claims, map only;
        returns whether the copy is now unclaimed."""
        by_policy = self.holders.get(key, {})
        claims = by_policy.get(policy, {})
        if holder_index not in claims:
            return False
        del claims[holder_index]
        if not claims:
            del by_policy[policy]
            if not by_policy:
                del self.holders[key]
        return not any(holder_index in other for other in by_policy.values())

    def serving(self, key, policy, epoch, probe=False):
        """The fence: ``[(holder, replica_store entry)]`` for *policy*'s
        holders of *key* that may serve at *epoch* — the policy's claim is
        at *epoch*, they are up (``probe`` applies any scheduled crash
        first) and their entry was installed at *epoch*."""
        out = []
        for holder_index in self.holders_of(key, policy, epoch):
            holder = self.master.server(holder_index)
            if not (holder.is_alive() if probe else holder.alive):
                continue
            entry = holder.replica_store.get(key)
            if entry is not None and entry.install_epoch == epoch:
                out.append((holder_index, entry))
        return out

    # -- install / retire ---------------------------------------------------

    def install(self, key, holder_index, policy):
        """Copy the key's rows onto one holder for *policy*, charging the
        policy's install bytes under its install tag; on failure (a dead
        primary or holder, a matrix the primary lacks) the policy's claim
        is forgotten.  Returns whether the copy was installed."""
        matrix_id, primary_index = key
        primary = self.master.server(primary_index)
        target = self.master.server(holder_index)
        try:
            rows = primary.matrix_rows(matrix_id)
            versions = {
                row_key: counter
                for row_key, counter in primary.versions.items()
                if row_key[0] == matrix_id
            }
            self.cluster.network.transfer(
                primary.node_id, target.node_id,
                policy.install_bytes(key, holder_index, primary, rows,
                                     versions),
                tag=policy.install_tag,
            )
            target.install_replica(
                matrix_id, primary_index, rows, versions, primary.epoch
            )
        except (MatrixNotFoundError, ServerDownError):
            self.release(key, holder_index, policy)
            return False
        self.holders.setdefault(key, {}).setdefault(
            policy, {})[holder_index] = primary.epoch
        return True

    def reinstall_onto(self, holder_index, policy):
        """Re-install every copy *policy* places on a recovered holder
        (the crash wiped its replica store); returns how many succeeded."""
        return sum(
            self.install(key, holder_index, policy)
            for key in sorted(self.claimed(policy))
            if key[1] != holder_index
            and holder_index in self.holders_of(key, policy)
        )

    def retire(self, key, policy, holders=None):
        """Retire *policy*'s claims on *holders* of *key* (default: all it
        claims): every claim is forgotten first, then each live holder
        gets a control message and drops its copy if that was the copy's
        last claim.  Returns how many holders were retired."""
        from repro.cluster.cluster import DRIVER

        retired = self.holders_of(key, policy) if holders is None else holders
        unclaimed = [self.release(key, h, policy) for h in retired]
        for holder_index, gone in zip(retired, unclaimed):
            if not 0 <= holder_index < self.master.n_servers:
                continue
            holder = self.master.server(holder_index)
            if not holder.alive:
                continue
            if gone:
                holder.drop_replica(*key)
            self.cluster.network.transfer(
                DRIVER, holder.node_id, messages.REQUEST_HEADER_BYTES,
                tag=policy.control_tag,
            )
        return len(retired)

    # -- read routing -------------------------------------------------------

    def route_read(self, request):
        """Retarget one read at a holder, in place; returns the request.

        A leftover retarget from an earlier send (pooled requests) is
        undone first.  Then, in policy order, each policy whose read set
        covers the request may pick one of its holders
        (``pick_reader``); the first pick wins.  A retargeted request gets
        ``replica_of`` set to the primary index: the serving server uses
        it to address its replica store, and shard telemetry keeps
        charging the primary key, so rerouting never drains the heat that
        created a replica.
        """
        if request.replica_of is not None:
            request.server_index = request.replica_of
            request.replica_of = None
        if not isinstance(request, self.read_types):
            return request
        primary_index = request.server_index
        key = (request.matrix_id, primary_index)
        by_policy = self.holders.get(key)
        if not by_policy:
            return request
        for policy in self.policies:
            if policy not in by_policy \
                    or not isinstance(request, policy.read_types):
                continue
            primary = self.master.server(primary_index)
            holder = policy.pick_reader(request, key, primary)
            if holder is not None:
                request.server_index = holder
                request.replica_of = primary_index
                self.cluster.metrics.increment(policy.read_counter)
                break
        return request

    # -- write fan-out ------------------------------------------------------

    def fan_out_messages(self, requests):
        """Holder copies of every mutation in *requests*, post-apply.

        Called by the transport after the originals were served, so each
        message snapshots the primary's post-apply counters and epoch.
        Policy-major order (every heat fan-out, then every chain fan-out),
        one message per (holder, mutation).  Assumes one client op never
        sends two mutations for the same (matrix, row, server), which
        holds by construction (one message per (row, shard)).
        """
        if not self.holders:
            return []
        extras = []
        for policy in self.policies:
            for request in requests:
                if isinstance(request, messages.KernelRequest):
                    extras.extend(self._fan_out(policy, request,
                                                request.operands, True))
                elif isinstance(request, MUTATION_TYPES):
                    extras.extend(self._fan_out(
                        policy, request,
                        ((request.matrix_id, request.row),), False,
                    ))
        return extras

    def _fan_out(self, policy, request, operands, all_or_nothing):
        """One policy's fan-out of one mutation.

        A kernel mutates every operand at once, so a holder can apply it
        only with valid copies of *all* operand keys: when the policy's
        claimed operand keys do not share one valid holder set, the
        policy's ``on_kernel_mismatch`` runs instead and nothing is sent.
        """
        primary_index = request.server_index
        primary = self.master.server(primary_index)
        keys = sorted({(m, primary_index) for m, _row in operands})
        claimed = [key for key in keys
                   if policy in self.holders.get(key, ())]
        if not claimed:
            return []
        sets = [self.holders_of(key, policy, primary.epoch)
                for key in claimed]
        common = sets[0]
        if all_or_nothing and (len(claimed) != len(keys) or not common
                               or any(s != common for s in sets)):
            policy.on_kernel_mismatch(keys, claimed)
            return []
        if not common:
            return []
        versions = {
            (m, int(row)): primary.versions.get((m, int(row)), 0)
            for m, row in operands
        }
        # A holder an earlier policy validly claims got this mutation in
        # that policy's fan-out already.
        by_policy = self.holders[keys[0]]
        shadowed = {
            holder
            for earlier in self.policies[:self.policies.index(policy)]
            for holder, epoch in by_policy.get(earlier, {}).items()
            if epoch == primary.epoch
        }
        out = [
            messages.ReplicatedPushRequest(
                holder, request, primary_index, primary.epoch, versions
            )
            for holder in common if holder not in shadowed
        ]
        self.cluster.metrics.increment(policy.fanout_counter, len(out))
        return out

    # -- lifecycle ----------------------------------------------------------

    def notify(self, hook, *args):
        """Run one lifecycle hook on every policy implementing it."""
        for policy in self.policies:
            handler = getattr(policy, hook, None)
            if handler is not None:
                handler(*args)

    def on_matrix_freed(self, matrix_id):
        """Forget every holder of a freed matrix (the servers already
        purged their stores and replica entries in ``drop_matrix``)."""
        for key in [k for k in self.holders if k[0] == matrix_id]:
            del self.holders[key]

    def on_server_recovered(self, server_index):
        """Restore holders after :meth:`PSMaster.recover`, in reverse
        policy order: durability copies re-stream the promoted state
        before read replicas are refreshed."""
        for policy in reversed(self.policies):
            policy.on_server_recovered(int(server_index))


class HeatPolicy:
    """Hot-key read replicas: classify, promote, demote, route by queue.

    ``topk`` replicates the hottest ``hot_key_fraction`` of shard keys;
    ``threshold`` the keys whose heat delta exceeds ``1 /
    hot_key_fraction`` times their matrix's mean delta.  A hot key gets
    ``replication_factor`` replicas (0 means every other server).
    ``replicas`` is the policy's view of the holder map,
    ``{(matrix_id, primary_index): {replica_index: install_epoch}}``.
    """

    read_types = READ_TYPES
    read_counter = "replica-reads"
    fanout_counter = "replica-fanouts"
    install_tag = "replica-migrate"
    control_tag = "replica-control"

    def __init__(self, substrate):
        self.substrate = substrate
        self.cluster = substrate.cluster
        self.master = substrate.master
        config = self.cluster.config
        self.mode = config.replication
        self.hot_key_fraction = float(config.hot_key_fraction)
        self.replication_factor = int(config.replication_factor)
        self.rebalance_interval = float(config.rebalance_interval)
        self._next_sweep = self.rebalance_interval
        #: Heat totals as of the last sweep; sweeps classify on the delta.
        self._last_heat = {}
        #: Virtual times at which rebalance sweeps ran (telemetry).
        self.rebalance_sweep_times = []
        #: Bumped whenever the replica topology may have changed (rebalance
        #: sweeps, recovery re-installs).  The client plan pool keys its
        #: pooled fan-out plans on ``(topology_epoch, plan_epoch)`` so
        #: pooling stays enabled under replication and is invalidated
        #: exactly when routing inputs change.
        self.plan_epoch = 0

    # -- introspection ------------------------------------------------------

    @property
    def replicas(self):
        return self.substrate.claimed(self)

    def replica_set(self, matrix_id, primary_index):
        """Sorted replica indices that may serve one shard key now."""
        key = (matrix_id, int(primary_index))
        epoch = self.master.server(primary_index).epoch
        return [h for h, _entry in self.substrate.serving(key, self, epoch)]

    def replicated_keys(self):
        """Sorted shard keys currently carrying at least one replica."""
        return sorted(self.substrate.claimed(self))

    def replica_bytes(self):
        """Total bytes of replica state across live servers."""
        return sum(
            server.replica_bytes()
            for server in self.master.servers
            if server.alive
        )

    # -- substrate contract -------------------------------------------------

    def _queue_load(self, server):
        """When the server's NIC queues drain — the backlog read routing
        minimizes.

        Uses the NIC timeline *horizons* (end of the last reservation in
        each direction), not cumulative busy totals.  Cumulative totals
        equalize long-run byte volume but go blind within a burst: once
        the replicas' lifetime totals catch up to the primary's, every
        read of the next burst lands on the primary again and queues,
        even though the replicas are idle *right now*.  The horizon is
        the instantaneous "when would this server take one more message"
        signal, and it self-balances: each rerouted read extends the
        serving replica's horizon, steering the next read elsewhere.
        """
        send_horizon, recv_horizon = self.cluster.network.nic_horizon(
            server.node_id
        )
        return max(send_horizon, recv_horizon)

    def pick_reader(self, request, key, primary):
        """The nearest-by-queue serving replica, or ``None`` when the
        primary is nearest (ties break toward the lower index, primary
        first)."""
        primary_index = key[1]
        best = (self._queue_load(primary), primary_index)
        for replica_index, _entry in self.substrate.serving(key, self,
                                                            primary.epoch):
            candidate = (self._queue_load(self.master.server(replica_index)),
                         replica_index)
            if candidate < best:
                best = candidate
        return None if best[1] == primary_index else best[1]

    def install_bytes(self, key, holder_index, primary, rows, versions):
        """Raw migration bytes: rows, their descriptors and counters."""
        return (
            messages.REQUEST_HEADER_BYTES
            + sum(shard.values.nbytes for shard in rows.values())
            + len(rows) * 2 * INDEX_BYTES
            + len(versions) * INDEX_BYTES
        )

    def on_kernel_mismatch(self, keys, claimed):
        for key in claimed:
            self._demote(key)
        self.cluster.metrics.increment("replica-kernel-demotions",
                                       len(claimed))

    # -- rebalance sweep ----------------------------------------------------

    def maybe_rebalance(self, at_stage_end=False):
        """Run a sweep if it is due; returns whether one ran.

        ``rebalance_interval == 0`` sweeps at every stage end (and only
        there); a positive interval sweeps on virtual time, polled both
        at stage ends and after every client PS op — the same dual
        trigger the checkpoint sweep uses.
        """
        if self.rebalance_interval <= 0:
            if not at_stage_end:
                return False
        elif self.cluster.clock.global_time() < self._next_sweep:
            return False
        self.rebalance()
        if self.rebalance_interval > 0:
            # Re-arm relative to the post-sweep clock: a long stage must
            # trigger one sweep, not a burst of catch-up sweeps.
            self._next_sweep = (
                self.cluster.clock.global_time() + self.rebalance_interval
            )
        return True

    def rebalance(self):
        """One classify/demote/promote sweep over the shard heat deltas."""
        metrics = self.cluster.metrics
        heat = metrics.shard_heat()
        delta = {}
        for key, value in heat.items():
            gained = value - self._last_heat.get(key, 0.0)
            if gained > 0 and self._key_exists(key):
                delta[key] = gained
        self._last_heat = dict(heat)
        if self.master.n_servers >= 2:
            hot = self._classify(delta)
            costmodel = getattr(self.cluster, "costmodel", None)
            if costmodel is not None:
                # The unified cost model gates *new* promotions: when
                # codecs already shrink a key's read traffic, replication
                # must still beat its migration bytes in the compressed
                # regime.  Keys already replicated are kept (churn is the
                # demote sweep's job, not the gate's).
                hot = {
                    key for key in hot
                    if self.substrate.holders_of(key, self)
                    or costmodel.replication_worthwhile(
                        key, delta.get(key, 0.0), self.master)
                }
            for key in sorted(self.substrate.claimed(self)):
                if key not in hot:
                    self._demote(key)
            for key in sorted(hot):
                self._promote(key)
        self.plan_epoch += 1
        metrics.increment("rebalance-sweeps")
        self.rebalance_sweep_times.append(self.cluster.clock.global_time())

    def _key_exists(self, key):
        matrix_id, server_index = key
        if not 0 <= server_index < self.master.n_servers:
            return False
        try:
            self.master.layout(matrix_id)
        except MatrixNotFoundError:
            return False
        return True

    def _classify(self, delta):
        """The hot shard keys under the configured mode."""
        if not delta:
            return set()
        if self.mode == "topk":
            k = max(1, int(round(self.hot_key_fraction * len(delta))))
            ranked = sorted(delta, key=lambda key: (-delta[key], key))
            return set(ranked[:k])
        # threshold: hot while the key's delta exceeds 1/fraction times
        # its matrix's mean delta this window.
        by_matrix = {}
        for (matrix_id, _server), gained in delta.items():
            by_matrix.setdefault(matrix_id, []).append(gained)
        hot = set()
        for key, gained in delta.items():
            gains = by_matrix[key[0]]
            mean = sum(gains) / len(gains)
            if gained > mean / self.hot_key_fraction:
                hot.add(key)
        return hot

    def _target_count(self):
        limit = self.master.n_servers - 1
        if self.replication_factor > 0:
            return min(self.replication_factor, limit)
        return limit

    def _promote(self, key):
        """Ensure *key* has its full serving replica set, installing on the
        coldest (fewest wire bytes) servers first; replicas that can no
        longer serve are forgotten."""
        primary_index = key[1]
        primary = self.master.server(primary_index)
        if not primary.alive:
            return
        kept = {h for h, _entry in self.substrate.serving(key, self,
                                                          primary.epoch)}
        for replica_index in self.substrate.holders_of(key, self):
            if replica_index not in kept:
                self.substrate.release(key, replica_index, self)
        needed = self._target_count() - len(kept)
        if needed <= 0:
            return
        metrics = self.cluster.metrics
        candidates = []
        for index, server in enumerate(self.master.servers):
            if index == primary_index or index in kept or not server.alive:
                continue
            load = (metrics.bytes_sent.get(server.node_id, 0.0)
                    + metrics.bytes_received.get(server.node_id, 0.0))
            candidates.append((load, index))
        promoted = 0
        for _load, index in sorted(candidates):
            if promoted >= needed:
                break
            if self.substrate.install(key, index, self):
                promoted += 1
        if promoted:
            metrics.increment("replica-promotions", promoted)

    def _demote(self, key):
        """Retire every replica of *key*."""
        if self.substrate.retire(key, self):
            self.cluster.metrics.increment("replica-demotions")

    # -- lifecycle hooks ----------------------------------------------------

    def on_direct_write(self, key):
        """Demote a key mutated outside the fan-out path (realignment,
        recovery tooling); it can win replication back at the next sweep
        if it stays hot."""
        if self.substrate.holders_of(key, self):
            self._demote(key)
            self.plan_epoch += 1
            self.cluster.metrics.increment("replica-direct-write-demotions")

    def on_row_created(self, key, row):
        """Replicas installed before the row existed would miss it."""
        self.on_direct_write(key)

    def on_server_recovered(self, server_index):
        """Re-install replicas at the new epoch, both directions: replicas
        OF the recovered primary (the old copies are fenced — it may have
        rolled back to a checkpoint) and replicas it HOSTED."""
        reinstalled = 0
        for key in sorted(self.substrate.claimed(self)):
            if key[1] == server_index:
                for replica_index in self.substrate.holders_of(key, self):
                    reinstalled += self.substrate.install(key, replica_index,
                                                          self)
        reinstalled += self.substrate.reinstall_onto(server_index, self)
        if reinstalled:
            self.cluster.metrics.increment("replica-reinstalls", reinstalled)
        self.plan_epoch += 1

    def on_topology_resized(self):
        """Demote every key after an elastic resize's migration sweep
        (each replica holds a pre-resize column range) and restart the
        heat baselines, so the next sweep classifies on post-migration
        traffic only (retired ledger entries must not look like sudden
        negative deltas)."""
        for key in sorted(self.substrate.claimed(self)):
            self._demote(key)
        self._last_heat = {}
        self.plan_epoch += 1


# -- chained replication (durability) ---------------------------------------


def chain_successors(primary_index, ring_size, m, alive):
    """The ring-ordered successor set of one primary.

    Walk the index ring starting right after *primary_index*, keep the
    first *m* live servers met, never include the primary itself.  The
    walk order depends only on the ring size, so for any live subset ``S``
    the result equals the full-ring order filtered to ``S`` and truncated
    — the "ring-stable under any live subset" property the Hypothesis
    suite pins: a server joining or leaving ``S`` never reorders the
    survivors relative to each other.
    """
    alive = set(alive)
    out = []
    if int(m) <= 0:
        return out
    for step in range(1, int(ring_size)):
        candidate = (int(primary_index) + step) % int(ring_size)
        if candidate in alive:
            out.append(candidate)
            if len(out) >= int(m):
                break
    return out


def merge_chain_copies(copies):
    """Max-version merge of several successors' copies of one shard key.

    *copies* maps ``holder_index -> (rows, counters)`` where ``rows`` is
    a ``{row: RowShard}`` map and ``counters`` a ``{row: int}`` map of
    that holder's recorded mutation counters.  Each row is taken from the
    holder with the highest counter for it, ties breaking to the lowest
    holder index, so the merge is deterministic regardless of dict
    insertion order.  Returns ``(rows, counters, origin)`` with
    ``origin`` mapping each row to the holder that supplied it.  Pure —
    the Hypothesis suite drives it directly.
    """
    rows_out = {}
    counters_out = {}
    origin = {}
    for holder in sorted(copies):
        rows, counters = copies[holder]
        for row, shard in rows.items():
            counter = counters.get(row, 0)
            if row not in rows_out or counter > counters_out[row]:
                rows_out[row] = shard
                counters_out[row] = counter
                origin[row] = holder
    return rows_out, counters_out, origin


class ChainPolicy:
    """Chained shard copies on the ring successors, for durability.

    Every primary's full per-matrix store is mirrored on its next
    ``chain_replicas`` live ring successors (:func:`chain_successors`);
    ``links`` is the policy's view of the holder map,
    ``{(matrix_id, primary_index): {successor_index: install_epoch}}``.
    Chain copies serve reads only while their primary is down
    (zero-downtime reads, no retry storm) and exist to be promoted into
    the replacement on a crash (:meth:`promote_into`).  They are never
    demoted: a key that falls out of lockstep is re-streamed.
    """

    read_types = CHAIN_READ_TYPES
    read_counter = "chain-reads"
    fanout_counter = "chain-fanouts"
    install_tag = "chain-sync"
    control_tag = "chain-control"

    def __init__(self, substrate):
        self.substrate = substrate
        self.cluster = substrate.cluster
        self.master = substrate.master
        self.m = int(self.cluster.config.chain_replicas)
        #: Promotion events ``(time, primary_index, sources, matrix_ids)``
        #: for the report.
        self.promotions = []

    # -- introspection ------------------------------------------------------

    @property
    def links(self):
        return self.substrate.claimed(self)

    def successors(self, primary_index):
        """Current ring successors of one primary (live servers only)."""
        alive = [index for index, server in enumerate(self.master.servers)
                 if server.alive]
        return chain_successors(int(primary_index), self.master.n_servers,
                                self.m, alive)

    def key_lag(self, matrix_id, primary_index):
        """Worst per-row counter lag of any serving successor copy behind
        its primary (0 means every chain copy is fully caught up)."""
        key = (matrix_id, int(primary_index))
        primary = self.master.server(primary_index)
        lag = 0
        for _succ, entry in self.substrate.serving(key, self, primary.epoch):
            for row_key, counter in primary.versions.items():
                if row_key[0] == matrix_id:
                    lag = max(lag, counter - entry.versions.get(row_key, 0))
        return lag

    # -- substrate contract -------------------------------------------------

    def _priced_value_bytes(self, n_values):
        """Wire bytes for *n_values* floats in one chain state stream,
        compressed by the cost model's read regime when one is active."""
        costmodel = getattr(self.cluster, "costmodel", None)
        if costmodel is not None:
            return costmodel.priced_chain_value_bytes(n_values)
        return int(n_values) * FLOAT_BYTES

    def install_bytes(self, key, holder_index, primary, rows, versions):
        """One :class:`~repro.ps.messages.ChainSyncRequest` state stream."""
        n_values = sum(len(shard) for shard in rows.values())
        return messages.ChainSyncRequest(
            holder_index, key[0], key[1], primary.epoch, len(rows),
            self._priced_value_bytes(n_values), len(versions),
        ).wire_bytes()

    def pick_reader(self, request, key, primary):
        """While the primary is down, the ring-nearest serving successor
        whose copy holds the row.

        A read of a row the copy lacks (and any ``pull_or_create`` of an
        unseen id) still goes to the primary and triggers its recovery:
        only a primary may create rows.  Healthy primaries are never
        bypassed, so steady-state routing is untouched.
        """
        if primary.is_alive():
            return None
        ring = max(1, self.master.n_servers)
        row = getattr(request, "row", None)
        for succ, entry in sorted(
                self.substrate.serving(key, self, primary.epoch),
                key=lambda pair: (pair[0] - key[1]) % ring):
            if row is None or int(row) in entry.rows:
                return succ
        return None

    def on_kernel_mismatch(self, keys, claimed):
        """Re-stream every operand key: the primary already applied the
        kernel, so a full sync carries its effect."""
        for key in keys:
            self.sync_key(*key)
        self.cluster.metrics.increment("chain-kernel-resyncs", len(keys))

    # -- syncs --------------------------------------------------------------

    def sync_key(self, matrix_id, primary_index):
        """(Re)stream one (matrix, primary) key along its current chain:
        retire holders that are no longer ring successors, then install
        or refresh a full copy on each current successor."""
        key = (matrix_id, int(primary_index))
        if not self.master.server(primary_index).alive:
            return
        successors = self.successors(primary_index)
        self._drop(key, [h for h in self.substrate.holders_of(key, self)
                         if h not in successors])
        installed = sum(self.substrate.install(key, succ, self)
                        for succ in successors)
        if installed:
            self.cluster.metrics.increment("chain-syncs", installed)

    def resync_primary(self, server_index):
        """Re-stream every matrix *server_index* holds shards of, and
        retire chains whose matrix is gone or empty on the primary."""
        primary = self.master.server(server_index)
        for matrix_id in self.master.matrix_ids():
            if primary._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)
        live = set(self.master.matrix_ids())
        for key in sorted(self.substrate.claimed(self)):
            if key[1] == server_index and (
                    key[0] not in live or not primary._store.get(key[0])):
                self._drop(key, self.substrate.holders_of(key, self))

    def _drop(self, key, holders):
        """Retire chain holders one at a time, each link forgotten just
        before its own control message (a partitioned holder's message
        raises with the later links still in place)."""
        for holder_index in holders:
            self.substrate.retire(key, self, [holder_index])

    # -- promotion ----------------------------------------------------------

    def promote_into(self, replacement, server_index, failed_epoch):
        """Rebuild a failed primary's matrices from its chain successors.

        For every (matrix, failed-primary) key, the surviving successors
        whose copies were installed at the dead process's epoch are
        merged per-row (:func:`merge_chain_copies` — each row from the
        most-advanced holder) and the result installed into
        *replacement* with the winning counters, priced as one
        :class:`~repro.ps.messages.ChainPromoteRequest` round trip per
        contributing holder.  Returns ``{matrix_id: rows_promoted}``;
        keys with no surviving valid holder are left out and the caller
        falls back to checkpoint restore for them.
        """
        server_index = int(server_index)
        promoted = {}
        sources = set()
        network = self.cluster.network
        for key in sorted(self.substrate.claimed(self)):
            if key[1] != server_index:
                continue
            matrix_id = key[0]
            copies = {
                succ: (entry.rows, {
                    row: entry.versions.get((matrix_id, row), 0)
                    for row in entry.rows
                })
                for succ, entry in self.substrate.serving(
                    key, self, failed_epoch, probe=True)
            }
            if not copies:
                continue
            rows, counters, origin = merge_chain_copies(copies)
            contributed = {}
            for row, holder_index in origin.items():
                contributed.setdefault(holder_index, []).append(row)
            for holder_index in sorted(contributed):
                holder = self.master.server(holder_index)
                rows_here = contributed[holder_index]
                n_values = sum(len(rows[row]) for row in rows_here)
                message = messages.ChainPromoteRequest(
                    holder_index, matrix_id, server_index, failed_epoch,
                    len(rows_here), self._priced_value_bytes(n_values),
                    len(rows_here),
                )
                network.transfer(replacement.node_id, holder.node_id,
                                 message.wire_bytes(), tag="chain-promote")
                network.transfer(holder.node_id, replacement.node_id,
                                 message.response_bytes(),
                                 tag="chain-promote")
                sources.add(holder_index)
            store_rows = {}
            for row in sorted(rows):
                shard = rows[row]
                store_rows[row] = RowShard(shard.start, shard.stop,
                                           shard.values.copy())
            replacement._store[matrix_id] = store_rows
            for row in sorted(counters):
                if counters[row]:
                    replacement.versions[(matrix_id, row)] = counters[row]
            promoted[matrix_id] = len(store_rows)
            self.cluster.metrics.increment("chain-promoted-keys")
        if promoted:
            self.cluster.metrics.increment("chain-promotions")
            self.promotions.append((
                self.cluster.clock.global_time(), server_index,
                sorted(sources), sorted(promoted),
            ))
        return promoted

    # -- lifecycle hooks ----------------------------------------------------

    def on_matrix_created(self, matrix_id):
        """Form the chain for a freshly allocated matrix."""
        for server_index in range(self.master.n_servers):
            if self.master.server(server_index)._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)

    def on_row_created(self, key, row):
        """Stream one freshly created lazy row to the chain successors.

        Chains grow with the table: the first created row of a key forms
        its chain, later rows ride as one-row incremental syncs into the
        existing copies, so a crash right after creation still promotes
        a bit-identical vector; a stale or mismatched chain falls back to
        a full key re-stream.
        """
        matrix_id, server_index = key
        primary = self.master.server(server_index)
        successors = self.successors(server_index)
        if not successors:
            return
        claimed = self.substrate.holders_of(key, self)
        if claimed != successors or self.substrate.holders_of(
                key, self, primary.epoch) != claimed:
            self.sync_key(matrix_id, server_index)
            return
        try:
            shard = primary.matrix_rows(matrix_id)[row]
        except (MatrixNotFoundError, KeyError):
            return
        row_key = (matrix_id, row)
        counter = primary.versions.get(row_key, 0)
        value_bytes = self._priced_value_bytes(len(shard))
        copies = dict(self.substrate.serving(key, self, primary.epoch))
        synced = 0
        for succ in successors:
            entry = copies.get(succ)
            if entry is None:
                self.sync_key(matrix_id, server_index)
                return
            message = messages.ChainSyncRequest(
                succ, matrix_id, server_index, primary.epoch, 1, value_bytes,
                1,
            )
            self.cluster.network.transfer(
                primary.node_id, self.master.server(succ).node_id,
                message.wire_bytes(), tag="chain-sync",
            )
            entry.rows[row] = RowShard(shard.start, shard.stop,
                                       shard.values.copy())
            if counter:
                entry.versions[row_key] = counter
            synced += 1
        if synced:
            self.cluster.metrics.increment("chain-row-syncs", synced)

    def on_direct_write(self, key):
        """Re-stream a key mutated outside the fan-out path, so the
        successors converge on the new state."""
        if self.substrate.holders_of(key, self):
            self.sync_key(*key)
            self.cluster.metrics.increment("chain-direct-write-resyncs")

    def on_server_recovered(self, server_index):
        """Re-stream the recovered primary's keys to its successors at the
        fresh epoch — a full copy, because a copy that fenced out fan-outs
        during the crash window lags the promoted state — and re-install
        the copies it holds for other primaries."""
        self.resync_primary(server_index)
        self.substrate.reinstall_onto(server_index, self)

    def before_resize(self):
        """Tear every chain down ahead of the migration sweep, while every
        holder is addressable: a crash during the migration then falls
        back to checkpoint restore instead of promoting stale-layout
        copies."""
        for key in sorted(self.substrate.claimed(self)):
            self._drop(key, self.substrate.holders_of(key, self))

    def after_resize(self):
        """Retire the chains of departed primaries, then re-form the
        chains over the post-migration stores.

        A primary that was down when a shrink began is recovered
        mid-migration, and that recovery re-forms its chains under an
        index the shrink then removes; left in the map, those claims
        would outlive their primary.
        """
        n_servers = self.master.n_servers
        for key in sorted(self.substrate.claimed(self)):
            if key[1] >= n_servers:
                self._drop(key, self.substrate.holders_of(key, self))
        for server_index in range(n_servers):
            self.resync_primary(server_index)
        self.cluster.metrics.increment("chain-reforms")

    on_repaired = resync_primary
