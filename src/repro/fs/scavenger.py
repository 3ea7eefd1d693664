"""Victim-class lifecycle: claiming leases, eviction, lazy migration, repair.

This module implements the dynamic side of §III: MemFSS "extends its
storage space by scavenging for memory in victim cluster reservations".
The :class:`ScavengingManager`

- claims :class:`~repro.cluster.reservation.ScavengeLease`\\ s from the
  reservation system's secondary queue,
- spins up a containerized store server per victim node (§III-F),
- registers the victim class in the placement policy with the weight that
  realizes the requested own-data fraction α (§III-B),
- watches every lease and, on revocation (tenant memory pressure, §III-A),
  **evacuates** the node: stripes it holds are copied to the next node in
  their HRW rank chain, each file's recorded membership is updated, and the
  store is shut down.  Reads that race with an eviction still succeed
  because the read path already walks the rank chain (lazy movement,
  §V-C).

Evacuations are serialized through a FIFO lock: two concurrent
revocations that planned migrations independently could copy stripes onto
each other's dying node, or migrate the same stripe twice.  Each
revocation still leaves the placement policy *immediately* (new writes
stop landing on any dying node at revocation time); only the data drain
queues.

The :class:`RepairDaemon` closes the remaining gap — crashes, where the
data is simply gone: it periodically sweeps the registry, re-replicates
under-replicated stripes from surviving replicas (or reconstructs them
from parity), and rewrites stale membership snapshots.  Sweeps are
SLO-driven (DESIGN.md §15): the scan phase builds a repair queue ordered
most-critical-first (fewest surviving fragments per erasure group), the
drain phase restores copies through an optional repair-bandwidth budget
modeled as real contending flows, repair reads take a bounded
:class:`~repro.store.protocol.RetryPolicy`, and every degraded stripe
gets an MTTR window in :data:`~repro.faults.availability.avail_stats`.
Stripes whose every repair source is gone are recorded loudly as
:class:`~repro.faults.availability.DegradedStripe` in
:attr:`RepairDaemon.lost` instead of being skipped silently.
"""

from __future__ import annotations

from ..cluster.container import Container, ResourceCaps
from ..cluster.node import Node
from ..cluster.reservation import ReservationSystem, ScavengeLease
from ..faults.availability import DegradedStripe, avail_stats
from ..faults.stats import fault_stats
from ..sim import Environment, FluidResource, Interrupt
from ..store import (NO_RETRY, AuthPolicy, RetryPolicy, StoreCostModel,
                     StoreError, StoreErrorCode, StoreServer)
from .capacity import pressure_stats, select_targets
from .erasure import group_layout, parity_key, xor_parity
from .memfss import FileNotFound, MemFSS
from .metadata import FileMeta, file_meta_key
from .placement import CodingSets, PlacementMap
from .striping import stripe_spans

__all__ = ["ScavengingManager", "RepairDaemon"]


class _FifoLock:
    """Event-based FIFO mutex for simulation processes."""

    def __init__(self, env: Environment):
        self.env = env
        self.locked = False
        self._waiters: list = []

    def acquire(self):
        """Generator: returns holding the lock, in arrival order."""
        if self.locked:
            gate = self.env.event()
            self._waiters.append(gate)
            yield gate
        else:
            self.locked = True

    def release(self) -> None:
        if self._waiters:
            # Hand the lock to the next waiter; it stays locked.
            self._waiters.pop(0).succeed()
        else:
            self.locked = False


class ScavengingManager:
    """Manages victim classes of one MemFSS deployment."""

    def __init__(self, env: Environment, fs: MemFSS,
                 reservations: ReservationSystem, *,
                 auth: AuthPolicy | None = None,
                 costs: StoreCostModel | None = None,
                 caps: ResourceCaps | None = None):
        self.env = env
        self.fs = fs
        self.reservations = reservations
        self.auth = auth
        # Per-instance default: a shared StoreCostModel instance would
        # alias mutable tuning across every manager in the process.
        self.costs = costs if costs is not None else StoreCostModel()
        self.caps = caps
        self.leases: dict[str, ScavengeLease] = {}
        self.evictions = 0
        self.migrated_bytes = 0.0
        #: ``(key, source, target)`` of every migrated stripe, in order.
        self.moved_keys: list[tuple] = []
        self._evacuating: set[str] = set()
        self._evac_lock = _FifoLock(env)

    # -- acquiring victims ----------------------------------------------------------
    def scavenge(self, nodes: list[Node], memory_per_node: float,
                 weight: float, class_name: str = "victim",
                 watch: bool = True) -> list[StoreServer]:
        """Claim leases on *nodes* and add them as a placement class.

        *weight* is the HRW class weight (see
        :func:`repro.hashing.weights.own_victim_weights`).  With *watch*
        true a watcher process evacuates each node when its lease is
        revoked.
        """
        if not nodes:
            raise ValueError("need at least one victim node")
        servers = []
        for node in nodes:
            lease = self.reservations.lease(node, memory_per_node,
                                            holder="memfss")
            caps = self.caps or ResourceCaps(memory=memory_per_node)
            container = Container(node, f"memfss@{node.name}", caps)
            server = StoreServer(self.env, node, self.fs.fabric,
                                 capacity=memory_per_node,
                                 name=f"scv@{node.name}",
                                 auth=self.auth, container=container,
                                 costs=self.costs)
            self.fs.servers[node.name] = server
            self.leases[node.name] = lease
            if lease.offer.owner:
                self.fs.domains[node.name] = lease.offer.owner
            servers.append(server)
            if watch:
                self.env.process(self._watch(lease, node),
                                 name=f"scavenge-watch@{node.name}")
        self.fs.policy = PlacementMap.intern(self.fs.policy.with_class(
            class_name, weight, tuple(n.name for n in nodes)))
        return servers

    def scavenge_node(self, node: Node, memory: float,
                      class_name: str = "victim",
                      weight: float | None = None,
                      watch: bool = True,
                      drain_on_notice: bool = False) -> StoreServer:
        """Claim a lease on a *single* node and grow *class_name* by it.

        The market admission path: leases clear one at a time, so the
        class accretes node by node instead of being rebuilt wholesale.
        *weight* defaults to the class's current weight (required when the
        class does not exist yet); reweighting after growth is the
        controller's job (:meth:`rebalance`).
        """
        if weight is None:
            spec = self.fs.policy.classes.get(class_name)
            if spec is None:
                raise ValueError(f"class {class_name!r} not in the policy "
                                 f"yet; pass an explicit weight")
            weight = spec.weight
        lease = self.reservations.lease(node, memory, holder="memfss")
        caps = self.caps or ResourceCaps(memory=memory)
        container = Container(node, f"memfss@{node.name}", caps)
        server = StoreServer(self.env, node, self.fs.fabric,
                             capacity=memory, name=f"scv@{node.name}",
                             auth=self.auth, container=container,
                             costs=self.costs)
        self.fs.servers[node.name] = server
        self.leases[node.name] = lease
        if lease.offer.owner:
            self.fs.domains[node.name] = lease.offer.owner
        if watch:
            watcher = (self._watch_notice if drain_on_notice
                       else self._watch)
            self.env.process(watcher(lease, node),
                             name=f"scavenge-watch@{node.name}")
        current = self.fs.policy.classes.get(class_name)
        members = (current.nodes if current is not None else ()) \
            + (node.name,)
        self.fs.policy = PlacementMap.intern(self.fs.policy.with_class(
            class_name, weight, members))
        return server

    def _watch(self, lease: ScavengeLease, node: Node):
        yield lease.revoked
        yield from self.evacuate(node)

    def _watch_notice(self, lease: ScavengeLease, node: Node):
        """Market watcher: start draining at the revocation *notice*, so
        the drain window is actually used (waiting for the revocation
        itself would waste the notice period)."""
        yield self.env.any_of([lease.notified, lease.revoked])
        yield from self.evacuate(node)

    # -- eviction --------------------------------------------------------------------
    def evacuate(self, node: Node):
        """Generator: move this node's stripes away, then leave the node.

        New files immediately stop using the node (policy update first);
        existing stripes are copied to the next live node in their
        *recorded* rank chain and each file's membership snapshot is
        rewritten so later reads go straight to the right place.
        Concurrent evacuations queue on a FIFO lock, but all of them
        leave the policy before the first one starts copying.
        """
        name = node.name
        server = self.fs.servers.get(name)
        if server is None or name in self._evacuating:
            return 0.0
        self._evacuating.add(name)
        self.evictions += 1
        fault_stats.evacuations += 1
        # 1. Stop placing new data on the node (before queueing).
        if name in self.fs.policy.all_nodes:
            self.fs.policy = self.fs.policy.without_nodes({name})
        yield from self._evac_lock.acquire()
        try:
            moved = yield from self._drain(node, server)
        finally:
            self._evac_lock.release()
            self._evacuating.discard(name)
        fault_stats.record_recovery(name, self.env.now)
        return moved

    def _live_policy(self, policy: PlacementMap) -> PlacementMap:
        """*policy* restricted to nodes that can receive migrated data:
        up, not mid-evacuation."""
        return policy.without_nodes(
            n for n in policy.all_nodes
            if n in self._evacuating or n not in self.fs.servers)

    def _drain(self, node: Node, server: StoreServer):
        """Generator: copy every stripe *node* holds to live replacements."""
        name = node.name
        agent = self.fs.own_nodes[0]
        client = self.fs.client(agent)
        moved = 0.0
        # 2. Walk the registry and relocate affected stripes.
        paths = yield from self.fs.list_all_files(agent)
        for path in paths:
            try:
                meta = yield from self.fs.stat(agent, path)
            except Exception:
                continue
            if not any(name in members
                       for members in meta.class_members.values()):
                continue
            # Both policies are interned, so every file written under the
            # same snapshot shares one vectorized plan for the old and the
            # post-eviction placement instead of re-ranking per stripe.
            old_policy = PlacementMap.from_meta(meta,
                                                   self.fs.policy.family)
            new_policy = self._live_policy(old_policy)
            old_plan = old_policy.plan_file(meta.inode, meta.n_stripes,
                                            erasure=meta.erasure)
            new_plan = new_policy.plan_file(meta.inode, meta.n_stripes,
                                            erasure=meta.erasure)
            # Coded files place each fragment at its CodingSets-assigned
            # target, which may sit below the chain head — look there too,
            # and relocate to the *new* assignment so the anti-affinity
            # constraint survives the eviction.
            old_asg = self.fs._coded_for(meta, old_plan)
            new_asg = (new_policy.coded_file(
                meta.inode, meta.n_stripes, meta.erasure,
                CodingSets.from_doc(meta.coding))
                if old_asg is not None else None)
            for idx in range(len(old_plan.keys)):
                key = old_plan.keys[idx]
                chain = old_plan.chain(idx, k=max(meta.replication, 1))
                held = name in chain or \
                    (old_asg is not None and old_asg.targets[idx] == name)
                if not held:
                    continue
                try:
                    nbytes, piece = yield from client.get(server, key,
                                                          retry=NO_RETRY)
                except StoreError as exc:
                    # Not here, or the server died mid-drain (the repair
                    # daemon re-replicates what a dead store took down).
                    if exc.code.fallthrough:
                        continue
                    raise
                target = new_asg.targets[idx] if new_asg is not None \
                    else new_plan.primary(idx)
                if self.fs.capacity_guard and \
                        not self.fs.ledger.admits(target, nbytes):
                    # The post-eviction primary is full: spill down the
                    # new chain (§III-E).  If no live store can take the
                    # copy, leave it behind — the repair daemon retries
                    # once pressure eases — rather than failing the drain.
                    picked, distance, _short = select_targets(
                        new_plan.chain(idx), nbytes, 1,
                        self.fs.ledger.usable)
                    if not picked:
                        pressure_stats.evac_drops += 1
                        continue
                    pressure_stats.evac_spills += 1
                    pressure_stats.spill_distance += distance
                    target = picked[0]
                try:
                    yield from client.put(
                        self.fs.servers[target], key,
                        nbytes=None if piece is not None else nbytes,
                        payload=piece)
                except StoreError as exc:
                    if exc.code is not StoreErrorCode.FULL:
                        raise
                    pressure_stats.evac_drops += 1
                    continue
                self.moved_keys.append((key, name, target))
                moved += nbytes
            # 3. Rewrite the membership snapshot: drop this node and any
            # node that died since the file was written.
            meta.class_members = {
                c: [m for m in members
                    if m != name and m in self.fs.servers]
                for c, members in meta.class_members.items()}
            yield from client.put(
                self.fs._meta_server(file_meta_key(path)),
                file_meta_key(path), payload=meta.to_bytes())
        # 4. Free the node's memory and deregister the server.
        server.shutdown()
        self.fs.servers.pop(name, None)
        self.fs.domains.pop(name, None)
        self.leases.pop(name, None)
        self.migrated_bytes += moved
        return moved

    # -- live retuning ----------------------------------------------------------------
    def rebalance(self, new_map: PlacementMap,
                  budget_bytes: float | None = None):
        """Generator: move the system onto *new_map*, migrating **only**
        the stripes whose placement changed between the old and new
        :class:`~repro.fs.placement.StripePlan` (the market controller's
        epoch step).

        Per file, three phases keep concurrent reads safe:

        1. copy every stripe whose replica chain gained a node to its new
           location (spilling down the new chain under the capacity
           guard),
        2. rewrite the file's membership snapshot to the new placement,
        3. only then delete the copies stranded on nodes the chain left,
           and only for stripes whose new copies **all landed** — a
           dropped copy (capacity pressure) keeps the old holder, so a
           read always finds data wherever its metadata (old or new)
           points it.

        *budget_bytes* is the per-call migration allowance (the repair
        bandwidth the epoch may spend): files beyond the budget keep
        their old placement and are reported as deferred, to be picked up
        by the next epoch.  New writes follow *new_map* immediately —
        the policy flips before the drain queues on the evacuation lock.
        """
        target_map = PlacementMap.intern(new_map)
        self.fs.policy = target_map
        yield from self._evac_lock.acquire()
        try:
            summary = yield from self._rebalance_locked(target_map,
                                                        budget_bytes)
        finally:
            self._evac_lock.release()
        return summary

    def _rebalance_locked(self, target_map: PlacementMap,
                          budget_bytes: float | None):
        agent = self.fs.own_nodes[0]
        client = self.fs.client(agent)
        live_new = self._live_policy(target_map)
        new_weights, new_members = live_new.snapshot()
        moved_bytes = 0.0
        moved_stripes = 0
        freed_bytes = 0.0
        deferred_files = 0
        files_touched = 0
        unsourced = 0
        paths = yield from self.fs.list_all_files(agent)
        for path in paths:
            try:
                meta = yield from self.fs.stat(agent, path)
            except Exception:
                continue
            old_policy = PlacementMap.from_meta(meta,
                                                self.fs.policy.family)
            if old_policy.snapshot() == live_new.snapshot():
                continue
            if budget_bytes is not None and moved_bytes >= budget_bytes:
                deferred_files += 1
                continue
            old_plan = old_policy.plan_file(meta.inode, meta.n_stripes,
                                            erasure=meta.erasure)
            new_plan = live_new.plan_file(meta.inode, meta.n_stripes,
                                          erasure=meta.erasure)
            want = max(meta.replication, 1)
            stale: list[tuple[str, object]] = []
            for idx in range(len(old_plan.keys)):
                key = old_plan.keys[idx]
                old_chain = old_plan.chain(idx, k=want)
                new_chain = new_plan.chain(idx, k=want)
                if set(old_chain) == set(new_chain):
                    continue
                additions = [t for t in new_chain if t not in old_chain]
                departing = [t for t in old_chain if t not in new_chain]
                if not additions:
                    # The new chain shrank into a subset of the old: the
                    # surviving holders already sit on the new placement,
                    # so the extras are redundant (never the last copy).
                    if new_chain:
                        stale.extend((t, key) for t in departing)
                    continue
                # Source: any live holder in the *recorded* rank chain
                # (full walk — finds copies left by earlier spills too).
                nbytes = piece = None
                source = None
                for t in old_plan.chain(idx):
                    server = self.fs.servers.get(t)
                    if server is None:
                        continue
                    try:
                        nbytes, piece = yield from client.get(
                            server, key, retry=NO_RETRY)
                        source = t
                        break
                    except StoreError as exc:
                        if not exc.code.fallthrough:
                            raise
                if source is None:
                    # Nothing to copy from (crash ate every replica); the
                    # repair daemon owns reconstruction, not the retune.
                    unsourced += 1
                    continue
                landed = 0
                for target in additions:
                    dest = target
                    if self.fs.capacity_guard and \
                            not self.fs.ledger.admits(dest, nbytes):
                        picked, distance, _short = select_targets(
                            new_plan.chain(idx), nbytes, 1,
                            self.fs.ledger.usable)
                        if not picked:
                            pressure_stats.evac_drops += 1
                            continue
                        pressure_stats.evac_spills += 1
                        pressure_stats.spill_distance += distance
                        dest = picked[0]
                    try:
                        yield from client.put(
                            self.fs.servers[dest], key,
                            nbytes=None if piece is not None else nbytes,
                            payload=piece)
                    except StoreError as exc:
                        if exc.code is not StoreErrorCode.FULL:
                            raise
                        pressure_stats.evac_drops += 1
                        continue
                    self.moved_keys.append((key, source, dest))
                    moved_bytes += nbytes
                    moved_stripes += 1
                    landed += 1
                # Old holders become deletable only once every required
                # copy has landed; a dropped copy (capacity guard or a
                # FULL put) keeps them alive so a read always finds the
                # data — the next epoch / repair daemon finishes the move.
                if landed == len(additions):
                    stale.extend((t, key) for t in departing)
            # Phase 2: the snapshot flips to the new placement...
            meta.class_weights = dict(new_weights)
            meta.class_members = {c: list(m)
                                  for c, m in new_members.items()}
            yield from client.put(
                self.fs._meta_server(file_meta_key(path)),
                file_meta_key(path), payload=meta.to_bytes())
            # Phase 3: ...and only now do the stranded copies go away.
            for holder, key in stale:
                server = self.fs.servers.get(holder)
                if server is None:
                    continue
                try:
                    released = yield from client.delete(server, key,
                                                        retry=NO_RETRY)
                except StoreError as exc:
                    if not exc.code.fallthrough:
                        raise
                    continue
                freed_bytes += released
            files_touched += 1
        self.migrated_bytes += moved_bytes
        return {"moved_bytes": moved_bytes,
                "moved_stripes": moved_stripes,
                "freed_bytes": freed_bytes,
                "files_touched": files_touched,
                "deferred_files": deferred_files,
                "unsourced": unsourced}

    def withdraw(self, node: Node):
        """Generator: voluntarily leave a node (same path as eviction)."""
        lease = self.leases.get(node.name)
        if lease is not None and lease.active:
            lease.revoke("withdrawn")
            # The watcher (if any) will also wake; evacuation is idempotent
            # because the server disappears from fs.servers.
        return (yield from self.evacuate(node))

    # -- crashes ---------------------------------------------------------------------
    def handle_crash(self, name: str) -> None:
        """A store node died without warning.

        Unlike a revocation there is nothing to drain — the bytes are
        gone.  Drop the node from the policy and the server map so reads
        fall through its rank chain, and leave re-replication to the
        :class:`RepairDaemon`.
        """
        self.fs.servers.pop(name, None)
        self.fs.domains.pop(name, None)
        if name in self.fs.policy.all_nodes:
            self.fs.policy = self.fs.policy.without_nodes({name})
        lease = self.leases.pop(name, None)
        if lease is not None and lease.active:
            # Wakes the watcher; its evacuate() no-ops (no server left).
            lease.revoke("crashed")


class _RepairTask:
    """One under-replicated fragment queued for repair."""

    __slots__ = ("path", "meta", "plan", "asg", "idx", "key", "missing",
                 "survivors", "nbytes_hint", "parity")

    def __init__(self, path, meta, plan, asg, idx, key, missing,
                 survivors, nbytes_hint, parity):
        self.path = path
        self.meta = meta
        self.plan = plan
        self.asg = asg
        self.idx = idx
        self.key = key
        self.missing = missing
        self.survivors = survivors
        self.nbytes_hint = nbytes_hint
        self.parity = parity  # (first, count, plen) for parity indices


class RepairDaemon:
    """SLO-driven re-replication restoring stripe redundancy.

    Each sweep runs two phases under the manager's evacuation lock (so
    repair never races a drain over the same metadata):

    **Scan** walks the file registry and probes every stripe (and parity
    block) against its wanted location under the *live* membership — the
    CodingSets-assigned target for coded files, the replica chain
    otherwise.  Every missing copy becomes a :class:`_RepairTask` tagged
    with how many fragments of its erasure group still survive, and opens
    (or extends) an MTTR window in
    :data:`~repro.faults.availability.avail_stats`.

    **Drain** repairs the queue most-critical-first (fewest survivors —
    the stripes one more loss would destroy).  Restored bytes optionally
    contend through a repair-bandwidth budget (*bandwidth*, a
    :class:`~repro.sim.FluidResource` pipe raced against the store
    transfer exactly like the FUSE pipe in
    :meth:`~repro.fs.memfss.MemFSS._through_fuse`), repair reads use a
    bounded *retry* policy, and a stripe restored to full strength closes
    its MTTR window.  A stripe with **no** surviving source anywhere is
    recorded loudly in :attr:`lost` as a
    :class:`~repro.faults.availability.DegradedStripe`.

    With ``bandwidth=None`` and ``retry=None`` (the defaults) the sweep
    is event-for-event identical to the historical best-effort daemon —
    the same probes, reads and puts in the same order when nothing is
    degraded — so existing recovery benchmarks are unperturbed.
    """

    def __init__(self, env: Environment, fs: MemFSS, *,
                 manager: ScavengingManager | None = None,
                 interval: float = 0.25, agent: Node | None = None,
                 bandwidth: float | None = None,
                 retry: RetryPolicy | None = None):
        self.env = env
        self.fs = fs
        self.manager = manager
        self.interval = float(interval)
        self.agent = agent if agent is not None else fs.own_nodes[0]
        #: Unrepairable losses seen by the last sweep (second losses).
        self.deficits = 0
        #: Bounded retry for repair reads; NO_RETRY keeps the historical
        #: single-shot probe behaviour.
        self.retry = retry if retry is not None else NO_RETRY
        #: Repair-bandwidth budget: restored bytes flow through this pipe
        #: and contend with each other (None = unmetered).
        self.pipe = (FluidResource(env, float(bandwidth),
                                   name="repair-budget")
                     if bandwidth else None)
        #: Loud record of stripes whose every repair source is gone.
        self.lost: list[DegradedStripe] = []
        self._lost_keys: set = set()
        #: Per-repair event log: dicts with time/path/key/action.
        self.timeline: list[dict] = []
        self._proc = None

    # -- lifecycle -------------------------------------------------------------------
    def start(self):
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="repair-daemon")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("repair daemon stopped")

    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.interval)
                yield from self.sweep()
        except Interrupt:
            return

    # -- one pass --------------------------------------------------------------------
    def sweep(self):
        """Generator: one full repair pass; returns copies restored."""
        fault_stats.repair_scans += 1
        if self.manager is not None:
            yield from self.manager._evac_lock.acquire()
        try:
            repaired = yield from self._sweep_locked()
        finally:
            if self.manager is not None:
                self.manager._evac_lock.release()
        if self.deficits == 0:
            # Full redundancy everywhere: whatever faults were open are
            # recovered as of now.
            fault_stats.resolve_open(self.env.now)
        return repaired

    def _sweep_locked(self):
        client = self.fs.client(self.agent)
        self.deficits = 0
        tasks: list[_RepairTask] = []
        stale: list[tuple[str, FileMeta]] = []
        paths = yield from self.fs.list_all_files(self.agent)
        for path in paths:
            try:
                meta = yield from self.fs.stat(self.agent, path)
            except FileNotFound:
                continue
            yield from self._scan_file(client, meta, path, tasks, stale)
        # The SLO queue: most-critical-first.  A stripe whose erasure
        # group has the fewest surviving fragments is the one a further
        # loss would destroy, so it repairs before healthier peers.
        tasks.sort(key=lambda t: (t.survivors, t.path, t.idx))
        now = self.env.now
        backlog = 0.0
        for t in tasks:
            if avail_stats.open_window((t.path, tuple(t.key)), now):
                avail_stats.fragments_lost += len(t.missing)
            backlog += t.nbytes_hint * len(t.missing)
        avail_stats.repair_backlog_bytes = backlog
        repaired = 0
        for t in tasks:
            fixed = yield from self._repair_task(client, t)
            repaired += fixed
            backlog = max(0.0, backlog - t.nbytes_hint * fixed)
            avail_stats.repair_backlog_bytes = backlog
        # Files whose recorded membership references dead nodes get their
        # snapshot rewritten so later reads place directly onto live nodes.
        for path, meta in stale:
            meta.class_members = {
                c: [m for m in members if m in self.fs.servers]
                for c, members in meta.class_members.items()}
            yield from client.put(
                self.fs._meta_server(file_meta_key(path)),
                file_meta_key(path), payload=meta.to_bytes())
        return repaired

    # -- scan phase ------------------------------------------------------------------
    def _scan_file(self, client, meta: FileMeta, path: str,
                   tasks: list, stale: list):
        """Generator: probe one file's fragments, queueing repair tasks."""
        old_policy = PlacementMap.from_meta(meta, self.fs.policy.family)
        dead = [n for n in old_policy.all_nodes
                if n not in self.fs.servers]
        live_policy = old_policy.without_nodes(dead)
        plan = live_policy.plan_file(meta.inode, meta.n_stripes,
                                     erasure=meta.erasure)
        asg = None
        if meta.coding and meta.erasure is not None:
            asg = live_policy.coded_file(meta.inode, meta.n_stripes,
                                         meta.erasure,
                                         CodingSets.from_doc(meta.coding))
        want = max(meta.replication, 1)
        spans = stripe_spans(meta.size, meta.stripe_size)
        # Parity blocks cannot be copied from a replica when lost, but
        # they can be recomputed from their group's surviving data.
        parity_info: dict[int, tuple[int, int, int]] = {}
        group_of: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        if meta.erasure is not None:
            k, m = meta.erasure
            for gi, (first, count) in enumerate(
                    group_layout(meta.n_stripes, k)):
                plen = max((spans[i].length
                            for i in range(first, first + count)),
                           default=0)
                idxs = list(range(first, first + count))
                for j in range(m):
                    pidx = plan.index_of(parity_key(meta.inode, gi, j))
                    parity_info[pidx] = (first, count, plen)
                    idxs.append(pidx)
                groups[gi] = idxs
                for i in idxs:
                    group_of[i] = gi
        whole: dict[int, bool] = {}
        missing_map: dict[int, list[str]] = {}
        for idx in range(len(plan.keys)):
            key = plan.keys[idx]
            targets = [asg.targets[idx]] if asg is not None \
                else plan.chain(idx, k=want)
            missing = []
            probed = 0
            for t in targets:
                server = self.fs.servers.get(t)
                if server is None:
                    continue
                probed += 1
                try:
                    has = yield from client.exists(server, key,
                                                   retry=self.retry)
                except StoreError as exc:
                    if not exc.code.fallthrough:
                        raise
                    has = False
                if not has:
                    missing.append(t)
            whole[idx] = probed > 0 and not missing
            if missing:
                missing_map[idx] = missing
        for idx, missing in missing_map.items():
            if idx in parity_info:
                hint = float(parity_info[idx][2])
            else:
                hint = float(spans[idx].length) if idx < len(spans) else 0.0
            if meta.erasure is not None:
                survivors = sum(1 for i in groups[group_of[idx]]
                                if whole.get(i))
            else:
                survivors = want - len(missing)
            tasks.append(_RepairTask(path, meta, plan, asg, idx,
                                     plan.keys[idx], missing, survivors,
                                     hint, parity_info.get(idx)))
        if dead:
            stale.append((path, meta))

    # -- drain phase -----------------------------------------------------------------
    def _budgeted(self, nbytes, gen):
        """Generator: run *gen* while *nbytes* drain through the repair
        budget.  Like the FUSE pipe, transfer and budget are raced so the
        cost is the max of the two — repair traffic shows up as real
        contending flows instead of teleporting bytes."""
        if self.pipe is None or not nbytes or nbytes <= 0:
            return (yield from gen)
        inner = self.env.process(gen)
        flow = self.pipe.submit(float(nbytes), label="repair")
        try:
            yield self.env.all_of([flow.done, inner])
        except BaseException:
            self.pipe.remove(flow)
            if inner.is_alive:
                inner.interrupt()
            raise
        return inner.value

    def _record_lost(self, t: _RepairTask) -> None:
        lk = (t.path, tuple(t.key))
        if lk in self._lost_keys:
            return
        self._lost_keys.add(lk)
        avail_stats.stripes_lost += 1
        self.lost.append(DegradedStripe(
            path=t.path, key=tuple(t.key), reason="all-sources-lost",
            detail=(f"{len(t.missing)} wanted copies missing; no live "
                    f"holder and reconstruction failed "
                    f"({t.survivors} group fragments survived the scan)"),
            at=self.env.now))
        self.timeline.append({"t": self.env.now, "path": t.path,
                              "key": list(t.key), "action": "lost",
                              "survivors": t.survivors})

    def _repair_task(self, client, t: _RepairTask):
        """Generator: restore one fragment's missing copies; returns how
        many landed."""
        retries_before = fault_stats.retries
        # Source: any live holder anywhere in the full rank chain (finds
        # copies left behind by earlier spills too).
        nbytes = piece = None
        found = False
        for cand in t.plan.chain(t.idx):
            server = self.fs.servers.get(cand)
            if server is None or cand in t.missing:
                continue
            try:
                nbytes, piece = yield from client.get(server, t.key,
                                                      retry=self.retry)
                found = True
                break
            except StoreError as exc:
                if not exc.code.fallthrough:
                    raise
        if not found and t.meta.erasure is not None \
                and t.idx < t.meta.n_stripes:
            try:
                nbytes, piece = yield from self.fs._reconstruct_stripe(
                    client, t.plan, t.meta, t.idx)
                found = True
            except FileNotFound:
                found = False
        if not found and t.parity is not None:
            first, count, plen = t.parity
            group: list | None = []
            for sib in range(first, first + count):
                try:
                    _nb, p = yield from self.fs._fetch_any(
                        client, t.plan, sib, meta=t.meta)
                except FileNotFound:
                    group = None
                    break
                group.append(p)
            if group is not None:
                piece = (xor_parity(group)
                         if all(p is not None for p in group) else None)
                nbytes = float(plen)
                found = True
        avail_stats.repair_retries += fault_stats.retries - retries_before
        if not found:
            self.deficits += 1
            self._record_lost(t)
            return 0
        fixed = 0
        for target in t.missing:
            server = self.fs.servers.get(target)
            if server is None:
                # The wanted holder died between scan and drain; the next
                # sweep re-plans under the new membership.
                self.deficits += 1
                continue
            if self.fs.capacity_guard and \
                    not self.fs.ledger.admits(target, nbytes):
                # The rank that should hold the copy is full; skip it
                # this sweep and count the deficit so the fault stays
                # open — a later sweep retries once pressure eases.
                pressure_stats.repair_skips += 1
                avail_stats.repair_skips += 1
                self.deficits += 1
                continue
            try:
                yield from self._budgeted(nbytes, client.put(
                    server, t.key,
                    nbytes=None if piece is not None else nbytes,
                    payload=piece))
            except StoreError as exc:
                if exc.code is not StoreErrorCode.FULL:
                    raise
                pressure_stats.repair_skips += 1
                avail_stats.repair_skips += 1
                self.deficits += 1
                continue
            fixed += 1
            fault_stats.stripes_repaired += 1
            fault_stats.repaired_bytes += float(nbytes)
        if fixed and fixed == len(t.missing):
            avail_stats.repairs_completed += 1
            avail_stats.close_window((t.path, tuple(t.key)), self.env.now)
            self.timeline.append({"t": self.env.now, "path": t.path,
                                  "key": list(t.key), "action": "repaired",
                                  "survivors": t.survivors,
                                  "copies": fixed,
                                  "bytes": float(nbytes) * fixed})
        return fixed
