"""The node process: message runtime + SPMD interpreter executors.

One node process is the distributed backend's PE.  It is split across
two worlds that meet at the asyncio loop:

* the **runtime** (main thread, asyncio): the peer transport endpoint,
  the coordinator control link (hello/heartbeats up, start/adopt/
  ownermap/collect/fence/shutdown down), and the node's *element
  stores* — the authoritative, presence-bit storage for every
  distributed-array element this node owns.
* the **executors** (worker threads): one sequential interpreter per
  adopted identity group, running the program SPMD-style exactly like
  the real-parallel backend — replicated scalar code, Range-Filter
  subranges for distributed loops, node-private ``SeqArray`` temporaries
  inside distributed iterations.

The two worlds share the element stores under one store lock.  The
Range Filter makes almost every write owner-local, so an executor
applies its owner-local writes itself: presence check, store and
waiter wake-up happen on the executor thread, under the lock, and a
local double write raises in the writer.  Everything that touches a
socket stays on the loop: remote writes, reads that miss the cache and
the ``rdy`` replies a local write owes remote waiters are posted to it
without waiting.  No send happens under the lock.

Array semantics follow the paper's Section 4: elements are assigned to
*identities* by the same first-element-ownership math as every other
backend (``ArrayHeader.owner_of_offset``), and identities map to nodes
through a coordinator-versioned owner map (initially the identity map;
takeover rebinds a dead node's identities to a survivor).  A write is
routed to the owning node and lands in its store once — a second
non-replay write is a :class:`SingleAssignmentViolation`; a replay
write of an already-present element is *verified* against the stored
value instead (the idempotence that makes takeover re-execution safe).
A read misses the node-local cache, then becomes a genuine split-phase
exchange: a ``read`` request to the owner, answered with every present
element of the requested *page* (page-grain caching), or deferred
owner-side until the write arrives.  A read that nothing will ever
satisfy times out as a structured
:class:`~repro.common.errors.DeferredReadTimeout` — the distributed
face of deadlock.

Zombie fencing: frames from nodes the coordinator has declared dead are
dropped at the message handler (the owner-map broadcast carries the
live set), so a half-dead predecessor's late writes are discarded —
and a replay's duplicate writes verify as equal rather than violate.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import os
import signal
import threading
import time
import traceback

from repro.baseline.spmd import SpmdInterpreter
from repro.common.errors import (DeferredReadTimeout, ExecutionError,
                                 SingleAssignmentViolation)
from repro.common.retry import RetryPolicy
from repro.dist import reasons
from repro.dist.faults import DistFaultInjector, DistFaultPlan
from repro.dist.transport import (COORD, Endpoint, encode_frame,
                                  frame_secret, read_frame)
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.arrays import ArrayHeader


class ElementStore:
    """Owner-side storage for one distributed array: values + waiters."""

    __slots__ = ("values", "deferred")

    def __init__(self) -> None:
        self.values: dict[int, object] = {}
        # offset -> [("local", concurrent Future) | ("remote", node)]
        self.deferred: dict[int, list] = {}


class DistArray:
    """One executor's handle to a distributed I-structure.

    Holds the geometry (an :class:`ArrayHeader` over the *identity*
    space — ownership never changes shape, only the identity->node
    binding does), this executor's access counters and the node's read
    cache for the array; storage lives in the runtime's element stores.
    """

    __slots__ = ("runtime", "seq", "dims", "header", "cache", "name",
                 "reads", "writes", "deferred_reads", "spin_wait_s",
                 "max_spin_wait_s", "pages_touched")

    def __init__(self, runtime: "NodeRuntime", seq: int,
                 dims: tuple[int, ...]) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ExecutionError(f"bad array dimensions {dims!r}")
        self.runtime = runtime
        self.seq = seq
        self.dims = dims
        self.header = ArrayHeader(seq, dims, runtime.cfg.page_size,
                                  runtime.num_identities)
        # The loop thread needs the geometry during takeover (to decide
        # which cached offsets a rebound identity owns).  setdefault on
        # a builtin dict is atomic under the GIL; headers are immutable.
        runtime.headers.setdefault(seq, self.header)
        # The node-wide cache dict itself, shared with the loop and every
        # other executor: it is never replaced, only filled.
        self.cache = runtime.caches.setdefault(seq, {})
        # Zero-padded so the registry's sorted-name indexing matches
        # allocation order past nine arrays.
        self.name = f"a{seq:04d}"
        self.reads = 0
        self.writes = 0
        self.deferred_reads = 0
        self.spin_wait_s = 0.0
        self.max_spin_wait_s = 0.0
        self.pages_touched: set[int] = set()

    # Duck-typed I-structure surface (is_istructure, direct callers).
    def read(self, indices: tuple) -> object:
        return self.runtime.array_read(self, indices)

    def write(self, indices: tuple, value, replay: bool = False) -> None:
        self.runtime.array_write(self, indices, value, replay)

    def stats(self) -> dict:
        """This executor's access counters (the ``ShmArray.stats`` shape;
        replay verification is counted node-wide instead)."""
        return {"reads": self.reads, "writes": self.writes,
                "deferred_reads": self.deferred_reads,
                "spin_wait_s": self.spin_wait_s,
                "max_spin_wait_s": self.max_spin_wait_s,
                "replayed_present": 0, "stall_reports": 0,
                "pages_touched": sorted(self.pages_touched)}


class _NodeInterpreter(SpmdInterpreter):
    """Message-runtime storage adapter: shared arrays are ``DistArray``
    handles whose elements live in the owning nodes' element stores."""

    shared_type = DistArray

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 runtime: "NodeRuntime", identities: tuple[int, ...],
                 replay: bool, entry: str) -> None:
        super().__init__(program, graph, identities, entry,
                         runtime.injector)
        self.runtime = runtime
        self.replay = replay

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> DistArray:
        return DistArray(self.runtime, seq, dims)

    def read_shared(self, arr: DistArray, indices: tuple):
        return self.runtime.array_read(arr, indices)

    def write_shared(self, arr: DistArray, indices: tuple, value) -> None:
        self.runtime.array_write(arr, indices, value, self.replay)

    def header_of(self, arr: DistArray) -> ArrayHeader:
        return arr.header


class NodeRuntime:
    """Everything one node process owns: loop, transport, stores, threads.

    Thread contract:

    * ``_lock`` guards the element stores (``stores``, each store's
      ``values`` and ``deferred``) and ``replayed_present``.  Any thread
      may touch them, only under the lock, and nobody sends under it.
    * Executor threads also fill and read the lock-free read cache
      (plain dict operations under the GIL; values are immutable once
      present) and read ``owners``.  An identity this node owns never
      moves away while the node is live, so an executor that sees
      itself as owner may store directly.
    * Everything else goes to the loop with ``call_soon_threadsafe``
      and no wait: remote writes, cache-missed reads (the executor waits
      on its own future, not on the loop) and ``rdy`` replies.  The loop
      thread owns pending-read bookkeeping, owner-map updates and every
      socket.  Its FIFO keeps an executor's writes ahead of the ``done``
      report that follows them.
    """

    def __init__(self, program, graph, node: int, nodes: int,
                 coord_host: str, coord_port: int, cfg, entry: str,
                 args: tuple, plan: DistFaultPlan,
                 standby_port: int | None = None,
                 restore=None) -> None:
        self.program = program
        self.graph = graph
        self.node = node
        self.num_identities = nodes
        self.coord_host = coord_host
        self.coord_port = coord_port
        self.standby_port = standby_port
        self.restore = restore
        self.cfg = cfg
        self.entry = entry
        self.args = tuple(args)
        self.injector = DistFaultInjector(plan, node)
        self.policy = RetryPolicy.from_config(cfg)
        self.owners = list(range(nodes))  # identity -> node
        self.live = set(range(nodes))
        self._lock = threading.Lock()  # stores + replayed_present
        self.stores: dict[int, ElementStore] = {}
        self.caches: dict[int, dict[int, object]] = {}
        self.headers: dict[int, ArrayHeader] = {}
        # (array seq, offset) -> {"ident": owner identity, "target":
        # node the request went to, "futs": [concurrent futures]}
        self.pending: dict[tuple[int, int], dict] = {}
        self.replayed_present = 0
        self.loop: asyncio.AbstractEventLoop | None = None
        self.endpoint: Endpoint | None = None
        self._coord_writer = None
        self._stop: asyncio.Event | None = None
        self._hb_task: asyncio.Task | None = None
        self._threads: list[threading.Thread] = []
        self._secret = frame_secret()
        self._started = False
        self.gen = 1  # highest coordinator generation seen
        self.peer_port: int | None = None
        # Every done/result/err/peer-lost frame ever sent, so a
        # promoted standby coordinator can be brought up to date.
        self.reports: list[dict] = []

    # ------------------------------------------------------------------
    # lifecycle (loop thread)
    # ------------------------------------------------------------------

    async def run(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.coord_host, self.coord_port),
            self.cfg.connect_timeout_s)
        self._coord_writer = writer
        self.endpoint = Endpoint(self.node, self.cfg, self.policy,
                                 self.injector, self._on_peer_msg,
                                 self._on_peer_lost)
        port = await self.endpoint.start(self.cfg.host)
        self.peer_port = port
        self._send_coord({"t": "hello", "node": self.node, "port": port})
        coord_task = asyncio.ensure_future(self._coord_loop(reader))
        try:
            await self._stop.wait()
        finally:
            coord_task.cancel()
            if self._hb_task is not None:
                self._hb_task.cancel()
            await self.endpoint.close()
            try:
                writer.close()
            except Exception:
                pass

    async def _coord_loop(self, reader) -> None:
        while True:
            msg = await read_frame(reader, self._secret,
                                   self._auth_reject)
            if msg is None:
                # Coordinator gone.  With failover on, a warm standby
                # is listening on a pre-announced port: rejoin it and
                # resync; otherwise there is nothing left to report to.
                reader = await self._rejoin()
                if reader is None:
                    self._stop.set()
                    return
                continue
            t = msg.get("t")
            if t == "start":
                peers = {int(k): (v[0], int(v[1]))
                         for k, v in msg["peers"].items()}
                self.endpoint.set_peers(peers)
                self.owners = list(msg["owners"])
                self.live = set(msg["live"])
                if self._hb_task is None:
                    self._hb_task = asyncio.ensure_future(self._hb_loop())
                if not self._started:
                    self._started = True
                    if self.restore is not None:
                        self._seed_restore()
                    self._start_executor(
                        (self.node,), generation=1, slot=self.node,
                        replay=self.restore is not None)
            elif t == "adopt":
                generation = msg["generation"]
                self.gen = max(self.gen, generation)
                self.injector.set_generation(generation)
                self._start_executor(tuple(msg["identities"]),
                                     generation=generation,
                                     slot=msg["slot"], replay=True)
            elif t == "ownermap":
                self.gen = max(self.gen, int(msg.get("gen", 1)))
                self._apply_ownermap(list(msg["owners"]),
                                     set(msg["live"]))
            elif t == "collect":
                a = msg["a"]
                with self._lock:
                    store = self.stores.get(a)
                    vals = ({str(off): v
                             for off, v in store.values.items()}
                            if store is not None else {})
                self._send_coord({"t": "segment", "node": self.node,
                                  "a": a, "vals": vals})
            elif t == "ckpt":
                self._send_coord({"t": "ckpt-state", "node": self.node,
                                  "arrays": self._ckpt_state()})
            elif t == "fence":
                # Declared dead: die immediately, like the zombie the
                # coordinator already believes this process is.
                os._exit(0)
            elif t == "shutdown":
                ns = self.endpoint.stats
                self._send_coord({
                    "t": "bye", "node": self.node,
                    "netstats": {k: getattr(ns, k) for k in
                                 ns.__dataclass_fields__
                                 if k != "spans"}})
                try:
                    await self._coord_writer.drain()
                except Exception:
                    pass
                self._stop.set()
                return

    async def _rejoin(self):
        """Dial the standby coordinator and resync; None when hopeless."""
        if (not getattr(self.cfg, "failover", False)
                or self.standby_port is None or self._stop.is_set()):
            return None
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        attempt = 0
        while time.monotonic() < deadline:
            attempt += 1
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.coord_host,
                                            self.standby_port),
                    min(1.0, self.cfg.connect_timeout_s))
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await asyncio.sleep(
                    self.policy.backoff_s(self.node, attempt))
                continue
            old = self._coord_writer
            self._coord_writer = writer
            try:
                old.close()
            except Exception:
                pass
            self._send_coord({
                "t": "hello", "node": self.node, "port": self.peer_port,
                "resync": {"gen": self.gen, "owners": list(self.owners),
                           "live": sorted(self.live),
                           "reports": list(self.reports)}})
            return reader
        return None

    def _ckpt_state(self) -> dict:
        """This node's owned element state, keyed for ``ckpt-state``."""
        arrays: dict[str, dict] = {}
        with self._lock:
            for a, store in self.stores.items():
                header = self.headers.get(a)
                if header is None or not store.values:
                    continue
                arrays[str(a)] = {
                    "dims": list(header.dims),
                    "vals": {str(off): v
                             for off, v in store.values.items()}}
        return arrays

    def _seed_restore(self) -> None:
        """Pre-seed stores and caches from a ``pods-ckpt/v1`` snapshot.

        Ownership is re-derived at the *current* node count — the
        checkpoint stores flat offsets, and ``owner_of_offset`` is pure
        geometry — so a run checkpointed at N nodes restores at M.
        Every element also lands in the read cache (single assignment
        makes any copy authoritative), sparing the replay a round of
        remote reads.
        """
        for ordinal in self.restore.ordinals():
            entry = self.restore.array(ordinal)
            if entry is None:
                continue
            dims, elements = entry
            header = ArrayHeader(ordinal, tuple(dims),
                                 self.cfg.page_size,
                                 self.num_identities)
            self.headers.setdefault(ordinal, header)
            cache = self.caches.setdefault(ordinal, {})
            with self._lock:
                store = self._store_of(ordinal)
                for off, value in elements.items():
                    cache[off] = value
                    if self.owners[header.owner_of_offset(off)] == \
                            self.node:
                        store.values.setdefault(off, value)

    def _auth_reject(self) -> None:
        if self.endpoint is not None:
            self.endpoint.net.stats.auth_rejected += 1

    async def _hb_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            self.injector.fire("hb")
            drop, delay_s = self.injector.decide_frame(COORD, "hb")
            if drop:
                continue
            if delay_s:
                await asyncio.sleep(delay_s)
            self._send_coord({"t": "hb", "node": self.node})

    def _send_coord(self, msg: dict) -> None:
        try:
            self._coord_writer.write(encode_frame(msg, self._secret))
        except Exception:
            pass

    def _send_report(self, msg: dict) -> None:
        """Send and *remember* a report frame (loop thread).

        Remembered reports ride the resync payload to a promoted
        standby coordinator; replaying one twice is idempotent
        coordinator-side, so remembering liberally is safe.
        """
        self.reports.append(msg)
        self._send_coord(msg)

    def post_coord(self, msg: dict) -> None:
        """Thread-safe coordinator send (executor threads)."""
        try:
            self.loop.call_soon_threadsafe(self._send_coord, msg)
        except RuntimeError:
            pass  # loop already closed during teardown

    def post_report(self, msg: dict) -> None:
        """Thread-safe remembered report send (executor threads)."""
        try:
            self.loop.call_soon_threadsafe(self._send_report, msg)
        except RuntimeError:
            pass  # loop already closed during teardown

    # ------------------------------------------------------------------
    # executors (worker threads)
    # ------------------------------------------------------------------

    def _start_executor(self, identities: tuple[int, ...],
                        generation: int, slot: int, replay: bool) -> None:
        thread = threading.Thread(
            target=self._executor_main,
            args=(identities, generation, slot, replay),
            name=f"pods-exec-{self.node}-g{generation}", daemon=True)
        self._threads.append(thread)
        thread.start()

    def _executor_main(self, identities: tuple[int, ...],
                       generation: int, slot: int, replay: bool) -> None:
        interp = _NodeInterpreter(self.program, self.graph, self,
                                  identities, replay, self.entry)
        t0 = time.perf_counter()
        try:
            result = interp.run(self.args, materialize=False)
            self.injector.fire("result")
            if 0 in identities:
                value = result.value
                if isinstance(value, DistArray):
                    payload = ("array", [value.seq, list(value.dims)])
                else:
                    payload = ("ok", value)
                self.post_report({"t": "result", "node": self.node,
                                  "slot": slot, "gen": generation,
                                  "v": payload})
            telemetry = interp.telemetry(time.perf_counter() - t0)
            telemetry["replayed_present"] = self._take_replayed()
            self.post_report({"t": "done", "node": self.node,
                              "slot": slot, "gen": generation,
                              "identities": list(identities),
                              "telemetry": telemetry})
        except BaseException as exc:  # noqa: BLE001 - crosses the wire
            self.post_report({"t": "err", "node": self.node,
                              "slot": slot, "gen": generation,
                              "detail": f"{type(exc).__name__}: {exc}\n"
                                        f"{traceback.format_exc()}"})

    def _take_replayed(self) -> int:
        """Read and reset the node-level replay-verify counter."""
        with self._lock:
            count, self.replayed_present = self.replayed_present, 0
        return count

    # ------------------------------------------------------------------
    # array access (executor threads)
    # ------------------------------------------------------------------

    def array_write(self, arr: DistArray, indices: tuple, value,
                    replay: bool) -> None:
        header = arr.header
        off = header.offset(indices)  # bounds-checked, pure
        owner_ident = header.owner_of_offset(off)
        arr.writes += 1
        arr.pages_touched.add(header.page_of(off))
        if self.owners[owner_ident] != self.node:
            # Single assignment makes the value immutable: the writer
            # may cache it at once.  A remote owner reports a violation
            # as its own node error; the writer moves on.
            arr.cache[off] = value
            self.loop.call_soon_threadsafe(self._write_entry, arr.seq, off,
                                           owner_ident, value, replay)
            return
        # Store before caching, so a takeover's presence-bit replay of
        # this node's cache cannot beat the write into the store.
        waiters = self._store_write(arr.seq, off, value, replay)
        arr.cache[off] = value
        if waiters:
            remote = self._wake(waiters, value)
            if remote:
                self.loop.call_soon_threadsafe(self._send_rdy, arr.seq,
                                               off, value, remote)

    def array_read(self, arr: DistArray, indices: tuple):
        off = arr.header.offset(indices)
        arr.reads += 1
        value = arr.cache.get(off)
        if value is not None:  # program values are numbers, never None
            return value
        owner_ident = arr.header.owner_of_offset(off)
        fut: cf.Future = cf.Future()
        self.loop.call_soon_threadsafe(self._read_entry, arr.seq, off,
                                       owner_ident, fut)
        t0 = time.perf_counter()
        try:
            value, deferred = fut.result(
                timeout=self.cfg.read_timeout_s)
        except cf.TimeoutError:
            waited = time.perf_counter() - t0
            raise DeferredReadTimeout(arr.name, indices, off,
                                      owner_ident, waited) from None
        if deferred:
            waited = time.perf_counter() - t0
            arr.deferred_reads += 1
            arr.spin_wait_s += waited
            arr.max_spin_wait_s = max(arr.max_spin_wait_s, waited)
        return value

    # -- owner-side store (any thread) -----------------------------------

    def _store_of(self, a: int) -> ElementStore:
        """``a``'s element store, created on first use (lock held)."""
        store = self.stores.get(a)
        if store is None:
            store = self.stores[a] = ElementStore()
        return store

    def _store_write(self, a: int, off: int, value, replay: bool):
        """Presence check and store under the lock; returns the waiters
        the write releases.

        A second write raises :class:`SingleAssignmentViolation`, unless
        it is a replay of the stored value, which is only counted (the
        idempotence that makes takeover re-execution safe).
        """
        with self._lock:
            store = self._store_of(a)
            existing = store.values.get(off)
            if existing is not None:
                if replay and existing == value:
                    self.replayed_present += 1
                    return ()
                raise SingleAssignmentViolation(a, off)
            store.values[off] = value
            return store.deferred.pop(off, ())

    @staticmethod
    def _wake(waiters, value) -> list[int]:
        """Resolve local waiters; return the remote ones' nodes."""
        remote = []
        for kind, waiter in waiters:
            if kind == "local":
                if not waiter.done():
                    waiter.set_result((value, True))
            else:
                remote.append(waiter)
        return remote

    # -- loop-side entry points ------------------------------------------

    def _write_entry(self, a: int, off: int, owner_ident: int, value,
                     replay: bool) -> None:
        owner_node = self.owners[owner_ident]
        if owner_node == self.node:
            # Rebound to this node by a takeover since the executor
            # looked.  The presence-bit replay may already have stored
            # this very value from the cache, so verify, don't violate.
            self._apply_write(a, off, value, True, writer_node=self.node)
        else:
            self.endpoint.send(owner_node,
                               {"t": "write", "a": a, "off": off,
                                "v": value, "replay": replay})

    def _read_entry(self, a: int, off: int, owner_ident: int,
                    fut: cf.Future) -> None:
        owner_node = self.owners[owner_ident]
        if owner_node == self.node:
            with self._lock:
                store = self._store_of(a)
                value = store.values.get(off)
                if value is None:
                    store.deferred.setdefault(off, []).append(("local", fut))
                    return
            self.caches.setdefault(a, {})[off] = value
            fut.set_result((value, False))
            return
        key = (a, off)
        entry = self.pending.get(key)
        if entry is None:
            entry = self.pending[key] = {"ident": owner_ident,
                                         "target": owner_node,
                                         "futs": []}
            self.endpoint.send(owner_node,
                               {"t": "read", "a": a, "off": off})
        entry["futs"].append(fut)

    def _send_rdy(self, a: int, off: int, value, nodes: list[int]) -> None:
        for node in nodes:
            self.endpoint.send(node, {"t": "rdy", "a": a,
                                      "vals": {str(off): value}})

    # ------------------------------------------------------------------
    # peer messages (loop thread)
    # ------------------------------------------------------------------

    def _on_peer_msg(self, src: int, m: dict) -> None:
        if src not in self.live:
            return  # fenced zombie: its writes and reads are void
        t = m["t"]
        if t == "write":
            self._apply_write(m["a"], m["off"], m["v"], m["replay"],
                              writer_node=src)
        elif t == "read":
            a, off = m["a"], m["off"]
            with self._lock:
                store = self._store_of(a)
                if off in store.values:
                    vals = self._page_of(store, off)
                else:
                    store.deferred.setdefault(off, []).append(("remote", src))
                    return
            self.endpoint.send(src, {"t": "rdy", "a": a, "vals": vals})
        elif t == "rdy":
            a = m["a"]
            cache = self.caches.setdefault(a, {})
            for key, value in m["vals"].items():
                off = int(key)
                cache[off] = value
                entry = self.pending.pop((a, off), None)
                if entry is not None:
                    for fut in entry["futs"]:
                        if not fut.done():
                            fut.set_result((value, True))

    def _page_of(self, store: ElementStore, off: int) -> dict:
        """Every present element of ``off``'s page (page-grain reply;
        lock held)."""
        page_size = self.cfg.page_size
        start = (off // page_size) * page_size
        return {str(o): store.values[o]
                for o in range(start, start + page_size)
                if o in store.values}

    def _apply_write(self, a: int, off: int, value, replay: bool,
                     writer_node: int) -> None:
        """Loop-side owner write (a peer's, a re-routed or a replayed
        one): the writer has moved on, so a violation becomes a
        structured node error instead of an exception."""
        try:
            waiters = self._store_write(a, off, value, replay)
        except SingleAssignmentViolation as exc:
            self._post_violation(exc, writer_node)
            return
        self.caches.setdefault(a, {})[off] = value
        self._send_rdy(a, off, value, self._wake(waiters, value))

    def _post_violation(self, exc: SingleAssignmentViolation,
                        writer_node: int) -> None:
        self._send_report({
            "t": "err", "node": self.node, "slot": self.node, "gen": 0,
            "detail": f"{type(exc).__name__}: {exc}\n"
                      f"(write received from node {writer_node})"})

    # ------------------------------------------------------------------
    # membership changes (loop thread)
    # ------------------------------------------------------------------

    def _apply_ownermap(self, owners: list[int], live: set[int]) -> None:
        dead = self.live - live
        rebound = {ident for ident, old in enumerate(self.owners)
                   if old in dead}
        self.owners = owners
        self.live = live
        for node in dead:
            self.endpoint.forget(node)
        if dead:
            # Orphaned remote waiters of a dead requester just drop;
            # its takeover replay re-reads everything it needs.
            with self._lock:
                for store in self.stores.values():
                    for off in list(store.deferred):
                        keep = [w for w in store.deferred[off]
                                if w[0] == "local" or w[1] not in dead]
                        if keep:
                            store.deferred[off] = keep
                        else:
                            del store.deferred[off]
        # Re-issue pending reads that were addressed to a dead node.
        for key, entry in list(self.pending.items()):
            if entry["target"] in live:
                continue
            a, off = key
            new_node = self.owners[entry["ident"]]
            if new_node == self.node:
                del self.pending[key]
                with self._lock:
                    store = self._store_of(a)
                    value = store.values.get(off)
                    if value is None:
                        store.deferred.setdefault(off, []).extend(
                            ("local", fut) for fut in entry["futs"])
                        continue
                self.caches.setdefault(a, {})[off] = value
                self._wake([("local", fut) for fut in entry["futs"]],
                           value)
            else:
                entry["target"] = new_node
                self.endpoint.send(new_node,
                                   {"t": "read", "a": a, "off": off})
        # Presence-bit replay: the dead node's store is gone, but every
        # value a survivor ever wrote or read is in its cache (single
        # assignment made them immutable at first sight).  Push this
        # node's cached copies of the rebound identities' elements to
        # the new owner as idempotent replay writes — between the
        # survivors' caches and the takeover re-execution, the lost
        # store is reconstructed in full.
        if rebound:
            self._replay_cached(rebound)

    def _replay_cached(self, rebound: set[int]) -> None:
        for a, cache in list(self.caches.items()):
            header = self.headers.get(a)
            if header is None:
                continue
            for off, value in list(cache.items()):
                ident = header.owner_of_offset(off)
                if ident not in rebound:
                    continue
                new_node = self.owners[ident]
                if new_node == self.node:
                    self._apply_write(a, off, value, replay=True,
                                      writer_node=self.node)
                else:
                    self.endpoint.send(new_node,
                                       {"t": "write", "a": a, "off": off,
                                        "v": value, "replay": True})

    def _on_peer_lost(self, peer: int, reason: str) -> None:
        self._send_report({"t": "peer-lost", "node": self.node,
                           "peer": peer,
                           "reason": reasons.parse_reason(reason),
                           "detail": reason})


def node_main(program, graph, node: int, nodes: int, coord_host: str,
              coord_port: int, cfg, entry: str, args: tuple,
              plan: DistFaultPlan, standby_port: int | None = None,
              restore=None) -> None:
    """Node process entry point (forked by the coordinator)."""
    # Fork inherits the coordinator's SIGTERM→KeyboardInterrupt handler;
    # a terminated node should just die, not unwind through it.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass
    runtime = NodeRuntime(program, graph, node, nodes, coord_host,
                          coord_port, cfg, entry, args, plan,
                          standby_port=standby_port, restore=restore)
    try:
        asyncio.run(runtime.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        os._exit(1)
    except Exception:  # pragma: no cover - runtime bug, not program bug
        traceback.print_exc()
        os._exit(1)
