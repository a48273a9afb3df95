"""The node runtime's store-lock contract, without sockets.

A :class:`NodeRuntime` is driven with a real asyncio loop thread and a
stub endpoint that records every send (and the thread it came from), so
the tests see exactly what crosses threads: executor threads apply
owner-local writes under the store lock, wake local waiters themselves
and hand remote waiters' ``rdy`` frames to the loop; a local double
write raises in the writer.
"""

import asyncio
import concurrent.futures as cf
import sys
import threading
import time

import pytest

from repro.common.config import DistConfig
from repro.common.errors import SingleAssignmentViolation
from repro.dist.faults import DistFaultPlan
from repro.dist.node import DistArray, ElementStore, NodeRuntime

NODE = 0


class StubEndpoint:
    """Records ``(dst, payload, thread)`` for every send."""

    def __init__(self) -> None:
        self.sent: list[tuple[int, dict, threading.Thread]] = []

    def send(self, dst: int, payload: dict) -> None:
        self.sent.append((dst, payload, threading.current_thread()))

    def forget(self, peer: int) -> None:
        pass


@pytest.fixture
def runtime():
    cfg = DistConfig(nodes=2, read_timeout_s=10.0)
    rt = NodeRuntime(None, None, NODE, 2, "127.0.0.1", 0, cfg, "main",
                     (), DistFaultPlan())
    rt.endpoint = StubEndpoint()
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever,
                              name="test-loop", daemon=True)
    thread.start()
    rt.loop = loop
    rt.loop_thread = thread
    yield rt
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    loop.close()


def on_loop(rt, fn, *args):
    """Run ``fn(*args)`` on the loop thread and wait for it; also
    flushes every callback queued before it (the loop is FIFO)."""
    fut: cf.Future = cf.Future()

    def call() -> None:
        try:
            fut.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            fut.set_exception(exc)

    rt.loop.call_soon_threadsafe(call)
    return fut.result(timeout=5.0)


class YieldingDict(dict):
    """Gives the GIL away inside ``setdefault``: it widens the window
    between a presence check and the waiter registration after it, which
    only the store lock keeps a concurrent write out of."""

    def setdefault(self, key, default=None):
        time.sleep(0.0001)
        return super().setdefault(key, default)


def local_offsets(arr: DistArray, rt) -> list[int]:
    return [off for off in range(arr.header.total_elements)
            if rt.owners[arr.header.owner_of_offset(off)] == rt.node]


def wait_for_waiter(rt, a: int, off: int) -> None:
    """Block until a waiter for ``(a, off)`` is registered owner-side."""
    for _ in range(5000):
        with rt._lock:
            store = rt.stores.get(a)
            if store is not None and store.deferred.get(off):
                return
        threading.Event().wait(0.001)
    raise AssertionError(f"no waiter registered for {(a, off)}")


def test_local_write_wakes_a_local_waiter(runtime):
    arr = DistArray(runtime, 0, (64,))
    off = local_offsets(arr, runtime)[3]
    idx = arr.header.indices_of(off)
    reader = DistArray(runtime, 0, (64,))
    with cf.ThreadPoolExecutor(1) as pool:
        got = pool.submit(reader.read, idx)
        wait_for_waiter(runtime, 0, off)  # parked via the loop
        arr.write(idx, 2.5)
        assert got.result(timeout=5.0) == 2.5
    assert reader.deferred_reads == 1
    with runtime._lock:
        assert runtime.stores[0].deferred == {}
    assert runtime.endpoint.sent == []


def test_remote_waiter_gets_one_rdy_from_the_loop(runtime):
    arr = DistArray(runtime, 0, (64,))
    off = local_offsets(arr, runtime)[0]
    on_loop(runtime, runtime._on_peer_msg, 1,
            {"t": "read", "a": 0, "off": off})
    assert runtime.endpoint.sent == []  # absent: deferred owner-side
    arr.write(arr.header.indices_of(off), 7.0)
    on_loop(runtime, lambda: None)
    sent = runtime.endpoint.sent
    assert [(dst, m) for dst, m, _ in sent] == [
        (1, {"t": "rdy", "a": 0, "vals": {str(off): 7.0}})]
    assert sent[0][2] is runtime.loop_thread


def test_local_double_write_raises_in_the_writer(runtime):
    arr = DistArray(runtime, 0, (64,))
    idx = arr.header.indices_of(local_offsets(arr, runtime)[0])
    arr.write(idx, 1.0)
    with pytest.raises(SingleAssignmentViolation):
        arr.write(idx, 1.0)


def test_replay_write_verifies_and_counts(runtime):
    arr = DistArray(runtime, 0, (64,))
    idx = arr.header.indices_of(local_offsets(arr, runtime)[0])
    arr.write(idx, 1.0)
    arr.write(idx, 1.0, replay=True)
    assert runtime._take_replayed() == 1
    assert runtime._take_replayed() == 0  # read-and-reset
    with pytest.raises(SingleAssignmentViolation):
        arr.write(idx, 2.0, replay=True)


def test_remote_write_goes_through_the_loop(runtime):
    arr = DistArray(runtime, 0, (64,))
    off = next(off for off in range(64)
               if arr.header.owner_of_offset(off) != NODE)
    arr.write(arr.header.indices_of(off), 3.0)
    assert arr.cache[off] == 3.0  # the writer caches at once
    on_loop(runtime, lambda: None)
    (dst, msg, thread), = runtime.endpoint.sent
    assert (dst, msg["t"], msg["off"], msg["v"]) == (1, "write", off, 3.0)
    assert thread is runtime.loop_thread
    assert 0 not in runtime.stores or off not in runtime.stores[0].values


def test_two_writers_and_a_reader_lose_no_wakeup(runtime):
    # The takeover-adoption shape: this node owns both identities and
    # runs two executors, while a third thread reads every element in
    # order.  Each write is held back until the reader has started on
    # that element, so every read races its write: the loop's
    # check-then-register against the writer's store-then-pop.
    runtime.owners = [NODE, NODE]
    runtime.live = {NODE}
    n = 2000
    value_of = [0.5 + off for off in range(n)]
    reads = DistArray(runtime, 0, (n,))
    front = [0]  # the offset the reader is on
    done = threading.Event()

    def writer(parity: int) -> None:
        arr = DistArray(runtime, 0, (n,))
        for off in range(parity, n, 2):
            while front[0] < off and not done.is_set():
                time.sleep(0)  # spin, but let the GIL go
            arr.write((off + 1,), value_of[off])

    def reader() -> list:
        try:
            got = []
            for off in range(n):
                front[0] = off
                got.append(reads.read((off + 1,)))
            return got
        finally:
            done.set()

    runtime.stores[0] = ElementStore()
    runtime.stores[0].deferred = YieldingDict()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cf.ThreadPoolExecutor(3) as pool:
            got = pool.submit(reader)
            writers = [pool.submit(writer, parity) for parity in (0, 1)]
            for w in writers:
                w.result(timeout=30.0)
            assert got.result(timeout=30.0) == value_of
    finally:
        sys.setswitchinterval(interval)
    assert reads.deferred_reads >= 1
    with runtime._lock:
        assert len(runtime.stores[0].values) == n
        assert runtime.stores[0].deferred == {}
    assert runtime.endpoint.sent == []
