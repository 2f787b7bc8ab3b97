"""Unit tests for Resource / Lock / Store."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import GRANTED, Lock, Resource, Simulator, Store, spawn


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), 0)

    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        res = Resource(sim, 2)
        assert res.acquire().triggered
        assert res.acquire().triggered
        assert res.in_use == 2

    def test_free_slot_returns_granted_marker(self):
        sim = Simulator()
        res = Resource(sim, 2)
        assert res.acquire() is GRANTED
        assert res.acquire() is GRANTED
        assert GRANTED.triggered and GRANTED.value is None
        assert res.in_use == 2 and res.queue_length == 0

    def test_full_resource_returns_pending_event(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.acquire() is GRANTED
        waiter = res.acquire()
        assert waiter is not GRANTED and not waiter.triggered
        res.release()
        assert waiter.triggered and res.in_use == 1

    def test_queued_waiters_are_granted_before_new_acquirers(self):
        sim = Simulator()
        res = Resource(sim, 2)
        order = []

        def worker(name, hold):
            grant = res.acquire()
            order.append((name, grant is GRANTED))
            yield grant
            order.append((name, "in", sim.now))
            yield hold
            res.release()

        for name in "abcde":
            spawn(sim, worker(name, 10))
        sim.run()
        assert order[:5] == [("a", True), ("b", True), ("c", False),
                             ("d", False), ("e", False)]
        entered = [entry[0] for entry in order[5:]]
        assert entered == list("abcde")
        assert [entry[2] for entry in order[5:]] == [0, 0, 10, 10, 20]
        assert res.in_use == 0 and res.queue_length == 0

    def test_waits_when_full(self):
        sim = Simulator()
        res = Resource(sim, 1)
        res.acquire()
        second = res.acquire()
        assert not second.triggered
        assert res.queue_length == 1
        res.release()
        sim.run()
        assert second.triggered

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def worker(name, hold):
            yield res.acquire()
            order.append(name)
            yield hold
            res.release()

        spawn(sim, worker("a", 10))
        spawn(sim, worker("b", 10))
        spawn(sim, worker("c", 10))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_without_acquire_is_error(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), 1).release()

    def test_try_acquire(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_pipeline_throughput_matches_capacity(self):
        """Two slots let two workers overlap; total time halves."""
        sim = Simulator()
        res = Resource(sim, 2)
        finished = []

        def worker(i):
            yield res.acquire()
            yield 100
            res.release()
            finished.append((i, sim.now))

        for i in range(4):
            spawn(sim, worker(i))
        sim.run()
        assert max(t for _, t in finished) == 200


class TestLock:
    def test_mutual_exclusion(self):
        sim = Simulator()
        lock = Lock(sim)
        inside = []

        def critical(name):
            yield lock.acquire()
            inside.append(f"{name}-in")
            yield 50
            inside.append(f"{name}-out")
            lock.release()

        spawn(sim, critical("x"))
        spawn(sim, critical("y"))
        sim.run()
        assert inside == ["x-in", "x-out", "y-in", "y-out"]

    def test_locked_property(self):
        sim = Simulator()
        lock = Lock(sim)
        assert not lock.locked
        lock.acquire()
        assert lock.locked
        lock.release()
        assert not lock.locked


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        got = store.get()
        assert got.triggered and got.value == "a"
        assert len(store) == 1

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        seen = []

        def consumer():
            item = yield store.get()
            seen.append((sim.now, item))

        spawn(sim, consumer())
        sim.schedule(40, store.put, "late")
        sim.run()
        assert seen == [(40, "late")]

    def test_fifo_item_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        items = [store.get().value for _ in range(5)]
        assert items == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        first = store.put("a")
        second = store.put("b")
        assert first.triggered
        assert not second.triggered
        got = store.get()
        sim.run()
        assert got.value == "a"
        assert second.triggered
        assert store.get().value == "b"

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)

    def test_producer_consumer_pipeline(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        consumed = []

        def producer():
            for i in range(6):
                yield store.put(i)
                yield 1

        def consumer():
            for _ in range(6):
                item = yield store.get()
                consumed.append(item)
                yield 5

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run()
        assert consumed == [0, 1, 2, 3, 4, 5]
