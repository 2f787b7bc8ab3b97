"""The event kernel's firing order, pinned to golden values.

Determinism tests that compare two runs of the same code cannot see a
kernel change that reorders events but stays deterministic.  These tests
pin the order itself:

* a seeded generator of random process programs (zero and positive
  sleeps, event waits, ``all_of``/``any_of``, ``Resource`` hand-off,
  interrupts, cancelled ``schedule()`` timers, external ``schedule(0)``
  callbacks, child spawns and joins) is run under a mix of ``step()``,
  ``run(until=...)``, ``run_until_triggered()`` and ``run()``, and the
  digest of its ``(now, pid, step)`` firing log is pinned;
* explicit unit tests fix the same-instant rules: a heap entry due at
  ``now`` fires before a zero-delay callback scheduled after it, an
  interrupted sleep leaves no trace in ``step()``/``peek()``/``now``, an
  interrupted immediate grant leaves exactly the stale step an
  already-succeeded Event leaves, and a power cut discards callbacks
  already queued for the current instant.
"""

import hashlib
import random

import pytest

from repro.common.errors import SimulationError
from repro.sim import (GRANTED, Interrupt, Resource, Simulator, all_of,
                       any_of, spawn)

# sha256 (first 16 hex digits) of the firing logs of seeds 0..39.  An
# edit that changes this changed the kernel's firing order.
GOLDEN_FIRING_DIGEST = "ee8aff2e0b5e22d2"

SLEEPS = (0, 0, 0, 1, 3, 10, 10, 250)


def _program(rng, nproc, depth=0):
    ops = []
    for _ in range(rng.randint(4, 14)):
        kind = rng.choice((
            "sleep", "sleep", "sleep", "wait", "wait", "succeed", "fail",
            "all_of", "any_of", "resource", "interrupt", "timer", "cancel",
            "external", "spawn"))
        if kind == "sleep":
            ops.append(("sleep", rng.choice(SLEEPS)))
        elif kind in ("wait", "succeed", "fail", "external"):
            ops.append((kind, rng.randrange(6)))
        elif kind in ("all_of", "any_of"):
            ops.append((kind, tuple(rng.sample(range(6), rng.randint(1, 3)))))
        elif kind == "resource":
            ops.append(("resource", rng.choice(SLEEPS)))
        elif kind == "interrupt":
            # Occasionally a process interrupts itself, which leaves a
            # stale wake-up behind: part of the contract, so pinned too.
            ops.append(("interrupt", rng.randrange(nproc)))
        elif kind == "timer":
            ops.append(("timer", rng.choice(SLEEPS)))
        elif kind == "cancel":
            ops.append(("cancel", rng.randrange(8)))
        elif depth < 2:
            ops.append(("spawn", _program(rng, nproc, depth + 1),
                        rng.random() < 0.5))
        else:
            ops.append(("sleep", rng.choice(SLEEPS)))
    return ops


class _World:
    """Shared state of one random run: events, resource, timers, log."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.events = [sim.event() for _ in range(6)]
        self.resource = Resource(sim, 2, name="res")
        self.timers = []
        self.procs = []

    def note(self, *entry):
        self.log.append((self.sim.now,) + entry)

    def resolve(self, slot, by, failed=False):
        event = self.events[slot]
        self.events[slot] = self.sim.event()
        if failed:
            event.fail(RuntimeError(f"slot{slot}"))
        else:
            event.succeed(by)

    def on_timer(self, tag):
        self.note("timer", tag)

    def on_external(self, slot):
        self.note("external", slot)
        self.resolve(slot, "ext")

    def start(self, ops, spawner):
        pid = len(self.procs)
        proc = spawn(self.sim, self.body(pid, ops), name=f"p{pid}")
        self.procs.append(proc)
        self.note(pid, "spawned-by", spawner)
        return proc

    def body(self, pid, ops):
        for step, op in enumerate(ops):
            self.note(pid, step, op[0])
            try:
                yield from self.execute(pid, step, op)
            except Interrupt as interrupt:
                self.note(pid, step, "interrupted", interrupt.cause)
            except RuntimeError as error:
                self.note(pid, step, "failed", str(error))
        return pid

    def execute(self, pid, step, op):
        kind, arg = op[0], op[1]
        sim = self.sim
        if kind == "sleep":
            yield arg
        elif kind == "wait":
            value = yield self.events[arg]
            self.note(pid, step, "woke", value)
        elif kind == "succeed":
            self.resolve(arg, pid)
        elif kind == "fail":
            self.resolve(arg, pid, failed=True)
        elif kind == "all_of":
            value = yield all_of(sim, [self.events[i] for i in arg])
            self.note(pid, step, "all", value)
        elif kind == "any_of":
            value = yield any_of(sim, [self.events[i] for i in arg])
            self.note(pid, step, "any", value)
        elif kind == "resource":
            yield self.resource.acquire()
            self.note(pid, step, "granted")
            try:
                yield arg
            finally:
                self.resource.release()
        elif kind == "interrupt":
            target = self.procs[arg % len(self.procs)]
            if target.alive:
                target.interrupt((pid, step))
        elif kind == "timer":
            self.timers.append(sim.schedule(arg, self.on_timer, (pid, step)))
        elif kind == "cancel":
            if self.timers:
                self.timers[arg % len(self.timers)].cancel()
        elif kind == "external":
            sim.schedule(0, self.on_external, arg)
        elif kind == "spawn":
            child = self.start(arg, pid)
            if op[2]:
                value = yield child
                self.note(pid, step, "joined", value)


def firing_log(seed):
    """Run one seeded random program mix; return its firing log."""
    rng = random.Random(seed)
    sim = Simulator(strict_failures=False)
    world = _World(sim)
    nproc = rng.randint(3, 7)
    for _ in range(nproc):
        world.start(_program(rng, nproc), "root")
    for _ in range(rng.randint(1, 4)):
        world.timers.append(
            sim.schedule(rng.choice(SLEEPS), world.on_timer, ("root",)))
    sim.schedule(0, world.on_external, rng.randrange(6))
    # Drive through every loop of the kernel in turn.
    for _ in range(rng.randint(0, 40)):
        world.note("peek", sim.peek())
        if not sim.step():
            world.note("idle")
            break
    sim.run(until=sim.now + rng.choice((0, 5, 20)))
    world.note("until")
    try:
        sim.run_until_triggered(world.procs[0], name="p0")
    except SimulationError:
        world.note("drained")
    world.note("joined")
    sim.run()
    world.note("done", [proc.triggered for proc in world.procs])
    return world.log


def firing_digest(seeds):
    digest = hashlib.sha256()
    for seed in seeds:
        for entry in firing_log(seed):
            digest.update(repr(entry).encode())
            digest.update(b"\n")
    return digest.hexdigest()[:16]


class TestGoldenFiringOrder:
    def test_random_programs_fire_in_pinned_order(self):
        assert firing_digest(range(40)) == GOLDEN_FIRING_DIGEST

    def test_generator_exercises_every_path(self):
        """The golden digest is only as good as the paths it covers."""
        kinds = set()
        for seed in range(40):
            for entry in firing_log(seed):
                if len(entry) > 3 and isinstance(entry[3], str):
                    kinds.add(entry[3])
                elif len(entry) > 1 and isinstance(entry[1], str):
                    kinds.add(entry[1])
        for kind in ("sleep", "wait", "woke", "all", "any", "granted",
                     "interrupted", "failed", "timer", "cancel", "external",
                     "joined", "drained", "idle"):
            assert kind in kinds, kind


class TestSameInstantOrder:
    def test_heap_entry_due_now_precedes_later_zero_delay(self):
        sim = Simulator()
        log = []

        def first():
            log.append("A")
            sim.schedule(0, log.append, "C")

        sim.schedule(10, first)
        sim.schedule(10, log.append, "B")
        assert sim.step() and log == ["A"]
        assert sim.peek() == 10
        assert sim.step() and log == ["A", "B"]
        assert sim.step() and log == ["A", "B", "C"]
        assert not sim.step()

    def test_same_rule_in_run(self):
        sim = Simulator()
        log = []
        event = sim.event()
        event.add_callback(lambda _ev: log.append("woken"))

        def first():
            log.append("A")
            event.succeed()

        sim.schedule(10, first)
        sim.schedule(10, log.append, "B")
        sim.run()
        assert log == ["A", "B", "woken"]

    def test_zero_delay_callbacks_fire_in_scheduling_order(self):
        sim = Simulator()
        log = []
        for index in range(5):
            sim.schedule(0, log.append, index)
        event = sim.event()
        event.add_callback(lambda _ev: log.append("event"))
        event.succeed()
        sim.schedule(0, log.append, 5)
        sim.run()
        assert log == [0, 1, 2, 3, 4, "event", 5]
        assert sim.now == 0

    def test_cancelled_zero_delay_timer_is_not_a_step(self):
        sim = Simulator()
        log = []
        timer = sim.schedule(0, log.append, "dead")
        sim.schedule(0, log.append, "live")
        timer.cancel()
        assert sim.peek() == 0
        assert sim.step() and log == ["live"]
        assert not sim.step()
        assert sim.peek() is None


def _sleeper(log, first=1_000, then=None):
    try:
        yield first
        log.append("slept")
    except Interrupt:
        log.append("interrupted")
        if then is not None:
            yield then
            log.append("slept again")


class TestInterruptedSleep:
    def test_dead_wake_up_is_invisible(self):
        sim = Simulator()
        log = []
        proc = spawn(sim, _sleeper(log), name="sleeper")
        assert sim.step()  # started: asleep until t=1000
        assert sim.peek() == 1_000
        proc.interrupt("stop")
        assert sim.peek() == 0  # only the interrupt delivery is pending
        assert sim.step() and log == ["interrupted"]
        assert sim.peek() is None
        assert sim.step() is False
        sim.run()
        assert sim.now == 0
        assert proc.ok

    def test_next_sleep_is_the_only_one_reported(self):
        sim = Simulator()
        log = []
        proc = spawn(sim, _sleeper(log, then=2_000), name="sleeper")
        sim.step()
        sim.schedule(300, proc.interrupt)
        steps = 0
        while sim.step():
            steps += 1
            assert sim.peek() != 1_000
        # interrupt callback, its delivery, the second wake-up
        assert steps == 3
        assert log == ["interrupted", "slept again"]
        assert sim.now == 2_300

    def test_interrupted_zero_sleep_never_wakes(self):
        sim = Simulator()
        log = []
        proc = spawn(sim, _sleeper(log, first=0), name="sleeper")

        def interrupter():
            proc.interrupt("same instant")
            yield 0

        spawn(sim, interrupter(), name="interrupter")
        fired = 0
        while sim.step():
            fired += 1
        # sleeper start (queues its zero-sleep wake-up), interrupter start
        # (dequeues it), interrupt delivery, interrupter's own wake-up.
        assert fired == 4
        assert log == ["interrupted"]
        assert sim.now == 0

    def test_run_until_stops_clock_at_until_not_dead_wake(self):
        sim = Simulator()
        log = []
        proc = spawn(sim, _sleeper(log, first=500), name="sleeper")
        sim.step()
        proc.interrupt()
        sim.run(until=100)
        assert sim.now == 100
        assert sim.peek() is None


class TestInterruptedGrant:
    """``GRANTED`` must fire exactly like an already-succeeded Event."""

    @staticmethod
    def _interrupted_between_grant_and_resume(grant):
        sim = Simulator()
        log = []
        res = Resource(sim, 1)

        def holder():
            try:
                value = yield grant(sim, res)
                log.append(("granted", value, sim.now))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, sim.now))
            yield 5
            log.append(("done", sim.now))

        def interrupter():
            yield 0  # let the holder start and queue its grant wake-up
            proc.interrupt("cut in")
            log.append(("interrupter", sim.now))

        spawn(sim, interrupter(), name="interrupter")
        proc = spawn(sim, holder(), name="holder")
        steps = 0
        while sim.step():
            steps += 1
            log.append(("peek", sim.peek()))
        return steps, log

    def test_same_steps_and_log_as_a_succeeded_event(self):
        def granted(_sim, res):
            grant = res.acquire()
            assert grant is GRANTED
            return grant

        def succeeded_event(sim, _res):
            return sim.event().succeed()

        steps, log = self._interrupted_between_grant_and_resume(granted)
        assert (steps, log) == \
            self._interrupted_between_grant_and_resume(succeeded_event)
        # interrupter start, holder start, interrupter wake-up, the
        # holder's stale grant wake-up (a counted no-op), interrupt
        # delivery, holder's 5 ns wake-up.
        assert steps == 6
        assert [entry for entry in log if entry[0] != "peek"] == [
            ("interrupter", 0), ("interrupted", "cut in", 0), ("done", 5)]


class TestPowerCutDiscardsReadyQueue:
    def test_queued_same_instant_work_never_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, fired.append, "timer")
        event = sim.event()
        event.add_callback(lambda _ev: fired.append("event"))
        event.succeed()

        def proc():
            fired.append("process")
            yield 0

        spawn(sim, proc(), name="fresh")
        sim.power_cut()
        assert sim.peek() is None
        assert sim.step() is False
        sim.run()
        assert fired == []

    @pytest.mark.parametrize("loop", ["run", "step", "join"])
    def test_cut_inside_a_callback_stops_the_instant(self, loop):
        sim = Simulator()
        fired = []
        never = sim.event()

        def cut():
            sim.schedule(0, fired.append, "queued before cut")
            sim.power_cut()
            sim.schedule(0, fired.append, "after cut")

        sim.schedule(5, cut)
        sim.schedule(5, fired.append, "same instant")
        sim.schedule(9, fired.append, "later")
        if loop == "run":
            sim.run()
        elif loop == "step":
            while sim.step():
                pass
        else:
            with pytest.raises(SimulationError, match="drained"):
                sim.run_until_triggered(never)
        assert fired == []
        assert sim.now == 5
