"""Tests for the discrete-event kernel and simulated resources."""

import heapq
import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import CpuPool, NicQueue, SimKernel, transfer


# -- kernel ----------------------------------------------------------------
def test_events_run_in_time_order():
    k = SimKernel()
    seen = []
    k.schedule(3.0, lambda: seen.append("c"))
    k.schedule(1.0, lambda: seen.append("a"))
    k.schedule(2.0, lambda: seen.append("b"))
    k.run()
    assert seen == ["a", "b", "c"]
    assert k.now == 3.0


def test_ties_break_by_insertion_order():
    k = SimKernel()
    seen = []
    for i in range(5):
        k.schedule(1.0, lambda i=i: seen.append(i))
    k.run()
    assert seen == [0, 1, 2, 3, 4]


def test_cancel():
    k = SimKernel()
    seen = []
    event = k.schedule(1.0, lambda: seen.append("x"))
    event.cancel()
    k.run()
    assert seen == []
    assert k.pending == 0


def test_run_until_advances_clock_without_events():
    k = SimKernel()
    k.run(until=7.5)
    assert k.now == 7.5


def test_run_until_does_not_run_later_events():
    k = SimKernel()
    seen = []
    k.schedule(10.0, lambda: seen.append("late"))
    k.run(until=5.0)
    assert seen == []
    assert k.now == 5.0
    k.run()
    assert seen == ["late"]


def test_stop_when_predicate():
    k = SimKernel()
    seen = []
    for i in range(10):
        k.schedule(float(i + 1), lambda i=i: seen.append(i))
    k.run(stop_when=lambda: len(seen) >= 3)
    assert len(seen) == 3


def test_negative_delay_rejected():
    k = SimKernel()
    with pytest.raises(ValueError):
        k.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        k.schedule_at(-0.5, lambda: None)


def test_nested_scheduling():
    k = SimKernel()
    seen = []

    def outer():
        seen.append(("outer", k.now))
        k.schedule(2.0, lambda: seen.append(("inner", k.now)))

    k.schedule(1.0, outer)
    k.run()
    assert seen == [("outer", 1.0), ("inner", 3.0)]


def test_max_events_guard():
    k = SimKernel()

    def loop():
        k.schedule(0.0, loop)

    k.schedule(0.0, loop)
    with pytest.raises(RuntimeError):
        k.run(max_events=100)


# -- cpu pool -----------------------------------------------------------------
def test_cpu_pool_serialises_beyond_core_count():
    k = SimKernel()
    pool = CpuPool(k, 2)
    done = []
    for i in range(4):
        pool.submit(1.0, lambda i=i: done.append((i, k.now)))
    k.run()
    # 2 cores: first two finish at t=1, next two at t=2.
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_cpu_pool_priority_order():
    k = SimKernel()
    pool = CpuPool(k, 1)
    done = []
    pool.submit(1.0, lambda: done.append("first"))  # occupies the core
    pool.submit(1.0, lambda: done.append("low"), priority=2.0)
    pool.submit(1.0, lambda: done.append("high"), priority=0.0)
    k.run()
    assert done == ["first", "high", "low"]


def test_cpu_pool_acquire_defers_work_decision():
    k = SimKernel()
    pool = CpuPool(k, 1)
    done = []
    pool.submit(2.0, lambda: done.append(("blocker", k.now)))

    def run():
        # Runs only when the core frees at t=2.
        assert k.now == 2.0
        return 0.5, lambda: done.append(("acquired", k.now))

    pool.acquire(run)
    k.run()
    assert done == [("blocker", 2.0), ("acquired", 2.5)]


def test_cpu_pool_utilization_accounting():
    k = SimKernel()
    pool = CpuPool(k, 2)
    pool.submit(3.0, lambda: None)
    pool.submit(1.0, lambda: None)
    k.run()
    assert pool.busy_core_seconds() == pytest.approx(4.0)


def test_cpu_pool_rejects_bad_args():
    k = SimKernel()
    with pytest.raises(ValueError):
        CpuPool(k, 0)
    pool = CpuPool(k, 1)
    with pytest.raises(ValueError):
        pool.submit(-1.0, lambda: None)


# -- nic -----------------------------------------------------------------
def test_nic_serialises_transfers():
    k = SimKernel()
    nic = NicQueue(k, bytes_per_second=100.0)
    done = []
    nic.occupy(100, lambda: done.append(k.now))  # 1s
    nic.occupy(200, lambda: done.append(k.now))  # 2s more
    k.run()
    assert done == [1.0, 3.0]
    assert nic.bytes_transferred == 300


def test_transfer_charges_both_nics_and_latency():
    k = SimKernel()
    a = NicQueue(k, 100.0)
    b = NicQueue(k, 50.0)
    done = []
    transfer(k, a, b, 100, latency=0.5, fn=lambda: done.append(k.now))
    k.run()
    # Slower side: 100/50 = 2s, plus 0.5 latency.
    assert done == [2.5]


def test_transfer_loopback_skips_nic():
    k = SimKernel()
    a = NicQueue(k, 100.0)
    done = []
    transfer(k, a, a, 10_000, latency=0.1, fn=lambda: done.append(k.now))
    k.run()
    assert done == [pytest.approx(0.1)]
    assert a.bytes_transferred == 0


@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=4))
def test_cpu_pool_total_busy_time_invariant(costs, cores):
    """Total busy core-seconds equals the sum of submitted costs."""
    k = SimKernel()
    pool = CpuPool(k, cores)
    for c in costs:
        pool.submit(c, lambda: None)
    k.run()
    assert pool.busy_core_seconds() == pytest.approx(sum(costs), rel=1e-9)
    # Makespan is bounded below by work/cores and above by serial execution.
    assert k.now >= sum(costs) / cores - 1e-9
    assert k.now <= sum(costs) + 1e-9


# -- heap compaction and livelock guard ---------------------------------------
def test_heap_compaction_reclaims_cancelled_entries():
    """Cancelling most of the heap triggers compaction: the physical heap
    shrinks while `pending` and execution order stay correct."""
    k = SimKernel()
    seen = []
    keep = []
    doomed = []
    for i in range(300):
        if i % 3 == 0:
            keep.append((i, k.schedule(float(i), lambda i=i: seen.append(i))))
        else:
            doomed.append(k.schedule(float(i), lambda: seen.append("BAD")))
    assert k.heap_size == 300
    for event in doomed:
        event.cancel()
    # Compaction threshold: > 64 cancelled and cancelled majority of heap.
    # Dead entries past the last compaction may linger, but never a majority.
    assert k.heap_size < 300
    assert k.pending == len(keep)
    assert (k.heap_size - k.pending) * 2 <= k.heap_size
    k.run()
    assert seen == [i for i, _ in keep]


def test_pending_is_consistent_through_cancel_and_run():
    k = SimKernel()
    events = [k.schedule(float(i), lambda: None) for i in range(10)]
    assert k.pending == 10
    events[3].cancel()
    events[7].cancel()
    assert k.pending == 8
    k.run()
    assert k.pending == 0


def test_livelock_error_carries_simulation_state():
    from repro.errors import AccordionError, SimulationLivelockError

    k = SimKernel()

    def loop():
        k.schedule(0.01, loop)

    k.schedule(0.0, loop)
    with pytest.raises(SimulationLivelockError) as info:
        k.run(max_events=250)
    err = info.value
    assert err.events_processed == 250
    assert err.now == pytest.approx(k.now)
    # Part of the library's error taxonomy *and* a RuntimeError for
    # backward compatibility with generic guards.
    assert isinstance(err, AccordionError)
    assert isinstance(err, RuntimeError)


def test_post_preserves_fifo_with_scheduled_events():
    # post() routes zero-delay entries through the deque and delayed ones
    # through the heap; regardless of path, same-timestamp events must fire
    # in submission order (seq is global across both structures).
    k = SimKernel()
    order = []
    k.schedule(1.0, lambda: order.append("heap-a"))
    k.post(1.0, lambda: order.append("post-b"))
    k.schedule(1.0, lambda: order.append("heap-c"))

    def at_one():
        # Runs at t=1.0: these become zero-delay deque entries that must
        # still fire after the already-queued t=1.0 heap entries' peers.
        k.post(0.0, lambda: order.append("post-soon"))
        k.schedule(0.0, lambda: order.append("heap-soon"))

    k.schedule(1.0, at_one)
    k.run()
    assert order == ["heap-a", "post-b", "heap-c", "post-soon", "heap-soon"]
    assert k.now == 1.0


def test_post_passes_argument_without_closure():
    k = SimKernel()
    seen = []
    k.post(0.5, seen.append, "payload")
    k.post(0.0, seen.append, "first")
    k.run()
    assert seen == ["first", "payload"]


def test_post_rejects_negative_delay():
    k = SimKernel()
    with pytest.raises(ValueError):
        k.post(-0.1, lambda: None)


# -- the idle fast paths against the queue-always reference ---------------------
# ``CpuPool`` grants an idle core, and ``NicQueue`` starts an idle link,
# without a round-trip through its queue.  The reference classes below are
# the same resources with the fast path taken out: every item goes through
# the heap, every transfer through the pending deque.  Random interleavings
# must complete in the same order, at the same instants, with the same
# busy-integral bits.
class HeapPool(CpuPool):
    def acquire(self, run, priority=0.0):
        self._push(priority, "acquire", 0.0, run)

    def _push(self, priority, kind, cost, fn):
        if self.halted:
            if kind == "submit":
                fn()
            return
        heapq.heappush(self._queue, (priority, next(self._seq), (kind, cost, fn)))
        self._grant()


class QueueLink(NicQueue):
    def occupy(self, nbytes, fn):
        self._pending.append((nbytes / self.bytes_per_second, fn))
        self.bytes_transferred += nbytes
        if not self._active:
            self._start(*self._pending.popleft())


def random_plan(seed: int) -> list[tuple]:
    """A seeded list of ``(time, op, args)``: work on two pools and three
    links, nested acquires, work re-queued from completion callbacks (a
    driver's next quantum), mid-run utilisation reads and one halt."""
    rng = random.Random(seed)
    plan = []
    for i in range(60):
        at = round(rng.uniform(0.0, 6.0), 2)  # ties on purpose
        op = rng.choice(["submit", "acquire", "acquire", "nested", "occupy", "transfer", "read"])
        pool = rng.randrange(2)
        cost = rng.choice([0.0, 0.25, rng.uniform(0.01, 1.5)])
        prio = float(rng.randrange(3))
        ends = (rng.choice([None, 0, 1, 2]), rng.randrange(3))
        again = rng.choice([0, 0, 1, 3])
        plan.append((at, op, (i, pool, cost, prio, ends, rng.uniform(1.0, 400.0), again)))
    plan.append((round(rng.uniform(1.0, 5.0), 2), "halt", (rng.randrange(2),)))
    return sorted(plan, key=lambda entry: entry[0])


def run_plan(plan, pool_cls, link_cls) -> tuple[list, list]:
    k = SimKernel()
    pools = [pool_cls(k, 1), pool_cls(k, 3)]
    links = [link_cls(k, 100.0), link_cls(k, 250.0), link_cls(k, 40.0)]
    log = []

    def acquirer(label, cost, nested=None, then=None):
        def run():
            log.append((f"{label}.granted", k.now))
            if nested is not None:
                nested()  # an acquire from inside a granted callback
            return cost, lambda: finish(label, then)

        return run

    def finish(label, then):
        log.append((label, k.now))
        if then is not None:
            then()  # more work on the same resource, from its completion

    def action(op, args, round_=0):
        if op == "halt":
            pools[args[0]].halt()
            return
        i, p, cost, prio, (src, dst), nbytes, again = args
        pool, label = pools[p], f"{op}{i}.{round_}"
        then = (lambda: action(op, args, round_ + 1)) if round_ < again else None
        if op == "submit":
            pool.submit(cost, lambda: finish(label, then), priority=prio)
        elif op == "acquire":
            pool.acquire(acquirer(label, cost, then=then), priority=prio)
        elif op == "nested":
            inner = acquirer(f"{label}.inner", cost / 2)
            pool.acquire(
                acquirer(label, cost, lambda: pool.acquire(inner, priority=prio), then),
                priority=prio,
            )
        elif op == "occupy":
            links[dst].occupy(nbytes, lambda: finish(label, then))
        elif op == "transfer":
            source = None if src is None else links[src]  # src == dst: loopback
            transfer(k, source, links[dst], nbytes, 0.01, lambda: finish(label, then))
        else:
            log.append((label, pool.busy_core_seconds().hex()))

    for at, op, args in plan:
        k.schedule(at, lambda op=op, args=args: action(op, args))

    def within_cores() -> bool:
        assert all(0 <= p.busy <= p.cores for p in pools), k.now
        return False

    k.run(stop_when=within_cores)
    integrals = [p.busy_core_seconds().hex() for p in pools]
    integrals += [link.busy_seconds().hex() for link in links]
    return log, integrals


@pytest.mark.parametrize("seed", range(40))
def test_idle_fast_paths_match_the_queue_always_reference(seed):
    plan = random_plan(seed)
    fast = run_plan(plan, CpuPool, NicQueue)
    assert fast == run_plan(plan, HeapPool, QueueLink)
    log, _ = fast
    assert any(label.endswith("inner") for label, _ in log)


# -- closed forms: the resources are queues whose mean waits are known ----------
# Poisson arrivals into a ``CpuPool`` of single-quantum exponential jobs are
# an M/M/c queue, into a ``NicQueue`` of equal transfers an M/D/1 queue.
# 150,000 jobs after a 2,000-job warm-up put the mean wait within about 2 %
# of the formula on every seed tried (0-9); the 5 % tolerance is fixed.
JOBS, WARM_UP, TOLERANCE = 150_000, 2_000, 0.05


def erlang_c_mean_wait(lam: float, mu: float, c: int) -> float:
    a = lam / mu
    queued = a**c / math.factorial(c) / (1 - a / c)
    p_wait = queued / (sum(a**i / math.factorial(i) for i in range(c)) + queued)
    return p_wait / (c * mu - lam)


def poisson_arrivals(k: SimKernel, rng: random.Random, lam: float, arrive) -> None:
    def next_arrival(left: int) -> None:
        arrive()
        if left:
            k.post(rng.expovariate(lam), next_arrival, left - 1)

    k.post(0.0, next_arrival, JOBS - 1)


def test_cpu_pool_is_an_m_m_c_queue():
    lam, mu, cores = 1.4, 1.0, 2
    k, rng = SimKernel(), random.Random(1)
    pool, waits = CpuPool(k, cores), []

    def arrive():
        arrived, service = k.now, rng.expovariate(mu)

        def run():
            waits.append(k.now - arrived)
            return service, lambda: None

        pool.acquire(run)

    poisson_arrivals(k, rng, lam, arrive)
    k.run()
    mean_wait = sum(waits[WARM_UP:]) / (JOBS - WARM_UP)
    assert mean_wait == pytest.approx(erlang_c_mean_wait(lam, mu, cores), rel=TOLERANCE)
    utilisation = pool.busy_core_seconds() / (k.now * cores)
    assert utilisation == pytest.approx(lam / (mu * cores), rel=TOLERANCE)


def test_nic_queue_is_an_m_d_1_queue():
    lam, bandwidth, nbytes = 1.2, 1000.0, 500.0
    service = nbytes / bandwidth
    rho = lam * service
    k, rng = SimKernel(), random.Random(1)
    nic, waits = NicQueue(k, bandwidth), []

    def arrive():
        arrived = k.now
        nic.occupy(nbytes, lambda: waits.append(k.now - arrived - service))

    poisson_arrivals(k, rng, lam, arrive)
    k.run()
    mean_wait = sum(waits[WARM_UP:]) / (JOBS - WARM_UP)
    # Pollaczek-Khinchine with a deterministic service time.
    assert mean_wait == pytest.approx(rho * service / (2 * (1 - rho)), rel=TOLERANCE)
    assert nic.busy_seconds() / k.now == pytest.approx(rho, rel=TOLERANCE)
