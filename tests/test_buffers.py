"""Tests for buffers: elastic page buffer, task output buffers, local
exchange — including the end-page and elastic-shutdown protocols."""

import numpy as np
import pytest

from repro.buffers import (
    ElasticPageBuffer,
    LocalExchange,
    OutputMode,
    ShuffleOutputBuffer,
    make_output_buffer,
)
from repro.buffers.elastic import RESIZE_PERIOD
from repro.config import BufferConfig, CostModel
from repro.errors import SchedulingError
from repro.pages import ColumnType, Page, Schema
from repro.sim import CpuPool, SimKernel

SCHEMA = Schema.of(("k", ColumnType.INT64))


def page(values):
    return Page.from_dict(SCHEMA, {"k": list(values)})


@pytest.fixture()
def kernel():
    return SimKernel()


def elastic_config(**kwargs):
    return BufferConfig(**kwargs)


# -- elastic page buffer -----------------------------------------------------
def test_elastic_starts_at_one_page(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config())
    assert buf.capacity == 1


def test_turn_up_on_empty_poll(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config())
    assert buf.poll() is None
    assert buf.capacity == 2
    assert buf.turn_up_counter == 1


def test_turn_up_caps_at_max(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config(max_capacity_pages=4))
    for _ in range(10):
        buf.poll()
    assert buf.capacity == 4


def test_no_turn_up_when_nonempty(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config())
    buf.put(page([1]))
    buf.poll()
    assert buf.turn_up_counter == 0


def test_periodic_resize_matches_consumption(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config())
    assert RESIZE_PERIOD == 0.5
    for _ in range(20):
        buf.put(page([1]))
    for _ in range(10):
        buf.poll()
    kernel.now = 1.0  # advance past the resize period
    buf.put(page([2]))
    buf.poll()
    # Capacity resized to ~consumed count in the window.
    assert buf.capacity >= 10


def test_fixed_mode_never_resizes(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config(elastic=False))
    initial = buf.capacity
    for _ in range(5):
        buf.poll()
    assert buf.capacity == initial
    assert buf.turn_up_counter == 0


def test_waiters_fire_on_put(kernel):
    buf = ElasticPageBuffer(kernel, elastic_config())
    woken = []
    buf.not_empty.add(lambda: woken.append(True))
    buf.put(page([1]))
    assert woken == [True]
    # One-shot: second put does not re-fire.
    buf.put(page([2]))
    assert woken == [True]


# -- broadcast and shared-queue output buffers ---------------------------------
def make_shared(kernel, mode):
    return make_output_buffer(kernel, elastic_config(), mode)


def test_arbitrary_work_sharing(kernel):
    buf = make_shared(kernel, OutputMode.ARBITRARY)
    buf.add_consumer(0)
    buf.add_consumer(1)
    for i in range(4):
        buf.put(page([i]))
    a = buf.take(0, 3)
    b = buf.take(1, 3)
    got = sorted(p.column(0)[0] for p in a + b)
    assert got == [0, 1, 2, 3]


def test_gather_single_consumer_only(kernel):
    buf = make_shared(kernel, OutputMode.GATHER)
    buf.add_consumer(0)
    with pytest.raises(SchedulingError):
        buf.add_consumer(1)


def test_broadcast_delivers_to_all(kernel):
    buf = make_shared(kernel, OutputMode.BROADCAST)
    buf.add_consumer(0)
    buf.add_consumer(1)
    buf.put(page([7]))
    assert [p.column(0)[0] for p in buf.take(0, 5)] == [7]
    assert [p.column(0)[0] for p in buf.take(1, 5)] == [7]


def test_broadcast_replays_cache_to_late_consumer(kernel):
    buf = make_shared(kernel, OutputMode.BROADCAST)
    buf.add_consumer(0)
    buf.put(page([1]))
    buf.put(page([2]))
    buf.add_consumer(5)  # late joiner (runtime DOP increase)
    got = [p.column(0)[0] for p in buf.take(5, 10)]
    assert got == [1, 2]


def test_broadcast_late_consumer_after_finish_gets_cache_then_end(kernel):
    buf = make_shared(kernel, OutputMode.BROADCAST)
    buf.add_consumer(0)
    buf.put(page([1]))
    buf.task_finished()
    buf.add_consumer(1)
    pages = buf.take(1, 10)
    assert [p.is_end for p in pages] == [False, True]


def test_task_finished_ends_all_consumers(kernel):
    buf = make_shared(kernel, OutputMode.ARBITRARY)
    buf.add_consumer(0)
    buf.add_consumer(1)
    buf.put(page([1]))
    buf.task_finished()
    # Data first, then the end page.
    pages0 = buf.take(0, 10)
    assert [p.is_end for p in pages0] == [False, True]
    pages1 = buf.take(1, 10)
    assert [p.is_end for p in pages1] == [True]


def test_shutdown_signal_preempts_shared_data(kernel):
    buf = make_shared(kernel, OutputMode.ARBITRARY)
    buf.add_consumer(0)
    buf.add_consumer(1)
    buf.put(page([1]))
    buf.end_consumer(1, signal="shutdown")
    pages = buf.take(1, 10)
    assert len(pages) == 1 and pages[0].is_end and pages[0].signal == "shutdown"
    # The surviving consumer still gets the data.
    assert [p.num_rows for p in buf.take(0, 10)] == [1]


def test_broadcast_skips_departed_consumers(kernel):
    buf = make_shared(kernel, OutputMode.BROADCAST)
    buf.add_consumer(0)
    buf.add_consumer(1)
    buf.end_consumer(1)
    buf.put(page([1]))  # must not raise
    assert [p.is_end for p in buf.take(1, 10)] == [True]


@pytest.mark.parametrize("mode", [OutputMode.ARBITRARY, OutputMode.BROADCAST])
def test_take_on_an_empty_queue_changes_nothing(kernel, mode):
    """An output buffer never turns up: an empty ``take`` is ``[]`` with
    capacity and counter untouched, and ``wait`` then parks the consumer
    until a page arrives — or says the id ended and is drained."""
    buf = make_shared(kernel, mode)
    buf.add_consumer(0)
    kernel.now = 10.0  # a resize would be due, were the take to drive one
    assert buf.take(0, 4) == []
    assert (buf.capacity.capacity, buf.capacity.turn_up_counter) == (1, 0)
    assert not buf.ever_fetched
    woken = []
    assert buf.wait(0, lambda: woken.append(True)) is True
    buf.put(page([1]))
    assert woken == [True]
    buf.task_finished()
    assert [p.is_end for p in buf.take(0, 4)] == [False, True]
    assert buf.take(0, 4) == [] and buf.wait(0, woken.append) is False
    with pytest.raises(SchedulingError):
        buf.take(7, 1)


def test_producer_fullness_accounting(kernel):
    buf = make_shared(kernel, OutputMode.ARBITRARY)
    buf.add_consumer(0)
    assert not buf.is_full
    buf.put(page([1]))
    assert buf.is_full  # capacity starts at one page
    buf.take(0, 1)
    assert not buf.is_full


# -- shuffle output buffer ----------------------------------------------------
def make_shuffle(kernel, cache=False):
    cpu = CpuPool(kernel, 4)
    return ShuffleOutputBuffer(
        kernel, elastic_config(), key_positions=[0], cpu=cpu, cost=CostModel(),
        cache_pages=cache,
    )


def test_shuffle_partitions_by_key(kernel):
    buf = make_shuffle(kernel)
    buf.set_group([0, 1, 2])
    buf.put(page(range(100)))
    kernel.run()
    seen = {}
    for consumer in (0, 1, 2):
        for p in buf.take(consumer, 100):
            for key in p.column(0).tolist():
                seen[key] = consumer
    assert len(seen) == 100
    # Partitioning must be deterministic w.r.t. the key.
    buf2 = make_shuffle(kernel)
    buf2.set_group([0, 1, 2])
    buf2.put(page(range(100)))
    kernel.run()
    for consumer in (0, 1, 2):
        for p in buf2.take(consumer, 100):
            for key in p.column(0).tolist():
                assert seen[key] == consumer


def test_shuffle_single_partition_skips_hashing(kernel):
    buf = make_shuffle(kernel)
    buf.set_group([0])
    buf.put(page([1, 2, 3]))
    kernel.run()
    pages = buf.take(0, 10)
    assert sum(p.num_rows for p in pages) == 3


def test_shuffle_pending_counts_toward_fullness(kernel):
    buf = make_shuffle(kernel)
    buf.set_group([0])
    buf.put(page([1]))
    assert buf.is_full  # still pending in the shuffle executor
    kernel.run()


def test_shuffle_finish_waits_for_drain(kernel):
    buf = make_shuffle(kernel)
    buf.set_group([0])
    buf.put(page([1, 2]))
    buf.task_finished()
    # End must come after the shuffled data.
    kernel.run()
    pages = buf.take(0, 10)
    assert pages[-1].is_end
    assert sum(p.num_rows for p in pages) == 2


def test_shuffle_group_switch_replays_cache(kernel):
    buf = make_shuffle(kernel, cache=True)
    buf.set_group([0, 1])
    buf.put(page(range(50)))
    kernel.run()
    buf.set_group([2, 3, 4], replay_cache=True)
    kernel.run()
    replayed = 0
    for consumer in (2, 3, 4):
        replayed += sum(p.num_rows for p in buf.take(consumer, 100))
    assert replayed == 50  # the full cache reaches the new group


def test_shuffle_end_group_defers_until_drained(kernel):
    buf = make_shuffle(kernel, cache=True)
    buf.set_group([0])
    buf.put(page(range(10)))
    buf.end_group([0])  # in-flight shuffle work must not be dropped
    kernel.run()
    pages = buf.take(0, 100)
    assert sum(p.num_rows for p in pages) == 10
    assert pages[-1].is_end


def test_switch_group_on_finished_buffer_replays_then_ends(kernel):
    buf = make_shuffle(kernel, cache=True)
    buf.set_group([0])
    buf.put(page(range(10)))
    kernel.run()
    buf.task_finished()
    buf.set_group([1, 2], replay_cache=True)
    kernel.run()
    total = 0
    for consumer in (1, 2):
        pages = buf.take(consumer, 100)
        assert pages[-1].is_end
        total += sum(p.num_rows for p in pages)
    assert total == 10


# -- local exchange -----------------------------------------------------------
def test_local_exchange_end_after_producers_finish():
    lx = LocalExchange()
    lx.register_producer()
    lx.register_producer()
    lx.put(page([1]))
    lx.producer_finished()
    assert lx.poll().num_rows == 1
    assert lx.poll() is None  # one producer still running
    lx.producer_finished()
    assert lx.poll().is_end

