"""Unit tests of the server's asyncio job queue: priority, fairness, admission,
idempotent resubmission, cancellation, and event streaming."""

import asyncio

import pytest

from repro import QuantumCircuit
from repro.service import TranspileJob
from repro.server import CANCELLED, DONE, QUEUED, RUNNING, JobQueue, QueueFull


def make_job(seed: int = 0, *, name: str = "") -> TranspileJob:
    circuit = QuantumCircuit(3, name=name or f"q{seed}")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return TranspileJob.from_circuit(circuit, None, routing="none", seed=seed, name=name)


def run(coro):
    return asyncio.run(coro)


class TestSubmission:
    def test_submit_returns_queued_record(self):
        async def scenario():
            queue = JobQueue()
            record, resubmitted = queue.submit(make_job(0))
            assert record.state == QUEUED
            assert not resubmitted
            assert queue.pending_count() == 1
            assert record.events[0]["state"] == QUEUED

        run(scenario())

    def test_identical_submission_dedupes_onto_live_record(self):
        async def scenario():
            queue = JobQueue()
            first, _ = queue.submit(make_job(0))
            second, resubmitted = queue.submit(make_job(0))
            assert resubmitted
            assert second is first
            assert queue.pending_count() == 1

        run(scenario())

    def test_different_seeds_do_not_dedupe(self):
        async def scenario():
            queue = JobQueue()
            first, _ = queue.submit(make_job(0))
            second, resubmitted = queue.submit(make_job(1))
            assert not resubmitted
            assert second is not first

        run(scenario())

    def test_admission_control_raises_queue_full(self):
        async def scenario():
            queue = JobQueue(max_pending=2)
            queue.submit(make_job(0))
            queue.submit(make_job(1))
            with pytest.raises(QueueFull):
                queue.submit(make_job(2))

        run(scenario())

    def test_terminal_record_does_not_dedupe(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            popped = await queue.pop()
            assert popped is record
            popped.finish({"qasm": "", "metrics": {}})
            queue.task_done(popped)
            # A done record no longer coalesces: the server re-admits via the cache.
            assert queue.find_fingerprint(record.fingerprint) is None

        run(scenario())

    def test_admit_completed_bypasses_queue(self):
        async def scenario():
            queue = JobQueue(max_pending=1)
            queue.submit(make_job(0))  # fills the only slot
            record = queue.admit_completed(make_job(1), {"qasm": "", "metrics": {}})
            assert record.state == DONE
            assert record.from_cache
            assert queue.pending_count() == 1  # cached record consumed no slot

        run(scenario())


class TestScheduling:
    def test_pop_highest_priority_first(self):
        async def scenario():
            queue = JobQueue()
            low, _ = queue.submit(make_job(0), priority=0)
            high, _ = queue.submit(make_job(1), priority=10)
            assert await queue.pop() is high
            assert await queue.pop() is low

        run(scenario())



    def test_fifo_within_priority(self):
        async def scenario():
            queue = JobQueue()
            first, _ = queue.submit(make_job(0))
            second, _ = queue.submit(make_job(1))
            assert await queue.pop() is first
            assert await queue.pop() is second

        run(scenario())

    def test_round_robin_across_clients(self):
        async def scenario():
            queue = JobQueue()
            a1, _ = queue.submit(make_job(0), client="alice")
            a2, _ = queue.submit(make_job(1), client="alice")
            a3, _ = queue.submit(make_job(2), client="alice")
            b1, _ = queue.submit(make_job(3), client="bob")
            order = [await queue.pop() for _ in range(4)]
            # bob's single job must not wait behind alice's whole backlog
            assert order.index(b1) <= 1
            assert [r for r in order if r.client == "alice"] == [a1, a2, a3]

        run(scenario())

    def test_priority_beats_fairness(self):
        async def scenario():
            queue = JobQueue()
            queue.submit(make_job(0), client="alice", priority=0)
            urgent, _ = queue.submit(make_job(1), client="bob", priority=5)
            assert await queue.pop() is urgent

        run(scenario())

    def test_pop_waits_for_submission(self):
        async def scenario():
            queue = JobQueue()

            async def submit_later():
                await asyncio.sleep(0.01)
                return queue.submit(make_job(0))[0]

            popper = asyncio.create_task(queue.pop())
            submitted = await submit_later()
            popped = await asyncio.wait_for(popper, timeout=2)
            assert popped is submitted
            assert popped.state == RUNNING

        run(scenario())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            cancelled = queue.cancel(record.id)
            assert cancelled.state == CANCELLED
            assert queue.pending_count() == 0

        run(scenario())

    def test_cancelled_job_is_never_popped(self):
        async def scenario():
            queue = JobQueue()
            doomed, _ = queue.submit(make_job(0))
            survivor, _ = queue.submit(make_job(1))
            queue.cancel(doomed.id)
            assert await queue.pop() is survivor

        run(scenario())

    def test_cancel_running_job_is_best_effort(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            await queue.pop()
            after = queue.cancel(record.id)
            assert after.state == RUNNING
            assert after.cancel_requested

        run(scenario())

    def test_cancel_unknown_id_raises(self):
        async def scenario():
            queue = JobQueue()
            with pytest.raises(KeyError):
                queue.cancel("job-missing")

        run(scenario())

    def test_cancelled_fingerprint_is_resubmittable(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            queue.cancel(record.id)
            fresh, resubmitted = queue.submit(make_job(0))
            assert not resubmitted
            assert fresh is not record
            assert fresh.state == QUEUED

        run(scenario())


class TestEvents:
    def test_events_record_transitions_with_timestamps(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            await queue.pop()
            record.finish({"qasm": "", "metrics": {"cx_count": 1, "depth": 2}})
            states = [event["state"] for event in record.events]
            assert states == [QUEUED, RUNNING, DONE]
            times = [event["at"] for event in record.events]
            assert times == sorted(times)

        run(scenario())

    def test_stream_events_replays_then_follows_live(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))

            async def consume():
                return [event["state"] async for event in record.stream_events(60.0)]

            consumer = asyncio.create_task(consume())
            await asyncio.sleep(0.01)
            await queue.pop()
            await asyncio.sleep(0.01)
            record.finish({"qasm": "", "metrics": {}})
            states = await asyncio.wait_for(consumer, timeout=2)
            assert states == [QUEUED, RUNNING, DONE]

        run(scenario())

    def test_wait_terminal_times_out(self):
        async def scenario():
            queue = JobQueue()
            record, _ = queue.submit(make_job(0))
            assert not await record.wait_terminal(timeout=0.05)
            record.cancel()
            assert await record.wait_terminal(timeout=1)

        run(scenario())


class TestHistory:
    def test_history_trim_evicts_oldest_terminal_records(self):
        async def scenario():
            queue = JobQueue(history_limit=3)
            records = []
            for seed in range(5):
                record, _ = queue.submit(make_job(seed))
                popped = await queue.pop()
                popped.finish({"qasm": "", "metrics": {}})
                queue.task_done(popped)
                records.append(record)
            assert queue.get(records[0].id) is None  # oldest evicted
            assert queue.get(records[-1].id) is records[-1]

        run(scenario())

    def test_queued_records_survive_history_trim(self):
        async def scenario():
            queue = JobQueue(history_limit=1)
            kept, _ = queue.submit(make_job(0))
            queue.submit(make_job(1))
            assert queue.get(kept.id) is kept  # non-terminal records are never evicted

        run(scenario())
