"""Concurrency benchmark: batched asyncio server vs serialized access.

The tentpole claim, in the paper's own cost model (round trips, not
rows): a curator who serializes — one connection, one operation per
message, waiting out every turnaround — pays a full round trip per
read.  Eight concurrent readers speaking the batched protocol (many
gets per message, one round trip per batch) sustain a multiple of that
read throughput while a simulated curator keeps committing write
transactions against the same server (one batched message per
transaction, via :func:`repro.workloads.concurrent.curator_batches`)
under snapshot isolation.

Gate: 8 concurrent batched readers + 1 writer sustain read QPS >=
``READ_QPS_FLOOR``x the single-connection serialized baseline (scaled by
``REPRO_BENCH_FLOOR_SCALE``, re-measured once before failing — loopback
latency on shared runners is noisy).  The unbatched-overlap number is
also recorded, ungated, as a reference point.  A correctness arm
replays an interleaved schedule over the same live server and certifies
the recorded history with the snapshot-isolation checker.

Results land in ``BENCH_concurrency.json`` at the repo root (override
with ``REPRO_BENCH_OUT_CONCURRENCY``).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path as FsPath

import pytest

from repro.storage import Database
from repro.storage.client import Client, SocketTransport
from repro.storage.server import AsyncServerClient, ThreadedServer
from repro.workloads.concurrent import (
    check_snapshot_isolation,
    curator_batches,
    kv_schema,
    prov_schema,
    run_schedule,
)
from repro.workloads.runner import generate_script


def _scale() -> int:
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return 100
    return int(os.environ.get("REPRO_SCALE", "10"))


SCALE = _scale()
FLOOR_SCALE = float(os.environ.get("REPRO_BENCH_FLOOR_SCALE", "1.0"))

N_READERS = 8
N_KEYS = 256
#: gets per message on the batched concurrent readers — the wire twin
#: of the store's batched ``loc IN (...)`` probes
READ_BATCH = 64
#: reads issued by the serialized baseline connection
BASELINE_READS = 150 * SCALE
#: batches issued by EACH concurrent reader
BATCHES_PER_READER = max(
    1, (BASELINE_READS + N_READERS * READ_BATCH - 1) // (N_READERS * READ_BATCH)
)
READS_PER_READER = BATCHES_PER_READER * READ_BATCH
#: the acceptance floor: concurrent read QPS vs serialized read QPS
READ_QPS_FLOOR = 3.0


def gate(floor: float) -> float:
    return floor * FLOOR_SCALE


_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results():
    yield
    out = os.environ.get(
        "REPRO_BENCH_OUT_CONCURRENCY",
        str(FsPath(__file__).resolve().parents[1] / "BENCH_concurrency.json"),
    )
    payload = {
        "suite": "concurrency",
        "scale": SCALE,
        "results": _RESULTS,
    }
    try:
        with open(out, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = {}
    if isinstance(existing, dict):
        for key, value in existing.items():
            if key not in payload:
                payload[key] = value
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _served_db() -> Database:
    db = Database("bench_concurrency")
    db.create_table(kv_schema())
    db.create_table(prov_schema())
    for k in range(N_KEYS):
        db.insert("kv", (k, k))
    return db


# ----------------------------------------------------------------------
# The two sides of the A/B
# ----------------------------------------------------------------------
def _serialized_reads(server: ThreadedServer, count: int) -> float:
    """One blocking connection, one get per message, back to back — the
    paper's serialized curator paying every round trip in full."""
    with Client(SocketTransport(server.host, server.port)) as client:
        start = time.perf_counter()
        for i in range(count):
            client.get("kv", [i % N_KEYS])
        return time.perf_counter() - start


async def _reader(host: str, port: int, batches: int, offset: int) -> None:
    """One concurrent reader: ``batches`` messages of ``READ_BATCH``
    gets each — each message is one round trip."""
    client = await AsyncServerClient().connect(host, port)
    try:
        cursor = offset
        for _ in range(batches):
            ops = [
                {"op": "get", "table": "kv", "key": [(cursor + i) % N_KEYS]}
                for i in range(READ_BATCH)
            ]
            cursor += READ_BATCH
            rows = await client.batch(ops)
            assert all(row is not None for row in rows)  # writer never touches kv
    finally:
        await client.close()


async def _unbatched_reader(host: str, port: int, reads: int, offset: int) -> None:
    client = await AsyncServerClient().connect(host, port)
    try:
        for i in range(reads):
            await client.call(
                {"op": "get", "table": "kv", "key": [(offset + i) % N_KEYS]}
            )
    finally:
        await client.close()


async def _writer(host: str, port: int, script, stop: asyncio.Event) -> int:
    """A simulated curator: transaction-grouped provenance batches, one
    message per transaction, looping (with fresh curator ids) until the
    readers are done.  Returns committed-transaction count."""
    client = await AsyncServerClient().connect(host, port)
    committed = 0
    cycle = 0
    try:
        while not stop.is_set():
            for batch in curator_batches(script, curator=cycle):
                await client.batch(batch)
                committed += 1
                if stop.is_set():
                    break
            cycle += 1
    finally:
        await client.close()
    return committed


def _concurrent_reads(server: ThreadedServer) -> dict:
    """8 async batched readers + 1 async curator on a fresh client-side
    event loop (the server keeps its own loop/thread).  Returns wall
    time and writer progress."""
    # generated outside the measured window: building the synthetic
    # source databases is CPU work that must not steal reader cycles
    script = generate_script("mix", 40, n_proteins=200, n_molecules=60)

    async def drive() -> dict:
        stop = asyncio.Event()
        writer_task = asyncio.ensure_future(
            _writer(server.host, server.port, script, stop)
        )
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _reader(
                    server.host,
                    server.port,
                    BATCHES_PER_READER,
                    (N_KEYS // N_READERS) * n,
                )
                for n in range(N_READERS)
            )
        )
        elapsed = time.perf_counter() - start
        stop.set()
        committed = await writer_task
        return {"elapsed_s": elapsed, "writer_txns": committed}

    return asyncio.run(drive())


def _unbatched_overlap_qps(server: ThreadedServer) -> float:
    """Reference point: the same reader fleet with one get per message —
    connection overlap alone, no batching."""
    per_reader = max(1, BASELINE_READS // (N_READERS * 4))

    async def drive() -> float:
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _unbatched_reader(
                    server.host,
                    server.port,
                    per_reader,
                    (N_KEYS // N_READERS) * n,
                )
                for n in range(N_READERS)
            )
        )
        return (per_reader * N_READERS) / (time.perf_counter() - start)

    return asyncio.run(drive())


def _measure_once() -> dict:
    db = _served_db()
    with ThreadedServer(db) as server:
        serial_s = _serialized_reads(server, BASELINE_READS)
        unbatched_qps = _unbatched_overlap_qps(server)
        concurrent = _concurrent_reads(server)
        messages = server.server.messages
    serial_qps = BASELINE_READS / serial_s
    total_reads = READS_PER_READER * N_READERS
    concurrent_qps = total_reads / concurrent["elapsed_s"]
    return {
        "serialized_reads": BASELINE_READS,
        "serialized_s": round(serial_s, 6),
        "serialized_read_qps": round(serial_qps, 1),
        "concurrent_readers": N_READERS,
        "read_batch": READ_BATCH,
        "concurrent_reads": total_reads,
        "concurrent_s": round(concurrent["elapsed_s"], 6),
        "concurrent_read_qps": round(concurrent_qps, 1),
        "unbatched_overlap_qps": round(unbatched_qps, 1),
        "writer_txns_committed": concurrent["writer_txns"],
        "server_messages": messages,
        "speedup": round(concurrent_qps / serial_qps, 2),
    }


class TestConcurrentThroughput:
    def test_concurrent_readers_beat_serialized_baseline(self):
        result = _measure_once()
        if result["speedup"] < gate(READ_QPS_FLOOR):
            # one re-measure before failing: loopback round trips on a
            # noisy shared runner can eat a single run
            result = _measure_once()
        _RESULTS["read_qps_concurrent_vs_serialized"] = {
            **result,
            "gate": READ_QPS_FLOOR,
            "floor_scale": FLOOR_SCALE,
        }
        print(
            f"\n[concurrency] serialized={result['serialized_read_qps']} qps "
            f"concurrent={result['concurrent_read_qps']} qps "
            f"speedup={result['speedup']}x (gate >= {gate(READ_QPS_FLOOR)}x) "
            f"writer committed {result['writer_txns_committed']} txns"
        )
        assert result["writer_txns_committed"] > 0  # writes really overlapped
        assert result["speedup"] >= gate(READ_QPS_FLOOR)


class TestConcurrentCorrectness:
    """The correctness arm: the same server, an interleaved multi-client
    schedule, and the snapshot-isolation history checker."""

    SCHEDULE = [
        ("begin", "a"),
        ("begin", "b"),
        ("read", "a", 0),
        ("write", "b", 0, 100),
        ("read", "a", 0),
        ("commit", "b"),
        ("read", "a", 0),
        ("write", "a", 1, 7),
        ("commit", "a"),
        ("begin", "c"),
        ("read", "c", 0),
        ("read", "c", 1),
        ("write", "c", 0, 101),
        ("commit", "c"),
    ]

    def test_server_history_is_snapshot_isolated(self):
        initial = {k: k for k in range(4)}
        db = Database("bench_correctness")
        db.create_table(kv_schema())
        for k, v in initial.items():
            db.insert("kv", (k, v))
        with ThreadedServer(db) as server:
            clients = {
                c: Client(SocketTransport(server.host, server.port))
                for c in ("a", "b", "c")
            }
            try:
                history = run_schedule(self.SCHEDULE, clients, initial)
            finally:
                for client in clients.values():
                    client.close()
        violations = check_snapshot_isolation(history)
        assert violations == [], "\n".join(violations)
        _RESULTS["history_checker"] = {
            "transactions": len(history.transactions),
            "violations": 0,
        }
