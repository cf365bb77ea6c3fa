"""Experiment E10 — connection scaling on the asyncio front-end.

The server front-end moved from thread-per-connection to a single
asyncio event loop (request pipelining, per-session state, executor-run
queries) with a trace broadcast hub fanning one profiler stream out to
N subscribers.  These benchmarks measure the C10k-style properties that
rewrite bought:

- ``connections``: open a few hundred concurrent clients against one
  server and round-trip a ping on every one of them;
- ``pipelining``: one connection sends a burst of requests without
  waiting and then reads all responses (the event loop answers in
  request order);
- ``fanout``: 100+ subscribers follow one TPC-H query through the
  broadcast hub — every keep-up consumer must see the identical
  sequence with zero loss, and the watched query must not slow down.

Raw throughput numbers are machine-dependent, so the regression gate
checks the *invariants* recorded in the results -- every connection
served, zero events lost, responses in order -- and only shows the
rates: the ``e10`` rows of the table in
``benchmarks/check_regression.py``.  ``check_regression.py --only e10``
runs this file against the committed
``benchmarks/BENCH_E10_connections.json``.
"""

import socket
import time
from concurrent.futures import ThreadPoolExecutor

from repro.server import Database, MClient, Mserver
from repro.server.protocol import decode_message, encode_message
from repro.tpch import populate

import check_regression

CONNECTIONS = 256
PIPELINE_DEPTH = 500
SUBSCRIBERS = 128

FANOUT_QUERY = "select count(*) from lineitem where l_quantity > 5"


def _database(scale=0.02):
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=scale, seed=3)
    return db


def run_connection_benchmark(server, connections=CONNECTIONS):
    """Open ``connections`` concurrent clients; ping each one."""

    def connect_and_ping(_i):
        try:
            with MClient(port=server.port, retries=0) as client:
                return bool(client.ping())
        except Exception:
            return False

    began = time.perf_counter()
    with ThreadPoolExecutor(max_workers=64) as pool:
        outcomes = list(pool.map(connect_and_ping, range(connections)))
    elapsed = time.perf_counter() - began
    ok = sum(outcomes)
    return {
        "target": connections,
        "ok": ok,
        "seconds": round(elapsed, 3),
        "conns_per_s": round(connections / elapsed, 1),
    }


def run_pipelining_benchmark(server, depth=PIPELINE_DEPTH):
    """Send ``depth`` pings without waiting; read every response."""
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=30.0)
    try:
        burst = b"".join(encode_message({"op": "ping", "i": i})
                         for i in range(depth))
        began = time.perf_counter()
        sock.sendall(burst)
        buffered = b""
        responses = 0
        while responses < depth:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                if decode_message(line).get("pong"):
                    responses += 1
        elapsed = time.perf_counter() - began
    finally:
        sock.close()
    return {
        "depth": depth,
        "responses": responses,
        "seconds": round(elapsed, 3),
        "requests_per_s": round(depth / elapsed, 1),
    }


def run_fanout_benchmark(server, subscribers=SUBSCRIBERS):
    """N subscribers follow one TPC-H query through the hub."""
    clients = [MClient(port=server.port, retries=0)
               for _ in range(subscribers)]
    try:
        subs = [c.subscribe() for c in clients]
        with MClient(port=server.port, retries=0) as runner:
            began = time.perf_counter()
            runner.query(FANOUT_QUERY)
            query_seconds = time.perf_counter() - began

        def drain(sub):
            entries = list(sub.entries(until_end=True, max_seconds=30.0))
            summary = sub.stop()
            return entries, summary

        began = time.perf_counter()
        with ThreadPoolExecutor(max_workers=64) as pool:
            drained = list(pool.map(drain, subs))
        drain_seconds = time.perf_counter() - began
    finally:
        for client in clients:
            client.close()

    streams = [[e["seq"] for e in entries] for entries, _ in drained]
    reference = streams[0] if streams else []
    lost = sum(summary["dropped"] + summary["missed"]
               for _, summary in drained)
    matching = sum(1 for seqs in streams if seqs == reference)
    delivered = sum(len(seqs) for seqs in streams)
    return {
        "subscribers": subscribers,
        "events_per_subscriber": len(reference),
        "matching_streams": matching,
        "lost_events": lost,
        "delivered_total": delivered,
        "delivered_ratio": round(
            delivered / (len(reference) * subscribers), 4)
        if reference else 0.0,
        "query_seconds": round(query_seconds, 3),
        "drain_seconds": round(drain_seconds, 3),
        "delivered_per_s": round(delivered / drain_seconds, 1),
    }


def run_benchmarks(connections=CONNECTIONS, depth=PIPELINE_DEPTH,
                   subscribers=SUBSCRIBERS, scale=0.02):
    db = _database(scale=scale)
    with Mserver(db, max_subscribers=max(subscribers + 8, 64),
                 subscriber_buffer=8192) as server:
        results = {
            "connections": run_connection_benchmark(server, connections),
            "pipelining": run_pipelining_benchmark(server, depth),
            "fanout": run_fanout_benchmark(server, subscribers),
        }
    results["invariants"] = invariants(results)
    return results


def invariants(results):
    """The machine-independent facts the regression gate enforces."""
    conn = results["connections"]
    pipe = results["pipelining"]
    fan = results["fanout"]
    return {
        "all_connections_served": conn["ok"] == conn["target"],
        "all_pipelined_responses": pipe["responses"] == pipe["depth"],
        "zero_events_lost": fan["lost_events"] == 0,
        "identical_streams": (fan["matching_streams"]
                              == fan["subscribers"]),
        "full_delivery": fan["delivered_ratio"] == 1.0,
    }


def test_e10_connection_scaling():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e10`` checks."""
    assert check_regression.run("e10") == 0
