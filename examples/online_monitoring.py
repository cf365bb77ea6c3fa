"""Online monitoring of a live query (paper §4.2 and §5, online demo).

Starts an Mserver in the background, connects the textual Stethoscope to
its profiler UDP stream (its receiver drains the socket in a thread of
its own), launches a TPC-H query in the query thread and monitors it
live from this one: the dot file arrives first, a session is opened on
it, and each trace event is pushed into that session and colours nodes
through the throttled render queue — with sampling when the stream
outruns the ~150 ms/node render ceiling.

Afterwards the same run is repeated under ``sequential_pipe`` to show the
paper's reported anomaly: a plan that executes sequentially although
multiple workers were available.

Run:  python examples/online_monitoring.py
"""

import tempfile

from repro import Database, MClient, Mserver, Stethoscope, populate, query_sql
from repro.core.textual import TextualStethoscope


def monitor_query(server: Mserver, sql: str, pipeline: str,
                  workdir: str) -> None:
    textual = TextualStethoscope()
    connection = textual.connect("mserver")

    def run_query():
        with MClient(port=server.port) as client:
            client.set_pipeline(pipeline)
            client.set_profiler(port=connection.port)
            try:
                return client.query(sql).rows
            finally:
                client.set_pipeline("default_pipe")

    result = Stethoscope.online(connection, run_query, workdir,
                                backlog_threshold=16, timeout_s=30.0)
    textual.close()
    session = result.session

    print(f"\n=== pipeline={pipeline} ===")
    print(f"received {len(session.events)} events; "
          f"dot file: {result.dot_path}; trace file: {result.trace_path}")
    print(f"plan: {session.graph.node_count()} nodes")
    print(f"render-queue sampling dropped {result.sampled_out} repaints")
    print(session.progress.render())

    # the analysis was folded live, one event at a time, as they arrived
    profile = session.analysis.parallelism_profile()
    print(f"threads used: {profile.threads_used}, "
          f"max concurrency: {profile.max_concurrency}, "
          f"speedup vs serial: {profile.speedup_vs_serial:.2f}x")
    anomaly_check = profile.threads_used <= 1
    if pipeline == "sequential_pipe" and anomaly_check:
        print("ANOMALY (as in the paper): sequential execution of a MAL "
              "plan where multithreaded execution was expected")


def main() -> None:
    db = Database(workers=4, mitosis_threshold=400)
    populate(db.catalog, scale_factor=0.3, seed=13)
    workdir = tempfile.mkdtemp(prefix="stethoscope_online_")
    sql = query_sql("q1")
    with Mserver(db) as server:
        print(f"Mserver listening on port {server.port}")
        monitor_query(server, sql, "default_pipe", workdir)
        monitor_query(server, sql, "sequential_pipe", workdir)


if __name__ == "__main__":
    main()
