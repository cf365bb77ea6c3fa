"""The deterministic fault-injection harness: plans, sites, hardened
client, and the protocol framing edge cases it exposed."""

import json
import socket
import threading
import time

import pytest

from repro.errors import (
    ConnectionFailedError,
    FaultSpecError,
    RequestTimeoutError,
    ServerError,
    WorkerCrashError,
)
from repro.faults import ACTIVE, FaultPlan, arm, armed, disarm
from repro.faults.plan import SITES
from repro.mal.dataflow import SimulatedScheduler
from repro.profiler.stream import (
    END_MARKER,
    LineFaultPipe,
    UdpEmitter,
    UdpReceiver,
    apply_line_faults,
)
from repro.server import Database, MClient, Mserver
from repro.tpch import populate


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.02, seed=3)
    return db


@pytest.fixture()
def server(database):
    with Mserver(database) as srv:
        yield srv


@pytest.fixture(autouse=True)
def always_disarm():
    yield
    disarm()


class TestFaultPlanSpec:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "udp.emit:drop@0.1;server.loop:latency=25@0.3;"
            "scheduler.worker:crash#1", seed=9)
        assert plan.seed == 9
        assert "udp.emit:drop@0.1" in plan.signature()
        assert "server.loop:latency=25@0.3" in plan.signature()
        assert "scheduler.worker:crash#1" in plan.signature()

    def test_config_round_trip(self):
        plan = FaultPlan.from_config({
            "seed": 4,
            "sites": {"udp.emit": [{"action": "dup", "p": 0.5},
                                   {"action": "truncate", "value": 10}]},
        })
        assert plan.seed == 4
        assert "udp.emit:dup@0.5" in plan.signature()

    @pytest.mark.parametrize("spec", [
        "",
        "noclause",
        "bogus.site:drop",
        "udp.emit:reset",          # action of a different site
        "udp.emit:drop@1.5",       # probability out of range
        "udp.emit:drop@abc",
        "udp.emit:drop#x",
        "server.loop:latency=ms",
    ])
    def test_bad_specs_raise_typed(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)

    def test_bad_config_raises_typed(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_config({"sites": {"udp.emit": [{}]}})
        with pytest.raises(FaultSpecError):
            FaultPlan.from_config({"nope": 1})

    def test_every_site_action_pair_accepted(self):
        for site, actions in SITES.items():
            for action in actions:
                FaultPlan.from_spec(f"{site}:{action}")


class TestFaultPlanDecisions:
    def test_same_seed_same_journal(self):
        def drive(plan):
            for i in range(200):
                plan.decide("udp.emit", detail=str(i))
                plan.decide("server.loop", detail="query")
            return list(plan.journal)

        spec = "udp.emit:drop@0.2;udp.emit:dup@0.2;server.loop:reset@0.1"
        a = drive(FaultPlan.from_spec(spec, seed=42))
        b = drive(FaultPlan.from_spec(spec, seed=42))
        assert a == b
        assert a  # something actually fired
        c = drive(FaultPlan.from_spec(spec, seed=43))
        assert c != a  # a different seed decides differently

    def test_sites_draw_independently(self):
        # consuming one site's PRNG must not shift another's decisions
        spec = "udp.emit:drop@0.5;server.loop:reset@0.5"
        lonely = FaultPlan.from_spec(spec, seed=5)
        crowded = FaultPlan.from_spec(spec, seed=5)
        for _ in range(50):
            crowded.decide("server.loop")
        udp = [bool(lonely.decide("udp.emit")) for _ in range(50)]
        udp2 = [bool(crowded.decide("udp.emit")) for _ in range(50)]
        assert udp == udp2

    def test_limit_caps_fires(self):
        plan = FaultPlan.from_spec("udp.emit:drop@1.0#3", seed=1)
        fired = sum(1 for _ in range(10) if plan.decide("udp.emit"))
        assert fired == 3
        assert plan.fires("udp.emit", "drop") == 3

    def test_unruled_site_returns_none(self):
        plan = FaultPlan.from_spec("udp.emit:drop@1.0", seed=1)
        assert plan.decide("server.loop") is None

    def test_metrics_counted(self):
        from repro.metrics.families import FAULT_INJECTIONS

        child = FAULT_INJECTIONS.labels(site="udp.emit", action="drop")
        before = child.value()
        plan = FaultPlan.from_spec("udp.emit:drop@1.0", seed=1)
        plan.decide("udp.emit")
        assert child.value() == before + 1

    def test_describe_mentions_fires(self):
        plan = FaultPlan.from_spec("udp.emit:drop@1.0", seed=1)
        plan.decide("udp.emit")
        assert "fired=1" in plan.describe()


class TestArming:
    def test_armed_context_restores(self):
        plan = FaultPlan(seed=1).on("udp.emit", "drop")
        assert ACTIVE.plan is None
        with armed(plan):
            assert ACTIVE.plan is plan
        assert ACTIVE.plan is None

    def test_arm_disarm(self):
        plan = arm(FaultPlan(seed=1))
        assert ACTIVE.plan is plan
        disarm()
        assert ACTIVE.plan is None


class TestLineFaultPipe:
    def test_drop(self):
        plan = FaultPlan(seed=1).on("udp.emit", "drop")
        assert apply_line_faults(plan, ["a", "b"]) == []

    def test_dup(self):
        plan = FaultPlan(seed=1).on("udp.emit", "dup")
        assert apply_line_faults(plan, ["a"]) == ["a", "a"]

    def test_truncate(self):
        plan = FaultPlan(seed=1).on("udp.emit", "truncate", value=3)
        assert apply_line_faults(plan, ["abcdef"]) == ["abc"]

    def test_reorder_swaps_neighbours(self):
        plan = FaultPlan(seed=1).on("udp.emit", "reorder",
                                    probability=1.0, limit=1)
        assert apply_line_faults(plan, ["a", "b", "c"]) == ["b", "a", "c"]

    def test_reorder_tail_flushed(self):
        plan = FaultPlan(seed=1).on("udp.emit", "reorder")
        pipe = LineFaultPipe()
        assert pipe.feed(plan, "only") == []
        assert pipe.flush() == [("only", "event")]
        assert pipe.flush() == []

    def test_replay_is_byte_identical(self):
        lines = [f"line-{i}" for i in range(300)]
        spec = ("udp.emit:drop@0.15;udp.emit:dup@0.15;"
                "udp.emit:reorder@0.15;udp.emit:truncate=5@0.15")
        one = apply_line_faults(FaultPlan.from_spec(spec, seed=7), lines)
        two = apply_line_faults(FaultPlan.from_spec(spec, seed=7), lines)
        assert one == two
        assert one != lines

    def test_kind_classified_before_truncation(self):
        # a truncated #dot line must still count as a dot line
        plan = FaultPlan(seed=1).on("udp.emit", "truncate", value=2)
        pipe = LineFaultPipe()
        sent = pipe.feed(plan, "#dot\tnode [shape=box];")
        assert sent == [("#d", "dot")]


class TestArmedEmitter:
    def test_drop_all_means_silence(self):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            with armed(FaultPlan(seed=1).on("udp.emit", "drop")):
                for i in range(5):
                    emitter.send_line(f"x{i}")
            emitter.close()
            time.sleep(0.2)
            assert receiver.try_line(timeout=0.1) is None

    def test_disarmed_emitter_passes_through(self):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            emitter.send_line("hello")
            emitter.send_end()
            emitter.close()
            got = list(receiver.lines(timeout=1.0))
            assert got == ["hello"]

    def test_send_end_flushes_reordered_tail(self):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            with armed(FaultPlan(seed=1).on("udp.emit", "reorder",
                                            limit=1)):
                emitter.send_line("held")
                emitter.send_end()
            emitter.close()
            got = list(receiver.lines(timeout=1.0))
            assert got == ["held"]


class TestReceiverWallClockCap:
    def test_steady_stream_without_end_terminates(self):
        # satellite: a lost END must not keep iteration alive forever
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            stop = threading.Event()

            def pump():
                while not stop.is_set():
                    emitter.send_line("steady")
                    time.sleep(0.01)

            thread = threading.Thread(target=pump, daemon=True)
            thread.start()
            began = time.monotonic()
            drained = sum(1 for _ in receiver.lines(timeout=5.0,
                                                    max_seconds=0.4))
            elapsed = time.monotonic() - began
            stop.set()
            thread.join(timeout=1.0)
            emitter.close()
            assert drained > 0
            assert elapsed < 2.0  # far below the 5 s gap timeout

    def test_end_marker_still_terminates_early(self):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            emitter.send_line("a")
            emitter.send_end()
            emitter.close()
            assert list(receiver.lines(timeout=1.0,
                                       max_seconds=10.0)) == ["a"]


class TestHardenedClient:
    def test_dead_port_raises_typed_with_address(self):
        # grab a port that is definitely closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionFailedError) as info:
            MClient(port=port, timeout=0.5)
        assert f"127.0.0.1:{port}" in str(info.value)

    def test_handshake_failure_closes_socket(self):
        # a server that accepts and immediately closes fails the
        # handshake; the client must tear its socket down and raise
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def slam():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        with pytest.raises(ConnectionFailedError):
            MClient(port=port, timeout=1.0, retries=0, handshake=True)
        thread.join(timeout=2.0)
        listener.close()

    def test_retry_through_reset(self, server):
        from repro.metrics.families import CLIENT_RETRIES

        child = CLIENT_RETRIES.labels(op="query")
        before = child.value()
        with armed(FaultPlan(seed=3).on("server.loop", "reset",
                                        probability=1.0, limit=1)):
            with MClient(port=server.port, retries=2,
                         backoff_base_s=0.01, retry_seed=0) as client:
                rows = client.query("select count(*) from region").rows
        assert rows[0][0] > 0
        assert child.value() > before

    def test_reset_exhausts_into_typed_error(self, server):
        with armed(FaultPlan(seed=3).on("server.loop", "reset")):
            client = MClient(port=server.port, retries=1,
                             backoff_base_s=0.01, retry_seed=0)
            with pytest.raises(ServerError):
                client.query("select count(*) from region")
            disarm()
            client.close()

    def test_latency_fault_trips_deadline(self, server):
        with armed(FaultPlan(seed=3).on("server.loop", "latency",
                                        value=500.0)):
            client = MClient(port=server.port, retries=0,
                             timeout=5.0, retry_seed=0)
            with pytest.raises(RequestTimeoutError):
                client.query("select count(*) from region",
                             deadline_s=0.15)
            disarm()
            client.close()

    def test_a_timed_out_answer_is_not_read_as_the_next_one(self, server):
        """Regression: a request that timed out left its connection
        open, so its late answer was read as the next request's."""
        with armed(FaultPlan(seed=3).on("server.loop", "latency",
                                        value=500.0, limit=1)):
            with MClient(port=server.port, retries=0) as client:
                with pytest.raises(RequestTimeoutError):
                    client.query("select count(*) from region",
                                 deadline_s=0.15)
                rows = client.query("select count(*) from nation").rows
        assert rows == [(25,)]

    def test_session_state_replayed_after_a_request_that_failed(
            self, server):
        """A connection lost on a request that is not re-sent: the next
        request's fresh connection still carries the session's
        settings (it used to come up with the server's defaults)."""
        sql = "select count(*) from lineitem where l_quantity > 10"
        with MClient(port=server.port, retries=0) as client:
            client.set_pipeline("minimal_pipe")
            with armed(FaultPlan(seed=3).on("server.loop", "reset",
                                            probability=1.0, limit=1)):
                with pytest.raises(ServerError):
                    client.explain(sql)
            assert "language.dataflow" not in client.explain(sql)

    def test_non_select_not_retried(self, server):
        with armed(FaultPlan(seed=3).on("server.loop", "reset",
                                        probability=1.0, limit=1)):
            client = MClient(port=server.port, retries=3,
                             backoff_base_s=0.01, retry_seed=0)
            with pytest.raises(ServerError):
                client.query("create table chaos_t (x integer)")
            disarm()
            client.close()

    def test_session_state_replayed_after_reset(self, server):
        with UdpReceiver() as receiver:
            plan = FaultPlan(seed=3).on("server.loop", "reset",
                                        probability=1.0, limit=1)
            with armed(plan):
                with MClient(port=server.port, retries=2,
                             backoff_base_s=0.01, retry_seed=0) as client:
                    client.set_profiler(port=receiver.port)
                    # the reset kills this query's connection; the
                    # retry must re-establish the profiler target
                    client.query("select count(*) from region")
            lines = list(receiver.lines(timeout=1.0))
            assert lines  # the re-established stream reached us


class TestSchedulerFaults:
    def _program(self, database):
        return database.compile("select count(*) from lineitem "
                                "where l_quantity > 10")

    def test_simulated_crash_raises_typed(self, database):
        program = self._program(database)
        with armed(FaultPlan(seed=1).on("scheduler.worker", "crash",
                                        limit=1)):
            with pytest.raises(WorkerCrashError):
                SimulatedScheduler(database.catalog, workers=2).run(
                    program)

    def test_simulated_stall_shifts_schedule_deterministically(
            self, database):
        program = self._program(database)
        baseline = SimulatedScheduler(database.catalog, workers=2).run(
            program)
        spec = "scheduler.worker:stall=700@0.3"
        with armed(FaultPlan.from_spec(spec, seed=5)):
            stalled_a = SimulatedScheduler(database.catalog,
                                           workers=2).run(program)
        with armed(FaultPlan.from_spec(spec, seed=5)):
            stalled_b = SimulatedScheduler(database.catalog,
                                           workers=2).run(program)
        assert stalled_a.total_usec > baseline.total_usec
        assert [(r.pc, r.start_usec, r.thread) for r in stalled_a.runs] \
            == [(r.pc, r.start_usec, r.thread) for r in stalled_b.runs]

    def test_stall_takes_its_value_in_wall_time(self, database):
        """A stall is slept for real, ``value`` microseconds, besides
        shifting the virtual clock: what keeps a stalled query slow
        enough for a deadline or admission control to notice."""
        program = self._program(database)
        baseline = SimulatedScheduler(database.catalog, workers=2).run(
            program)
        plan = FaultPlan(seed=1).on("scheduler.worker", "stall",
                                    value=30000, limit=2)
        began = time.perf_counter()
        with armed(plan):
            stalled = SimulatedScheduler(database.catalog,
                                         workers=2).run(program)
        assert time.perf_counter() - began >= 0.06
        assert len(plan.journal) == 2
        assert stalled.total_usec > baseline.total_usec

    def test_crash_through_server_is_typed_not_fatal(self, server):
        with armed(FaultPlan(seed=1).on("scheduler.worker", "crash",
                                        limit=1)):
            client = MClient(port=server.port, retries=0)
            # the worker-crash wire code reconstructs the precise type
            with pytest.raises(WorkerCrashError) as info:
                client.query("select count(*) from lineitem "
                             "where l_quantity > 10")
            assert "injected crash" in str(info.value)
            disarm()
            # the server survives the crashed query
            assert client.ping()
            client.close()


class TestProtocolFraming:
    def _raw(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5.0)
        return sock

    def _response(self, sock):
        buffered = b""
        while b"\n" not in buffered:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            buffered += chunk
        return json.loads(buffered.split(b"\n", 1)[0])

    def test_zero_length_lines_skipped(self, server):
        sock = self._raw(server)
        sock.sendall(b"\n\n  \n" + b'{"op":"ping"}\n')
        response = self._response(sock)
        assert response["ok"] and response["pong"]
        sock.close()

    def test_truncated_json_line_survivable(self, server):
        sock = self._raw(server)
        sock.sendall(b'{"op":"pi\n')  # header cut mid-token
        response = self._response(sock)
        assert response["ok"] is False
        assert "bad protocol line" in response["error"]
        sock.sendall(b'{"op":"ping"}\n')
        assert self._response(sock)["ok"]
        sock.close()

    def test_oversized_request_rejected(self, server):
        from repro.server.protocol import MAX_MESSAGE_BYTES

        sock = self._raw(server)
        blob = b"x" * (MAX_MESSAGE_BYTES + 65536)
        sock.sendall(blob)  # never a newline
        response = self._response(sock)
        assert response["ok"] is False
        assert "exceeds" in response["error"]
        # the server hangs up after the refusal (FIN, or RST when its
        # receive buffer still held unread bytes)
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass
        sock.close()

    def test_non_object_payload_rejected(self, server):
        sock = self._raw(server)
        sock.sendall(b'[1,2,3]\n')
        response = self._response(sock)
        assert response["ok"] is False
        sock.sendall(b'{"op":"ping"}\n')
        assert self._response(sock)["ok"]
        sock.close()


class TestChaosSmoke:
    def test_three_seed_sweep_passes(self, tmp_path):
        from repro.faults.chaos import run_sweep

        report = run_sweep(seeds=[0, 1, 2], mixes=["drop10", "reset"],
                           scale=0.01, workdir=str(tmp_path),
                           replay_sample=1)
        assert report.ok, report.render()
        assert report.replay_checked == 2
        rendered = report.render()
        assert "RESULT: PASS" in rendered

    def test_unknown_mix_rejected(self, capsys):
        from repro.cli import main
        from repro.errors import ReproError
        from repro.faults.chaos import run_sweep

        with pytest.raises(ReproError):
            run_sweep(seeds=[0], mixes=["nope"])
        # a retired mix name is refused like any other unknown one
        assert main(["chaos", "--mix", "worker-chaos"]) == 1 and \
            "unknown chaos mix 'worker-chaos'" in capsys.readouterr().err

    def test_cli_chaos_single_seed(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--seed", "0", "--mix", "drop10",
                     "--scale", "0.01"])
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "RESULT: PASS" in captured.out
