"""Tests for the CLI, catalog persistence, and the progress/pop-up
models."""

import io
import threading

import pytest

from repro.cli import main
from repro.core.progress import Popup, PopupManager, ProgressWindow
from repro.errors import StorageError
from repro.storage.durable import (
    CHECKPOINT_FORMAT, MANIFEST_FILENAME, load_catalog, save_catalog,
)
from repro.profiler.events import TraceEvent
from repro.storage import Catalog, INT, STR, DATE


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestPersistence:
    def make_catalog(self):
        import datetime

        cat = Catalog()
        t = cat.schema().create_table(
            "events", [("id", INT), ("name", STR), ("day", DATE)]
        )
        t.insert_many([
            [1, "alpha", datetime.date(2020, 1, 1)],
            [2, None, datetime.date(2021, 6, 15)],
        ])
        return cat

    def test_roundtrip(self, tmp_path):
        cat = self.make_catalog()
        path = str(tmp_path / "db")
        rows = save_catalog(cat, path)
        assert rows == 2
        loaded = load_catalog(path)
        assert list(loaded.table("events").rows()) == \
            list(cat.table("events").rows())

    def test_types_preserved(self, tmp_path):
        path = str(tmp_path / "db")
        save_catalog(self.make_catalog(), path)
        loaded = load_catalog(path)
        types = [c.mal_type.name
                 for c in loaded.table("events").columns.values()]
        assert types == ["int", "str", "date"]

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "bad"
        path.mkdir()
        (path / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(StorageError):
            load_catalog(str(path))

    def test_version_check(self, tmp_path):
        path = tmp_path / "old"
        path.mkdir()
        (path / MANIFEST_FILENAME).write_text(
            '{"format": 99, "lsn": 0, "schemas": []}')
        with pytest.raises(StorageError):
            load_catalog(str(path))

    def test_loaded_catalog_queryable(self, tmp_path):
        from repro.server import Database

        path = str(tmp_path / "db")
        save_catalog(self.make_catalog(), path)
        db = Database(catalog=load_catalog(path))
        rows = db.execute("select name from events where id = 1").rows
        assert rows == [("alpha",)]

    def test_save_is_atomic_on_crash(self, tmp_path, monkeypatch):
        """A crash mid-save must leave the previous catalog readable
        and no temp directory behind — the save lands through a
        sibling ``.tmp`` directory plus a rename."""
        import json as json_module

        path = str(tmp_path / "db")
        save_catalog(self.make_catalog(), path)
        good = load_catalog(path)

        def explode(fd):
            # the temp file holds a complete column by now; dying on
            # its fsync models a crash after a (possibly torn) write
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.durable.os.fsync", explode)
        with pytest.raises(OSError):
            save_catalog(self.make_catalog(), path)
        monkeypatch.undo()
        # the original survives intact ...
        reloaded = load_catalog(path)
        assert list(reloaded.table("events").rows()) == \
            list(good.table("events").rows())
        # ... and the temp directory was cleaned up
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "db"]
        assert leftovers == []
        with open(tmp_path / "db" / MANIFEST_FILENAME) as handle:
            assert json_module.load(handle)["format"] == CHECKPOINT_FORMAT

    def test_save_replaces_existing_directory(self, tmp_path):
        path = str(tmp_path / "db")
        save_catalog(self.make_catalog(), path)
        cat = self.make_catalog()
        cat.table("events").insert([3, "gamma", None])
        assert save_catalog(cat, path) == 3
        assert len(list(load_catalog(path).table("events").rows())) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["db"]


class TestProgressWindow:
    def event(self, seq, status, pc, clock):
        return TraceEvent(seq, clock, status, pc, 0,
                          10 if status == "done" else 0, 0, "x := a.b();")

    def test_fraction_and_completion(self):
        window = ProgressWindow(plan_size=2)
        window.observe(self.event(0, "start", 0, 0))
        assert window.fraction_done == 0
        window.observe(self.event(1, "done", 0, 100))
        assert window.fraction_done == 0.5
        window.observe(self.event(2, "start", 1, 100))
        window.observe(self.event(3, "done", 1, 200))
        assert window.complete

    def test_eta_estimates_from_rate(self):
        window = ProgressWindow(plan_size=4)
        window.observe(self.event(0, "done", 0, 100))
        assert window.eta_usec() == 300  # 100 usec each, 3 remaining

    def test_eta_none_before_first_done(self):
        window = ProgressWindow(plan_size=2)
        assert window.eta_usec() is None

    def test_render_shows_bar_and_running(self):
        window = ProgressWindow(plan_size=4)
        window.observe(self.event(0, "done", 0, 50))
        window.observe(self.event(1, "start", 1, 50))
        text = window.render(width=8)
        assert "[##------]" in text
        assert "running: pc 1" in text

    def test_plan_size_positive(self):
        with pytest.raises(ValueError):
            ProgressWindow(0)


class TestPopups:
    def event(self, seq, status, pc, clock):
        return TraceEvent(seq, clock, status, pc, 0, 0, 0, "x := a.b();")

    def test_popup_raised_after_threshold(self):
        manager = PopupManager(threshold_usec=100)
        manager.observe(self.event(0, "start", 5, 0))
        assert manager.tick(50) == []
        raised = manager.tick(150)
        assert len(raised) == 1 and raised[0].pc == 5
        assert "still running" in raised[0].message()

    def test_popup_reports_running_time_not_trace_clock(self):
        manager = PopupManager(threshold_usec=100)
        manager.observe(self.event(0, "start", 5, 5000))
        (popup,) = manager.tick(5100)
        assert (popup.started_at_usec, popup.raised_at_usec) == (5000, 5100)
        assert "still running after 100 usec" in popup.message()

    def test_popup_not_duplicated(self):
        manager = PopupManager(threshold_usec=100)
        manager.observe(self.event(0, "start", 5, 0))
        manager.tick(150)
        assert manager.tick(300) == []
        assert len(manager.popups) == 1

    def test_popup_dismissed_on_done(self):
        manager = PopupManager(threshold_usec=100)
        manager.observe(self.event(0, "start", 5, 0))
        manager.tick(150)
        manager.observe(self.event(1, "done", 5, 400))
        assert manager.active() == []
        assert manager.popups[0].dismissed_at_usec == 400

    def test_fast_instruction_never_popped(self):
        manager = PopupManager(threshold_usec=100)
        manager.observe(self.event(0, "start", 5, 0))
        manager.observe(self.event(1, "done", 5, 50))
        assert manager.tick(1000) == []

    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            PopupManager(0)


class TestCli:
    def test_datagen_and_offline_flow(self, tmp_path):
        db_path = str(tmp_path / "tpch")
        code, out = run_cli("datagen", db_path, "--scale", "0.02")
        assert code == 0 and "wrote" in out

        # produce dot + trace files via the library, then analyse by CLI
        from repro.dot import plan_to_dot
        from repro.profiler import Profiler, write_trace
        from repro.server import Database

        db = Database(catalog=load_catalog(db_path))
        profiler = Profiler()
        outcome = db.execute(
            "select l_tax from lineitem where l_partkey = 1",
            listener=profiler,
        )
        dot_path = str(tmp_path / "plan.dot")
        trace_path = str(tmp_path / "q.trace")
        with open(dot_path, "w") as f:
            f.write(plan_to_dot(outcome.program))
        write_trace(profiler.events, trace_path)

        code, out = run_cli("offline", dot_path, trace_path,
                            "--svg", str(tmp_path / "d.svg"))
        assert code == 0
        assert "plan:" in out and "coverage 100%" in out
        assert (tmp_path / "d.svg").exists()

        code, out = run_cli("analyze", trace_path, "--top", "3")
        assert code == 0 and "makespan" in out

        code, out = run_cli("analyze", trace_path, "--csv")
        assert code == 0 and out.startswith("pc,")

    def test_offline_threshold_mode(self, tmp_path):
        from repro.dot import plan_to_dot
        from repro.profiler import Profiler, write_trace
        from repro.server import Database
        from repro.tpch import populate

        db = Database()
        populate(db.catalog, scale_factor=0.02)
        profiler = Profiler()
        outcome = db.execute("select count(*) from lineitem",
                             listener=profiler)
        dot_path = str(tmp_path / "p.dot")
        trace_path = str(tmp_path / "t.trace")
        with open(dot_path, "w") as f:
            f.write(plan_to_dot(outcome.program))
        write_trace(profiler.events, trace_path)
        code, out = run_cli("offline", dot_path, trace_path,
                            "--threshold", "1", "--ascii")
        assert code == 0
        assert "coloured nodes:" in out

    def test_serve_and_query(self, tmp_path):
        import socket

        # find a free TCP port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        server_out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--scale", "0.02",
                   "--max-seconds", "6"],),
            kwargs={"out": server_out},
            daemon=True,
        )
        thread.start()
        import time

        deadline = time.monotonic() + 5
        code, out = 1, ""
        while time.monotonic() < deadline:
            code, out = run_cli("query", "select count(*) from region",
                                "--port", str(port))
            if code == 0:
                break
            time.sleep(0.1)
        assert code == 0 and "5" in out

        code, out = run_cli("query", "select count(*) from region",
                            "--port", str(port), "--explain")
        assert code == 0 and "function user." in out
        thread.join(timeout=10)

    def test_checkpoint_of_a_recovered_wal_dir_links_what_is_unchanged(
            self, tmp_path):
        import os
        import re

        from repro.server import Database
        from repro.storage.durable import list_checkpoints

        wal_dir = str(tmp_path / "wal")
        db = Database(wal_dir=wal_dir, commit_window_ms=0.0)
        db.execute("create table t (a integer, b varchar(8))")
        db.execute("create table u (c integer, d double)")
        db.execute("insert into t values (1, 'one')")
        db.execute("insert into u values (2, 0.5)")
        db.checkpoint()
        db.execute("insert into t values (3, 'three')")  # the WAL tail
        db.close()

        code, out = run_cli("checkpoint", wal_dir)
        assert code == 0 and "wal truncated" in out
        linked = int(re.search(r"(\d+) linked", out).group(1))
        (_, before), (_, after) = list_checkpoints(wal_dir)
        unchanged = [name for name in os.listdir(after)
                     if name.endswith(".col") and
                     os.path.exists(os.path.join(before, name)) and
                     os.path.samefile(os.path.join(before, name),
                                      os.path.join(after, name))]
        assert linked == len(unchanged) == 2

    @pytest.mark.parametrize("flag", ["--parallel-workers",
                                      "--parallel-min-rows",
                                      "--order-index-min-rows"])
    def test_serve_refuses_the_retired_pool_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", flag, "2", "--max-seconds", "0"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1", "65", "100"])
    def test_serve_refuses_workers_outside_the_session_bound(
            self, workers, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--workers", workers, "--port", "0",
                  "--scale", "0", "--max-seconds", "0.01"])
        assert exited.value.code == 2
        assert "must be between 1 and 64" in capsys.readouterr().err

    def test_query_connection_error(self):
        code, _out = run_cli("query", "select 1 from t", "--port", "1")
        assert code == 1

    def test_listen_times_out_empty(self, tmp_path):
        code, out = run_cli(
            "listen", "--port", "0", "--timeout", "0.3",
            "--trace-file", str(tmp_path / "t.trace"),
            "--dot-file", str(tmp_path / "p.dot"),
        )
        assert code == 1  # nothing received

    def test_listen_receives_stream(self, tmp_path):
        import socket as socket_module

        from repro.profiler import UdpEmitter

        # run listen in a thread on an OS-assigned port is racy; instead
        # pick a free UDP port up front
        probe = socket_module.socket(socket_module.AF_INET,
                                     socket_module.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        result = {}

        def listen():
            result["code"], result["out"] = run_cli(
                "listen", "--port", str(port), "--timeout", "5",
                "--trace-file", str(tmp_path / "t.trace"),
                "--dot-file", str(tmp_path / "p.dot"),
            )

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        import time

        time.sleep(0.3)
        emitter = UdpEmitter(port=port)
        emitter.send_dot("digraph G { n0; }")
        emitter.send_line('[ 0,\t0,\t"start",\t0,\t0,\t0,\t0,\t"a.b();"\t]')
        emitter.send_end()
        emitter.close()
        thread.join(timeout=10)
        assert result["code"] == 0
        assert (tmp_path / "p.dot").read_text().startswith("digraph")
