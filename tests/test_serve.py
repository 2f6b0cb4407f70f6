"""The supervised instrumentation service: pool, supervisor, cache, daemon.

Covers the full supervision contract end to end:

* kill taxonomy — hard deadline, RSS ceiling, and abrupt worker death are
  classified and surfaced as :class:`WorkerKilled`, while clean guest
  failures stay ordinary error responses;
* crash isolation — a SIGKILLed worker never takes another in-flight
  request with it;
* retry policy — crash-class kills get one fresh-worker retry, timeouts
  do not;
* circuit breaker — inputs that repeatedly kill workers are quarantined
  (:class:`BreakerOpen`, exit status 9);
* graceful degradation — a pool with no spawnable workers serves
  in-process, disabled-but-reported;
* the content-addressed artifact cache, the wire codec, the unix-socket
  daemon + client, service crash bundles and their replay, and the CLI
  exit statuses 8/9.

Fault injection uses the worker's gated ``__test__`` ops (hang / alloc /
exit / flaky / raise) so every kill class is deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import (EXIT_BREAKER_OPEN, EXIT_MALFORMED, EXIT_WORKER_KILLED,
                       exit_status, main)
from repro.serve import (ArtifactCache, ServeClient, ServeConfig, ServeDaemon,
                         WorkerPool, artifact_key, rss_monitoring_available)
from repro.serve import wire
from repro.serve.worker import RequestHandler
from repro.wasm import (BreakerOpen, ServiceUnavailable, WorkerKilled,
                        encode_module, parse_wat)

from .test_cli import INVALID_WATS

SPIN_WAT = """
(module
  (func (export "spin") (param i32) (result i32)
    (local i32 i32)
    block
      loop
        local.get 1
        local.get 0
        i32.ge_s
        br_if 1
        local.get 2
        local.get 1
        i32.add
        local.set 2
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 2)
)
"""

HANG_WAT = '(module (func (export "forever") loop br 0 end))'

#: Guest state a served run could leave behind: a mutable global and a
#: memory cell, each bumped by ``$bump``.
STATE_WAT = r"""
(module
  (memory 1)
  (data (i32.const 0) "\05")
  (global $g (mut i32) (i32.const 7))
  (func $bump
    global.get $g
    i32.const 1
    i32.add
    global.set $g
    i32.const 0
    i32.const 0
    i32.load
    i32.const 1
    i32.add
    i32.store)
  (func (export "main") (result i32)
    global.get $g
    i32.const 0
    i32.load
    i32.add
    call $bump)
  (func (export "bump_then_trap")
    call $bump
    unreachable))
"""

#: A WASI guest that exits cleanly through ``proc_exit(0)``.
EXIT0_WAT = """
(module
  (import "wasi_snapshot_preview1" "proc_exit" (func (param i32)))
  (memory (export "memory") 1)
  (func (export "main") (result i32) i32.const 0 call 0 i32.const 1))
"""


@pytest.fixture(scope="module")
def spin_bytes():
    return encode_module(parse_wat(SPIN_WAT))


def make_pool(tmp_path, **overrides) -> WorkerPool:
    defaults = dict(workers=1, request_timeout=10.0, poll_interval=0.01,
                    allow_test_ops=True, max_retries=1, breaker_threshold=2,
                    backoff_base=0.01, backoff_cap=0.05,
                    cache_dir=str(tmp_path / "cache"),
                    crash_dir=str(tmp_path / "crashes"))
    defaults.update(overrides)
    pool = WorkerPool(ServeConfig(**defaults)).start()
    return pool


# -- artifact cache -------------------------------------------------------------


class TestArtifactCache:
    def test_key_depends_on_all_inputs(self):
        base = artifact_key(b"mod", ["call"], {"op": "instrument"})
        assert base == artifact_key(b"mod", ["call"], {"op": "instrument"})
        assert base != artifact_key(b"mod2", ["call"], {"op": "instrument"})
        assert base != artifact_key(b"mod", ["memory"], {"op": "instrument"})
        assert base != artifact_key(b"mod", ["call"], {"op": "other"})
        # group order must not matter; None (= all groups) is distinct
        assert artifact_key(b"m", ["a", "b"]) == artifact_key(b"m", ["b", "a"])
        assert artifact_key(b"m", None) != artifact_key(b"m", [])

    def test_store_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key(b"module", ["call"])
        assert cache.load(key) is None
        cache.store(key, b"payload", {"hook_count": 7})
        payload, meta = cache.load(key)
        assert payload == b"payload"
        assert meta["hook_count"] == 7
        assert cache.stats()["hits"] == 1

    def test_corrupt_payload_is_evicted_not_served(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key(b"module", None)
        cache.store(key, b"payload", {})
        bin_path, _ = cache._paths(key)
        bin_path.write_bytes(b"flipped bits")
        assert cache.load(key) is None  # digest mismatch: miss, not garbage
        assert cache.stats()["corrupt"] == 1
        assert not bin_path.exists()
        # and the slot is reusable afterwards
        cache.store(key, b"payload", {})
        assert cache.load(key)[0] == b"payload"

    def test_missing_sidecar_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key(b"module", None)
        cache.store(key, b"payload", {})
        _, meta_path = cache._paths(key)
        meta_path.unlink()  # simulate a write interrupted pre-commit
        assert cache.load(key) is None


# -- wire codec -----------------------------------------------------------------


class TestWire:
    def test_bytes_roundtrip_recursively(self):
        message = {"kind": "run", "module": b"\x00asm\xff",
                   "nested": {"blobs": [b"a", b"b"], "n": 3}}
        decoded = wire.loads(wire.dumps(message))
        assert decoded == message

    def test_rejects_wrong_schema(self):
        line = json.dumps({"schema": "other/1", "kind": "x"}).encode() + b"\n"
        with pytest.raises(wire.WireError, match="not a repro service"):
            wire.loads(line)

    def test_rejects_garbage(self):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.loads(b"{ not json")

    def test_rejects_oversized(self):
        with pytest.raises(wire.WireError, match="cap"):
            wire.loads(b"x" * (wire.MAX_MESSAGE_BYTES + 1))


# -- kills, retries, breaker ----------------------------------------------------


class TestKillTaxonomy:
    def test_clean_requests_and_worker_reuse(self, tmp_path, spin_bytes):
        pool = make_pool(tmp_path)
        try:
            first = pool.submit({"kind": "run", "module": spin_bytes,
                                 "entry": "spin", "args": [100]})
            assert first["ok"] and first["supervised"]
            assert first["results"] == [4950]
            second = pool.submit({"kind": "run", "module": spin_bytes,
                                  "entry": "spin", "args": [10]})
            assert second["results"] == [45]
            assert second["pid"] == first["pid"]  # recycled, not respawned
            assert second["warm"] is True
        finally:
            pool.close()

    def test_guest_trap_is_not_a_kill(self, tmp_path, spin_bytes):
        bad = encode_module(parse_wat(
            "(module (func (export \"die\") unreachable))"))
        pool = make_pool(tmp_path)
        try:
            response = pool.submit({"kind": "run", "module": bad,
                                    "entry": "die", "args": []})
            assert response["ok"] is False
            assert response["error"]["type"] == "Trap"
            assert response["status"] == 3
            assert pool.stats()["kills"] == {"timeout": 0, "oom": 0,
                                             "crash": 0}
        finally:
            pool.close()

    def test_timeout_kill(self, tmp_path):
        pool = make_pool(tmp_path)
        try:
            with pytest.raises(WorkerKilled) as info:
                pool.submit({"kind": "__test__", "mode": "hang"},
                            timeout=0.4)
            assert info.value.kill_class == "timeout"
            assert exit_status(info.value) == EXIT_WORKER_KILLED == 8
            assert pool.stats()["kills"]["timeout"] == 1
        finally:
            pool.close()

    @pytest.mark.skipif(not rss_monitoring_available(),
                        reason="no /proc RSS monitoring on this platform")
    def test_oom_kill(self, tmp_path):
        pool = make_pool(tmp_path, rss_limit_mb=160.0)
        try:
            with pytest.raises(WorkerKilled) as info:
                pool.submit({"kind": "__test__", "mode": "alloc"},
                            timeout=30.0)
            assert info.value.kill_class == "oom"
        finally:
            pool.close()

    def test_abrupt_death_is_a_crash_and_burns_retries(self, tmp_path):
        pool = make_pool(tmp_path, breaker_threshold=100)
        try:
            with pytest.raises(WorkerKilled) as info:
                pool.submit({"kind": "__test__", "mode": "exit", "code": 11})
            assert info.value.kill_class == "crash"
            # deterministic crash: the single retry also died
            assert pool.stats()["retries_total"] == 1
        finally:
            pool.close()

    def test_flaky_crash_recovers_via_retry(self, tmp_path):
        marker = tmp_path / "crashed-once"
        pool = make_pool(tmp_path)
        try:
            response = pool.submit({"kind": "__test__", "mode": "flaky",
                                    "marker": str(marker)})
            assert response["ok"] and response["recovered"]
            stats = pool.stats()
            assert stats["retries_total"] == 1
            assert stats["kills"]["crash"] == 1
        finally:
            pool.close()

    def test_timeout_is_not_retried(self, tmp_path):
        pool = make_pool(tmp_path)
        try:
            with pytest.raises(WorkerKilled):
                pool.submit({"kind": "__test__", "mode": "hang"}, timeout=0.4)
            assert pool.stats()["retries_total"] == 0
        finally:
            pool.close()


class TestBreaker:
    def test_repeat_killer_is_quarantined(self, tmp_path):
        pool = make_pool(tmp_path, max_retries=0)
        request = {"kind": "__test__", "mode": "hang"}
        try:
            for _ in range(2):
                with pytest.raises(WorkerKilled):
                    pool.submit(dict(request), timeout=0.4)
            with pytest.raises(BreakerOpen) as info:
                pool.submit(dict(request), timeout=0.4)
            assert exit_status(info.value) == EXIT_BREAKER_OPEN == 9
            stats = pool.stats()
            assert stats["breaker_open"] == 1
            assert stats["kills"]["timeout"] == 2  # fail-fast, no third kill
        finally:
            pool.close()

    def test_other_inputs_keep_flowing_past_an_open_breaker(self, tmp_path):
        pool = make_pool(tmp_path, max_retries=0)
        try:
            for _ in range(2):
                with pytest.raises(WorkerKilled):
                    pool.submit({"kind": "__test__", "mode": "hang"},
                                timeout=0.4)
            ok = pool.submit({"kind": "__test__", "mode": "ok", "echo": "hi"})
            assert ok["ok"] and ok["echo"] == "hi"
        finally:
            pool.close()


class TestIsolationAndRespawn:
    def test_inflight_requests_survive_a_kill_next_door(self, tmp_path):
        pool = make_pool(tmp_path, workers=2)
        results: dict = {}

        def slow_ok():
            results["ok"] = pool.submit(
                {"kind": "__test__", "mode": "sleep", "seconds": 1.2})

        def doomed():
            try:
                pool.submit({"kind": "__test__", "mode": "hang"}, timeout=0.4)
            except WorkerKilled as exc:
                results["killed"] = exc

        try:
            threads = [threading.Thread(target=slow_ok),
                       threading.Thread(target=doomed)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert results["ok"]["ok"] is True  # unharmed by the SIGKILL
            assert results["killed"].kill_class == "timeout"
        finally:
            pool.close()

    def test_killed_slot_respawns(self, tmp_path):
        pool = make_pool(tmp_path)
        try:
            with pytest.raises(WorkerKilled):
                pool.submit({"kind": "__test__", "mode": "hang"}, timeout=0.4)
            # the replacement worker serves the next request
            response = pool.submit({"kind": "__test__", "mode": "ok"},
                                   timeout=10.0)
            assert response["ok"]
            assert pool.stats()["worker_restarts"] >= 1
        finally:
            pool.close()


class TestDegradation:
    def test_zero_workers_degrades_and_reports(self, tmp_path):
        events = []

        class Sink:
            def event(self, kind, **fields):
                events.append((kind, fields))

        pool = WorkerPool(ServeConfig(workers=0, allow_test_ops=True),
                          telemetry=Sink())
        pool.start()
        try:
            assert pool.degraded
            response = pool.submit({"kind": "__test__", "mode": "ok"})
            assert response["ok"]
            assert response["supervised"] is False
            assert any(kind == "serve_degraded" for kind, _ in events)
        finally:
            pool.close()

    def test_degraded_pool_still_serves_runs(self, tmp_path, spin_bytes):
        pool = WorkerPool(ServeConfig(workers=0,
                                      cache_dir=str(tmp_path / "c")))
        pool.start()
        try:
            response = pool.submit({"kind": "run", "module": spin_bytes,
                                    "entry": "spin", "args": [10]})
            assert response["results"] == [45]
            assert response["supervised"] is False
        finally:
            pool.close()


class TestWarmStart:
    """A ``warm`` run is a plain run of a module the worker had already
    loaded; every run, warm or not, gets a fresh instance."""

    def test_second_uninstrumented_run_is_warm(self, tmp_path, spin_bytes):
        pool = make_pool(tmp_path)
        request = {"kind": "run", "module": spin_bytes, "entry": "spin",
                   "args": [7]}
        try:
            assert pool.submit(dict(request))["warm"] is False
            warm = pool.submit(dict(request))
            assert warm["warm"] is True
            assert warm["results"] == [21]
            assert pool.stats()["warm_hits"] == 1
        finally:
            pool.close()

    def test_other_limits_reuse_the_loaded_module(self, tmp_path, spin_bytes):
        pool = make_pool(tmp_path)
        request = {"kind": "run", "module": spin_bytes, "entry": "spin",
                   "args": [7]}
        try:
            first = pool.submit(dict(request, limits={"fuel": 1_000_000}))
            assert first["warm"] is False
            second = pool.submit(dict(request, limits={"fuel": 2_000_000}))
            assert second["warm"] is True
            assert second["results"] == [21]
        finally:
            pool.close()

    def test_no_state_survives_a_request(self, tmp_path):
        """``main`` reads a mutable global and memory, then bumps both;
        ``bump_then_trap`` bumps both and traps. Each ``main`` through
        the one worker reads the initial 7 + 5."""
        raw = encode_module(parse_wat(STATE_WAT))
        pool = make_pool(tmp_path)
        try:
            responses = [pool.submit({"kind": "run", "module": raw,
                                      "entry": entry})
                         for entry in ("main", "bump_then_trap", "main",
                                       "main")]
        finally:
            pool.close()
        assert len({response["pid"] for response in responses}) == 1
        assert responses[1]["error"]["type"] == "Trap"
        assert [responses[i]["results"] for i in (0, 2, 3)] == [[12]] * 3

    def test_analysis_runs_never_warm_start(self, tmp_path, spin_bytes):
        pool = make_pool(tmp_path)
        request = {"kind": "run", "module": spin_bytes, "entry": "spin",
                   "args": [7], "analysis": "mix"}
        try:
            for _ in range(2):
                response = pool.submit(dict(request))
                assert response["warm"] is False
                assert "instruction mix" in response["analysis_report"]
        finally:
            pool.close()


class TestLoadAtServe:
    """The worker loads (decodes and validates) before running or
    instrumenting, through the code ``repro run`` uses."""

    @pytest.mark.parametrize("name", sorted(INVALID_WATS))
    def test_invalid_module_answers_status_5(self, name):
        raw = encode_module(parse_wat(INVALID_WATS[name]))
        handler = RequestHandler()
        for request in ({"kind": "run", "module": raw, "entry": "bad"},
                        {"kind": "run", "module": raw, "entry": "bad",
                         "analysis": "mix"},
                        {"kind": "instrument", "module": raw}):
            response = handler.handle(request)
            assert response["ok"] is False
            assert response["status"] == EXIT_MALFORMED
            assert response["error"]["type"] == "ValidationError"

    def test_run_request_leaves_the_cli_unimported(self, spin_bytes):
        script = ("import sys\n"
                  "from repro.serve.worker import RequestHandler\n"
                  "response = RequestHandler().handle({'kind': 'run',\n"
                  "    'module': bytes.fromhex(sys.argv[1]),\n"
                  "    'entry': 'spin', 'args': [10], 'analysis': 'mix'})\n"
                  "assert response['ok'], response\n"
                  "print('repro.cli' in sys.modules)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-c", script, spin_bytes.hex()],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"


class TestServiceBundles:
    def test_kill_writes_replayable_service_bundle(self, tmp_path):
        from pathlib import Path
        hang = encode_module(parse_wat(HANG_WAT))
        pool = make_pool(tmp_path, allow_test_ops=False)
        try:
            with pytest.raises(WorkerKilled) as info:
                pool.submit({"kind": "run", "module": hang,
                             "entry": "forever", "args": []}, timeout=0.4)
        finally:
            pool.close()
        bundle = info.value.bundle
        assert bundle is not None
        manifest = json.loads(
            (Path(bundle) / "manifest.json").read_text())
        assert manifest["kind"] == "service"
        assert manifest["error"]["kill_class"] == "timeout"
        assert manifest["service"]["request_timeout"] == pytest.approx(0.4)
        assert "module" not in manifest["service"]["request"]
        # `repro bundle` renders it, `repro replay` reproduces the kill
        assert main(["bundle", bundle]) == 0
        assert main(["replay", bundle]) == 0


class TestDaemonAndClient:
    @pytest.fixture
    def served(self, tmp_path):
        pool = make_pool(tmp_path, workers=2)
        socket_path = tmp_path / "serve.sock"
        daemon = ServeDaemon(socket_path, pool).start()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        yield ServeClient(socket_path, retries=1, retry_delay=0.05)
        daemon.stop()
        thread.join(timeout=10.0)

    def test_ping_run_stats(self, served, spin_bytes):
        assert served.ping()["ok"]
        response = served.run(spin_bytes, "spin", [100])
        assert response["ok"]
        assert response["results"] == [4950]
        stats = served.stats()
        assert stats["ok"] and stats["stats"]["requests_total"] >= 2

    def test_kill_maps_to_status_8_over_the_wire(self, served):
        response = served.request({"kind": "__test__", "mode": "hang",
                                   "request_timeout": 0.4})
        assert response["ok"] is False
        assert response["status"] == 8
        assert response["error"]["kill_class"] == "timeout"

    def test_instrument_via_daemon_hits_cache(self, served, spin_bytes):
        cold = served.instrument(spin_bytes, ["call"])
        assert cold["ok"] and cold["cache_hit"] is False
        warm = served.instrument(spin_bytes, ["call"])
        assert warm["ok"] and warm["cache_hit"] is True
        assert warm["module"] == cold["module"]

    def test_malformed_line_gets_structured_error(self, served, tmp_path):
        import socket as socketlib
        with socketlib.socket(socketlib.AF_UNIX,
                              socketlib.SOCK_STREAM) as conn:
            conn.connect(str(tmp_path / "serve.sock"))
            conn.sendall(b"this is not a wire message\n")
            with conn.makefile("rb") as reader:
                response = wire.loads(reader.readline())
        assert response["ok"] is False and response["status"] == 2

    def test_shutdown_then_unreachable(self, served):
        assert served.shutdown_daemon()["ok"]
        time.sleep(0.3)
        with pytest.raises(ServiceUnavailable):
            served.ping()

    def test_unreachable_socket_raises_service_unavailable(self, tmp_path):
        client = ServeClient(tmp_path / "nowhere.sock", retries=1,
                             retry_delay=0.01)
        with pytest.raises(ServiceUnavailable, match="cannot reach"):
            client.ping()


class TestSocketOwnership:
    """Stale-socket reclamation vs live-daemon protection at start()."""

    def test_stale_socket_is_reclaimed(self, tmp_path):
        import socket as socketlib
        path = tmp_path / "serve.sock"
        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()  # file remains, nothing accepts: a killed daemon
        assert path.exists()
        pool = make_pool(tmp_path, workers=0)
        daemon = ServeDaemon(path, pool).start()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            assert ServeClient(path, retries=1, retry_delay=0.05).ping()["ok"]
        finally:
            daemon.stop()
            thread.join(timeout=10.0)
            pool.close()

    def test_live_socket_is_protected(self, tmp_path):
        from repro.wasm import ServiceError
        path = tmp_path / "serve.sock"
        pool = make_pool(tmp_path, workers=0)
        daemon = ServeDaemon(path, pool).start()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        pool2 = make_pool(tmp_path, workers=0)
        try:
            with pytest.raises(ServiceError, match="already serving"):
                ServeDaemon(path, pool2).start()
            # the usurper must not have unlinked the live daemon's socket
            assert ServeClient(path, retries=1, retry_delay=0.05).ping()["ok"]
        finally:
            daemon.stop()
            thread.join(timeout=10.0)
            pool.close()
            pool2.close()

    def test_non_socket_file_is_never_deleted(self, tmp_path):
        from repro.wasm import ServiceError
        path = tmp_path / "serve.sock"
        path.write_text("precious data, not a socket\n")
        pool = make_pool(tmp_path, workers=0)
        try:
            with pytest.raises(ServiceError, match="not a socket"):
                ServeDaemon(path, pool).start()
            assert path.read_text() == "precious data, not a socket\n"
        finally:
            pool.close()


class TestServeCLI:
    """`repro run/instrument --serve` against a live daemon."""

    @pytest.fixture
    def served(self, tmp_path):
        pool = make_pool(tmp_path, workers=1)
        socket_path = tmp_path / "serve.sock"
        daemon = ServeDaemon(socket_path, pool).start()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        yield str(socket_path)
        daemon.stop()
        thread.join(timeout=10.0)

    @pytest.fixture
    def spin_file(self, tmp_path, spin_bytes):
        path = tmp_path / "spin.wasm"
        path.write_bytes(spin_bytes)
        return path

    def test_run_via_serve(self, served, spin_file, capsys):
        assert main(["run", str(spin_file), "spin", "100",
                     "--serve", served]) == 0
        assert "spin(100) = [4950]" in capsys.readouterr().out

    def test_run_kill_exits_8(self, served, tmp_path, capsys):
        hang = tmp_path / "hang.wasm"
        hang.write_bytes(encode_module(parse_wat(HANG_WAT)))
        assert main(["run", str(hang), "forever", "--serve", served,
                     "--serve-timeout", "0.4"]) == EXIT_WORKER_KILLED
        err = capsys.readouterr().err
        assert "killed: timeout" in err and "crash bundle" in err

    def test_breaker_exits_9(self, served, tmp_path, capsys):
        hang = tmp_path / "hang.wasm"
        hang.write_bytes(encode_module(parse_wat(HANG_WAT)))
        for _ in range(2):
            assert main(["run", str(hang), "forever", "--serve", served,
                         "--serve-timeout", "0.4"]) == EXIT_WORKER_KILLED
        assert main(["run", str(hang), "forever", "--serve", served,
                     "--serve-timeout", "0.4"]) == EXIT_BREAKER_OPEN
        assert "quarantined" in capsys.readouterr().err

    def test_instrument_via_serve(self, served, spin_file, tmp_path, capsys):
        out = tmp_path / "out.wasm"
        assert main(["instrument", str(spin_file), "-o", str(out),
                     "--serve", served]) == 0
        assert "service: worker" in capsys.readouterr().out
        assert main(["instrument", str(spin_file), "-o", str(out),
                     "--serve", served]) == 0
        assert "service: cache" in capsys.readouterr().out
        from repro.wasm import decode_module
        decode_module(out.read_bytes())  # the served artifact is a module

    def test_serve_unavailable_exits_1(self, tmp_path, spin_file, capsys):
        assert main(["run", str(spin_file), "spin", "1",
                     "--serve", str(tmp_path / "gone.sock")]) == 1
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["graceful_exit", "fuel", "verbose"])
    def test_served_run_prints_what_the_local_run_prints(
            self, served, spin_file, tmp_path, capsys, case):
        """One renderer: the same lines locally and with ``--serve``,
        apart from the served-only pid line under ``-v``."""
        if case == "graceful_exit":
            path = tmp_path / "exit0.wasm"
            path.write_bytes(encode_module(parse_wat(EXIT0_WAT)))
            argv = ["run", str(path), "main"]
        elif case == "fuel":
            argv = ["run", str(spin_file), "spin", "100000", "--fuel", "50"]
        else:
            argv = ["run", str(spin_file), "spin", "100", "-v"]
        local_status = main(argv)
        local = capsys.readouterr()
        served_status = main(argv + ["--serve", served])
        remote = capsys.readouterr()
        assert served_status == local_status
        assert remote.out == local.out
        pid_lines = [line for line in remote.err.splitlines()
                     if line.startswith("repro: served by pid ")]
        assert len(pid_lines) == (1 if case == "verbose" else 0)
        assert [line for line in remote.err.splitlines()
                if line not in pid_lines] == local.err.splitlines()
        expected = {"graceful_exit": "main() = proc_exit(0)\n",
                    "fuel": "", "verbose": "spin(100) = [4950]\n"}[case]
        assert local.out == expected

    def test_record_refused_with_serve(self, served, spin_file, tmp_path,
                                       capsys):
        assert main(["run", str(spin_file), "spin", "1", "--serve", served,
                     "--record", str(tmp_path / "b")]) == 2


class TestSupervisedFuzz:
    def test_supervised_campaign_matches_unsupervised(self):
        from repro.eval.fuzz import FuzzConfig, run_fuzz_campaign
        plain = run_fuzz_campaign(FuzzConfig(mutants=120, seed=7))
        supervised = run_fuzz_campaign(
            FuzzConfig(mutants=120, seed=7, supervised=True, parallel=2))
        assert supervised.supervised and not plain.supervised
        assert supervised.mutants == plain.mutants == 120
        assert supervised.signatures == plain.signatures
        assert supervised.rejected_at == plain.rejected_at
        assert supervised.shards_killed == 0

    def test_corpus_reset_is_reported(self, tmp_path, capsys):
        from repro.eval.fuzz import (CORPUS_SCHEMA, CorpusState, FuzzConfig,
                                     run_fuzz_campaign)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "corpus.json").write_text(json.dumps(
            {"schema": CORPUS_SCHEMA, "mutator_version": 999,
             "next_index": 123}))
        state = CorpusState.load(corpus)
        assert "stale mutator version 999" in state.reset_reason
        assert state.next_index == 0
        result = run_fuzz_campaign(FuzzConfig(mutants=20, seed=7,
                                              corpus_dir=str(corpus)))
        assert "stale mutator version 999" in result.corpus_reset
        assert "fuzz corpus reset" in capsys.readouterr().err
        # the fresh campaign re-persisted a current-version corpus
        saved = json.loads((corpus / "corpus.json").read_text())
        assert saved["mutator_version"] != 999

    def test_corpus_reset_emits_telemetry_event(self, tmp_path):
        from repro.eval.fuzz import (FuzzConfig, fold_into_telemetry,
                                     run_fuzz_campaign)
        from repro.obs import Telemetry
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "corpus.json").write_text("{ not json")
        result = run_fuzz_campaign(FuzzConfig(mutants=20, seed=7,
                                              corpus_dir=str(corpus)))
        telemetry = Telemetry()
        fold_into_telemetry(result, telemetry)
        assert any(event.kind == "fuzz_corpus_reset"
                   for event in telemetry.events)

    def test_parallel_workers_ignore_sigint(self):
        # the initializer is what keeps Ctrl-C from nuking shard workers;
        # pin that it is actually installed on the executor
        import inspect

        from repro.eval import fuzz as fuzz_mod
        source = inspect.getsource(fuzz_mod.run_fuzz_campaign)
        assert "initializer=_ignore_sigint" in source
        import signal
        previous = signal.getsignal(signal.SIGINT)
        try:
            fuzz_mod._ignore_sigint()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)
