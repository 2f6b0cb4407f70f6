"""The telemetry subsystem: metrics, spans, profiler, and their wiring.

Covers the observability contract end to end: exporter round-trips
(JSON/Prometheus/JSONL/Chrome-trace), disabled-telemetry differentials
(telemetry must not change observable behaviour on either engine), the
counter-vs-fuel invariant (telemetry charges at exactly the Meter's charge
sites), per-hook latency histograms under an injected clock, structured
fault events, pipeline spans, the self-profiler, and the CLI surface
(``--metrics-out``/``--trace-out``/``--profile``/``-v``/``repro report``).
"""

from __future__ import annotations

import json
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core import Analysis, AnalysisSession
from repro.interp import Linker, Machine, ResourceLimits
from repro.minic import compile_source
from repro.obs import (HOOK_LATENCY_BUCKETS, METRICS_SCHEMA, Histogram,
                       MetricsRegistry, Telemetry, Tracer, measure,
                       parse_prometheus, render_report, spans_from_chrome_trace,
                       spans_from_jsonl, spans_to_chrome_trace, spans_to_jsonl)

ENGINES = [True, False]


def fake_clock(step: float = 1e-3):
    """A deterministic clock advancing ``step`` per reading."""
    ticks = count()
    return lambda: next(ticks) * step


@pytest.fixture
def spin_module():
    return compile_source("""
        export func spin(n: i32) -> i32 {
            var i: i32 = 0;
            var acc: i32 = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
            return acc;
        }
    """, "spin")


@pytest.fixture
def fib_module():
    return compile_source("""
        export func fib(n: i32) -> i32 {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        export func main() -> i32 { return fib(12); }
    """, "fib")


@pytest.fixture
def grow_module():
    return compile_source("""
        memory 1;
        export func grow(delta: i32) -> i32 {
            return memory_grow(delta);
        }
    """, "grow")


# -- metrics primitives --------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x", labels={"a": "b"})

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"k": "v"})
        b = registry.counter("c", labels={"k": "v"})
        assert a is b
        assert registry.counter("c", labels={"k": "other"}) is not a
        assert len(registry.series("c")) == 2

    def test_histogram_buckets_and_stats(self):
        hist = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        assert hist.mean == pytest.approx(55.55 / 4)
        assert hist.quantile(0.25) == 0.1
        assert hist.quantile(1.0) == 10.0  # overflow reports last bound

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.1))

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", help="calls").inc(7)
        registry.gauge("pages", labels={"mem": "0"}).set(3)
        hist = registry.histogram("lat", labels={"hook": "h"},
                                  buckets=HOOK_LATENCY_BUCKETS)
        hist.observe(1e-6)
        hist.observe(5e-3)
        restored = MetricsRegistry.from_dict(registry.as_dict())
        assert restored.as_dict() == registry.as_dict()
        back = restored.get("lat", {"hook": "h"})
        assert back.count == 2 and back.sum == pytest.approx(hist.sum)

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", help="total calls").inc(3)
        registry.gauge("pages").set(2)
        hist = registry.histogram("lat", labels={"hook": "binary_i32_add"},
                                  buckets=(1e-6, 1e-3))
        hist.observe(5e-7)
        hist.observe(5e-4)
        hist.observe(5.0)
        text = registry.to_prometheus()
        assert "# TYPE calls_total counter" in text
        assert "# HELP calls_total total calls" in text
        samples = parse_prometheus(text)
        assert samples["calls_total"] == 3
        assert samples["pages"] == 2
        # cumulative bucket rendering
        assert samples['lat_bucket{hook="binary_i32_add",le="1e-06"}'] == 1
        assert samples['lat_bucket{hook="binary_i32_add",le="0.001"}'] == 2
        assert samples['lat_bucket{hook="binary_i32_add",le="+Inf"}'] == 3
        assert samples['lat_count{hook="binary_i32_add"}'] == 3


# -- spans ---------------------------------------------------------------------


class TestSpans:
    def test_nesting_depth_and_order(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner", k="v"):
                pass
        # completion order: children first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.depth == 1 and outer.depth == 0
        assert inner.attrs == {"k": "v"}
        assert outer.duration == pytest.approx(3e-3)  # 3 clock reads inside

    def test_jsonl_round_trip(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("decode", path="a.wasm"):
            pass
        restored = spans_from_jsonl(spans_to_jsonl(tracer.spans))
        assert [(s.name, s.start, s.duration, s.depth, s.attrs)
                for s in restored] == \
               [(s.name, s.start, s.duration, s.depth, s.attrs)
                for s in tracer.spans]

    def test_chrome_trace_round_trip(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("invoke", export="main"):
            pass
        payload = spans_to_chrome_trace(tracer.spans)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M"  # process metadata
        x = [e for e in events if e["ph"] == "X"]
        assert len(x) == 1
        assert x[0]["name"] == "invoke"
        assert x[0]["dur"] == pytest.approx(1e3)  # 1ms in µs
        assert x[0]["args"] == {"export": "main"}
        restored = spans_from_chrome_trace(payload)
        assert restored[0].name == "invoke"
        assert restored[0].duration == pytest.approx(1e-3)

    def test_measure_is_deterministic_under_fake_clock(self):
        durations = measure(lambda: None, 5, clock=fake_clock(2e-3))
        assert durations == [pytest.approx(2e-3)] * 5


# -- engine counters -----------------------------------------------------------


class TestEngineCounters:
    @pytest.mark.parametrize("predecode", ENGINES)
    def test_counts_calls_and_branches(self, spin_module, predecode):
        tele = Telemetry()
        machine = Machine(predecode=predecode, telemetry=tele)
        machine.instantiate(spin_module, Linker()).invoke("spin", [10])
        assert tele.n_calls == 1
        # one taken back-edge per iteration, plus the loop-exit branch
        assert tele.n_branches == 11
        assert tele.n_traps == 0

    def test_engines_agree_on_counters(self, fib_module):
        counts = []
        for predecode in ENGINES:
            tele = Telemetry()
            machine = Machine(predecode=predecode, telemetry=tele)
            machine.instantiate(fib_module, Linker()).invoke("main", [])
            counts.append((tele.n_calls, tele.n_branches, tele.n_host_calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("predecode", ENGINES)
    def test_memory_grow_counted(self, grow_module, predecode):
        tele = Telemetry()
        machine = Machine(predecode=predecode, telemetry=tele)
        instance = machine.instantiate(grow_module, Linker())
        instance.invoke("grow", [2])
        instance.invoke("grow", [1])
        assert tele.n_mem_grow == 2
        assert tele.mem_pages == 4  # 1 initial + 2 + 1

    @pytest.mark.parametrize("predecode", ENGINES)
    def test_trap_counted_once(self, predecode):
        module = compile_source("""
            memory 1;
            export func boom() -> i32 { return mem_i32[70000]; }
            export func indirect_boom() -> i32 { return boom(); }
        """, "trap")
        from repro.wasm.errors import Trap
        tele = Telemetry()
        machine = Machine(predecode=predecode, telemetry=tele)
        instance = machine.instantiate(module, Linker())
        with pytest.raises(Trap):
            instance.invoke("indirect_boom", [])
        # one trap, even though it unwound through two frames
        assert tele.n_traps == 1

    @pytest.mark.parametrize("predecode", ENGINES)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuel=st.integers(min_value=1, max_value=2000),
           arg=st.integers(min_value=0, max_value=500))
    def test_counters_match_fuel_charges(self, spin_module, predecode,
                                         fuel, arg):
        """Hypothesis: telemetry charges at exactly the Meter's charge
        sites, so calls + branches == fuel spent — with any budget, on
        either engine, whether or not the run exhausts."""
        from repro.wasm.errors import FuelExhausted
        tele = Telemetry()
        machine = Machine(predecode=predecode, telemetry=tele,
                          limits=ResourceLimits(fuel=fuel))
        instance = machine.instantiate(spin_module, Linker())
        try:
            instance.invoke("spin", [arg])
        except FuelExhausted:
            pass
        assert tele.n_calls + tele.n_branches == \
            machine.resource_usage().fuel_spent


class TestDisabledTelemetryDifferential:
    @pytest.mark.parametrize("predecode", ENGINES)
    def test_results_identical_with_and_without_telemetry(
            self, spin_module, fib_module, predecode):
        for module, entry, args in ((spin_module, "spin", [123]),
                                    (fib_module, "main", [])):
            plain = Machine(predecode=predecode).instantiate(
                module, Linker()).invoke(entry, args)
            tele = Machine(predecode=predecode,
                           telemetry=Telemetry()).instantiate(
                module, Linker()).invoke(entry, args)
            assert plain == tele

    def test_profiled_results_identical(self, fib_module):
        plain = Machine(predecode=True).instantiate(
            fib_module, Linker()).invoke("main", [])
        profiled = Machine(predecode=True,
                           telemetry=Telemetry(profile=True)).instantiate(
            fib_module, Linker()).invoke("main", [])
        assert plain == profiled

    def test_instruction_counts_identical_across_engines(self, fib_module):
        """The profiler's dynamic instruction count is an engine-independent
        property of the guest execution: counter totals (and profiled
        results) must not depend on telemetry being attached elsewhere."""
        runs = []
        for _ in range(2):
            tele = Telemetry(profile=True)
            machine = Machine(predecode=True, telemetry=tele)
            machine.instantiate(fib_module, Linker()).invoke("main", [])
            runs.append((tele.profiler.total_instructions,
                         dict(tele.profiler.func_counts)))
        assert runs[0] == runs[1]


# -- the self-profiler ---------------------------------------------------------


class TestProfiler:
    def test_hot_function_ranking(self, fib_module):
        tele = Telemetry(profile=True, sample_interval=50)
        machine = Machine(predecode=True, telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        profiler = tele.profiler
        assert profiler.total_instructions > 0
        (top_name, top_count, top_share), *_ = profiler.hot_functions()
        assert top_name == "fib"
        assert top_share > 0.9
        names = [name for name, _, _ in profiler.hot_opcodes()]
        assert "get_local" in names

    def test_collapsed_stack_format(self, fib_module):
        tele = Telemetry(profile=True, sample_interval=25)
        machine = Machine(predecode=True, telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        collapsed = tele.profiler.collapsed_stacks()
        assert collapsed
        for line in collapsed.strip().splitlines():
            stack, _, weight = line.rpartition(" ")
            assert int(weight) >= 1
            assert stack.split(";")[0] == "main"

    def test_profiles_identical_across_engines(self, fib_module):
        """The profiler counts on the legacy loop on either engine, so the
        whole profile — sampled stacks included — is engine-independent."""
        profiles = []
        for predecode in ENGINES:
            tele = Telemetry(profile=True, sample_interval=25)
            machine = Machine(predecode=predecode, telemetry=tele)
            machine.instantiate(fib_module, Linker()).invoke("main", [])
            profiles.append(tele.profiler.as_dict())
        assert profiles[0]["total_instructions"] > 0
        assert profiles[0] == profiles[1]

    def test_profiler_with_instrumented_module(self, fib_module):
        """Profiled execution handles OP_HOOK sites (instrumented runs)."""
        class Counting(Analysis):
            def __init__(self):
                self.calls = 0

            def call_pre(self, location, target, args, table_index):
                self.calls += 1

        tele = Telemetry(profile=True)
        analysis = Counting()
        session = AnalysisSession(fib_module, analysis, telemetry=tele,
                                  machine=Machine(predecode=True))
        result = session.invoke("main", [])
        assert result == [144]
        assert analysis.calls > 0
        assert tele.profiler.total_instructions > 0

    def test_attach_telemetry_idempotent_and_exclusive(self, fib_module):
        tele = Telemetry()
        machine = Machine(telemetry=tele)
        machine.attach_telemetry(tele)  # same sink: no-op
        with pytest.raises(ValueError, match="different telemetry"):
            machine.attach_telemetry(Telemetry())


# -- hook latency & fault events ----------------------------------------------


class _Raising(Analysis):
    def binary(self, location, op, first, second, result):
        raise ZeroDivisionError("hook boom")


class TestRuntimeTelemetry:
    def test_hook_latency_histograms(self, fib_module):
        class CountingMix(Analysis):
            def __init__(self):
                self.events = 0

            def binary(self, location, op, first, second, result):
                self.events += 1

        tele = Telemetry(clock=fake_clock())
        analysis = CountingMix()
        session = AnalysisSession(fib_module, analysis, telemetry=tele)
        session.invoke("main", [])
        assert analysis.events > 0
        series = tele.registry.series("repro_hook_latency_seconds")
        assert series, "per-hook latency histograms must exist"
        assert all(dict(h.labels)["hook"].startswith("binary_")
                   for h in series)
        total = sum(h.count for h in series)
        assert total == analysis.events
        # the fake clock advances 1ms per reading: every dispatch is ~1ms
        for hist in series:
            assert hist.sum == pytest.approx(hist.count * 1e-3)

    @pytest.mark.parametrize("policy", ["log", "quarantine"])
    def test_fault_events_routed_through_telemetry(self, fib_module, policy,
                                                   capsys):
        tele = Telemetry()
        session = AnalysisSession(fib_module, _Raising(), telemetry=tele,
                                  on_analysis_error=policy)
        session.invoke("main", [])
        faults = [e for e in tele.events if e.kind == "hook_fault"]
        assert faults
        first = faults[0]
        assert first.fields["exception"] == "ZeroDivisionError"
        assert first.fields["hook"].startswith("binary_")
        assert first.fields["policy"] == policy
        assert first.fields["func"] is not None
        if policy == "quarantine":
            assert any(e.kind == "hook_quarantined" for e in tele.events)
        # the event log replaces stderr printing
        assert "contained" not in capsys.readouterr().err
        assert session.hook_faults  # the fault record itself is unchanged

    def test_stderr_printing_without_telemetry(self, fib_module, capsys):
        session = AnalysisSession(fib_module, _Raising(),
                                  on_analysis_error="log")
        session.invoke("main", [])
        assert "contained" in capsys.readouterr().err


# -- the telemetry façade ------------------------------------------------------


class TestTelemetryFacade:
    def test_session_pipeline_spans(self, fib_module):
        tele = Telemetry()
        session = AnalysisSession(fib_module, Analysis(), telemetry=tele)
        session.invoke("main", [])
        names = [s.name for s in tele.tracer.spans]
        assert names == ["instrument", "instantiate", "invoke"]
        invoke = tele.tracer.spans[-1]
        assert invoke.attrs == {"export": "main"}

    def test_snapshot_idempotent(self, fib_module):
        tele = Telemetry()
        machine = Machine(telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        first = tele.snapshot().as_dict()
        second = tele.snapshot().as_dict()
        assert first == second  # spans folded once, counters set not inc'd
        stage = tele.registry.series("repro_stage_seconds")
        assert sum(h.count for h in stage) == len(tele.tracer.spans)

    def test_metrics_payload_schema(self, fib_module):
        tele = Telemetry(profile=True)
        machine = Machine(predecode=True, telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        payload = tele.metrics_payload(machine.resource_usage())
        assert payload["schema"] == METRICS_SCHEMA
        counters = {c["name"]: c["value"]
                    for c in payload["metrics"]["counters"]}
        assert counters["repro_calls_total"] == tele.n_calls
        assert payload["profile"]["total_instructions"] > 0
        # the payload is a faithful registry round-trip
        assert MetricsRegistry.from_dict(payload["metrics"]).as_dict() == \
            payload["metrics"]

    def test_render_report_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            render_report({"schema": "bogus/9"})

    def test_render_report_contents(self, fib_module):
        tele = Telemetry(profile=True)
        machine = Machine(predecode=True, telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        report = render_report(tele.metrics_payload(machine.resource_usage()))
        assert "repro_calls_total" in report
        assert "hot functions" in report
        assert "fib" in report

    def test_render_report_ignores_old_pairs_key(self, fib_module):
        # artifacts from before the pair array was dropped carry a
        # "pairs" list in their profile section; it must not break rendering
        tele = Telemetry(profile=True)
        machine = Machine(predecode=True, telemetry=tele)
        machine.instantiate(fib_module, Linker()).invoke("main", [])
        payload = tele.metrics_payload(machine.resource_usage())
        assert "pairs" not in payload["profile"]
        report = render_report(payload)
        payload["profile"]["pairs"] = [["get_local", "const", 12]]
        assert render_report(payload) == report

    def test_usage_gauges_and_summary(self, spin_module):
        tele = Telemetry()
        machine = Machine(telemetry=tele,
                          limits=ResourceLimits(observe=True))
        machine.instantiate(spin_module, Linker()).invoke("spin", [10])
        usage = machine.resource_usage()
        assert usage.fuel_spent == 12  # 1 call + 11 taken branches
        registry = tele.snapshot(usage)
        assert registry.get("repro_fuel_spent").value == 12
        assert "fuel_spent=12" in usage.summary()


# -- eval harness through the obs API -----------------------------------------


class TestEvalTelemetry:
    def test_overhead_sweep_deterministic_under_fake_clock(self, spin_module):
        from repro.eval.overhead import overhead_sweep
        from repro.eval.workloads import Workload
        workload = Workload(name="spin", group="test",
                            module_fn=lambda: spin_module, entry="spin",
                            args=(50,), needs_print=False)
        tracer = Tracer(clock=fake_clock())
        reports = overhead_sweep(workload, configs=["call"], repeats=2,
                                 include_all=False, clock=fake_clock(),
                                 tracer=tracer)
        (report,) = reports
        # every repeat is exactly one fake-clock step on both sides
        assert report.baseline_seconds == pytest.approx(1e-3)
        assert report.instrumented_seconds == pytest.approx(1e-3)
        assert report.relative_runtime == pytest.approx(1.0)
        names = {s.name for s in tracer.spans}
        assert names == {"baseline_invoke", "instrumented_invoke"}

    def test_time_workload_records_spans(self, spin_module):
        from repro.eval.timing import time_workload
        from repro.eval.workloads import Workload
        workload = Workload(name="spin", group="test",
                            module_fn=lambda: spin_module, entry="spin",
                            args=(10,), needs_print=False)
        tracer = Tracer(clock=fake_clock())
        best = time_workload(workload, repeats=3, tracer=tracer)
        assert best == pytest.approx(1e-3)
        spans = [s for s in tracer.spans if s.name == "workload_invoke"]
        assert len(spans) == 3
        assert spans[0].attrs["workload"] == "spin"

    def test_interp_bench_payload_under_fake_clock(self, spin_module):
        from repro.eval.timing import (bench_interpreter,
                                       interp_bench_payload, opcode_class_mix)
        from repro.eval.workloads import Workload
        workload = Workload(name="spin", group="test",
                            module_fn=lambda: spin_module, entry="spin",
                            args=(10,), needs_print=False)
        tracer = Tracer(clock=fake_clock())
        reports = bench_interpreter([workload], repeats=2, clock=fake_clock(),
                                    tracer=tracer)
        payload = interp_bench_payload(reports)
        (row,) = payload["workloads"]
        # one column per engine; the speedup is legacy over predecoded
        assert set(row) == {"name", "legacy_seconds", "predecoded_seconds",
                            "speedup", "opcode_classes", "repeats"}
        assert row["legacy_seconds"] == pytest.approx(1e-3)
        assert row["predecoded_seconds"] == pytest.approx(1e-3)
        assert row["speedup"] == pytest.approx(1.0)
        assert payload["geomean_speedup"] == pytest.approx(1.0)
        assert {s.attrs["engine"] for s in tracer.spans
                if s.name == "workload_invoke"} == {"legacy", "predecode"}
        # the opcode-class mix of one profiled run: shares of every executed
        # instruction, largest first
        mix = row["opcode_classes"]
        assert mix == opcode_class_mix(workload)
        assert sum(mix.values()) == pytest.approx(1.0)
        shares = list(mix.values())
        assert shares == sorted(shares, reverse=True)


# -- CLI surface ---------------------------------------------------------------


@pytest.fixture
def fib_wasm(tmp_path, fib_module):
    from repro.wasm import encode_module
    path = tmp_path / "fib.wasm"
    path.write_bytes(encode_module(fib_module))
    return path


class TestCli:
    def test_run_verbose_reports_usage(self, fib_wasm, capsys):
        assert main(["run", str(fib_wasm), "main", "-v"]) == 0
        err = capsys.readouterr().err
        assert "resource usage:" in err
        assert "fuel_spent=" in err
        assert "peak_depth=" in err

    def test_run_writes_metrics_and_trace(self, fib_wasm, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(["run", str(fib_wasm), "main", "--profile",
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["profile"]["total_instructions"] > 0
        chrome = json.loads(trace.read_text())
        assert chrome["displayTimeUnit"] == "ms"
        names = [e["name"] for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert names == ["decode", "instantiate", "invoke"]
        # capsys drained so artifact notices don't leak into other tests
        assert "metrics written" in capsys.readouterr().err

    def test_run_prometheus_and_jsonl_formats(self, fib_wasm, tmp_path,
                                              capsys):
        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "t.jsonl"
        assert main(["run", str(fib_wasm), "main", "--analysis", "mix",
                     "--metrics-out", str(prom),
                     "--trace-out", str(jsonl)]) == 0
        capsys.readouterr()
        samples = parse_prometheus(prom.read_text())
        assert samples["repro_calls_total"] > 0
        assert any(name.startswith("repro_hook_latency_seconds_bucket")
                   for name in samples)
        spans = spans_from_jsonl(jsonl.read_text())
        assert [s.name for s in spans] == \
            ["decode", "instrument", "instantiate", "invoke"]

    def test_report_renders_metrics_artifact(self, fib_wasm, tmp_path,
                                             capsys):
        metrics = tmp_path / "m.json"
        assert main(["run", str(fib_wasm), "main", "--profile",
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "hot functions" in out

    def test_report_rejects_non_artifact(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        assert main(["report", str(bogus)]) == 1
        assert "not a repro metrics artifact" in capsys.readouterr().err

    def test_instrument_telemetry_spans(self, fib_wasm, tmp_path, capsys):
        out_wasm = tmp_path / "out.wasm"
        trace = tmp_path / "t.jsonl"
        assert main(["instrument", str(fib_wasm), "-o", str(out_wasm),
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert [s.name for s in spans_from_jsonl(trace.read_text())] == \
            ["decode", "instrument", "encode"]

    def test_fuzz_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "fuzz.json"
        assert main(["fuzz", "--mutants", "20", "--no-execute",
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        counters = {c["name"] for c in payload["metrics"]["counters"]}
        assert "repro_fuzz_escapes_total" in counters
