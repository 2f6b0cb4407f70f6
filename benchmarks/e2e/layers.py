"""Per-layer numbers from a traced run: self times, layer metrics, Perfetto.

Each op of a traced run carries its spans: the benchmark's ``op`` span,
the bench spans around public calls, the program's own spans, and (for
serve) the stitched client/daemon/worker spans. Spans nest by time
containment within an op, which holds across processes because every
process reads the same monotonic clock. A span's *self time* is its
duration minus the part of it its children cover; the self times of one
op's spans add up to the op's wall time.

Times are scaled by each op's host-speed factor ``f`` (see
``hostspeed.py``). Hook dispatch and WASI host calls arrive as per-op
histogram sums, and the fuzz probes as per-op totals. They become
synthetic ``aggregate`` child spans: hooks and WASI inside ``invoke``, the
probed fuzz stages inside the op, laid end to end from the parent's start.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.obs.spans import Span, spans_to_chrome_trace

#: Layer of each span name; worker-process spans get ``serve.worker.``
#: (or ``serve.cache.``) names of their own.
LAYERS = {
    "decode": "wasm.decode", "validate": "wasm.validate",
    "encode": "wasm.encode", "instrument": "core.instrument",
    "hooks": "core.hooks", "instantiate": "interp.instantiate",
    "invoke": "interp.invoke", "wasi": "wasi",
    "serve_request": "serve.client", "serve_op": "serve.daemon",
    "queue_wait": "serve.pool.queue_wait",
    "supervised_execute": "serve.pool.execute",
}
#: Layer of the op span's own self time: the benchmark glue, the CLI
#: (argument parsing, report printing, telemetry artifacts), or the fuzz
#: harness (mutation, classification, corpus bookkeeping).
OP_LAYER = {"instrument": "bench", "execute": "cli", "analyze": "cli",
            "serve": "bench", "fuzz": "eval.fuzz"}
FUZZ_STAGES = ("decode", "validate", "instrument", "encode", "instantiate",
               "invoke")
#: Per-op counters that hold seconds (scaled to nominal-host time).
TIME_KEYS = frozenset({"hook_s", "wasi_s"})

#: Every per-layer metric a traced run reports, with its unit. Times,
#: bytes and counts are per op (per mutant on fuzz); fuzz outcomes are
#: exact counts over the run with ``fuzz.mutants`` as their base.
PER_LAYER = (
    ("wasm.decode_s", "s/op"), ("wasm.decode_mb", "MB/op"),
    ("wasm.validate_s", "s/op"),
    ("core.instrument_s", "s/op"), ("core.hooks_inserted", "1/op"),
    ("wasm.encode_s", "s/op"), ("wasm.encode_mb", "MB/op"),
    ("core.code_growth", "ratio"),
    ("interp.instantiate_s", "s/op"), ("interp.invoke_s", "s/op"),
    ("interp.invoke_self_s", "s/op"),
    ("interp.calls", "1/op"), ("interp.branches", "1/op"),
    ("core.hook_calls", "1/op"), ("core.hook_s", "s/op"),
    ("wasi.syscalls", "1/op"), ("wasi.syscall_s", "s/op"),
    ("serve.client.request_s", "s/op"), ("serve.wire_s", "s/op"),
    ("serve.daemon.op_s", "s/op"), ("serve.pool.queue_wait_s", "s/op"),
    ("serve.pool.execute_s", "s/op"), ("serve.worker.decode_s", "s/op"),
    ("serve.worker.instantiate_s", "s/op"),
    ("serve.worker.warm_restore_s", "s/op"), ("serve.worker.invoke_s", "s/op"),
    ("serve.worker.instrument_s", "s/op"), ("serve.cache.lookup_s", "s/op"),
    ("serve.warm_hit_ratio", "ratio"), ("serve.warm_runs", "count"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.cache_lookups", "count"),
    ("serve.worker_restarts", "count"), ("serve.kills", "count"),
    ("fuzz.mutants", "count"), ("fuzz.rejected_decode", "count"),
    ("fuzz.rejected_validate", "count"), ("fuzz.rejected_execute", "count"),
    ("fuzz.survived", "count"), ("fuzz.survival_ratio", "ratio"),
    ("fuzz.signatures", "count"), ("fuzz.escapes", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.unattributed_share", "ratio"),
)


def layer_of(span: dict, workload: str) -> str:
    name = span["name"]
    if name == "op":
        return OP_LAYER[workload]
    if span.get("process") == "worker":
        if name == "worker_handle":
            return "serve.worker"
        if name.startswith("cache_"):
            return "serve.cache." + name[len("cache_"):]
        return f"serve.worker.{name}"
    return LAYERS.get(name, name)


def _aggregate(name: str, start: float, duration: float, count: int) -> dict:
    return {"name": name, "start": start, "duration": duration,
            "attrs": {"aggregate": True, "count": count}}


def op_spans(record: dict) -> list[dict]:
    """The record's spans plus its synthetic aggregate children."""
    spans = list(record.get("spans", ()))
    agg = record.get("agg", {})
    invoke = next((s for s in spans if s["name"] == "invoke"
                   and s.get("process") != "worker"), None)
    if invoke is not None:
        cursor = invoke["start"]
        room = invoke["duration"]
        for kind, name in (("hook", "hooks"), ("wasi", "wasi")):
            seconds = min(agg.get(f"{kind}_s", 0.0), room)
            if seconds > 0:
                spans.append(_aggregate(name, cursor, seconds,
                                        agg.get(f"{kind}_calls", 0)))
                cursor += seconds
                room -= seconds
    probe = record.get("probe")
    if probe:
        op = next(s for s in spans if s["name"] == "op")
        cursor = op["start"]
        for stage in FUZZ_STAGES:
            calls, seconds, _ = probe.get(stage, (0, 0.0, 0))
            if seconds > 0:
                spans.append(_aggregate(stage, cursor, seconds, calls))
                cursor += seconds
    return spans


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """``(span, self seconds)`` for every span, nesting by containment."""
    order = sorted(spans, key=lambda s: (s["start"], -s["duration"]))
    children: dict[int, list[dict]] = defaultdict(list)
    stack: list[dict] = []
    for span in order:
        end = span["start"] + span["duration"]
        while stack and stack[-1]["start"] + stack[-1]["duration"] < end - 1e-9:
            stack.pop()
        if stack:
            children[id(stack[-1])].append(span)
        stack.append(span)
    out = []
    for span in order:
        covered, reach = 0.0, span["start"]
        for child in children[id(span)]:
            begin = max(child["start"], reach)
            finish = child["start"] + child["duration"]
            if finish > begin:
                covered += finish - begin
                reach = finish
        out.append((span, max(0.0, span["duration"] - covered)))
    return out


def layer_table(workload: str, records: list[dict]) -> dict:
    """Self seconds per layer: per op and as a share of all op wall time."""
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    for record in records:
        f = record.get("f", 1.0)
        for span, seconds in self_times(op_spans(record)):
            totals[layer_of(span, workload)] += seconds * f
            if span["name"] == "op":
                wall += span["duration"] * f
    ops = sum(record["n"] for record in records) or 1
    return {layer: {"self_s_per_op": seconds / ops,
                    "share": seconds / wall if wall else 0.0}
            for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1])}


def per_layer(workload: str, records: list[dict], untraced_ops_per_s: float,
              traced_ops_per_s: float, serve_stats: dict | None,
              warmup_plain_runs: int) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers a workload does not use read 0."""
    n = sum(record["n"] for record in records) or 1
    inclusive: dict[str, float] = defaultdict(float)
    agg: dict[str, float] = defaultdict(float)
    wire = 0.0
    for record in records:
        f = record.get("f", 1.0)
        by_name: dict[str, float] = defaultdict(float)
        for span in record.get("spans", ()):
            prefix = "worker." if span.get("process") == "worker" else ""
            by_name[prefix + span["name"]] += span["duration"] * f
        for name, seconds in by_name.items():
            inclusive[name] += seconds
        if "serve_op" in by_name:
            wire += by_name["serve_request"] - by_name["serve_op"]
        for key, value in record.get("agg", {}).items():
            agg[key] += value * f if key in TIME_KEYS else value
        for stage, (calls, seconds, nbytes) in record.get("probe", {}).items():
            inclusive[stage] += seconds * f
            agg[f"{stage}_bytes"] += nbytes
    decode_bytes = agg["module_bytes"] + agg["decode_bytes"]
    if workload == "instrument":
        decode_bytes = agg["in_bytes"]
    invoke = inclusive["invoke"]
    values = {
        "wasm.decode_s": inclusive["decode"] / n,
        "wasm.decode_mb": decode_bytes / 1e6 / n,
        "wasm.validate_s": inclusive["validate"] / n,
        "core.instrument_s": inclusive["instrument"] / n,
        "core.hooks_inserted": agg["hooks_inserted"] / n,
        "wasm.encode_s": inclusive["encode"] / n,
        "wasm.encode_mb": (agg["out_bytes"] + agg["encode_bytes"]) / 1e6 / n,
        "core.code_growth": agg["out_bytes"] / agg["in_bytes"]
        if workload == "instrument" and agg["in_bytes"] else 0.0,
        "interp.instantiate_s": inclusive["instantiate"] / n,
        "interp.invoke_s": invoke / n,
        "interp.invoke_self_s": (invoke - agg["hook_s"] - agg["wasi_s"]) / n,
        "interp.calls": agg["calls"] / n,
        "interp.branches": agg["branches"] / n,
        "core.hook_calls": agg["hook_calls"] / n,
        "core.hook_s": agg["hook_s"] / n,
        "wasi.syscalls": agg["wasi_calls"] / n,
        "wasi.syscall_s": agg["wasi_s"] / n,
        "serve.client.request_s": inclusive["serve_request"] / n,
        "serve.wire_s": wire / n,
        "serve.daemon.op_s": inclusive["serve_op"] / n,
        "serve.pool.queue_wait_s": inclusive["queue_wait"] / n,
        "serve.pool.execute_s": inclusive["supervised_execute"] / n,
        "serve.worker.decode_s": inclusive["worker.decode"] / n,
        "serve.worker.instantiate_s": inclusive["worker.instantiate"] / n,
        "serve.worker.warm_restore_s": inclusive["worker.warm_restore"] / n,
        "serve.worker.invoke_s": inclusive["worker.invoke"] / n,
        "serve.worker.instrument_s": inclusive["worker.instrument"] / n,
        "serve.cache.lookup_s": inclusive["worker.cache_lookup"] / n,
    }
    values.update(_serve_counters(serve_stats, records, warmup_plain_runs))
    values.update(_fuzz_counts(records))
    table = layer_table(workload, records)
    values["trace.overhead_ratio"] = (traced_ops_per_s / untraced_ops_per_s
                                      if untraced_ops_per_s else 0.0)
    values["trace.untraced_ops_per_s"] = untraced_ops_per_s
    values["trace.unattributed_share"] = table.get(
        OP_LAYER[workload], {}).get("share", 0.0)
    return values


def _serve_counters(stats: dict | None, records: list[dict],
                    warmup_plain_runs: int) -> dict[str, float]:
    if stats is None:
        return {"serve.warm_hit_ratio": 0.0, "serve.warm_runs": 0,
                "serve.cache_hit_ratio": 0.0, "serve.cache_lookups": 0,
                "serve.worker_restarts": 0, "serve.kills": 0}
    plain = warmup_plain_runs + sum(1 for r in records if r.get("plain_run"))
    lookups = stats["cache_hits"] + stats["cache_misses"]
    return {
        "serve.warm_hit_ratio": stats["warm_hits"] / plain if plain else 0.0,
        "serve.warm_runs": plain,
        "serve.cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "serve.cache_lookups": lookups,
        "serve.worker_restarts": stats["worker_restarts"],
        "serve.kills": sum(stats["kills"].values()),
    }


def _fuzz_counts(records: list[dict]) -> dict[str, float]:
    rejected: dict[str, int] = defaultdict(int)
    survived = escapes = mutants = 0
    signatures: set[str] = set()
    for record in records:
        fuzz = record.get("fuzz")
        if fuzz is None:
            continue
        mutants += record["n"]
        survived += fuzz["survived"]
        escapes += fuzz["escapes"]
        signatures.update(fuzz["signatures"])
        for stage, count in fuzz["rejected_at"].items():
            rejected[stage] += count
    return {"fuzz.mutants": mutants,
            "fuzz.rejected_decode": rejected["decode"],
            "fuzz.rejected_validate": rejected["validate"],
            "fuzz.rejected_execute": rejected["execute"],
            "fuzz.survived": survived,
            "fuzz.survival_ratio": survived / mutants if mutants else 0.0,
            "fuzz.signatures": len(signatures), "fuzz.escapes": escapes}


def write_trace(workload: str, records: list[dict], directory: Path) -> list[str]:
    """Write the Perfetto trace and the layer table; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    spans = [Span(s["name"], s["start"], s["duration"], s.get("depth", 0),
                  s.get("attrs"), process=s.get("process") or "repro")
             for record in records for s in op_spans(record)]
    perfetto = directory / f"{workload}.perfetto.json"
    perfetto.write_text(json.dumps(spans_to_chrome_trace(spans)) + "\n")
    table = directory / f"{workload}.layers.txt"
    table.write_text(render_layer_table(workload, layer_table(workload, records)))
    return [str(perfetto), str(table)]


def render_layer_table(workload: str, table: dict) -> str:
    lines = [f"{workload}: self time per layer",
             f"  {'layer':<28} {'ms/op':>10} {'share':>8}"]
    for layer, row in table.items():
        lines.append(f"  {layer:<28} {row['self_s_per_op'] * 1e3:>10.4f} "
                     f"{row['share']:>8.2%}")
    return "\n".join(lines) + "\n"
