"""Seeded op lists for the end-to-end benchmark, their inputs and their oracles.

Every workload's op list is a sequence of *blocks*. A block holds a fixed
multiset of ops in a seeded order (on ``instrument``, 16 kernels taken in
turn from a seeded order of all 30, so a run draws every kernel equally
often), and the benchmark always runs whole blocks. Two seeds therefore
differ in op order and in the bytes of the generated inputs (the WASI
stdin and CSV on ``execute``, the campaign seeds on ``fuzz``), but hardly
in the mix of work, so the run-to-run spread of a metric is measurement
noise rather than a different sample of inputs.

:func:`build` writes a workload's input files under a work directory and
returns the blocks (what the child process runs) together with the
expected fingerprint of every op (what the parent checks). Expectations
come from ``expected.json`` (see ``make_expected.py``) or, for the WASI
programs, from the Python reference models in
:mod:`repro.workloads.wasi_io`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.eval.faultinject import seed_corpus
from repro.wasm import encode_module
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, get_kernel, kernel_names
from repro.workloads.wasi_io import (ref_checksum, ref_extract, ref_line_filter,
                                     wasi_io_module)

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
EXPECTED_SCHEMA = "repro.e2e-expected/1"

WORKLOADS = ("instrument", "execute", "analyze", "serve", "fuzz")

#: The seven analyses of ``repro run --analysis`` (Fig. 9's configurations).
ANALYSES = ("mix", "coverage", "cryptominer", "memtrace", "branches", "blocks",
            "callgraph")
#: The analyses whose serve requests re-instrument on every request.
SERVE_ANALYSES = ("blocks", "callgraph", "branches")
#: The large instrument inputs: the two real-world stand-ins at each scale.
SYNTHETIC = (("pdf_toolkit", 1), ("pdf_toolkit", 2), ("pdf_toolkit", 4),
             ("engine_demo", 1), ("engine_demo", 2), ("engine_demo", 4),
             ("engine_demo", 8))
#: PolyBench draws per instrument block: 16 of 23 ops, the 70% share.
INSTRUMENT_POLYBENCH = 16
#: Requests per serve block (200), split 55/20/15/10 over the request kinds.
SERVE_MIX = (("serve_run", 110), ("serve_analysis", 40),
             ("serve_instrument", 30), ("stats", 20))
ZIPF_S = 1.1
#: Mutants per fuzz op: one campaign call of one round.
FUZZ_CHUNK = 500
#: WASI payload size per op.
WASI_BYTES = 32 * 1024
NEEDLE = ord("@")

#: Blocks per op list: the sizes the workloads are specified with (120,
#: 400, 250, 2,400 ops and 50,000 mutants), rounded to whole blocks. A run
#: that needs more blocks than the list holds starts over at block 0.
LIST_BLOCKS = {"instrument": 5, "execute": 12, "analyze": 2, "serve": 12,
               "fuzz": 100}


def block_rng(seed: int, workload: str, block: int) -> random.Random:
    """The RNG of one block; string seeding is stable across processes."""
    return random.Random(f"{seed}:{workload}:{block}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def kernel_binary(name: str, scale: int = 1) -> bytes:
    """A PolyBench kernel at ``scale`` times its default problem size."""
    n = get_kernel(name).default_n * scale
    return encode_module(compile_kernel(name, n))


def kernel_key(name: str, scale: int = 1) -> str:
    return f"{name}@{get_kernel(name).default_n * scale}"


def synthetic_binary(kind: str, scale: int) -> bytes:
    generate = engine_demo if kind == "engine_demo" else pdf_toolkit
    return encode_module(generate(scale))


def zipf_counts(total: int, n: int, s: float = ZIPF_S) -> list[int]:
    """Apportion ``total`` draws over ranks 1..n in Zipf(s) proportion
    (largest remainder, ties to the more popular rank)."""
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    norm = sum(weights)
    shares = [total * w / norm for w in weights]
    counts = [int(share) for share in shares]
    order = sorted(range(n), key=lambda k: (counts[k] - shares[k], k))
    for k in order[:total - sum(counts)]:
        counts[k] += 1
    return counts


def load_expected() -> dict:
    payload = json.loads(EXPECTED_PATH.read_text())
    if payload.get("schema") != EXPECTED_SCHEMA:
        raise ValueError(f"{EXPECTED_PATH}: schema {payload.get('schema')!r}, "
                         f"expected {EXPECTED_SCHEMA!r}")
    return payload


class _Inputs:
    """Writes input files once and hands out their workdir-relative paths."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        (workdir / "inputs").mkdir(parents=True, exist_ok=True)
        self._sizes: dict[str, int] = {}

    def file(self, name: str, make) -> tuple[str, int]:
        rel = f"inputs/{name}"
        if rel not in self._sizes:
            data = make()
            path = self.workdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            self._sizes[rel] = len(data)
        return rel, self._sizes[rel]

    def kernel(self, name: str, scale: int = 1) -> tuple[str, int]:
        return self.file(f"pb-{name}-x{scale}.wasm",
                         lambda: kernel_binary(name, scale))


def _run_op(argv: list[str], module_bytes: int, payload: int = 0) -> dict:
    return {"op": "run", "argv": argv, "bytes": module_bytes + payload,
            "module_bytes": module_bytes}


def _text_lines(rng: random.Random, limit: int) -> bytes:
    """Word lines up to ``limit`` bytes; about a third hold the needle."""
    words = [b"alpha", b"beta", b"gamma", b"delta", b"kappa", b"omega",
             b"s@mple", b"n@de", b"zeta", b"theta"]
    lines, size = [], 0
    while True:
        line = b" ".join(rng.choice(words) for _ in range(rng.randint(2, 9)))
        if size + len(line) + 1 > limit:
            return b"".join(lines)
        lines.append(line + b"\n")
        size += len(line) + 1


def _csv(rng: random.Random, limit: int) -> bytes:
    lines, size = [], 0
    while True:
        line = b"r%d,%d,%s\n" % (len(lines), rng.randrange(1000),
                                 rng.choice([b"x", b"yy", b"zzz"]))
        if size + len(line) > limit:
            return b"".join(lines)
        lines.append(line)
        size += len(line)


def _wasi_ops(inputs: _Inputs, rng: random.Random, block: int):
    """The three WASI programs on fresh seeded payloads, with their
    reference-model stdout as the expectation."""
    out = []
    lf_in = _text_lines(rng, WASI_BYTES)
    ck_in = _text_lines(rng, WASI_BYTES)
    csv = _csv(rng, WASI_BYTES)
    for prog in ("line_filter", "checksum", "extract"):
        wasm, size = inputs.file(f"wasi-{prog}.wasm",
                                 lambda prog=prog: encode_module(wasi_io_module(prog)))
        if prog == "line_filter":
            stdin, _ = inputs.file(f"b{block}-line_filter.txt", lambda: lf_in)
            value, stdout = ref_line_filter(lf_in, NEEDLE)
            argv = ["run", wasm, prog, str(NEEDLE), "--stdin-file", stdin]
            stdout += b"line_filter(%d) = [%d]\n" % (NEEDLE, value)
            payload = len(lf_in)
        elif prog == "checksum":
            stdin, _ = inputs.file(f"b{block}-checksum.txt", lambda: ck_in)
            value, stdout = ref_checksum(ck_in)
            argv = ["run", wasm, prog, "--stdin-file", stdin]
            stdout += b"checksum() = [%d]\n" % value
            payload = len(ck_in)
        else:
            inputs.file(f"b{block}-fs/data.csv", lambda: csv)
            value, stdout = ref_extract(csv)
            argv = ["run", wasm, prog, "--fs-dir", f"inputs/b{block}-fs"]
            stdout += b"extract() = [%d]\n" % value
            payload = len(csv)
        out.append((_run_op(argv, size, payload),
                    (f"wasi/{prog}/b{block}", sha256(stdout))))
    return out


def _instrument_block(inputs, expected, order, block_index):
    """16 kernels taken in turn from the seeded kernel order, so over a run
    every kernel is drawn equally often (to within one), and the seven
    large inputs."""
    start = block_index * INSTRUMENT_POLYBENCH
    picks = [order[(start + j) % len(order)] for j in range(INSTRUMENT_POLYBENCH)]
    block = []
    for name in picks:
        rel, size = inputs.kernel(name)
        block.append((f"polybench/{name}", rel, size))
    for kind, scale in SYNTHETIC:
        rel, size = inputs.file(f"{kind}-{scale}.wasm",
                                lambda kind=kind, scale=scale:
                                synthetic_binary(kind, scale))
        block.append((f"{kind}/{scale}", rel, size))
    return [({"op": "instrument", "file": rel, "bytes": size},
             (key, expected["instrumented"][key]["sha256"]))
            for key, rel, size in block]


def _execute_block(inputs, expected, rng, block_index):
    block = []
    for name in kernel_names():
        rel, size = inputs.kernel(name, 2)
        key = f"{kernel_key(name, 2)}/none"
        block.append((_run_op(["run", rel, "main"], size),
                      (key, expected["run"][key])))
    return block + _wasi_ops(inputs, rng, block_index)


def _analyze_block(inputs, expected):
    block = []
    for name in kernel_names():
        rel, size = inputs.kernel(name)
        for analysis in ANALYSES:
            key = f"{kernel_key(name)}/{analysis}"
            block.append((_run_op(["run", rel, "main", "--analysis", analysis],
                                  size), (key, expected["run"][key])))
    return block


def _serve_block(inputs, expected):
    """One block's request multiset: each kind's requests spread over the
    kernels (alphabetical popularity rank) in Zipf(1.1) proportion."""
    names = kernel_names()
    block = []
    for kind, count in SERVE_MIX:
        if kind == "stats":
            block += [({"op": "stats", "bytes": 0}, ("stats", None))] * count
            continue
        slot = 0
        for name, times in zip(names, zipf_counts(count, len(names))):
            rel, size = inputs.kernel(name)
            for _ in range(times):
                if kind == "serve_instrument":
                    key = f"polybench/{name}"
                    op = {"op": "serve_instrument", "file": rel, "bytes": size}
                    sha = expected["instrumented"][key]["sha256"]
                else:
                    analysis = ("none" if kind == "serve_run"
                                else SERVE_ANALYSES[slot % len(SERVE_ANALYSES)])
                    key = f"{kernel_key(name)}/{analysis}"
                    op = {"op": "serve_run", "file": rel, "analysis": analysis,
                          "bytes": size}
                    sha = expected["run"][key]
                block.append((op, (key, sha)))
                slot += 1
    return block


def fuzz_chunk_bytes() -> int:
    """Seed-corpus bytes a blind campaign call mutates: entry
    ``index % len(entries)`` (sorted by name) seeds mutant ``index``."""
    corpus = seed_corpus()
    sizes = [len(corpus[name]) for name in sorted(corpus)]
    return sum(sizes[index % len(sizes)] for index in range(FUZZ_CHUNK))


def build(workload: str, seed: int, workdir: Path,
          expected: dict | None = None) -> tuple[list, list]:
    """Write ``workload``'s inputs under ``workdir``; return its blocks and
    the expected ``(label, sha256)`` of every op (``sha256`` is ``None``
    where only the op's own status is checked)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    expected = expected if expected is not None else load_expected()
    inputs = _Inputs(Path(workdir))
    blocks, expectations = [], []
    fuzz_bytes = fuzz_chunk_bytes() if workload == "fuzz" else 0
    kernel_order = kernel_names()
    block_rng(seed, workload, -1).shuffle(kernel_order)
    for b in range(LIST_BLOCKS[workload]):
        rng = block_rng(seed, workload, b)
        if workload == "instrument":
            block = _instrument_block(inputs, expected, kernel_order, b)
        elif workload == "execute":
            block = _execute_block(inputs, expected, rng, b)
        elif workload == "analyze":
            block = _analyze_block(inputs, expected)
        elif workload == "serve":
            block = _serve_block(inputs, expected)
        else:
            campaign = seed * 1_000_000 + b
            block = [({"op": "fuzz", "mutants": FUZZ_CHUNK, "seed": campaign,
                       "bytes": fuzz_bytes}, (f"fuzz/{campaign}", None))]
        rng.shuffle(block)
        blocks.append([op for op, _ in block])
        expectations.append([expect for _, expect in block])
    return blocks, expectations


def warmup_op(workload: str, workdir: Path) -> dict:
    """The fixed, seed-independent op each launch runs before it is ready."""
    inputs = _Inputs(Path(workdir))
    if workload == "fuzz":
        return {"op": "fuzz", "mutants": FUZZ_CHUNK, "seed": 0,
                "bytes": fuzz_chunk_bytes()}
    rel, size = inputs.kernel("trisolv", 2 if workload == "execute" else 1)
    if workload == "instrument":
        return {"op": "instrument", "file": rel, "bytes": size}
    if workload == "serve":
        return {"op": "serve_run", "file": rel, "analysis": "none",
                "bytes": size}
    argv = ["run", rel, "main"]
    if workload == "analyze":
        argv += ["--analysis", "blocks"]
    return _run_op(argv, size)


def check(records: list[dict], expectations: list) -> list[dict]:
    """Mark every op record that failed or did not match its oracle.

    A record fails when the op raised or returned a non-OK status
    (``ok`` false) or when its output fingerprint differs from the
    expected one. Returns the failing records, each with a ``why``.
    """
    failures = []
    for record in records:
        label, sha = expectations[record["b"] % len(expectations)][record["i"]]
        if not record["ok"]:
            why = record.get("err") or "not ok"
        elif sha is not None and record.get("fp") != sha:
            why = f"output {str(record.get('fp'))[:12]} != oracle {sha[:12]}"
        else:
            record["failed"] = False
            continue
        record["failed"] = True
        failures.append({"block": record["b"], "index": record["i"],
                         "label": label, "why": why})
    return failures
