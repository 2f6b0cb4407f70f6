"""Golden pins for hook dispatch, the self-profiler, the decoded streams and
the binary decoder.

Every digest below was recorded once and must never drift: they are the
independent oracle for the one remaining hook-dispatch path, for the
profiler's exact instruction counting, for the stream the decoded engine
executes and for the decoder's accept/reject decisions.

* the ``ExecutionTracer`` event stream of every program in the hook-dispatch
  differential corpus (``tests/test_hook_dispatch.py``), on both engines;
* ``profiler.as_dict()`` (opcode counts, opcode classes, per-function work
  and sampled stacks) of instrumented PolyBench runs, on both engines;
* the shape of every decoded stream (op id per slot, span per compiled
  segment) of the PolyBench kernels, two synthetic binaries and an
  all-hooks-instrumented kernel;
* the outcome of ``decode_module`` (its error and message, or the bytes it
  re-encodes to) on truncations, bit flips and blind mutants of the fuzz
  seed corpus, and on every PolyBench kernel and two synthetic binaries.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analyses import BranchCoverage, InstructionMixAnalysis
from repro.core import AnalysisSession
from repro.core.instrument import InstrumentationConfig, instrument_module
from repro.eval.faultinject import mutant_rng, mutate, seed_corpus
from repro.eval.workloads import polybench_workloads
from repro.interp import Machine
from repro.interp.predecode import OP_SEGMENT, decode_function
from repro.minic import compile_source
from repro.obs.telemetry import Telemetry
from repro.wasm import decode_module, encode_module
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names

from .test_hook_dispatch import (I64_SOURCE, INDIRECT_SOURCE, MIXED_SOURCE,
                                 NO_LOCATION_GROUPS, br_table_module, stream)

ENGINES = {"predecoded": True, "legacy": False}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- hook event streams ----------------------------------------------------------

#: corpus entry → (module factory name, entry, args, session kwargs)
CORPUS = {
    "mixed(4,2)": ("mixed", "main", (4, 2), {}),
    "mixed(-3,0)": ("mixed", "main", (-3, 0), {}),
    "mixed(7,-5)": ("mixed", "main", (7, -5), {}),
    "i64(-3)": ("i64", "main", (-3,), {}),
    "br_table(0)": ("br_table", "f", (0,), {}),
    "br_table(1)": ("br_table", "f", (1,), {}),
    "br_table(2)": ("br_table", "f", (2,), {}),
    "memory.grow()": ("memory", "grow", (), {}),
    "memory.roundtrip(2.5)": ("memory", "roundtrip", (2.5,), {}),
    "indirect(0,10)": ("indirect", "main", (0, 10), {}),
    "indirect(1,10)": ("indirect", "main", (1, 10), {}),
    "no_locations(4,2)": (
        "mixed", "main", (4, 2),
        {"config": InstrumentationConfig(emit_locations=False),
         "groups": NO_LOCATION_GROUPS}),
}

STREAM_DIGESTS = {
    "mixed(4,2)":
        "359657d73b596c45bad283900487a9af6dc21a71e875a74a77c014a94fbd1429",
    "mixed(-3,0)":
        "8c41ec9136e566a3fafc14726bf7e8f4e38795b96c35b9cacecbc75ea9b4f4ee",
    "mixed(7,-5)":
        "4e9a5bee03bcc829d86113d43df33a0037dfccb0ec8b6848ca6d1d81857ef360",
    "i64(-3)":
        "3e6b1aee2e41f3925c66646fc52ae36ce8f5e1867e633d8307c275162d06871d",
    "br_table(0)":
        "82d0b46ce6d81c48fe75cad312fd2f59252df684313bef0f226fb0543660817e",
    "br_table(1)":
        "f2acbc01c9c1517835eefbe8353cb6fcd6c972f27b00ba85d529eb5c6edb0a5f",
    "br_table(2)":
        "ff5ba9027862eb0b4aac8edcf61a3f16b3d3048fc2214cd01c08e3413a73ed93",
    "memory.grow()":
        "bff1466b9c9ab9bc597150d93c34a241a4c79ac26930f7be35dab309182b499b",
    "memory.roundtrip(2.5)":
        "d9ee1d19e16740b9585efed02c0d92bb5788c2c826fe8e4a8ee2d7983347678e",
    "indirect(0,10)":
        "f63f9df953451be07016b3b6a1d10738e5bdaff051a9726987910a711950f4e2",
    "indirect(1,10)":
        "590dc98ae3a4e563543a9c0a45f558c0bfbe3e8b97f4f74ea1ce95935d2abe42",
    "no_locations(4,2)":
        "f954770fdff2031fe66522e3a3e3bb6cecf2b59805bdcc524460f8f47b66b716",
}


def _corpus_module(kind: str, memory_module):
    if kind == "mixed":
        return compile_source(MIXED_SOURCE)
    if kind == "i64":
        return compile_source(I64_SOURCE)
    if kind == "br_table":
        return br_table_module()
    if kind == "indirect":
        return compile_source(INDIRECT_SOURCE)
    return memory_module


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CORPUS)
def test_event_stream_golden(name, engine, memory_module):
    kind, entry, args, kwargs = CORPUS[name]
    events = stream(_corpus_module(kind, memory_module),
                    Machine(predecode=ENGINES[engine]), entry, args, **kwargs)
    assert events
    assert _digest(repr(events)) == STREAM_DIGESTS[name]


# -- instrumented self-profiles --------------------------------------------------

PROFILE_KERNELS = ("trisolv", "durbin", "bicg")
PROFILE_ANALYSES = {"instruction_mix": InstructionMixAnalysis,
                    "branch_coverage": BranchCoverage}

PROFILE_DIGESTS = {
    ("trisolv", "instruction_mix"):
        "9859aa87c31eb63ade5202cab21f3787d3b42f38161a8793eafb3e5d7ec81766",
    ("trisolv", "branch_coverage"):
        "c106b0f16942e4a7782ebca47c326f6ccf074b0f6380e34eab9324e4d7e419ba",
    ("durbin", "instruction_mix"):
        "ca130ab23871b16827688df76d1ceb2960ac8d966ea65449781509d0df2f26c8",
    ("durbin", "branch_coverage"):
        "ffabdeefc4cd71201a2f6c3f01e207c1abe074686327b0e6b2d9b78383ad6419",
    ("bicg", "instruction_mix"):
        "c7ace36b8af5d1f6c813432780f731e8ddb0f57c90cda05d6206a4209e644d64",
    ("bicg", "branch_coverage"):
        "56a0f95cab9404c0164bb22c1e1e87ff4440a6da4b83117890b0ccbe4efcbeff",
}


def _instrumented_profile(kernel: str, analysis_name: str,
                          predecode: bool) -> dict:
    workload, = polybench_workloads([kernel], n=6)
    telemetry = Telemetry(profile=True, sample_interval=97)
    session = AnalysisSession(workload.module(), PROFILE_ANALYSES[analysis_name](),
                              linker=workload.linker(), telemetry=telemetry,
                              machine=Machine(predecode=predecode))
    session.invoke(workload.entry, workload.args)
    return telemetry.profiler.as_dict()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("analysis_name", PROFILE_ANALYSES)
@pytest.mark.parametrize("kernel", PROFILE_KERNELS)
def test_instrumented_profile_golden(kernel, analysis_name, engine):
    profile = _instrumented_profile(kernel, analysis_name, ENGINES[engine])
    assert profile["total_instructions"] > 0 and profile["samples"]
    assert _digest(json.dumps(profile, sort_keys=True)) == \
        PROFILE_DIGESTS[(kernel, analysis_name)]


# -- decoded stream shapes -------------------------------------------------------

STREAM_SHAPE_DIGEST = \
    "df1efef7dbea98f99c73fbfbcc82c367fcf1dd85ec473cf016db879cc6b7cb15"


def _stream_shape_modules():
    for name in kernel_names():
        yield compile_kernel(name)
    yield pdf_toolkit(1)
    yield engine_demo(1)
    yield instrument_module(compile_kernel("trisolv")).module


def _stream_shape(module) -> str:
    """One line per function: the op id of every slot of the stream the
    decoded engine runs, and each compiled segment's span."""
    return "\n".join(
        " ".join(f"{ins[0]}:{ins[2]}" if ins[0] == OP_SEGMENT else str(ins[0])
                 for ins in decode_function(func, module).code)
        for func in module.functions)


def test_decoded_stream_shapes():
    """Every function of the 30 PolyBench kernels, ``pdf_toolkit(1)``,
    ``engine_demo(1)`` and an all-hooks-instrumented ``trisolv`` decodes to
    the same op ids, slot for slot, with the same segment spans."""
    shapes = "\n".join(_stream_shape(module)
                       for module in _stream_shape_modules())
    assert _digest(shapes) == STREAM_SHAPE_DIGEST


# -- decoder outcomes ------------------------------------------------------------

DECODE_DIGESTS = {
    "truncations_and_bit_flips":
        "7dd7e99d586503cb867f9ab56c616a30bb183ac85d4eb7f9d167dbc38682c1a7",
    "blind_mutants":
        "f2e5e44ab70e4fb7097fa96c0eb7274a292c803f93f6ac22449593021e401cdf",
    "corpus_reencode":
        "ab73094bcd238f7e9695ac07e408cb3937c56159ee9cac8498dba00e3ec5ec59",
}


def _decode_outcome(data: bytes) -> str:
    """A rejection as ``"<error type>: <message>"`` (the message carries the
    byte offset), an acceptance as the sha256 of the re-encoded module."""
    try:
        module = decode_module(data)
    except Exception as exc:  # noqa: BLE001 - an escape is an outcome too
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(encode_module(module)).hexdigest()


def _outcomes_digest(inputs) -> str:
    return _digest("\n".join(_decode_outcome(data) for data in inputs))


def _truncations_and_bit_flips():
    for data in seed_corpus().values():
        for cut in range(len(data)):
            yield data[:cut]
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                yield bytes(flipped)


def _blind_mutants():
    """The blind campaign's schedule: corpus entries round-robin by index."""
    corpus = seed_corpus()
    names = sorted(corpus)
    for seed in range(3):
        for index in range(1000):
            name = names[index % len(names)]
            yield mutate(corpus[name], mutant_rng(seed, name, index))[0]


def _corpus_binaries():
    for name in kernel_names():
        yield encode_module(compile_kernel(name))
    yield encode_module(pdf_toolkit(1))
    yield encode_module(engine_demo(1))


class TestDecoderOutcomes:
    """What ``decode_module`` accepts, rejects (and with which message and
    offset) and decodes to, over about 7.3k malformed and 32 valid inputs."""

    def test_truncations_and_bit_flips(self):
        assert _outcomes_digest(_truncations_and_bit_flips()) == \
            DECODE_DIGESTS["truncations_and_bit_flips"]

    def test_blind_mutants(self):
        assert _outcomes_digest(_blind_mutants()) == DECODE_DIGESTS["blind_mutants"]

    def test_corpus_reencode(self):
        assert _outcomes_digest(_corpus_binaries()) == DECODE_DIGESTS["corpus_reencode"]
