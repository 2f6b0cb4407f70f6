"""Golden pins for hook dispatch, the self-profiler, the PGO artifacts and
the binary decoder.

Every digest below was recorded once and must never drift: they are the
independent oracle for the one remaining hook-dispatch path, for the
profiler's exact instruction counting and for the decoder's accept/reject
decisions.

* the ``ExecutionTracer`` event stream of every program in the hook-dispatch
  differential corpus (``tests/test_hook_dispatch.py``), on both engines;
* ``profiler.as_dict()`` (opcode and pair counts, per-function work and
  sampled stacks) of instrumented PolyBench runs, on both engines;
* ``benchmarks/results/PGO_corpus_profile.json`` and
  ``PGO_fusion_table.json``, regenerated byte for byte;
* the outcome of ``decode_module`` (its error and message, or the bytes it
  re-encodes to) on truncations, bit flips and blind mutants of the fuzz
  seed corpus, and on every PolyBench kernel and two synthetic binaries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyses import BranchCoverage, InstructionMixAnalysis
from repro.core import AnalysisSession
from repro.core.instrument import InstrumentationConfig
from repro.eval.faultinject import mutant_rng, mutate, seed_corpus
from repro.eval.workloads import polybench_workloads
from repro.interp import Machine
from repro.interp.pgo import fusion_table_payload, record_corpus_profile
from repro.minic import compile_source
from repro.obs.telemetry import Telemetry
from repro.wasm import decode_module, encode_module
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names

from .test_hook_dispatch import (I64_SOURCE, INDIRECT_SOURCE, MIXED_SOURCE,
                                 NO_LOCATION_GROUPS, br_table_module, stream)

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

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
        "128b13f538e33261d5c1238f7faae3221441a968dfb7027c1aba7877c45e6a65",
    ("trisolv", "branch_coverage"):
        "40f19660c65928d002317a846df85a887dd158e56a00c7842389691a0704d57d",
    ("durbin", "instruction_mix"):
        "8d8631def3e54255df66bfa7d8ce0ad7bd25536f2d10e6f8833aabc41379c810",
    ("durbin", "branch_coverage"):
        "64533c36919f725c5fb84d08510c38e1e18195026e92e1e9520a7b2f88545bc1",
    ("bicg", "instruction_mix"):
        "0c5d98f9bd53dab5ea8ec355e676946623ddfc2edf0545b94c6fa63c53a487c5",
    ("bicg", "branch_coverage"):
        "4166a9a5abd2c01e2c6c98e3fb3ba0d64b61df286e370dcb7dec9ceed648a559",
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


# -- PGO artifacts ---------------------------------------------------------------


def test_pgo_artifacts_regenerate_byte_identical():
    """``repro pgo``'s corpus profile and derived fusion table, serialized
    as ``write_profile`` does, equal the checked-in artifacts."""
    profile = record_corpus_profile()
    assert json.dumps(profile, indent=2) + "\n" == \
        (RESULTS / "PGO_corpus_profile.json").read_text()
    assert json.dumps(fusion_table_payload(profile), indent=2) + "\n" == \
        (RESULTS / "PGO_fusion_table.json").read_text()


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
