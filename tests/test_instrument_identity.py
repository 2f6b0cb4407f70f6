"""Byte identity of instrumented binaries.

Pins the sha256 of the binary→binary pipeline's output (decode, instrument,
encode) for a few PolyBench kernels and both real-world stand-ins, under
full, selective and location-free instrumentation. Any change to emission
or encoding that alters a single byte fails here. A thread pool must not
change the output either: hooks are numbered in function order whatever
the worker count.
"""

import functools
import hashlib

import pytest

from repro.core.analysis import ALL_GROUPS
from repro.core.instrument import InstrumentationConfig, instrument_module
from repro.wasm import decode_module, encode_module
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel

SELECTIVE = frozenset({"call", "return", "br_if", "end", "load", "store",
                       "const"})
CONFIGS = {
    "all": InstrumentationConfig(groups=ALL_GROUPS),
    "selective": InstrumentationConfig(groups=SELECTIVE),
    "no_locations": InstrumentationConfig(emit_locations=False),
}

#: sha256 of each input binary, so a changed input is told apart from a
#: changed instrumenter
INPUTS = {
    "polybench/gemm": "987720ae557d2f72a82f71d3259fce67d36f75129c82bafa53c3611b5e03d138",
    "polybench/trisolv": "02636f99ce5e443d65ccbefbe1daeefd98c4189fdc568526cb2dd89bc083f1eb",
    "polybench/floyd-warshall": "b86dc0df79d67b8d62e7e331aa5f19e056e0565616c89c71da87bd165202c56b",
    "polybench/jacobi-2d": "47c9b77fd1f8d0c1b2c5e0841490a4d9413316f2023ca8d71f535588a0339eb0",
    "polybench/correlation": "6d464f9f7ab49281e72dbe3461ca9b9ef54da5bc175f915184ae3410406757d4",
    "pdf_toolkit/1": "dc16fb3f868c89f634de81f540cb5aa008867b4552256b0f5b774380e5d77886",
    "engine_demo/1": "4b6deb9861ea33ea9c9c7ff94ab88a82c43ffc03f09d181de964b08990142a65",
}

#: sha256 of the instrumented binary per program and configuration
OUTPUTS = {
    "polybench/gemm": {
        "all": "016d5994e50cb971f52d641236f6a3c8fe24717e32b6da6f60191f140615fd6e",
        "selective": "ea6e7c821bad542437a17ca45ee18efbb63a24c875bd05df66da145d44f8f9d5",
        "no_locations": "f86f6ceec600946d4288cb0fb9889c9328199d4978b08ef5322fbddda45603ab",
    },
    "polybench/trisolv": {
        "all": "efef7710049a9227c2878d124b824e668cd240d104b10001f7825d9a2a801b9a",
        "selective": "7b079ab0f02a1ad24b94dfb383a00a0270c77cb9698adca58053732480ec256c",
        "no_locations": "e0a898c9c953341e21d834aafe0008be81b53722d16c103e4c35057a74ec1361",
    },
    "polybench/floyd-warshall": {
        "all": "36a70ed805a67276b6721dabd223afd51c27eb3cfe7fd918ea3aeb16a50b169d",
        "selective": "7578e55444fca2b4604011710ed2b8a1603f1de0f572a705ad087137e63a8b75",
        "no_locations": "3f6cf44139de3ea5c9b9876944636e4139dd36fbf57957d8dc9742f7acdd9a9a",
    },
    "polybench/jacobi-2d": {
        "all": "e39817380e9d816b29e45f9c1732a6542893e6107bcf1c68242be2d1e974293c",
        "selective": "99ed21fb88243d3ac14ea1746c3c01cf945b924edabebc3b3d140928c1a07189",
        "no_locations": "94e1e08e8bf3d95449da8efad282c3e6c7522158f25befac464b39af15667732",
    },
    "polybench/correlation": {
        "all": "1c96a0a0c33656e334e747ba24d877274f893844ede6d03f5520717dd83b55f8",
        "selective": "cbde3fccb56a4d09e02b7934fa32ea9747e66edd45fd98f7c94364bbde21922b",
        "no_locations": "0f933dbff720984316742d3f2c8536c4c15bf177c211ed9389e12993b5f1dbd7",
    },
    "pdf_toolkit/1": {
        "all": "6eb8f2ddc5adc5eb4dda19d95e3e71f509479b4e30c0eb4b4393d8504ff7791a",
        "selective": "b22429a9f6915e209b8aaecc69ca4663582d4697a8022fd077ad68ddb6f30b2d",
        "no_locations": "ba1cbdd105a97afbfb76e454f50d64cac2bf45dc6cef7d5a4cb9eb7eb6918f32",
    },
    "engine_demo/1": {
        "all": "ddddf9ce365411b6637a818a3ec3c1d043cb92bd28406e5be578b95611a7d62f",
        "selective": "a7adf4e42a24a96fd0d3bd9ac0588d1a132ea52ad4c03580caf8ff3a24f8ba57",
        "no_locations": "aeb7bef9fc02b390290fceadc6b9dfeccc2ac313362f727b8d84e1a9f6994fb6",
    },
}

@functools.cache
def binary(program: str) -> bytes:
    kind, arg = program.split("/")
    if kind == "polybench":
        return encode_module(compile_kernel(arg))
    generate = pdf_toolkit if kind == "pdf_toolkit" else engine_demo
    return encode_module(generate(int(arg)))


def instrumented_sha256(program: str, config: InstrumentationConfig) -> str:
    result = instrument_module(decode_module(binary(program)), config=config)
    return hashlib.sha256(encode_module(result.module)).hexdigest()


@pytest.mark.parametrize("program", sorted(INPUTS))
def test_input_binary_pinned(program):
    assert hashlib.sha256(binary(program)).hexdigest() == INPUTS[program]


@pytest.mark.parametrize("program", sorted(OUTPUTS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_instrumented_binary_pinned(program, config):
    assert instrumented_sha256(program, CONFIGS[config]) == OUTPUTS[program][config]


@pytest.mark.parametrize("program", sorted(INPUTS))
def test_parallel_workers_produce_the_sequential_binary(program):
    parallel = InstrumentationConfig(parallel_workers=4)
    assert instrumented_sha256(program, parallel) == OUTPUTS[program]["all"]
