"""Fault-injection harness + the hardening it drove into the pipeline.

A small campaign runs here as a regression gate (the CI fuzz-campaign job
runs the full 5k-mutant campaign); the rest of the file pins down the
specific robustness fixes: LEB128 canonical-form checks, decoder bounds
checks, and limits validation.
"""

from __future__ import annotations

import pytest

from repro.eval.faultinject import (MUTATORS, classify, mutate,
                                    regenerate_mutant, seed_corpus)
from repro.eval.fuzz import FuzzConfig, run_fuzz_campaign
from repro.wasm import (DecodeError, ValidationError, WasmError,
                        decode_module, encode_module, validate_module)
from repro.wasm.builder import ModuleBuilder
from repro.wasm.leb128 import (decode_signed, decode_unsigned,
                               encode_unsigned)
from repro.wasm.types import I32, Limits


class TestCliStage:
    """The pipeline users run agrees with the fuzz pipeline: a mutant the
    campaign rejects at ``validate`` is refused at load by ``repro run``
    and ``repro instrument`` with exit status 5."""

    def test_validate_rejects_exit_5_from_run_and_instrument(self, tmp_path,
                                                             capsys):
        from repro.cli import EXIT_MALFORMED, main
        corpus = seed_corpus()
        rejected: list[bytes] = []
        index = 0
        while len(rejected) < 100:
            for name in sorted(corpus):
                mutant = regenerate_mutant(4242, name, index, corpus)
                if classify(mutant, execute=False).stage == "validate":
                    rejected.append(mutant)
            index += 1
        path, out = tmp_path / "mutant.wasm", tmp_path / "out.wasm"
        for mutant in rejected[:100]:
            path.write_bytes(mutant)
            assert main(["run", str(path), "main"]) == EXIT_MALFORMED
            assert main(["instrument", str(path), "-o", str(out)]) \
                == EXIT_MALFORMED
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 200
        assert all(line.startswith("repro: ValidationError: ")
                   for line in lines)


class TestCampaign:
    def test_small_campaign_has_no_escapes(self):
        result = run_fuzz_campaign(FuzzConfig(mutants=300, seed=1234))
        assert result.ok, result.summary()
        assert result.mutants == 300
        # sanity: the mutator is actually producing malformed binaries
        assert result.rejected_at.get("decode", 0) > 0

    def test_campaign_is_reproducible(self):
        config = FuzzConfig(mutants=100, seed=77, execute=False)
        a = run_fuzz_campaign(config)
        b = run_fuzz_campaign(config)
        assert a.rejected_at == b.rejected_at
        assert a.survived == b.survived

    def test_regenerate_mutant_is_deterministic(self):
        corpus = seed_corpus()
        for name in corpus:
            first = regenerate_mutant(42, name, 7)
            second = regenerate_mutant(42, name, 7)
            assert first == second
            assert first != corpus[name] or name == "memory"

    def test_seed_corpus_is_valid(self):
        for name, binary in seed_corpus().items():
            module = decode_module(binary)
            validate_module(module)
            assert encode_module(module), name

    def test_mutators_change_bytes(self):
        import random
        seed = seed_corpus()["kitchen_sink"]
        changed = 0
        for i in range(50):
            mutant, recipe = mutate(seed, random.Random(i))
            assert recipe  # at least one mutation applied
            if mutant != seed:
                changed += 1
        assert changed > 40  # almost every mutant differs from the seed
        assert len(MUTATORS) >= 8

    def test_pipeline_accepts_pristine_binary(self):
        for binary in seed_corpus().values():
            assert classify(binary, execute=True).outcome == "pass"

    def test_pipeline_rejects_garbage_cleanly(self):
        for garbage in (b"\x00asm\x01\x00\x00\x00" + b"\xff" * 40,
                        b"not wasm at all", b""):
            assert classify(garbage, execute=False).outcome == "rejected"


class TestLeb128Hardening:
    def test_truncated_varint_is_decode_error(self):
        # continuation bit set but the stream ends: must not IndexError
        with pytest.raises(DecodeError, match="truncated"):
            decode_unsigned(b"\x80\x80", 0)
        with pytest.raises(DecodeError, match="truncated"):
            decode_signed(b"\xff", 0)
        with pytest.raises(DecodeError):
            decode_unsigned(b"", 0)

    def test_overlong_varint_rejected(self):
        # a u32 takes at most 5 bytes; a 6th continuation byte is malformed
        with pytest.raises(DecodeError):
            decode_unsigned(b"\x80\x80\x80\x80\x80\x01", 0)
        with pytest.raises(DecodeError):
            decode_signed(b"\x80\x80\x80\x80\x80\x7f", 0)

    def test_noncanonical_final_byte_u32(self):
        # 5th byte of a u32 may only use its low 4 bits
        with pytest.raises(DecodeError, match="non-canonical"):
            decode_unsigned(b"\x80\x80\x80\x80\x10", 0)
        # the same payload with legal high bits decodes fine
        value, pos = decode_unsigned(b"\x80\x80\x80\x80\x0f", 0)
        assert value == 0xF0000000 and pos == 5

    def test_noncanonical_final_byte_s32(self):
        # unused bits of the final byte must all equal the sign bit
        with pytest.raises(DecodeError, match="non-canonical"):
            decode_signed(b"\x80\x80\x80\x80\x4f", 0)
        value, pos = decode_signed(b"\x80\x80\x80\x80\x78", 0)
        assert value == -(1 << 31) and pos == 5

    def test_noncanonical_final_byte_s64(self):
        # 10th byte of an s64 has 1 payload bit; 0x02 sets an unused bit
        bad = b"\x80" * 9 + b"\x02"
        with pytest.raises(DecodeError, match="non-canonical"):
            decode_signed(bad, 0, bits=64)
        good = b"\x80" * 9 + b"\x7f"
        value, pos = decode_signed(good, 0, bits=64)
        assert value == -(1 << 63) and pos == 10

    def test_round_trip_still_works(self):
        for value in (0, 1, 127, 128, 624485, 2**32 - 1):
            data = encode_unsigned(value)
            assert decode_unsigned(data, 0) == (value, len(data))


class TestDecoderBounds:
    def _valid_binary(self) -> bytes:
        builder = ModuleBuilder()
        fb = builder.function((I32,), (I32,), name="id", export="id")
        fb.get_local(0)
        fb.finish()
        return encode_module(builder.build())

    def test_function_body_size_lie(self):
        binary = bytearray(self._valid_binary())
        # find the code section (id 10) and inflate the body size varint
        idx = binary.index(b"\x0a", 8)
        # layout: section id, section size, count, body size, ...
        binary[idx + 3] = 0x7F  # body claims 127 bytes; section is tiny
        with pytest.raises(DecodeError):
            decode_module(bytes(binary))

    def test_truncation_always_decode_error(self):
        binary = self._valid_binary()
        for cut in range(len(binary)):
            try:
                decode_module(binary[:cut])
            except WasmError:
                pass  # DecodeError subclass — the only acceptable failure

    def test_malformed_name_section_preserved_as_custom(self):
        binary = self._valid_binary()
        # append a custom "name" section whose payload is garbage
        payload = bytes([4]) + b"name" + b"\xff\xff\xff"
        section = bytes([0, len(payload)]) + payload
        module = decode_module(binary + section)
        assert any(c.name == "name" for c in module.custom_sections)


class TestLimitsValidation:
    def test_min_above_max_rejected_at_construction(self):
        # Limits(5, 2) cannot even be constructed; a decoder hitting such
        # bytes re-raises this as a DecodeError (covered by TestCampaign)
        with pytest.raises(ValueError):
            Limits(5, 2)

    def test_validator_rejects_oversized_memory(self):
        from repro.wasm.types import MemoryType
        builder = ModuleBuilder()
        builder.add_memory(1)
        module = builder.build()
        # Limits only checks min<=max, not the 4 GiB spec ceiling; the
        # validator owns the MAX_PAGES check
        module.memories[0] = MemoryType(Limits(100_000))
        with pytest.raises(ValidationError, match="hard cap"):
            validate_module(module)
