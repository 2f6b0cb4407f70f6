"""The command-line interface: instrument / validate / compile / run / stats,
plus the exit-status taxonomy and the record/replay/bundle verbs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (EXIT_ANALYSIS_FAULT, EXIT_FAILURE, EXIT_MALFORMED,
                       EXIT_REPLAY_DIVERGENCE, EXIT_RESOURCE_EXHAUSTED,
                       EXIT_TRAP, EXIT_USAGE, exit_status, main)
from repro.wasm import (AnalysisAbort, AnalysisError, DecodeError,
                        FuelExhausted, ReplayDivergence, Trap, ValidationError,
                        WasmError, decode_module, encode_module, parse_wat)


@pytest.fixture
def wasm_file(tmp_path, fib_module):
    path = tmp_path / "fib.wasm"
    path.write_bytes(encode_module(fib_module))
    return path


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
        import func print_f64(x: f64);
        export func main(n: i32) -> f64 {
            var s: f64 = 0.0;
            var i: i32;
            for (i = 0; i < n; i = i + 1) { s = s + f64(i) * 0.5; }
            print_f64(s);
            return s;
        }
    """)
    return path


class TestInstrument:
    def test_basic(self, wasm_file, tmp_path, capsys):
        out = tmp_path / "out.wasm"
        code = main(["instrument", str(wasm_file), "-o", str(out)])
        assert code == 0
        module = decode_module(out.read_bytes())
        assert module.num_imported_functions > 0  # hooks imported
        assert "hooks generated" in capsys.readouterr().out

    def test_selective(self, wasm_file, tmp_path):
        out_all = tmp_path / "all.wasm"
        out_call = tmp_path / "call.wasm"
        main(["instrument", str(wasm_file), "-o", str(out_all)])
        main(["instrument", str(wasm_file), "-o", str(out_call),
              "--hooks", "call,return"])
        assert out_call.stat().st_size < out_all.stat().st_size

    def test_unknown_hook(self, wasm_file, tmp_path, capsys):
        assert main(["instrument", str(wasm_file), "--hooks", "bogus"]) == 2
        assert "unknown hooks" in capsys.readouterr().err

    def test_metadata(self, wasm_file, tmp_path):
        out = tmp_path / "out.wasm"
        meta = tmp_path / "meta.json"
        main(["instrument", str(wasm_file), "-o", str(out),
              "--metadata", str(meta)])
        data = json.loads(meta.read_text())
        assert data["hooks"] and data["functions"]
        assert data["functions"][0]["name"] == "fib"


class TestValidate:
    def test_valid(self, wasm_file, capsys):
        assert main(["validate", str(wasm_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(b"\x00asm\x01\x00\x00\x00\x63\x01\x00")
        assert main(["validate", str(bad)]) == EXIT_MALFORMED
        assert "INVALID" in capsys.readouterr().err


class TestObjdumpAndStats:
    def test_objdump(self, wasm_file, capsys):
        assert main(["objdump", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert "(module" in out and "get_local" in out

    def test_stats(self, wasm_file, capsys):
        assert main(["stats", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert "instructions:" in out and "fib" in out


class TestCompileAndRun:
    def test_compile(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        assert main(["compile", str(minic_file), "-o", str(out)]) == 0
        decode_module(out.read_bytes())

    def test_run_uninstrumented(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        assert main(["run", str(out), "main", "5"]) == 0
        output = capsys.readouterr().out
        assert "main(5) = [5.0]" in output
        assert "[print] 5.0" in output

    def test_run_with_analysis(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        assert main(["run", str(out), "main", "5", "--analysis", "mix"]) == 0
        output = capsys.readouterr().out
        assert "instruction mix:" in output
        assert "f64.add" in output

    def test_run_cryptominer_analysis(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        assert main(["run", str(out), "main", "3",
                     "--analysis", "cryptominer"]) == 0
        assert "suspicious: False" in capsys.readouterr().out

    def test_roundtrip_instrument_then_run(self, minic_file, tmp_path, capsys):
        """Instrumented binaries written to disk are self-contained except
        for their hook imports — running them requires the runtime, so the
        CLI run command instruments in-process instead."""
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        assert main(["run", str(out), "main", "4", "--analysis", "blocks"]) == 0
        assert "loop" in capsys.readouterr().out

    def test_callgraph_run_without_networkx(self, minic_file, tmp_path):
        """networkx is optional: with it blocked from importing, the CLI
        still loads and a call-graph run prints exactly what it prints with
        networkx installed."""
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        script = ("import sys\n"
                  "if sys.argv[1] == 'blocked':\n"
                  "    sys.modules['networkx'] = None\n"
                  "from repro.cli import main\n"
                  "sys.exit(main(['run', sys.argv[2], 'main', '3',\n"
                  "                '--analysis', 'callgraph']))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        runs = {mode: subprocess.run(
                    [sys.executable, "-c", script, mode, str(out)],
                    capture_output=True, text=True, timeout=120,
                    env={**os.environ, "PYTHONPATH": str(src)})
                for mode in ("blocked", "installed")}
        for run in runs.values():
            assert run.returncode == 0, run.stderr
        assert runs["blocked"].stdout == runs["installed"].stdout
        assert "main(3) = [1.5]" in runs["blocked"].stdout

    def test_cli_import_leaves_minic_unloaded(self, minic_file, tmp_path,
                                              capsys):
        """``import repro.cli`` does not load the MiniC compiler; ``repro
        compile`` imports it when it needs it."""
        out = tmp_path / "prog.wasm"
        script = ("import sys\n"
                  "import repro.cli\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.startswith('repro.minic')))\n"
                  "sys.exit(repro.cli.main(['compile', sys.argv[1],\n"
                  "                         '-o', sys.argv[2]]))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run(
            [sys.executable, "-c", script, str(minic_file), str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0, run.stderr
        loaded, compiled = run.stdout.splitlines()
        assert loaded == "[]"
        assert compiled.startswith(f"compiled {minic_file} -> {out}")
        assert main(["run", str(out), "main", "3"]) == 0
        assert "main(3) = [1.5]" in capsys.readouterr().out


# a module that calls env.print_i32 once, then traps OOB when passed >= 65533
TRAP_WAT = """
(module
  (import "env" "print_i32" (func $p (param i32)))
  (memory 1)
  (func (export "boom") (param i32) (result i32)
    local.get 0
    call $p
    local.get 0
    i32.const 70000
    i32.store
    local.get 0)
)
"""


#: Modules that decode but do not validate: an operand of the wrong type,
#: an empty operand stack, a missing local, a branch past the outermost
#: block, a call past the last function, and a function whose empty body
#: leaves its i32 result missing. Each exports ``bad``.
INVALID_WATS = {
    "add_f64": '(module (func (export "bad") (result i32) '
               'f64.const 1 i32.const 1 i32.add))',
    "add_empty": '(module (func (export "bad") (result i32) i32.add))',
    "local_5": '(module (func (export "bad") (result i32) local.get 5))',
    "br_7": '(module (func (export "bad") br 7))',
    "call_9": '(module (func (export "bad") call 9))',
    "empty_body": '(module (func (export "bad") (result i32)))',
}


@pytest.fixture
def trap_file(tmp_path):
    path = tmp_path / "boom.wasm"
    path.write_bytes(encode_module(parse_wat(TRAP_WAT)))
    return path


class TestExitTaxonomy:
    """The documented exit-status classes, pinned."""

    def test_exit_status_classification(self):
        assert exit_status(Trap("x")) == EXIT_TRAP
        assert exit_status(FuelExhausted("x")) == EXIT_RESOURCE_EXHAUSTED
        assert exit_status(DecodeError("x")) == EXIT_MALFORMED
        assert exit_status(ValidationError("x")) == EXIT_MALFORMED
        assert exit_status(AnalysisError("x")) == EXIT_ANALYSIS_FAULT
        # AnalysisAbort subclasses both AnalysisError and Trap; the
        # analysis classification must win
        assert exit_status(AnalysisAbort("x")) == EXIT_ANALYSIS_FAULT
        assert exit_status(ReplayDivergence("x")) == EXIT_REPLAY_DIVERGENCE
        assert exit_status(WasmError("x")) == 1

    def test_trap_exits_3(self, trap_file, capsys):
        assert main(["run", str(trap_file), "boom", "70000"]) == EXIT_TRAP
        assert "out of bounds" in capsys.readouterr().err

    def test_fuel_exhaustion_exits_4(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        code = main(["run", str(out), "main", "100000", "--fuel", "10"])
        assert code == EXIT_RESOURCE_EXHAUSTED
        assert "resource limit hit" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "run --analysis mix",
                                      "instrument"])
    @pytest.mark.parametrize("name", sorted(INVALID_WATS))
    def test_malformed_run_input_exits_5(self, name, verb, tmp_path, capsys):
        """Loading validates: an invalid module never reaches an engine or
        the instrumenter, and the failure is one line, not a traceback."""
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(encode_module(parse_wat(INVALID_WATS[name])))
        command, *flags = verb.split()
        argv = ([command, str(bad), "bad", *flags] if command == "run"
                else [command, str(bad), "-o", str(tmp_path / "out.wasm")])
        assert main(argv) == EXIT_MALFORMED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        line, = captured.err.splitlines()
        assert line.startswith("repro: ValidationError: ")
        assert not (tmp_path / "out.wasm").exists()

    @pytest.mark.parametrize("verb", ["run", "instrument", "objdump",
                                      "stats"])
    def test_non_wasm_input_exits_5(self, verb, tmp_path, capsys):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(b"not wasm at all")
        argv = [verb, str(bad)] + (["main"] if verb == "run" else [])
        assert main(argv) == EXIT_MALFORMED
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: DecodeError: ")

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.wasm")]) == 1
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: ") and "absent.wasm" in line

    #: (verb, input file name, its contents, trailing argv, exit status)
    BAD_INPUTS = {
        "minic_lex": ("compile", "p.mc", "export func f() -> i32 { return 1 $ 2; }",
                      [], EXIT_FAILURE),
        "minic_parse": ("compile", "p.mc", "export func f( -> i32 { return 1; }",
                        [], EXIT_FAILURE),
        "minic_type": ("compile", "p.mc", "export func f() -> i32 { return 1.0; }",
                       [], EXIT_FAILURE),
        "wat_empty": ("compile", "m.wat", "", [], EXIT_FAILURE),
        "wat_unclosed": ("compile", "m.wat", "(module (func", [], EXIT_FAILURE),
        "wat_literal": ("compile", "m.wat", "(module (func i32.const abc))",
                        [], EXIT_FAILURE),
        "wat_escape": ("compile", "m.wat",
                       '(module (memory 1) (data (i32.const 0) "\\q"))',
                       [], EXIT_FAILURE),
        "wat_export_arity": ("compile", "m.wat", "(module (func (export)))",
                             [], EXIT_FAILURE),
        "wat_name_utf8": ("compile", "m.wat",
                          '(module (import "\\ff" "x" (func)))',
                          [], EXIT_FAILURE),
        "source_bytes": ("compile", "p.mc", b"\xff\xfe", [], EXIT_FAILURE),
        "run_arg": ("run", "fib.wasm", None, ["fib", "abc"], EXIT_USAGE),
        "report_bytes": ("report", "m.json", b"\xff\xfe{", [], EXIT_FAILURE),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_one_line(self, case, tmp_path, fib_module, capsys):
        """Bad input to a verb is reported as one ``repro:`` line with its
        taxonomy status, never a traceback."""
        verb, name, contents, rest, status = self.BAD_INPUTS[case]
        path = tmp_path / name
        if contents is None:
            path.write_bytes(encode_module(fib_module))
        elif isinstance(contents, bytes):
            path.write_bytes(contents)
        else:
            path.write_text(contents)
        argv = [verb, str(path), *rest]
        if verb == "compile":
            argv += ["-o", str(tmp_path / "out.wasm")]
        assert main(argv) == status
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        line, = captured.err.splitlines()
        assert line.startswith("repro: ")
        assert not (tmp_path / "out.wasm").exists()

    def test_run_in_subprocess_prints_no_traceback(self, tmp_path):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(encode_module(parse_wat(INVALID_WATS["empty_body"])))
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(bad), "bad"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == EXIT_MALFORMED
        assert run.stdout == ""
        assert run.stderr.startswith("repro: ValidationError: ")
        assert "Traceback" not in run.stderr


class TestRecordReplay:
    def test_record_then_replay_both_engines(self, trap_file, tmp_path,
                                             capsys):
        bundle = tmp_path / "bundle"
        assert main(["run", str(trap_file), "boom", "7",
                     "--record", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 0
        assert "reproduced" in capsys.readouterr().out
        assert main(["replay", str(bundle), "--engine", "legacy"]) == 0
        assert main(["replay", str(bundle), "--engine", "predecode"]) == 0

    def test_crash_dir_written_only_on_failure(self, trap_file, tmp_path,
                                               capsys):
        crashes = tmp_path / "crashes"
        assert main(["run", str(trap_file), "boom", "7",
                     "--crash-dir", str(crashes)]) == 0
        assert not crashes.exists()
        assert main(["run", str(trap_file), "boom", "70000",
                     "--crash-dir", str(crashes)]) == EXIT_TRAP
        assert (crashes / "boom" / "manifest.json").is_file()

    def test_crash_bundle_replays_trap_cross_engine(self, trap_file, tmp_path,
                                                    capsys):
        crashes = tmp_path / "crashes"
        main(["run", str(trap_file), "boom", "70000",
              "--crash-dir", str(crashes)])
        capsys.readouterr()
        assert main(["replay", str(crashes / "boom"),
                     "--engine", "legacy"]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out and "out of bounds" in out

    def test_perturbed_log_diverges(self, trap_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["run", str(trap_file), "boom", "70000", "--record", str(bundle)])
        log = bundle / "replay.jsonl"
        lines = log.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["args"] = [99]
        lines[1] = json.dumps(entry)
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == EXIT_REPLAY_DIVERGENCE
        assert "DIVERGED" in capsys.readouterr().err

    def test_bundle_inspect_and_verify(self, trap_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["run", str(trap_file), "boom", "70000", "--record", str(bundle)])
        capsys.readouterr()
        assert main(["bundle", str(bundle), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "invoke crash bundle" in out
        assert "verify: ok" in out

    def test_bundle_on_missing_directory(self, tmp_path, capsys):
        assert main(["bundle", str(tmp_path / "nope")]) == 1
        assert "not a crash bundle" in capsys.readouterr().err

    def test_record_with_analysis(self, minic_file, tmp_path, capsys):
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        bundle = tmp_path / "bundle"
        assert main(["run", str(out), "main", "5", "--analysis", "mix",
                     "--record", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_old_bundle_with_hook_dispatch_flag_replays(
            self, minic_file, tmp_path, capsys):
        """Bundles written when hook dispatch had a generic/per-site switch
        carry it in their engine block; replay ignores it."""
        out = tmp_path / "prog.wasm"
        main(["compile", str(minic_file), "-o", str(out)])
        bundle = tmp_path / "bundle"
        assert main(["run", str(out), "main", "5", "--analysis", "mix",
                     "--record", str(bundle)]) == 0
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest["engine"]) == {"predecode"}
        # the removed switch, spelled as older manifests spell it
        manifest["engine"]["specialize" "_hooks"] = False
        manifest_path.write_text(json.dumps(manifest, indent=2))
        capsys.readouterr()
        for engine in ([], ["--engine", "legacy"], ["--engine", "predecode"]):
            assert main(["replay", str(bundle), *engine]) == 0
            assert "reproduced" in capsys.readouterr().out


class TestFuzzBundles:
    def test_save_failures_flag_accepted(self, tmp_path, capsys):
        # the seeded campaign has no escapes; the flag must still parse and
        # the directory stays absent (bundles are only written on escapes)
        failures = tmp_path / "failures"
        assert main(["fuzz", "--mutants", "30", "--seed", "20260806",
                     "--save-failures", str(failures), "--reduce"]) == 0
        assert not failures.exists()
