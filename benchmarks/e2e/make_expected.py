"""Write ``expected.json``, the oracle the end-to-end benchmark checks against.

Run from the repository root::

    PYTHONPATH=src python benchmarks/e2e/make_expected.py

Every ``repro run`` output is produced on the legacy interpreter
(``REPRO_PREDECODE=0``, generic hook dispatch), the independent engine the
benchmark's default engine is checked against:

* ``run`` — sha256 of the stdout of ``repro run KERNEL.wasm main
  [--analysis A]`` for every PolyBench kernel at its default ``n`` under no
  analysis and each of the seven analyses, and at ``2n`` under none;
* ``printed`` — each of those kernels' printed values and result;
* ``instrumented`` — sha256 of every binary the ``instrument`` workload
  produces (all hooks), pinned after ``validate_module`` accepts it.

The WASI programs are checked against their reference models instead, and
fuzz campaigns against ``escapes == 0``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import drive
import ops

from repro.core import instrument_module
from repro.wasm import decode_module, encode_module, validate_module
from repro.workloads.polybench import kernel_names

#: Machines read these at construction, so setting them in main() is enough.
ENGINE = {"REPRO_PREDECODE": "0", "REPRO_SPECIALIZE_HOOKS": "0"}


def main() -> int:
    os.environ.update(ENGINE)
    run, printed, instrumented = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in kernel_names():
            for scale in (1, 2):
                path = Path(tmp) / f"{name}-x{scale}.wasm"
                path.write_bytes(ops.kernel_binary(name, scale))
                key = ops.kernel_key(name, scale)
                analyses = ("none",) + (ops.ANALYSES if scale == 1 else ())
                for analysis in analyses:
                    status, stdout, stderr = drive.run_cli(
                        ["run", str(path), "main", "--analysis", analysis])
                    if status != 0:
                        raise SystemExit(f"{key}/{analysis}: exit {status}: {stderr}")
                    run[f"{key}/{analysis}"] = ops.sha256(stdout)
                    if analysis == "none":
                        lines = stdout.decode().splitlines()
                        printed[key] = {
                            "printed": [line.split(" ", 1)[1] for line in lines
                                        if line.startswith("[print] ")],
                            "result": lines[-1].split(" = ", 1)[1]}
            print(f"{name}: {len(run)} run oracles", file=sys.stderr)

    inputs = [(f"polybench/{name}", lambda name=name: ops.kernel_binary(name))
              for name in kernel_names()]
    inputs += [(f"{kind}/{scale}",
                lambda kind=kind, scale=scale: ops.synthetic_binary(kind, scale))
               for kind, scale in ops.SYNTHETIC]
    for key, make in inputs:
        data = make()
        result = instrument_module(decode_module(data))
        out = encode_module(result.module)
        validate_module(decode_module(out))
        instrumented[key] = {"input_sha256": ops.sha256(data),
                             "sha256": ops.sha256(out), "bytes_in": len(data),
                             "bytes_out": len(out), "hooks": result.hook_count}
        print(f"{key}: {len(data)} -> {len(out)} bytes", file=sys.stderr)

    payload = {"schema": ops.EXPECTED_SCHEMA,
               "engine": {"predecode": False, "specialize_hooks": False},
               "run": run, "printed": printed, "instrumented": instrumented}
    ops.EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ops.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
