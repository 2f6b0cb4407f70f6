"""The fuzz campaign engine: blind or coverage-guided, serial or sharded.

:mod:`repro.eval.faultinject` supplies the seed corpus, the mutators and
the per-binary pipeline classification; this module is the one campaign
loop that drives them. With default settings it runs one blind shard in
process — the classic seeded fault-injection campaign — and it scales up
to a corpus-evolving engine:

* **Coverage guidance** — every mutant's pipeline run is observed by a
  :class:`~repro.eval.coverage.CoverageCollector` over the decoder,
  validator, instrumenter, and encoder. Mutants that reach new toolkit
  edges are admitted into the corpus, so later mutations start from inputs
  that already penetrate deeper into the pipeline's state space.
* **Sharded execution** — the mutant budget is split into rounds; each
  round fans its contiguous index blocks out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`. Shards are merged in
  submission order (never completion order), so a parallel campaign is as
  deterministic as a serial one modulo coverage-admission timing.
* **Deterministic per-mutant RNG** — every mutant's mutation stream is
  seeded independently from ``(campaign_seed, corpus_entry, index)`` via
  :func:`~repro.eval.faultinject.mutant_rng`, so any shard's mutants can be
  regenerated exactly without replaying the rest of the campaign.
* **Signature dedup + auto-triage** — outcomes are deduplicated across
  shards in one table keyed on the ``(stage, outcome, error-class)``
  taxonomy; the *first* mutant exhibiting a previously unseen signature is
  ddmin-reduced (:mod:`repro.eval.reduce`) and persisted as a replayable
  crash bundle (:func:`repro.interp.replay.write_crash_bundle`).
* **Resumable on-disk corpus** — ``--corpus-dir`` persists evolved entries,
  the coverage map, the signature table, and the campaign cursor in a
  versioned ``corpus.json``; a rerun picks up where the last one stopped
  and only bundles genuinely new signatures.

Everything is pure-stdlib and importable; ``repro fuzz --parallel N
--coverage`` is a thin CLI wrapper and ``benchmarks/test_fuzz_bench.py``
records throughput and guidance quality in ``BENCH_fuzz.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .coverage import CoverageCollector, CoverageMap, default_backend
from .faultinject import (STAGES, Failure, classify, mutant_rng, mutate,
                          save_failure_bundle, seed_corpus)

#: Schema tag of the on-disk corpus state. Mechanical format changes bump
#: the trailing number; readers refuse anything else.
CORPUS_SCHEMA = "repro.fuzz-corpus/1"

#: Version of the mutation/coverage semantics baked into persisted corpora.
#: Bump when MUTATORS, the per-mutant RNG derivation, or the edge encoding
#: change: an evolved corpus only transfers between identical semantics,
#: and the CI corpus cache key includes this number so stale caches are
#: discarded instead of resumed.
MUTATOR_VERSION = 1

#: Mutants per shard per round. Large enough to amortize process-pool
#: dispatch and payload pickling, small enough that coverage and corpus
#: admissions propagate between shards a few times per second.
DEFAULT_ROUND_SIZE = 500

#: Cap on corpus admissions per shard round (keeps rounds bounded when a
#: fresh campaign discovers hundreds of new edges at once).
MAX_ADDITIONS_PER_SHARD = 8


def signature_key(stage: str | None, outcome: str, exc_type: str | None) -> str:
    """The dedup-table key for one pipeline outcome, as a flat string."""
    return f"{stage or 'pass'}/{outcome}/{exc_type or '-'}"


@dataclass
class FuzzConfig:
    """One campaign's knobs (everything the shards need is derived here)."""

    mutants: int = 5000
    seed: int = 20260806
    parallel: int = 1
    coverage: bool = False
    execute: bool = True
    engines: tuple = (True, False)
    #: persisted corpus state; reduced new-signature bundles go to
    #: ``<corpus_dir>/signatures``.
    corpus_dir: str | None = None
    #: where escape crash bundles go (mirrors ``repro fuzz --save-failures``).
    save_failures: str | None = None
    #: stop admitting rounds once this much wall-clock has elapsed.
    time_budget: float | None = None
    round_size: int = DEFAULT_ROUND_SIZE
    #: ddmin budget per new signature; small on purpose — triage wants a
    #: small reproducer fast, not a 1-minimal one.
    reduce_tests: int = 150
    #: route shards through supervised service workers (repro.serve): hard
    #: wall-clock deadline + RSS ceiling per shard, SIGKILL on breach.
    supervised: bool = False
    #: hard deadline per supervised shard before the worker is killed.
    shard_timeout: float = 120.0
    #: RSS ceiling per supervised shard worker (``None``/0 disables).
    shard_rss_limit_mb: float | None = 2048.0
    #: widen the seed corpus with the WASI-preview1 workloads; their
    #: mutants execute against an injected-fault host module whose fault
    #: seed derives from the mutant bytes (still a pure function).
    wasi: bool = False


@dataclass
class FuzzResult:
    """Aggregate outcome of one (possibly resumed) campaign run."""

    mutants: int = 0
    seed: int = 0
    parallel: int = 1
    coverage: bool = False
    backend: str | None = None
    elapsed: float = 0.0
    rejected_at: dict = field(default_factory=dict)
    survived: int = 0
    escapes: list[Failure] = field(default_factory=list)
    #: signature key -> cumulative count (this run only)
    signatures: dict = field(default_factory=dict)
    #: signature keys first seen during this run, in discovery order
    new_signatures: list = field(default_factory=list)
    corpus_size: int = 0
    corpus_added: int = 0
    edges: int = 0
    new_edges: int = 0
    #: crash-bundle directories written this run (signatures + escapes)
    bundles: list = field(default_factory=list)
    #: signature keys already in the persisted table when the run started
    #: (a resumed campaign must not re-announce or re-bundle them)
    preexisting: frozenset = frozenset()
    #: why a persisted corpus was discarded (stale schema/mutator version),
    #: or None when it loaded cleanly / no corpus dir was used
    corpus_reset: str | None = None
    #: Ctrl-C ended the campaign early; the completed shard prefix was
    #: merged and the resume cursor only advanced over merged blocks
    interrupted: bool = False
    #: shards in supervised mode whose worker the supervisor SIGKILLed
    shards_killed: int = 0
    supervised: bool = False

    @property
    def ok(self) -> bool:
        return not self.escapes

    @property
    def mutants_per_sec(self) -> float:
        return self.mutants / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        parts = [f"{self.mutants} mutants (seed {self.seed}, "
                 f"{self.parallel} shard{'s' if self.parallel != 1 else ''}"
                 + (f", coverage via {self.backend}" if self.coverage else "")
                 + f") in {self.elapsed:.1f}s "
                 f"({self.mutants_per_sec:,.0f}/s)"]
        for stage in STAGES:
            if stage in self.rejected_at:
                parts.append(f"{self.rejected_at[stage]} rejected at {stage}")
        parts.append(f"{self.survived} survived")
        parts.append(f"{len(self.signatures)} signatures "
                     f"({len(self.new_signatures)} new)")
        if self.coverage:
            parts.append(f"{self.edges} edges (+{self.new_edges}), "
                         f"corpus {self.corpus_size} (+{self.corpus_added})")
        if self.supervised:
            parts.append(f"{self.shards_killed} shards killed")
        parts.append(f"{len(self.escapes)} escapes")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)


# -- on-disk corpus state -------------------------------------------------------


def _entry_name(data: bytes) -> str:
    return "cov-" + hashlib.sha256(data).hexdigest()[:12]


class CorpusState:
    """Seed + evolved corpus entries, coverage map, signature table, cursor.

    The in-memory form the campaign controller works on; :meth:`save` and
    :meth:`load` round-trip it through a ``corpus.json`` plus one
    ``entries/<name>.wasm`` file per evolved entry. Seed entries are always
    regenerated from :func:`~repro.eval.faultinject.seed_corpus` (they are
    deterministic by construction and must not drift with a stale cache).
    """

    def __init__(self, entries: dict[str, bytes] | None = None):
        self.entries: dict[str, bytes] = dict(entries or seed_corpus())
        self.coverage = CoverageMap()
        #: signature key -> cumulative count over the corpus' whole history
        self.signatures: dict[str, int] = {}
        #: next global mutant index (resume cursor)
        self.next_index = 0
        #: evolved entry name -> {"parent": ..., "index": ..., "new_edges": n}
        self.lineage: dict[str, dict] = {}
        #: why :meth:`load` discarded a persisted corpus (None = clean load)
        self.reset_reason: str | None = None

    def admit(self, data: bytes, parent: str, index: int,
              new_edges: int) -> str | None:
        """Add one coverage-earning mutant as a corpus entry."""
        name = _entry_name(data)
        if name in self.entries:
            return None
        self.entries[name] = data
        self.lineage[name] = {"parent": parent, "index": index,
                              "new_edges": new_edges}
        return name

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        entries_dir = directory / "entries"
        entries_dir.mkdir(parents=True, exist_ok=True)
        # WASI seeds count as seed entries too: both sets regenerate
        # deterministically and must never persist as evolved entries
        seed_names = set(seed_corpus(wasi=True))
        for name, data in self.entries.items():
            if name in seed_names:
                continue
            path = entries_dir / f"{name}.wasm"
            if not path.exists():
                path.write_bytes(data)
        state = {
            "schema": CORPUS_SCHEMA,
            "mutator_version": MUTATOR_VERSION,
            "next_index": self.next_index,
            "coverage": self.coverage.to_payload(),
            "signatures": self.signatures,
            "entries": {name: self.lineage.get(name, {})
                        for name in sorted(self.entries)
                        if name not in seed_names},
        }
        (directory / "corpus.json").write_text(
            json.dumps(state, indent=2) + "\n")
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "CorpusState":
        """Load persisted state; starts fresh when the directory is absent,
        or carries an incompatible schema/mutator version (a stale CI cache
        must degrade to a fresh campaign, not an error). A discarded corpus
        records *why* in ``reset_reason`` — the campaign surfaces it as a
        stderr warning and a ``fuzz_corpus_reset`` telemetry event instead
        of silently throwing evolved entries away."""
        state = cls()
        directory = Path(directory)
        path = directory / "corpus.json"
        if not path.is_file():
            return state
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            state.reset_reason = f"unreadable corpus.json: {exc}"
            return state
        schema = payload.get("schema")
        if schema != CORPUS_SCHEMA:
            state.reset_reason = (f"stale corpus schema {schema!r} "
                                  f"(current is {CORPUS_SCHEMA!r})")
            return state
        version = payload.get("mutator_version")
        if version != MUTATOR_VERSION:
            state.reset_reason = (f"stale mutator version {version!r} "
                                  f"(current is {MUTATOR_VERSION})")
            return state
        state.next_index = int(payload.get("next_index", 0))
        state.coverage = CoverageMap.from_payload(payload.get("coverage", ()))
        state.signatures = {str(k): int(v)
                            for k, v in payload.get("signatures", {}).items()}
        for name, lineage in payload.get("entries", {}).items():
            entry = directory / "entries" / f"{name}.wasm"
            if entry.is_file():
                state.entries[name] = entry.read_bytes()
                state.lineage[name] = lineage
        return state


def load_corpus_entries(directory: str | Path) -> dict[str, bytes]:
    """Seed + evolved entries, for ``regenerate_mutant(corpus=...)``."""
    return dict(CorpusState.load(directory).entries)


# -- shard worker ---------------------------------------------------------------


def _shard_worker(payload: dict) -> dict:
    """Fuzz one contiguous block of mutant indices; run in a worker process.

    Pure function of its payload: the corpus snapshot, the known coverage
    and signature tables, and the index block. Returns plain picklable
    data; the controller owns all merging.
    """
    entries: dict[str, bytes] = payload["entries"]
    names = sorted(entries)
    seed: int = payload["seed"]
    execute: bool = payload["execute"]
    engines = tuple(payload["engines"])
    want_coverage: bool = payload["coverage"]
    known_signatures = set(payload["known_signatures"])
    max_additions: int = payload["max_additions"]

    coverage = CoverageMap(payload["known_edges"]) if want_coverage else None
    collector = CoverageCollector() if want_coverage else None

    rejected_at: dict[str, int] = {}
    survived = 0
    signature_counts: dict[str, int] = {}
    signature_examples: dict[str, dict] = {}
    escapes: list[dict] = []
    additions: list[dict] = []

    # Guided scheduling state: seeds and evolved frontier entries alternate
    # (even indices draw from the seed stream, odd from the frontier), and
    # guided mutants use single-op mutation so children stay close to their
    # interesting parent. Blind mode keeps the round-robin + 1-3 op
    # schedule, so blind aggregates are independent of the shard count.
    evolved = [n for n in names if n.startswith("cov-")]
    seeds_only = [n for n in names if not n.startswith("cov-")]
    max_ops = 1 if want_coverage else 3

    if collector is not None:
        collector.__enter__()
    try:
        for index in payload["indices"]:
            if want_coverage:
                if not evolved or index % 2 == 0:
                    name = seeds_only[(index // 2) % len(seeds_only)]
                else:
                    name = evolved[(index // 2) % len(evolved)]
            else:
                name = names[index % len(names)]
            rng = mutant_rng(seed, name, index)
            mutant, recipe = mutate(entries[name], rng, max_ops=max_ops)
            outcome = classify(mutant, execute=execute, engines=engines)
            sig = signature_key(outcome.stage, outcome.outcome,
                                outcome.exc_type)
            signature_counts[sig] = signature_counts.get(sig, 0) + 1
            record = {
                "name": name, "index": index, "recipe": recipe,
                "max_ops": max_ops,
                "stage": outcome.stage, "outcome": outcome.outcome,
                "exc_type": outcome.exc_type, "message": outcome.message,
                "mutant": mutant,
            }
            if sig not in known_signatures and sig not in signature_examples:
                signature_examples[sig] = record
            if outcome.outcome == "escape":
                escapes.append(record)
            elif outcome.outcome == "pass":
                survived += 1
            else:
                rejected_at[outcome.stage] = rejected_at.get(outcome.stage, 0) + 1
            if collector is not None:
                new = coverage.add_all(collector.drain())
                # Admission gate: only keep mutants whose pipeline run went
                # deep — full passes or execute-stage rejections. Mutants
                # that die in the decoder reach "new" edges too (error
                # paths), but evolving toward decode garbage starves the
                # deep-stage frontier the guidance exists to push.
                deep = (outcome.outcome == "pass"
                        or outcome.stage == "execute")
                if new and deep and len(additions) < max_additions:
                    additions.append({"parent": name, "index": index,
                                      "data": mutant,
                                      "edges": sorted(new)})
    finally:
        if collector is not None:
            collector.__exit__(None, None, None)

    return {
        "mutants": len(payload["indices"]),
        "rejected_at": rejected_at,
        "survived": survived,
        "signature_counts": signature_counts,
        "signature_examples": signature_examples,
        "escapes": escapes,
        "additions": additions,
        "new_edges": sorted(coverage.edges - set(payload["known_edges"]))
                     if coverage is not None else [],
    }


def _shard_payload(config: FuzzConfig, state: CorpusState,
                   indices: list[int]) -> dict:
    return {
        "seed": config.seed,
        "indices": indices,
        "entries": dict(state.entries),
        "execute": config.execute,
        "engines": tuple(config.engines),
        "coverage": config.coverage,
        "known_edges": state.coverage.to_payload(),
        "known_signatures": sorted(state.signatures),
        "max_additions": MAX_ADDITIONS_PER_SHARD,
    }


# -- signature triage -----------------------------------------------------------


def _bundle_dir_name(sig: str) -> str:
    return sig.replace("/", "-").replace(".", "_")


def _record_failure(record: dict, seed: int) -> Failure:
    return Failure(corpus_name=record["name"], index=record["index"],
                   seed=seed, stage=record["stage"] or "unknown",
                   recipe=record["recipe"], exc_type=record["exc_type"] or "-",
                   message=record["message"] or "")


def save_signature_bundle(record: dict, seed: int, directory: str | Path,
                          execute: bool = True,
                          engines: tuple = (True, False),
                          reduce_tests: int = 150) -> Path:
    """Reduce one new-signature example and persist it as a crash bundle.

    The bundle manifest mirrors escape bundles (``kind: pipeline`` with the
    fuzz provenance triple), so ``repro replay`` and ``repro bundle`` work
    on it unchanged; reduction preserves the signature by construction.
    """
    from ..interp.replay import write_crash_bundle
    from .faultinject import Classification
    from .reduce import reduce_failure

    target = Classification(stage=record["stage"], outcome=record["outcome"],
                            exc_type=record["exc_type"],
                            message=record["message"])
    mutant = record["mutant"]
    reduction = None
    if reduce_tests > 0:
        try:
            mutant, reduction = reduce_failure(
                mutant, target=target, execute=execute, engines=engines,
                max_tests=reduce_tests)
        except ValueError:
            pass  # e.g. a flaky non-reproducing example: keep it unreduced
    sig = signature_key(record["stage"], record["outcome"], record["exc_type"])
    manifest = {
        "kind": "pipeline",
        "error": {"type": record["exc_type"], "message": record["message"],
                  "stage": record["stage"], "outcome": record["outcome"]},
        "fuzz": {"seed": seed, "corpus": record["name"],
                 "index": record["index"], "recipe": record["recipe"],
                 "max_ops": record.get("max_ops", 3),
                 "signature": sig},
    }
    if reduction is not None:
        manifest["reduction"] = {
            "original_size": reduction.original_size,
            "reduced_size": reduction.reduced_size,
            "tests": reduction.tests,
        }
    target_dir = Path(directory) / _bundle_dir_name(sig)
    return write_crash_bundle(target_dir, mutant, manifest)


# -- the campaign controller ----------------------------------------------------


def _ignore_sigint() -> None:
    """Process-pool initializer: shard workers must not die on the
    terminal's Ctrl-C (the whole foreground process group receives it);
    the parent cancels pending shards and drains the running ones, then
    converts the interrupt into the exit taxonomy."""
    import signal
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass


def _supervised_shard(pool, payload: dict, config: FuzzConfig) -> dict | None:
    """Run one shard in a supervised service worker.

    ``None`` means the supervisor SIGKILLed the shard (hard deadline, RSS
    ceiling, or a crash that exhausted its retry): the campaign counts the
    kill and advances the cursor past the block instead of dying with it.
    A clean worker-side error, by contrast, is a controller bug and raises.
    """
    from ..wasm.errors import ServiceError, WorkerKilled
    try:
        response = pool.submit({"kind": "fuzz_shard", "payload": payload},
                               timeout=config.shard_timeout)
    except WorkerKilled:
        return None
    except ServiceError as exc:  # pragma: no cover - e.g. pool closed
        raise RuntimeError(f"supervised shard failed: {exc}") from exc
    if not response.get("ok"):
        error = response.get("error", {})
        raise RuntimeError(f"supervised shard failed: {error.get('type')}: "
                           f"{error.get('message')}")
    return response["shard"]


def _merge_shard(config: FuzzConfig, state: CorpusState, result: FuzzResult,
                 shard: dict) -> None:
    """Fold one shard's report into the campaign state, deduplicating.

    Merging is the only place campaign-global state changes, and shards
    are merged in submission order, so the same shard reports always
    produce the same campaign state regardless of completion order.
    """
    result.mutants += shard["mutants"]
    result.survived += shard["survived"]
    for stage, count in shard["rejected_at"].items():
        result.rejected_at[stage] = result.rejected_at.get(stage, 0) + count
    for sig, count in shard["signature_counts"].items():
        state.signatures[sig] = state.signatures.get(sig, 0) + count
        result.signatures[sig] = result.signatures.get(sig, 0) + count

    sig_dir = (Path(config.corpus_dir) / "signatures"
               if config.corpus_dir is not None else None)
    for sig in sorted(shard["signature_examples"]):
        if sig in result.new_signatures or sig in result.preexisting:
            continue  # an earlier shard/round or a resumed table owns it
        result.new_signatures.append(sig)
        # the all-stages-pass signature is tracked but not bundled: there
        # is no failure to reproduce (or reduce) in it
        if sig_dir is not None and shard["signature_examples"][sig]["outcome"] != "pass":
            bundle = save_signature_bundle(
                shard["signature_examples"][sig], config.seed, sig_dir,
                execute=config.execute, engines=config.engines,
                reduce_tests=config.reduce_tests)
            result.bundles.append(str(bundle))

    for record in shard["escapes"]:
        failure = _record_failure(record, config.seed)
        result.escapes.append(failure)
        if config.save_failures is not None:
            bundle = save_failure_bundle(failure, record["mutant"],
                                         config.save_failures)
            result.bundles.append(str(bundle))

    if config.coverage:
        actually_new = state.coverage.add_all(shard["new_edges"])
        result.new_edges += len(actually_new)
        for addition in shard["additions"]:
            # re-check admissions against the *merged* map: an entry only
            # enters the corpus if some of its edges were still unseen
            # after every earlier shard (and round) was folded in
            if not set(addition["edges"]) & actually_new:
                continue
            name = state.admit(addition["data"], addition["parent"],
                               addition["index"],
                               len(set(addition["edges"])))
            if name is not None:
                result.corpus_added += 1


def run_fuzz_campaign(config: FuzzConfig) -> FuzzResult:
    """Run one campaign (serial, sharded, or supervised) and return its
    merged result.

    Ctrl-C never loses completed work: shard workers ignore SIGINT, the
    parent cancels pending shards, merges the contiguous prefix of
    completed ones, and advances the resume cursor only over merged
    blocks — so a resumed campaign regenerates exactly the un-merged
    mutants (``result.interrupted`` tells the CLI to exit non-zero).
    """
    started = time.perf_counter()
    state = (CorpusState.load(config.corpus_dir)
             if config.corpus_dir is not None else CorpusState())
    if config.wasi:
        from .faultinject import wasi_corpus
        for name, data in wasi_corpus().items():
            state.entries.setdefault(name, data)
    result = FuzzResult(seed=config.seed, parallel=max(1, config.parallel),
                        coverage=config.coverage,
                        supervised=config.supervised,
                        backend=default_backend() if config.coverage else None)
    if state.reset_reason is not None:
        result.corpus_reset = state.reset_reason
        from ..obs.log import get_logger
        get_logger("repro.fuzz").warning(
            "fuzz corpus reset",
            msg=f"{state.reset_reason}; starting a fresh campaign",
            reason=state.reset_reason)
    # signatures already in the persisted table are not "new" this run
    result.preexisting = frozenset(state.signatures)

    executor = None
    pool = None
    run_one = _shard_worker
    if config.supervised:
        from concurrent.futures import ThreadPoolExecutor

        from ..serve import ServeConfig, WorkerPool
        pool = WorkerPool(ServeConfig(
            workers=max(1, config.parallel),
            request_timeout=config.shard_timeout,
            rss_limit_mb=config.shard_rss_limit_mb or None)).start()
        executor = ThreadPoolExecutor(max_workers=max(1, config.parallel),
                                      thread_name_prefix="repro-fuzz-shard")

        def run_one(payload, _pool=pool):
            return _supervised_shard(_pool, payload, config)
    elif config.parallel > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        executor = ProcessPoolExecutor(max_workers=config.parallel,
                                       mp_context=context,
                                       initializer=_ignore_sigint)
    try:
        remaining = config.mutants
        while remaining > 0:
            if (config.time_budget is not None
                    and time.perf_counter() - started >= config.time_budget):
                break
            workers = max(1, config.parallel)
            round_total = min(remaining, workers * config.round_size)
            start = state.next_index
            blocks, cursor = [], start
            for shard in range(workers):
                share = round_total // workers + (1 if shard < round_total % workers else 0)
                if share:
                    blocks.append(list(range(cursor, cursor + share)))
                    cursor += share
            payloads = [_shard_payload(config, state, block)
                        for block in blocks]
            completed: list = []
            futures: list = []
            try:
                if executor is None:
                    for payload in payloads:
                        completed.append(run_one(payload))
                else:
                    futures = [executor.submit(run_one, payload)
                               for payload in payloads]
                    for future in futures:
                        completed.append(future.result())
            except KeyboardInterrupt:
                result.interrupted = True
                for future in futures:
                    future.cancel()
            # submission-order merge over the contiguous completed prefix
            # (all of it on a normal round); a killed supervised shard
            # (None) is counted and skipped, its block's cursor advance
            # kept — its mutants are deterministically regenerable
            merged = 0
            for report, block in zip(completed, blocks):
                if report is None:
                    result.shards_killed += 1
                else:
                    _merge_shard(config, state, result, report)
                state.next_index = block[-1] + 1
                merged += len(block)
            remaining -= merged
            if result.interrupted:
                break
    finally:
        if executor is not None:
            executor.shutdown()
        if pool is not None:
            pool.close()

    result.elapsed = time.perf_counter() - started
    result.corpus_size = len(state.entries)
    result.edges = len(state.coverage)
    if config.corpus_dir is not None:
        state.save(config.corpus_dir)
    return result


# -- telemetry folding ----------------------------------------------------------


def fold_into_telemetry(result: FuzzResult, telemetry) -> None:
    """Publish campaign stats on a :class:`repro.obs.Telemetry` sink."""
    if telemetry is None:
        return
    registry = telemetry.registry
    registry.counter("repro_fuzz_mutants_total",
                     help="mutants driven through the pipeline").set(
        result.mutants)
    for stage, count in sorted(result.rejected_at.items()):
        registry.counter("repro_fuzz_rejections_total",
                         labels={"stage": stage},
                         help="mutants rejected per pipeline stage").set(count)
    registry.counter("repro_fuzz_survivors_total",
                     help="mutants surviving the whole pipeline").set(
        result.survived)
    registry.counter("repro_fuzz_escapes_total",
                     help="non-WasmError pipeline escapes").set(
        len(result.escapes))
    registry.counter("repro_fuzz_signatures_total",
                     help="distinct (stage, outcome, error-class) "
                          "signatures this campaign").set(
        len(result.signatures))
    registry.gauge("repro_fuzz_mutants_per_second",
                   help="campaign throughput").set(result.mutants_per_sec)
    registry.gauge("repro_fuzz_corpus_size",
                   help="corpus entries after evolution").set(
        result.corpus_size)
    registry.gauge("repro_fuzz_coverage_edges",
                   help="toolkit edges in the coverage frontier").set(
        result.edges)
    if result.supervised:
        registry.counter("repro_fuzz_shards_killed_total",
                         help="supervised shards SIGKILLed by the "
                              "service watchdog").set(result.shards_killed)
    for failure in result.escapes:
        telemetry.event("fuzz_escape", detail=str(failure))
    for sig in result.new_signatures:
        telemetry.event("fuzz_new_signature", signature=sig)
    if result.corpus_reset:
        telemetry.event("fuzz_corpus_reset", reason=result.corpus_reset)
    if result.interrupted:
        telemetry.event("fuzz_interrupted", mutants=result.mutants,
                        next_index_saved=True)


def bench_payload(result: FuzzResult) -> dict:
    """The BENCH_fuzz.json fragment for one campaign run."""
    return {
        "mutants": result.mutants,
        "seed": result.seed,
        "parallel": result.parallel,
        "coverage": result.coverage,
        "backend": result.backend,
        "elapsed_seconds": round(result.elapsed, 4),
        "mutants_per_sec": round(result.mutants_per_sec, 1),
        "signatures": len(result.signatures),
        "new_signatures": len(result.new_signatures),
        "corpus_size": result.corpus_size,
        "edges": result.edges,
        "escapes": len(result.escapes),
        "rejected_at": dict(sorted(result.rejected_at.items())),
        "survived": result.survived,
        "supervised": result.supervised,
        "shards_killed": result.shards_killed,
    }
