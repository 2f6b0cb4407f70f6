"""The eight Table-4 analyses, exercised end-to-end on real programs."""

import pytest

from repro import analyze
from repro.analyses import (ALL_ANALYSES, BasicBlockProfiler, BranchCoverage,
                            CallGraphAnalysis, CryptominerDetector,
                            InstructionCoverage, InstructionMixAnalysis,
                            MemoryTracer, TaintAnalysis)
from repro.core.analysis import used_groups
from repro.interp import Linker
from repro.minic import compile_source
from repro.wasm.types import F64, I32, FuncType


@pytest.fixture
def workload():
    return compile_source("""
        import func print_f64(x: f64);
        memory 1;
        func helper(x: i32) -> i32 { return x * 2 + 1; }
        func unused() -> i32 { return 0 - 1; }
        export func main(n: i32) -> f64 {
            var s: f64 = 0.0;
            var i: i32;
            for (i = 0; i < n; i = i + 1) {
                mem_f64[i] = f64(helper(i));
                s = s + mem_f64[i];
            }
            print_f64(s);
            return s;
        }
    """, "workload")


@pytest.fixture
def print_sink():
    linker = Linker()
    linker.define_function("env", "print_f64", FuncType((F64,), ()),
                           lambda args: None)
    return linker


class TestInstructionMix:
    def test_counts(self, workload, print_sink):
        mix = InstructionMixAnalysis()
        analyze(workload, mix, linker=print_sink, entry="main", args=(5,))
        assert mix.counts["i32.mul"] == 5       # one per helper call
        assert mix.counts["call"] == 6          # 5 helper + 1 print
        assert mix.counts["f64.add"] == 5
        assert mix.total() > 100
        assert mix.top(1)[0][1] == max(mix.counts.values())

    def test_report_renders(self, workload, print_sink):
        mix = InstructionMixAnalysis()
        analyze(workload, mix, linker=print_sink, entry="main", args=(2,))
        assert "i32.add" in mix.report()


class TestBasicBlockProfiler:
    def test_loop_counts(self, workload, print_sink):
        profiler = BasicBlockProfiler()
        analyze(workload, profiler, linker=print_sink, entry="main", args=(7,))
        # uses only the begin hook (paper: 9 LOC)
        assert used_groups(profiler) == frozenset({"begin"})
        loops = profiler.loop_iterations()
        assert sum(loops.values()) == 8  # 7 iterations + final check
        funcs = profiler.function_counts()
        assert funcs[1] == 7  # helper called 7 times

    def test_hottest(self, workload, print_sink):
        profiler = BasicBlockProfiler()
        analyze(workload, profiler, linker=print_sink, entry="main", args=(3,))
        (loc, kind), count = profiler.hottest(1)[0]
        assert count >= 3


class TestCoverage:
    def test_instruction_coverage_partial_then_full(self, print_sink):
        module = compile_source("""
            export func f(c: i32) -> i32 {
                if (c) { return 1; }
                return 2;
            }
        """)
        cov = InstructionCoverage()
        session = analyze(module, cov, entry="f", args=(1,))
        partial = cov.ratio(session.module_info)
        assert 0 < partial < 1
        session.invoke("f", [0])
        assert cov.ratio(session.module_info) > partial

    def test_branch_coverage_figure7(self, print_sink):
        module = compile_source("""
            export func f(c: i32) -> i32 {
                if (c) { return 1; }
                return 2;
            }
        """)
        cov = BranchCoverage()
        # exactly the hooks of Figure 7
        assert used_groups(cov) == frozenset({"if", "br_if", "br_table",
                                              "select"})
        session = analyze(module, cov, entry="f", args=(1,))
        assert cov.fully_covered() == set()
        assert len(cov.partially_covered()) >= 1
        session.invoke("f", [0])
        assert len(cov.fully_covered()) >= 1
        assert 0 < cov.ratio() <= 1


class TestCallGraph:
    def test_graph_structure(self, workload, print_sink):
        cga = CallGraphAnalysis()
        assert used_groups(cga) == frozenset({"call"})
        session = analyze(workload, cga, linker=print_sink,
                          entry="main", args=(4,))
        graph = cga.graph(session.module_info)
        # main (idx 3) calls helper (idx 1) and print (idx 0)
        assert graph.has_edge(3, 1)
        assert graph.has_edge(3, 0)
        assert graph.nodes[1]["name"] == "helper"

    def test_dynamically_dead(self, workload, print_sink):
        cga = CallGraphAnalysis()
        session = analyze(workload, cga, linker=print_sink,
                          entry="main", args=(2,))
        dead = cga.dynamically_dead(session.module_info, roots=[3])
        assert 2 in dead  # `unused` never called

    def test_indirect_calls_recorded(self):
        module = compile_source("""
            type op = func(i32) -> i32;
            func a(x: i32) -> i32 { return x + 1; }
            table [a];
            export func main() -> i32 { return call_indirect[op](0, 1); }
        """)
        cga = CallGraphAnalysis()
        analyze(module, cga, entry="main")
        assert cga.indirect_call_sites() == {(1, 0)}

    def test_reachable_from_matches_networkx(self):
        # the BFS over the edge counter must agree with networkx's
        # descendants across mutual recursion, an indirect edge, and roots
        # that call nothing or never ran
        import networkx as nx
        module = compile_source("""
            type op = func(i32) -> i32;
            func leaf(x: i32) -> i32 { return x + 1; }
            func twice(x: i32) -> i32 { return leaf(leaf(x)); }
            func even(n: i32) -> i32 { if (n == 0) { return 1; } return odd(n - 1); }
            func odd(n: i32) -> i32 { if (n == 0) { return 0; } return even(n - 1); }
            func unused(x: i32) -> i32 { return x; }
            table [twice, leaf];
            export func main(n: i32) -> i32 {
                return call_indirect[op](0, n) + even(n);
            }
        """)
        cga = CallGraphAnalysis()
        analyze(module, cga, entry="main", args=(3,))
        graph = cga.graph()
        assert cga.indirect_call_sites() == {(5, 1)}
        for root in range(len(module.functions)):
            expected = {root}
            if root in graph:
                expected |= nx.descendants(graph, root)
            assert cga.reachable_from(root) == expected, root
        assert cga.reachable_from(5) == {0, 1, 2, 3, 5}
        assert cga.reachable_from(4) == {4}


class TestCryptominer:
    def test_miner_like_program_detected(self):
        # hash-like kernel: lots of i32 add/and/shl/shr_u/xor
        module = compile_source("""
            export func mine(rounds: i32) -> i32 {
                var h: i32 = 0x6a09e667;
                var i: i32;
                for (i = 0; i < rounds; i = i + 1) {
                    h = (h ^ (h << 13)) + (shr_u(h, 17) & 0x45d9f3b);
                    h = h ^ shr_u(h, 5);
                }
                return h;
            }
        """)
        detector = CryptominerDetector(min_total=100)
        analyze(module, detector, entry="mine", args=(200,))
        assert detector.is_suspicious()
        assert set(detector.signature) == {"i32.add", "i32.and", "i32.shl",
                                           "i32.shr_u", "i32.xor"}

    def test_float_kernel_not_detected(self, workload, print_sink):
        detector = CryptominerDetector(min_total=10)
        analyze(workload, detector, linker=print_sink, entry="main", args=(20,))
        assert not detector.is_suspicious()


class TestMemoryTracer:
    def test_trace_contents(self, workload, print_sink):
        tracer = MemoryTracer()
        analyze(workload, tracer, linker=print_sink, entry="main", args=(4,))
        stores = [a for a in tracer.trace if a.kind == "store"]
        loads = [a for a in tracer.trace if a.kind == "load"]
        assert len(stores) == 4 and len(loads) == 4
        assert stores[0].address == 0 and stores[1].address == 8
        assert tracer.unique_addresses() == 4
        # sequential stride of 8 bytes dominates
        strides = tracer.stride_histogram()
        assert strides.get(8, 0) + strides.get(0, 0) >= len(tracer.trace) - 2

    def test_truncation(self, workload, print_sink):
        tracer = MemoryTracer(max_accesses=3)
        analyze(workload, tracer, linker=print_sink, entry="main", args=(10,))
        assert len(tracer.trace) == 3 and tracer.truncated


class TestTaint:
    def test_flow_through_memory_and_arithmetic(self):
        module = compile_source("""
            import func source() -> i32;
            import func sink(x: i32);
            memory 1;
            export func main() -> i32 {
                var s: i32 = source();
                mem_i32[2] = s + 40;
                var t: i32 = mem_i32[2] * 2;
                sink(t);
                return t;
            }
        """)
        taint = TaintAnalysis()
        taint.add_source_function("env.source", "secret")
        taint.add_sink_function("env.sink")
        linker = Linker()
        linker.define_function("env", "source", FuncType((), (I32,)), lambda a: 1)
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main")
        assert taint.has_flow("secret")
        assert taint.underflows == 0

    def test_no_false_positive(self):
        module = compile_source("""
            import func source() -> i32;
            import func sink(x: i32);
            export func main() -> i32 {
                var s: i32 = source();
                sink(42);          // clean value
                return s;
            }
        """)
        taint = TaintAnalysis()
        taint.add_source_function("env.source", "secret")
        taint.add_sink_function("env.sink")
        linker = Linker()
        linker.define_function("env", "source", FuncType((), (I32,)), lambda a: 1)
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main")
        assert not taint.has_flow()

    def test_flow_through_function_return(self):
        module = compile_source("""
            import func source() -> i32;
            import func sink(x: i32);
            func launder(x: i32) -> i32 { return x ^ 123; }
            export func main() -> i32 {
                var t: i32 = launder(source());
                sink(t);
                return t;
            }
        """)
        taint = TaintAnalysis()
        taint.add_source_function("env.source", "secret")
        taint.add_sink_function("env.sink")
        linker = Linker()
        linker.define_function("env", "source", FuncType((), (I32,)), lambda a: 7)
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main")
        assert taint.has_flow("secret")

    def test_overwriting_memory_clears_taint(self):
        module = compile_source("""
            import func source() -> i32;
            import func sink(x: i32);
            memory 1;
            export func main() -> i32 {
                mem_i32[0] = source();
                mem_i32[0] = 5;          // overwrite with clean data
                sink(mem_i32[0]);
                return 0;
            }
        """)
        taint = TaintAnalysis()
        taint.add_source_function("env.source", "secret")
        taint.add_sink_function("env.sink")
        linker = Linker()
        linker.define_function("env", "source", FuncType((), (I32,)), lambda a: 9)
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main")
        assert not taint.has_flow()

    def test_taint_through_branches_no_drift(self):
        """The begin/end resynchronization keeps the shadow stack aligned."""
        module = compile_source("""
            import func source() -> i32;
            import func sink(x: i32);
            export func main(n: i32) -> i32 {
                var t: i32 = source();
                var s: i32 = 0;
                var i: i32;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 3 == 0) { s = s + 1; } else { s = s + 2; }
                }
                sink(t);
                return s;
            }
        """)
        taint = TaintAnalysis()
        taint.add_source_function("env.source", "secret")
        taint.add_sink_function("env.sink")
        linker = Linker()
        linker.define_function("env", "source", FuncType((), (I32,)), lambda a: 9)
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main", [25])
        assert taint.has_flow("secret")
        assert taint.underflows == 0

    def test_explicit_memory_taint(self):
        module = compile_source("""
            import func sink(x: i32);
            memory 1;
            export func main() -> i32 {
                sink(mem_i32[4]);
                return 0;
            }
        """)
        taint = TaintAnalysis()
        taint.add_sink_function("env.sink")
        taint.taint_memory(16, 4, "input")  # element 4 * 4 bytes
        linker = Linker()
        linker.define_function("env", "sink", FuncType((I32,), ()), lambda a: None)
        session = analyze(module, taint, linker=linker)
        taint.bind_module_info(session.module_info)
        session.invoke("main")
        assert taint.has_flow("input")


class TestInventory:
    def test_table4_has_eight_analyses(self):
        assert len(ALL_ANALYSES) == 8
