"""Tests for the structured-program IR and interpreter."""

import pytest

from repro.workloads.conditions import BernoulliExpr, ConstExpr, VarExpr, constant_trips
from repro.workloads.program import (
    Assign,
    Block,
    Call,
    Effect,
    ForLoop,
    If,
    Procedure,
    Program,
    Statement,
    WhileLoop,
    execute_program,
    stream_program,
)


def run(statements, n=100, seed=1, procedures=()):
    main = Procedure("main", Block(list(statements)))
    program = Program(list(procedures) + [main], main="main")
    return execute_program(program, n, seed)


class TestIf:
    def test_taken_follows_condition(self):
        trace = run([If(ConstExpr(True))], n=5)
        assert trace.taken.all()
        trace = run([If(ConstExpr(False))], n=5)
        assert not trace.taken.any()

    def test_if_branches_are_forward(self):
        trace = run([If(ConstExpr(True))], n=5)
        assert not trace.is_backward.any()

    def test_then_body_runs_only_when_taken(self):
        statements = [
            Assign("flag", ConstExpr(False)),
            If(ConstExpr(True), then_body=Assign("flag", ConstExpr(True))),
            If(VarExpr("flag")),
        ]
        trace = run(statements, n=10)
        # Second branch per round reflects the then-body's assignment.
        assert trace.taken[1::2].all()

    def test_else_body(self):
        statements = [
            Assign("flag", ConstExpr(False)),
            If(
                ConstExpr(False),
                then_body=Assign("flag", ConstExpr(False)),
                else_body=Assign("flag", ConstExpr(True)),
            ),
            If(VarExpr("flag")),
        ]
        trace = run(statements, n=10)
        assert trace.taken[1::2].all()


class TestLoops:
    def test_for_loop_outcome_shape(self):
        # trips=4: branch executes 4 times per entry: T T T N.
        trace = run([ForLoop(constant_trips(4), Block([]))], n=12)
        assert list(trace.taken) == [True, True, True, False] * 3

    def test_for_loop_branch_is_backward(self):
        trace = run([ForLoop(constant_trips(3), Block([]))], n=6)
        assert trace.is_backward.all()

    def test_for_loop_body_runs_per_iteration(self):
        trace = run([ForLoop(constant_trips(3), If(ConstExpr(True)))], n=12)
        # Alternating body branch / loop branch, 3 pairs per loop entry.
        assert trace.num_static_branches() == 2

    def test_while_loop_outcome_shape(self):
        # trips=3: exit branch executes 4 times: N N N T.
        trace = run([WhileLoop(constant_trips(3), Block([]))], n=8)
        assert list(trace.taken) == [False, False, False, True] * 2

    def test_while_loop_branch_is_forward(self):
        trace = run([WhileLoop(constant_trips(2), Block([]))], n=6)
        assert not trace.is_backward.any()

    def test_while_zero_trips_exits_immediately(self):
        trace = run([WhileLoop(constant_trips(0), Block([]))], n=4)
        assert trace.taken.all()

    def test_for_loop_minimum_one_execution(self):
        trace = run([ForLoop(constant_trips(0), Block([]))], n=4)
        # Bottom-tested: the body and branch execute at least once.
        assert not trace.taken.any()


class TestCallsAndEffects:
    def test_call_executes_procedure(self):
        callee = Procedure("callee", If(ConstExpr(True)))
        trace = run([Call("callee")], n=4, procedures=[callee])
        assert trace.taken.all()

    def test_unknown_procedure_rejected(self):
        with pytest.raises(KeyError):
            run([Call("ghost")], n=4)

    def test_effect_mutates_environment(self):
        def set_flag(env):
            env.variables["flag"] = True

        trace = run([Effect(set_flag), If(VarExpr("flag"))], n=4)
        assert trace.taken.all()


class TestProgram:
    def test_duplicate_procedure_names_rejected(self):
        with pytest.raises(ValueError):
            Program(
                [Procedure("a", Block([])), Procedure("a", Block([]))],
                main="a",
            )

    def test_missing_main_rejected(self):
        with pytest.raises(ValueError):
            Program([Procedure("a", Block([]))], main="b")

    def test_branch_addresses_distinct(self):
        statements = [If(ConstExpr(True)) for _ in range(10)]
        trace = run(statements, n=30)
        assert trace.num_static_branches() == 10

    def test_exact_trace_length(self):
        trace = run([If(BernoulliExpr(0.5))], n=777)
        assert len(trace) == 777

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            run([If(ConstExpr(True))], n=0)

    def test_negative_site_address_rejected_at_layout(self):
        class NegativeSite(Statement):
            def layout(self, allocator):
                self.site_codes = allocator.site(-4, 0x1000)

            def execute(self, env, emitter, program):
                pass

        with pytest.raises(ValueError, match="branch addresses must be non-negative"):
            Program([Procedure("main", NegativeSite())], main="main")

    def test_positive_window_required(self):
        program = Program([Procedure("main", If(ConstExpr(True)))], main="main")
        with pytest.raises(ValueError, match="chunk_branches must be >= 1, got 0"):
            stream_program(program, 10, 1, lambda *columns: None, 0)

    def test_determinism_per_seed(self):
        statements = lambda: [If(BernoulliExpr(0.5)), ForLoop(constant_trips(3), If(BernoulliExpr(0.7)))]
        a = run(statements(), n=500, seed=9)
        b = run(statements(), n=500, seed=9)
        c = run(statements(), n=500, seed=10)
        assert a == b
        assert a != c


class TestCountersAndRecursion:
    def test_counters_default_zero(self):
        from repro.workloads.conditions import CounterBelowExpr

        trace = run([If(CounterBelowExpr("d", 1))], n=4)
        assert trace.taken.all()

    def test_add_and_set_counter(self):
        from repro.workloads.conditions import CounterBelowExpr
        from repro.workloads.program import AddCounter, SetCounter

        statements = [
            SetCounter("d", 0),
            AddCounter("d", 2),
            If(CounterBelowExpr("d", 2)),  # 2 < 2: not taken
            AddCounter("d", -1),
            If(CounterBelowExpr("d", 2)),  # 1 < 2: taken
        ]
        trace = run(statements, n=10)
        assert list(trace.taken[:2]) == [False, True]

    def test_recursion_bounded_by_depth_guard(self):
        from repro.workloads import motifs

        callee = "rec"
        procedures = [
            motifs.make_recursive_procedure(callee, max_depth=5, p_continue=1.0)
        ]
        statements = [motifs.recursive_descent("m", callee)]
        trace = run(statements, n=60, procedures=procedures)
        # With p_continue=1 the recursion branch is taken exactly
        # max_depth+1 times... the guard stops it: taken 5 times (depths
        # 0..4), then not-taken at depth 5, per descent.
        groups = trace.indices_by_pc()
        rec_pc = sorted(groups)[0]
        outcomes = trace.taken[groups[rec_pc]]
        # Per full descent: T T T T T N (depth guard) -> 5/6 taken.
        assert 0.7 < outcomes.mean() < 0.9

    def test_recursion_trace_is_deterministic(self):
        from repro.workloads import motifs

        def build():
            callee = "rec"
            procedures = [
                motifs.make_recursive_procedure(callee, max_depth=4, p_continue=0.7)
            ]
            return [motifs.recursive_descent("m", callee)], procedures

        s1, p1 = build()
        s2, p2 = build()
        assert run(s1, n=300, seed=5, procedures=p1) == run(
            s2, n=300, seed=5, procedures=p2
        )
