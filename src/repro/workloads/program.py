"""Structured-program IR and the trace-emitting interpreter.

A :class:`Program` is a set of procedures built from structured
statements (blocks, ifs, for/while loops, calls, assignments).  Layout
assigns every branch site a fixed address, with loop branches backward
and if/while-exit branches forward, so traces carry realistic
direction information for the backward-branch tagging scheme
(section 3.2) and the BTFNT baseline.  Layout also numbers the branch
sites: the program keeps a site table of ``(pc, target)`` pairs.
Execution interprets the program against an :class:`Environment`
(boolean variables + seeded RNG) and appends one site code,
``2 * site + taken``, per executed conditional branch; one numpy gather
through the site table turns a run of codes into trace columns.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.trace import PC_DTYPE, Trace
from repro.workloads.conditions import Expr, TripCountGenerator

#: Address stride between instruction slots.
ADDRESS_STRIDE = 4

#: Where a windowed run sends each window's ``(pc, target, taken)`` columns.
Sink = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


class Environment:
    """Mutable program state: variables, counters, and the workload RNG.

    Variables are booleans (branch conditions); counters are integers
    (recursion depths, element counts) read through
    :class:`~repro.workloads.conditions.CounterBelowExpr`.
    """

    __slots__ = ("variables", "counters", "rng")

    def __init__(self, rng: random.Random) -> None:
        self.variables: Dict[str, bool] = {}
        self.counters: Dict[str, int] = {}
        self.rng = rng


class _AddressAllocator:
    """Hands out increasing instruction addresses and branch-site numbers."""

    def __init__(self, start: int = 0x1000) -> None:
        self._next = start
        self.sites: List[Tuple[int, int]] = []

    def allocate(self) -> int:
        address = self._next
        self._next += ADDRESS_STRIDE
        return address

    def site(self, pc: int, target: int) -> Tuple[int, int]:
        """Register a branch site; returns its codes ``(2*site, 2*site + 1)``.

        The codes are the site's not-taken and taken records; the
        interpreter appends the shared int objects, so a buffered run
        costs one list slot per branch.  Addresses are checked here,
        once per site, rather than once per executed branch.
        """
        if pc < 0 or target < 0:
            raise ValueError("branch addresses must be non-negative")
        code = 2 * len(self.sites)
        self.sites.append((pc, target))
        return code, code + 1


class _TraceComplete(Exception):
    """Raised internally when the requested trace length is reached."""


class _Emitter:
    """Collects site codes and cuts the run at windows and at its end.

    A branch site appends its code to ``codes`` and, once
    ``len(codes)`` reaches ``stop``, calls :meth:`boundary`.  With a
    ``sink`` each full window of codes is decoded, handed to
    ``sink(pc, target, taken)`` and cleared; without one the codes
    accumulate until the run ends.
    """

    __slots__ = ("codes", "stop", "_program", "_sink", "_window", "_remaining")

    def __init__(
        self,
        program: "Program",
        num_branches: int,
        sink: Optional[Sink] = None,
        chunk_branches: Optional[int] = None,
    ) -> None:
        if num_branches < 1:
            raise ValueError(f"num_branches must be >= 1, got {num_branches}")
        window = num_branches if chunk_branches is None else int(chunk_branches)
        if window < 1:
            raise ValueError(f"chunk_branches must be >= 1, got {chunk_branches}")
        self.codes: List[int] = []
        self.stop = min(window, num_branches)
        self._program = program
        self._sink = sink
        self._window = window
        self._remaining = num_branches

    def boundary(self) -> None:
        """Flush a full window to the sink; stop the run at its length."""
        self._remaining -= len(self.codes)
        if self._sink is not None:
            self._sink(*self._program.columns(self.codes))
            self.codes.clear()
        if self._remaining == 0:
            raise _TraceComplete
        self.stop = min(self._window, self._remaining)


class Statement(abc.ABC):
    """A structured-program statement."""

    @abc.abstractmethod
    def layout(self, allocator: _AddressAllocator) -> None:
        """Assign addresses to this statement's branch sites."""

    @abc.abstractmethod
    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        """Interpret the statement, emitting branches as they execute."""


class Block(Statement):
    """A sequence of statements."""

    def __init__(self, statements: Sequence[Statement]) -> None:
        self.statements: List[Statement] = list(statements)

    def layout(self, allocator: _AddressAllocator) -> None:
        for statement in self.statements:
            statement.layout(allocator)

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        for statement in self.statements:
            statement.execute(env, emitter, program)


class Assign(Statement):
    """Evaluate an expression and store it in a variable (no branch)."""

    def __init__(self, name: str, expr: Expr) -> None:
        self.name = name
        self.expr = expr

    def layout(self, allocator: _AddressAllocator) -> None:
        pass

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        env.variables[self.name] = bool(self.expr.evaluate(env))


class Effect(Statement):
    """Run an arbitrary environment mutation (no branch)."""

    def __init__(self, action: Callable[[Environment], None]) -> None:
        self.action = action

    def layout(self, allocator: _AddressAllocator) -> None:
        pass

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        self.action(env)


class If(Statement):
    """A conditional: one forward branch, taken when the condition holds."""

    def __init__(
        self,
        condition: Expr,
        then_body: Optional[Statement] = None,
        else_body: Optional[Statement] = None,
    ) -> None:
        self.condition = condition
        self.then_body = then_body
        self.else_body = else_body
        self.pc = -1
        self.target = -1
        self.site_codes = (-1, -1)

    def layout(self, allocator: _AddressAllocator) -> None:
        self.pc = allocator.allocate()
        if self.then_body is not None:
            self.then_body.layout(allocator)
        if self.else_body is not None:
            self.else_body.layout(allocator)
        # Forward target: past the whole statement.
        self.target = allocator.allocate()
        self.site_codes = allocator.site(self.pc, self.target)

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        codes = emitter.codes
        if self.condition.evaluate(env):
            codes.append(self.site_codes[1])
            body = self.then_body
        else:
            codes.append(self.site_codes[0])
            body = self.else_body
        if len(codes) >= emitter.stop:
            emitter.boundary()
        if body is not None:
            body.execute(env, emitter, program)


class ForLoop(Statement):
    """A bottom-tested loop: backward branch taken while iterating.

    The trip generator yields the number of body executions t (>= 1);
    the loop-closing branch executes t times -- taken t-1 times, then
    not-taken once -- the paper's for-type behaviour.
    """

    def __init__(self, trips: TripCountGenerator, body: Statement) -> None:
        self.trips = trips
        self.body = body
        self.start = -1
        self.pc = -1
        self.site_codes = (-1, -1)

    def layout(self, allocator: _AddressAllocator) -> None:
        self.start = allocator.allocate()
        self.body.layout(allocator)
        self.pc = allocator.allocate()  # after the body: backward branch
        self.site_codes = allocator.site(self.pc, self.start)

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        trip_count = max(1, int(self.trips(env)))
        last = trip_count - 1
        codes = emitter.codes
        for iteration in range(trip_count):
            self.body.execute(env, emitter, program)
            codes.append(self.site_codes[iteration < last])
            if len(codes) >= emitter.stop:
                emitter.boundary()


class WhileLoop(Statement):
    """A top-tested loop: forward exit branch, taken once to leave.

    The trip generator yields the number of body executions t (>= 0);
    the exit branch executes t+1 times -- not-taken t times, then taken
    once -- the paper's while-type behaviour.
    """

    def __init__(self, trips: TripCountGenerator, body: Statement) -> None:
        self.trips = trips
        self.body = body
        self.pc = -1
        self.target = -1
        self.site_codes = (-1, -1)

    def layout(self, allocator: _AddressAllocator) -> None:
        self.pc = allocator.allocate()
        self.body.layout(allocator)
        self.target = allocator.allocate()  # forward: past the loop
        self.site_codes = allocator.site(self.pc, self.target)

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        trip_count = max(0, int(self.trips(env)))
        not_taken, taken = self.site_codes
        codes = emitter.codes
        for _iteration in range(trip_count):
            codes.append(not_taken)
            if len(codes) >= emitter.stop:
                emitter.boundary()
            self.body.execute(env, emitter, program)
        codes.append(taken)
        if len(codes) >= emitter.stop:
            emitter.boundary()


class AddCounter(Statement):
    """Add ``delta`` to an integer counter (no branch)."""

    def __init__(self, name: str, delta: int) -> None:
        self.name = name
        self.delta = delta

    def layout(self, allocator: _AddressAllocator) -> None:
        pass

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        env.counters[self.name] = env.counters.get(self.name, 0) + self.delta


class SetCounter(Statement):
    """Set an integer counter (no branch)."""

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.value = value

    def layout(self, allocator: _AddressAllocator) -> None:
        pass

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        env.counters[self.name] = self.value


class Call(Statement):
    """Invoke another procedure by name.

    Procedures may call themselves (directly or mutually); guard the
    recursion with a depth counter or the interpreter will recurse until
    Python's limit.
    """

    def __init__(self, callee: str) -> None:
        self.callee = callee

    def layout(self, allocator: _AddressAllocator) -> None:
        pass

    def execute(self, env: Environment, emitter: _Emitter, program: "Program") -> None:
        program.procedure(self.callee).body.execute(env, emitter, program)


class Procedure:
    """A named procedure with a single body statement."""

    def __init__(self, name: str, body: Statement) -> None:
        self.name = name
        self.body = body


class Program:
    """A complete synthetic program.

    Args:
        procedures: All procedures; addresses are laid out in the given
            order.
        main: Name of the procedure executed repeatedly to produce the
            trace.
    """

    def __init__(self, procedures: Sequence[Procedure], main: str) -> None:
        self._procedures = {proc.name: proc for proc in procedures}
        if len(self._procedures) != len(procedures):
            raise ValueError("duplicate procedure names")
        if main not in self._procedures:
            raise ValueError(f"main procedure {main!r} not defined")
        self._main = main
        allocator = _AddressAllocator()
        for proc in procedures:
            proc.body.layout(allocator)
        self._site_pc, self._site_target = (
            np.array(allocator.sites, dtype=PC_DTYPE).reshape(-1, 2).T.copy()
        )

    def procedure(self, name: str) -> Procedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise KeyError(f"undefined procedure {name!r}") from None

    @property
    def procedures(self) -> List[Procedure]:
        """All procedures in layout order (static-analysis entry point)."""
        return list(self._procedures.values())

    @property
    def main(self) -> str:
        return self._main

    def columns(self, codes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode site codes into ``(pc, target, taken)`` trace columns."""
        code_arr = np.array(codes, dtype=np.intp)
        sites = code_arr >> 1
        return (
            self._site_pc[sites],
            self._site_target[sites],
            (code_arr & 1).astype(bool),
        )


def _run(
    program: Program,
    num_branches: int,
    seed: int,
    sink: Optional[Sink] = None,
    chunk_branches: Optional[int] = None,
) -> _Emitter:
    """Invoke the main procedure repeatedly until the emitter stops it."""
    emitter = _Emitter(program, num_branches, sink, chunk_branches)
    env = Environment(random.Random(seed))
    main_body = program.procedure(program.main).body
    try:
        while True:
            main_body.execute(env, emitter, program)
    except _TraceComplete:
        pass
    return emitter


def execute_program(program: Program, num_branches: int, seed: int) -> Trace:
    """Run ``program`` until ``num_branches`` conditional branches execute.

    The main procedure is invoked repeatedly (an outer driver loop, like
    a benchmark's main processing loop); the trace is cut at exactly
    ``num_branches`` records.

    Args:
        program: The program to interpret.
        num_branches: Target dynamic conditional branch count (> 0).
        seed: Workload RNG seed; identical seeds reproduce identical
            traces.
    """
    emitter = _run(program, num_branches, seed)
    return Trace(*program.columns(emitter.codes))


def stream_program(
    program: Program,
    num_branches: int,
    seed: int,
    sink: Sink,
    chunk_branches: int,
) -> int:
    """Run ``program`` like :func:`execute_program`, streaming windows out.

    Identical interpretation (same seed, same records, same cut point),
    but branches are flushed to ``sink(pc, target, taken)`` in
    ``chunk_branches``-sized windows instead of accumulating in memory
    -- peak residency is one window regardless of ``num_branches``.
    Returns the number of branches emitted (== ``num_branches``).
    """
    _run(program, num_branches, seed, sink, chunk_branches)
    return num_branches
