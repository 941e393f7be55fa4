"""Trace-producing interpreter for the IR.

:class:`Machine` executes a :class:`~repro.ir.Program` with an explicit
call stack (no host recursion), a flat word memory, deterministic input
and output streams, and a fuel limit.  Every executed conditional
branch is reported to an optional ``on_branch(site, taken)`` callback —
this is the instrumentation channel the paper's assembly-level tracing
tool provides, and everything downstream (profiles, predictors,
replication measurements) consumes only this event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir import (
    Alloc,
    BasicBlock,
    BinOp,
    Branch,
    BranchSite,
    Call,
    Cmp,
    Const,
    Function,
    In,
    Jump,
    Load,
    Move,
    Out,
    Program,
    Return,
    Store,
    UnOp,
)


class TrapError(Exception):
    """Runtime fault: division by zero, exhausted input, bad call, ..."""


class FuelExhausted(TrapError):
    """The step budget ran out before the program returned."""


@dataclass
class RunResult:
    """Outcome of one program execution."""

    value: Optional[int]
    output: List[int]
    steps: int
    branches: int

    def __iter__(self):  # convenience unpacking: value, output
        yield self.value
        yield self.output


@dataclass
class _Frame:
    function: Function
    env: Dict[str, int]
    block: BasicBlock
    index: int
    ret_dest: Optional[str]
    #: frame-local branch history (bit 0 = most recent outcome); only
    #: maintained when the machine tracks path history
    history: int = 0


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_SHIFT_MASK = 63


def _binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise TrapError("division by zero")
        # Truncating division, like the C programs the paper traces.
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "mod":
        if b == 0:
            raise TrapError("modulo by zero")
        return a - b * (_binop("div", a, b))
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b & _SHIFT_MASK)
    if op == "shr":
        return a >> (b & _SHIFT_MASK)
    if op == "min":
        return a if a <= b else b
    if op == "max":
        return a if a >= b else b
    raise TrapError(f"unknown binop {op!r}")


class Machine:
    """Executes IR programs and reports branch events.

    Parameters
    ----------
    program:
        The program to run.
    input_values:
        Words returned by successive ``in`` instructions.
    max_steps:
        Fuel limit in executed instructions; exceeding it raises
        :class:`FuelExhausted` (protects against runaway loops in
        randomly generated programs).
    on_branch:
        Optional callback ``(site: BranchSite, taken: bool) -> None``
        invoked for every executed conditional branch.
    track_history_bits:
        When positive, every call frame maintains the history of its
        own branches (frame-local path history, bit 0 = most recent
        outcome); just before each ``on_branch`` call the value *seen
        by that branch* is published as :attr:`path_history`.  This is
        what CFG-path replication can actually observe, as opposed to
        raw global history which crosses call boundaries.
    """

    def __init__(
        self,
        program: Program,
        input_values: Sequence[int] = (),
        max_steps: int = 50_000_000,
        on_branch: Optional[Callable[[BranchSite, bool], None]] = None,
        track_history_bits: int = 0,
        count_edges: bool = False,
        on_block: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.program = program
        self.input_values = list(input_values)
        self.max_steps = max_steps
        self.on_branch = on_branch
        self.track_history_bits = track_history_bits
        #: frame-local history at the most recent branch event
        self.path_history = 0
        self.count_edges = count_edges
        #: (function, source label, target label) -> executions; only
        #: populated when ``count_edges`` is set
        self.edge_counts: Dict[Tuple[str, str, str], int] = {}
        #: optional callback ``(function name, block label)`` invoked at
        #: every block entry (function entries and control transfers) —
        #: the instruction-fetch stream the i-cache model consumes
        self.on_block = on_block
        self.memory: Dict[int, int] = {}
        self.output: List[int] = []
        self._brk = 0x10000
        self._input_pos = 0
        self._sites: Dict[int, BranchSite] = {}
        for function in program:
            for block in function:
                if block.branch is not None:
                    self._sites[id(block)] = BranchSite(function.name, block.label)

    # -- memory --------------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Bump-allocate *size* zeroed words; returns the base address."""
        if size < 0:
            raise TrapError(f"alloc of negative size {size}")
        base = self._brk
        self._brk += size + 1  # one guard word between regions
        return base

    def poke(self, addr: int, value: int) -> None:
        """Write a memory word directly (used to preload workload data)."""
        self.memory[addr] = value

    def peek(self, addr: int) -> int:
        """Read a memory word directly."""
        return self.memory.get(addr, 0)

    # -- execution -------------------------------------------------------------

    def run(self, *args: int) -> RunResult:
        """Run the entry function with *args* and return the result."""
        return self.call(self.program.main, list(args))

    def call(self, func_name: str, args: Sequence[int]) -> RunResult:
        """Run an arbitrary function by name."""
        function = self.program.function(func_name)
        if len(args) != len(function.params):
            raise TrapError(
                f"{func_name} expects {len(function.params)} args, got {len(args)}"
            )
        env = dict(zip(function.params, args))
        frame = _Frame(function, env, function.entry_block(), 0, None)
        stack: List[_Frame] = [frame]
        on_block = self.on_block
        if on_block is not None:
            on_block(function.name, function.entry)
        steps = 0
        branches = 0
        memory = self.memory
        on_branch = self.on_branch
        sites = self._sites
        max_steps = self.max_steps
        return_value: Optional[int] = None

        while stack:
            frame = stack[-1]
            env = frame.env
            instrs = frame.block.instrs
            index = frame.index
            size = len(instrs)
            # Straight-line section.
            advanced = False
            while index < size:
                instr = instrs[index]
                index += 1
                steps += 1
                if steps > max_steps:
                    raise FuelExhausted(f"exceeded {max_steps} steps")
                cls = instr.__class__
                if cls is BinOp:
                    a = env[instr.lhs] if type(instr.lhs) is str else instr.lhs
                    b = env[instr.rhs] if type(instr.rhs) is str else instr.rhs
                    env[instr.dest] = _binop(instr.op, a, b)
                elif cls is Cmp:
                    a = env[instr.lhs] if type(instr.lhs) is str else instr.lhs
                    b = env[instr.rhs] if type(instr.rhs) is str else instr.rhs
                    env[instr.dest] = 1 if _CMP[instr.op](a, b) else 0
                elif cls is Load:
                    a = env[instr.addr] if type(instr.addr) is str else instr.addr
                    env[instr.dest] = memory.get(a + instr.offset, 0)
                elif cls is Store:
                    a = env[instr.addr] if type(instr.addr) is str else instr.addr
                    v = env[instr.value] if type(instr.value) is str else instr.value
                    memory[a + instr.offset] = v
                elif cls is Const:
                    env[instr.dest] = instr.value
                elif cls is Move:
                    env[instr.dest] = (
                        env[instr.src] if type(instr.src) is str else instr.src
                    )
                elif cls is UnOp:
                    v = env[instr.src] if type(instr.src) is str else instr.src
                    if instr.op == "neg":
                        env[instr.dest] = -v
                    elif instr.op == "not":
                        env[instr.dest] = ~v
                    else:  # abs
                        env[instr.dest] = v if v >= 0 else -v
                elif cls is Alloc:
                    v = env[instr.size] if type(instr.size) is str else instr.size
                    env[instr.dest] = self.allocate(v)
                elif cls is In:
                    if self._input_pos >= len(self.input_values):
                        raise TrapError("input exhausted")
                    env[instr.dest] = self.input_values[self._input_pos]
                    self._input_pos += 1
                elif cls is Out:
                    v = env[instr.value] if type(instr.value) is str else instr.value
                    self.output.append(v)
                elif cls is Call:
                    callee = self.program.functions.get(instr.func)
                    if callee is None:
                        raise TrapError(f"call to unknown function {instr.func!r}")
                    if len(instr.args) != len(callee.params):
                        raise TrapError(f"bad arity calling {instr.func!r}")
                    callee_env = {}
                    for param, arg in zip(callee.params, instr.args):
                        callee_env[param] = env[arg] if type(arg) is str else arg
                    frame.index = index
                    stack.append(
                        _Frame(callee, callee_env, callee.entry_block(), 0, instr.dest)
                    )
                    if on_block is not None:
                        on_block(callee.name, callee.entry)
                    advanced = True
                    break
                else:
                    raise TrapError(f"cannot execute {instr!r}")
            if advanced:
                continue

            # Terminator.
            term = frame.block.terminator
            steps += 1
            if steps > max_steps:
                raise FuelExhausted(f"exceeded {max_steps} steps")
            cls = term.__class__
            if cls is Branch:
                a = env[term.lhs] if type(term.lhs) is str else term.lhs
                b = env[term.rhs] if type(term.rhs) is str else term.rhs
                taken = _CMP[term.op](a, b)
                branches += 1
                if on_branch is not None:
                    if self.track_history_bits:
                        self.path_history = frame.history
                        frame.history = (
                            (frame.history << 1) | (1 if taken else 0)
                        ) & ((1 << self.track_history_bits) - 1)
                    on_branch(sites[id(frame.block)], taken)
                elif self.track_history_bits:
                    self.path_history = frame.history
                    frame.history = (
                        (frame.history << 1) | (1 if taken else 0)
                    ) & ((1 << self.track_history_bits) - 1)
                target = term.taken if taken else term.not_taken
                if self.count_edges:
                    key = (frame.function.name, frame.block.label, target)
                    self.edge_counts[key] = self.edge_counts.get(key, 0) + 1
                if on_block is not None:
                    on_block(frame.function.name, target)
                frame.block = frame.function.blocks[target]
                frame.index = 0
            elif cls is Jump:
                if self.count_edges:
                    key = (frame.function.name, frame.block.label, term.target)
                    self.edge_counts[key] = self.edge_counts.get(key, 0) + 1
                if on_block is not None:
                    on_block(frame.function.name, term.target)
                frame.block = frame.function.blocks[term.target]
                frame.index = 0
            elif cls is Return:
                if term.value is None:
                    value = None
                else:
                    value = env[term.value] if type(term.value) is str else term.value
                stack.pop()
                if stack:
                    caller = stack[-1]
                    if frame.ret_dest is not None:
                        if value is None:
                            raise TrapError(
                                f"void return but caller expects a value in "
                                f"{frame.ret_dest!r}"
                            )
                        caller.env[frame.ret_dest] = value
                else:
                    return_value = value
            else:
                raise TrapError(f"block {frame.block.label!r} has no terminator")

        return RunResult(return_value, self.output, steps, branches)


def run_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 50_000_000,
    on_branch: Optional[Callable[[BranchSite, bool], None]] = None,
) -> RunResult:
    """Run *program* once on the compiled engine
    (:mod:`repro.interp.compiled`), with :class:`Machine`'s results.

    *on_branch*, when given, receives every ``(site, taken)`` branch
    event in execution order once the run has finished (or trapped).
    """
    from .compiled import Execution

    execution = Execution(program, input_values, max_steps)
    try:
        return execution.run(*args)
    finally:
        if on_branch is not None:
            for site, taken in execution.events():
                on_branch(site, taken)
