"""Compiled execution of IR programs, recorded into columns.

:class:`Execution` runs a program with exactly the semantics of the
reference :class:`~repro.interp.Machine` (same value, output, memory,
step and branch counts, same traps and trap messages), but it first
translates the program once into generated Python source:

* registers become local variables;
* blocks become a dispatch loop over block indices.  A block with a
  single incoming edge is emitted inline at that edge, so only join
  points and loop headers are dispatch targets, and a region that
  jumps back to its own head loops without dispatching;
* binops and compares are inlined as operators; ``div``/``mod`` keep a
  helper that traps on a zero divisor;
* calls go through a generator trampoline.  A function that calls is
  a generator that yields its callee's generator, and the trampoline
  keeps the explicit call stack, so deep IR recursion never recurses
  in the host.  Call-free functions are plain functions, called
  directly;
* fuel is charged once per straight-line segment: one charge at each
  dispatch target and branch arm covers every instruction up to the
  next branch, return or dispatch.  A charge may run ahead of the
  reference's count (the part after a call is charged before the
  call), never behind it.  Only dispatch targets compare the count
  with the limit (every loop and every call passes one); a run that
  returns or faults is checked against the limit before its result
  is believed, and one past the limit is replayed (see below).

Instrumentation is columnar instead of per-event callbacks.  Each
branch event appends one integer *code* to :attr:`Execution.codes`:
``history << site_shift | site_id << 1 | taken``, where ``site_id``
indexes :attr:`Execution.sites` (program order) and ``history`` is the
frame-local path history the branch saw (0 unless ``history_bits``).
Optional columns count every control-flow edge
(:attr:`Execution.edge_counts`) and record the id of every entered
block (:attr:`Execution.block_stream`; function entries and transfers,
never returns).  Consumers rebuild their results from the columns
(:meth:`Execution.site_outcomes`, and the trace and path-table
functions of :mod:`repro.profiling.collect`).

Compiled forms are cached per program *content* (the
:func:`~repro.ir.format_program` text plus the recording mode), so a
program edited in place after a run is recompiled rather than served
stale code.

:class:`Machine` stays the reference oracle and the one fallback route.
The compiled form is not used in exactly two cases:

1. **fuel overflow** — a compiled run whose charged steps pass
   ``max_steps`` is replayed from scratch on :class:`Machine`, which
   raises ``FuelExhausted`` at the reference's exact point, with the
   reference's output, memory and partial columns;
2. **size** — programs larger than :data:`COMPILE_BUDGET` instructions
   run on :class:`Machine` directly: their compile costs more than it
   saves (see ``docs/architecture.md``, "Performance notes").

Each case bumps ``interp.fallbacks.fuel`` / ``interp.fallbacks.size``.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter, OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..ir import (
    Alloc,
    BinOp,
    Branch,
    BranchSite,
    Call,
    Cmp,
    Const,
    Function,
    In,
    IRError,
    Jump,
    Load,
    Move,
    Out,
    Program,
    Return,
    Store,
    UnOp,
    format_program,
)
from ..obs import OBS
from .machine import Machine, RunResult, TrapError

#: Largest program (in instructions, terminators included) that is
#: compiled; larger ones run on :class:`Machine`.  A compile costs about
#: 30 us and, at its peak, 6.4 KiB of memory per instruction, and the
#: allocator keeps that memory afterwards: above this size the compile
#: raises the process's peak RSS by more than the run is worth
#: (measurement in docs/architecture.md, "Performance notes").
COMPILE_BUDGET = 400

#: Compiled forms kept (least recently used are dropped first).
CACHE_SIZE = 16

#: Deepest inline nesting of branch arms before a block is made a
#: dispatch target instead (CPython allows 100 indentation levels).
_MAX_NEST = 40

_CMP_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_BIN_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}


class _Overflow(Exception):
    """Charged fuel passed the limit; the run is replayed on Machine."""


def _div(a, b):
    if b == 0:
        raise TrapError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a, b):
    if b == 0:
        raise TrapError("modulo by zero")
    return a - b * _div(a, b)


# -- static tables ------------------------------------------------------------


class _Ids:
    """Numbers keys in first-seen order: ``ids(key)`` is the key's id
    (new keys get the next one), ``ids.keys[id]`` the key."""

    __slots__ = ("keys", "index")

    def __init__(self) -> None:
        self.keys: list = []
        self.index: dict = {}

    def __call__(self, key) -> int:
        found = self.index.get(key)
        if found is None:
            found = self.index[key] = len(self.keys)
            self.keys.append(key)
        return found


class _Tables:
    """Content-derived numbering of the sites, and of the blocks and
    edges when the recording mode keeps those columns.

    Sites are branch blocks in program order; blocks are every
    ``(function, label)`` in program order followed by any jump target
    that names no block; edges are every ``(function, source, target)``
    a terminator names, in program order.
    """

    def __init__(self, program: Program, mode: tuple) -> None:
        _history_bits, edges, blocks = mode
        self.sites, self.blocks, self.edges = _Ids(), _Ids(), _Ids()
        for function in program:
            for block in function:
                term = block.terminator
                if isinstance(term, Branch):
                    self.sites(BranchSite(function.name, block.label))
                if blocks:
                    self.blocks((function.name, block.label))
                if edges and isinstance(term, (Branch, Jump)):
                    for target in term.targets():
                        self.edges((function.name, block.label, target))
        if blocks:
            for function in program:
                for block in function:
                    if isinstance(block.terminator, (Branch, Jump)):
                        for target in block.terminator.targets():
                            self.blocks((function.name, target))
        self.site_shift = _site_shift(program)


def _site_shift(program: Program) -> int:
    """Bit position of the history field in an event code: just above
    ``site_id << 1 | taken`` for the program's largest site id."""
    branches = sum(
        isinstance(block.terminator, Branch) for function in program for block in function
    )
    return branches.bit_length() + 1


# -- code generation ----------------------------------------------------------


def _callees(program: Program, function: Function) -> List[str]:
    """Functions *function* can call (existing callee, matching arity)."""
    found = []
    for block in function:
        for instr in block.instrs:
            if isinstance(instr, Call):
                callee = program.functions.get(instr.func)
                if callee is not None and len(instr.args) == len(callee.params):
                    found.append(callee.name)
    return found


def _generator_functions(program: Program) -> Dict[str, bool]:
    """Which functions compile to generators.

    A function that calls a generator must itself be one (it has to
    yield the callee to the trampoline); every other function is a
    plain function, called directly.  Starting from "every function
    that calls" and dropping those whose callees are all plain gives
    the largest consistent set, so every call cycle stays on the
    trampoline and host recursion is bounded by the number of
    functions.
    """
    callees = {function.name: _callees(program, function) for function in program}
    generators = {name: bool(called) for name, called in callees.items()}
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            if generators[name] and not any(generators[c] for c in called):
                generators[name] = False
                changed = True
    return generators


class _Source:
    """Indented source lines; a line may be a placeholder set later, or
    a goto token ``(root_index,)`` resolved when a region is spliced."""

    def __init__(self, head: Optional[str] = None) -> None:
        self.head = head
        self.lines: List[list] = []

    def add(self, depth: int, text: str) -> list:
        line = [depth, text]
        self.lines.append(line)
        return line


class _ProgramGen:
    """Generates the factory source for one program and one mode."""

    def __init__(self, program: Program, tables: _Tables, mode: tuple) -> None:
        self.program = program
        self.tables = tables
        self.history_bits, self.edges, self.blocks = mode
        self.constants: list = []
        self.errors: list = []
        #: global local-variable number of every (function, register)
        self.registers: List[str] = []
        self.names = {
            function.name: f"_f{index}" for index, function in enumerate(program)
        }
        self.generators = _generator_functions(program)

    def source(self) -> str:
        out = _Source()
        out.add(0, "def _factory(_M, _O, _in, _alloc, _E, _B, _C, _L):")
        out.add(1, "_Mg = _M.get")
        out.add(1, "steps = 0")
        for function in self.program:
            _FunctionGen(self, function, out).emit()
        out.add(1, "def _steps():")
        out.add(2, "return steps")
        functions = ", ".join(f"{name!r}: {local}" for name, local in self.names.items())
        out.add(1, f"return {{{functions}}}, _steps")
        return "\n".join(" " * depth + text for depth, text in out.lines) + "\n"

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"_K[{len(self.constants) - 1}]"

    def error(self, exc: BaseException) -> str:
        """Source of an expression raising a fresh copy of *exc*."""
        self.errors.append((type(exc), exc.args))
        return f"_X({len(self.errors) - 1})"


class _FunctionGen:
    """Emits one IR function as a function nested in the factory."""

    def __init__(self, gen: _ProgramGen, function: Function, out: _Source) -> None:
        self.gen = gen
        self.function = function
        self.out = out
        self.locals: Dict[str, str] = {}
        self.preds: Dict[str, int] = {}
        for block in function:
            term = block.terminator
            if isinstance(term, (Branch, Jump)):
                for target in term.targets():
                    self.preds[target] = self.preds.get(target, 0) + 1
        self.roots: List[str] = []
        self.root_index: Dict[str, int] = {}
        self.emitted: set = set()

    # -- operands

    def reg(self, name: str) -> str:
        local = self.locals.get(name)
        if local is None:
            local = self.locals[name] = f"r{len(self.gen.registers)}"
            self.gen.registers.append(name)
        return local

    def val(self, operand) -> str:
        if type(operand) is str:
            return self.reg(operand)
        if type(operand) is int:
            return repr(operand) if operand >= 0 else f"({operand!r})"
        return self.gen.constant(operand)

    # -- function shell

    def emit(self) -> None:
        gen, function, out = self.gen, self.function, self.out
        params = [self.reg(p) for p in function.params]
        unique = len(set(params)) == len(params)
        formals = params if unique else [f"_p{i}" for i in range(len(params))]
        out.add(1, f"def {gen.names[function.name]}({', '.join(formals)}):")
        out.add(2, "nonlocal steps")
        if not unique:
            for formal, local in zip(formals, params):
                out.add(2, f"{local} = {formal}")
        try:
            function.entry_block()
        except (IRError, KeyError) as exc:  # the reference fails at the same call
            out.add(2, f"raise {gen.error(exc)}")
            if gen.generators[function.name]:
                out.add(2, "yield")
            return
        if gen.blocks:
            bid = gen.tables.blocks.index[(function.name, function.entry)]
            out.add(2, f"_B({bid})")
        if gen.history_bits:
            out.add(2, "h = 0")
        self.root(function.entry)
        bodies: List[_Source] = []
        index = 0
        while index < len(self.roots):
            bodies.append(self.region(self.roots[index]))
            index += 1
        if len(bodies) == 1:
            self.splice(bodies[0], 2)
            return
        out.add(2, "b = 0")
        out.add(2, "while True:")
        self.tree(bodies, 0, len(bodies), 3)

    def root(self, label: str) -> int:
        index = self.root_index.get(label)
        if index is None:
            index = self.root_index[label] = len(self.roots)
            self.roots.append(label)
            self.emitted.add(label)
        return index

    def tree(self, bodies: List[_Source], lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            self.splice(bodies[lo], depth)
            return
        mid = (lo + hi) // 2
        self.out.add(depth, f"if b < {mid}:")
        self.tree(bodies, lo, mid, depth + 1)
        self.out.add(depth, "else:")
        self.tree(bodies, mid, hi, depth + 1)

    def splice(self, body: _Source, depth: int) -> None:
        """Copy a region's lines into the function at *depth*, resolving
        its goto tokens: a jump to its own head loops, any other
        dispatches."""
        own = self.root_index[body.head]
        self_loop = any(
            type(line[1]) is tuple and line[1][0] == own for line in body.lines
        )
        if self_loop:
            self.out.add(depth, "while True:")
            depth += 1
        for rel, text in body.lines:
            if type(text) is tuple:
                target = text[0]
                if target == own:
                    self.out.add(depth + rel, "continue")
                else:
                    self.out.add(depth + rel, f"b = {target}")
                    self.out.add(depth + rel, "break" if self_loop else "continue")
            else:
                self.out.add(depth + rel, text)

    # -- regions

    def region(self, head: str) -> _Source:
        body = _Source(head)
        self.block(head, body, 0, self.open_charge(body, 0, True))
        return body

    def goto(self, label: str, body: _Source, depth: int, charge) -> None:
        """Transfer control to *label*: inline it or dispatch to it."""
        if label not in self.function.blocks:
            body.add(depth, f"raise KeyError({label!r})")
            return
        if label in self.root_index:
            body.add(depth, (self.root_index[label],))
        elif (
            self.preds.get(label) == 1
            and label not in self.emitted
            and depth < _MAX_NEST
        ):
            self.emitted.add(label)
            self.block(label, body, depth, charge)
        else:
            body.add(depth, (self.root(label),))

    def transfer(self, source: str, target: str, body: _Source, depth: int) -> None:
        """Edge and block recording for a transfer *source* -> *target*."""
        gen = self.gen
        name = self.function.name
        if gen.edges:
            edge = gen.tables.edges.index[(name, source, target)]
            body.add(depth, f"_C[{edge}] += 1")
        if gen.blocks:
            body.add(depth, f"_B({gen.tables.blocks.index[(name, target)]})")

    def block(self, label: str, body: _Source, depth: int, charge) -> None:
        """Emit block *label*; *charge* is the open fuel charge an
        inlined jump extends (``None`` opens a new one)."""
        gen = self.gen
        block = self.function.blocks[label]
        if charge is None:
            charge = self.open_charge(body, depth, False)
        for instr in block.instrs:
            charge.add()
            if isinstance(instr, Call):
                self.call(instr, body, depth)
            else:
                body.add(depth, self.instr(instr))
        term = block.terminator
        charge.add()
        cls = term.__class__
        if cls is Branch:
            site = gen.tables.sites.index[(self.function.name, label)]
            test = f"{self.val(term.lhs)} {_CMP_OPS[term.op]} {self.val(term.rhs)}"
            body.add(depth, f"if {test}:")
            self.arm(label, term.taken, site << 1 | 1, body, depth + 1)
            body.add(depth, "else:")
            self.arm(label, term.not_taken, site << 1, body, depth + 1)
        elif cls is Jump:
            self.transfer(label, term.target, body, depth)
            self.goto(term.target, body, depth, charge)
        elif cls is Return:
            value = "None" if term.value is None else self.val(term.value)
            body.add(depth, f"return {value}")
        else:
            message = f"block {label!r} has no terminator"
            body.add(depth, f"raise TrapError({message!r})")

    def arm(self, source: str, target: str, code: int, body: _Source, depth: int) -> None:
        gen = self.gen
        if gen.history_bits:
            mask = (1 << gen.history_bits) - 1
            body.add(depth, f"_E(h << {gen.tables.site_shift} | {code})")
            body.add(depth, f"h = (h << 1 | {code & 1}) & {mask}")
        else:
            body.add(depth, f"_E({code})")
        self.transfer(source, target, body, depth)
        self.goto(target, body, depth, None)

    def open_charge(self, body: _Source, depth: int, check: bool) -> _Charge:
        """Open a fuel charge; *check* compares the total with the limit.

        Only region heads check: every loop and every call passes one,
        so a runaway run is caught, and any fault or return is checked
        against the limit by :meth:`Execution.call` before it counts.
        """
        return _Charge(body.add(depth, ""), check)

    def call(self, instr: Call, body: _Source, depth: int) -> None:
        gen = self.gen
        callee = gen.program.functions.get(instr.func)
        if callee is None:
            message = f"call to unknown function {instr.func!r}"
            body.add(depth, f"raise TrapError({message!r})")
            return
        if len(instr.args) != len(callee.params):
            body.add(depth, f"raise TrapError({f'bad arity calling {instr.func!r}'!r})")
            return
        args = ", ".join(self.val(arg) for arg in instr.args)
        invoke = f"{gen.names[callee.name]}({args})"
        if gen.generators[callee.name]:
            invoke = f"(yield {invoke})"
        if instr.dest is None:
            body.add(depth, invoke)
            return
        dest = self.reg(instr.dest)
        body.add(depth, f"{dest} = {invoke}")
        message = f"void return but caller expects a value in {instr.dest!r}"
        body.add(depth, f"if {dest} is None: raise TrapError({message!r})")

    def instr(self, instr) -> str:
        cls = instr.__class__
        val = self.val
        if cls is BinOp:
            a, b, op = val(instr.lhs), val(instr.rhs), instr.op
            if op in _BIN_OPS:
                expr = f"{a} {_BIN_OPS[op]} {b}"
            elif op in ("div", "mod") and type(instr.rhs) is int and instr.rhs:
                expr = self.divide(a, op, instr.rhs)
            elif op == "div":
                expr = f"_div({a}, {b})"
            elif op == "mod":
                expr = f"_mod({a}, {b})"
            elif op in ("shl", "shr"):
                shift = f"({b} & 63)" if type(instr.rhs) is not int else str(instr.rhs & 63)
                expr = f"{a} {'<<' if op == 'shl' else '>>'} {shift}"
            elif op == "min":
                expr = f"{a} if {a} <= {b} else {b}"
            else:  # max
                expr = f"{a} if {a} >= {b} else {b}"
            return f"{self.reg(instr.dest)} = {expr}"
        if cls is Cmp:
            a, b = val(instr.lhs), val(instr.rhs)
            return f"{self.reg(instr.dest)} = 1 if {a} {_CMP_OPS[instr.op]} {b} else 0"
        if cls is Load:
            return f"{self.reg(instr.dest)} = _Mg({self.address(instr.addr, instr.offset)}, 0)"
        if cls is Store:
            address = self.address(instr.addr, instr.offset)
            return f"_M[{address}] = {val(instr.value)}"
        if cls is Const:
            return f"{self.reg(instr.dest)} = {val(instr.value)}"
        if cls is Move:
            return f"{self.reg(instr.dest)} = {val(instr.src)}"
        if cls is UnOp:
            v = val(instr.src)
            if instr.op == "neg":
                expr = f"-{v}"
            elif instr.op == "not":
                expr = f"~{v}"
            else:  # abs
                expr = f"{v} if {v} >= 0 else -{v}"
            return f"{self.reg(instr.dest)} = {expr}"
        if cls is Alloc:
            return f"{self.reg(instr.dest)} = _alloc({val(instr.size)})"
        if cls is In:
            return f"{self.reg(instr.dest)} = _in()"
        if cls is Out:
            return f"_O({val(instr.value)})"
        return f"raise TrapError({f'cannot execute {instr!r}'!r})"

    @staticmethod
    def divide(a: str, op: str, divisor: int) -> str:
        """Truncating ``div``/``mod`` by a nonzero constant, inlined (the
        result of ``mod`` takes the sign of the dividend)."""
        d = abs(divisor)
        if op == "mod":
            return f"{a} % {d} if {a} >= 0 else -(-{a} % {d})"
        if divisor > 0:
            return f"{a} // {d} if {a} >= 0 else -(-{a} // {d})"
        return f"-({a} // {d}) if {a} >= 0 else -{a} // {d}"

    def address(self, addr, offset) -> str:
        if type(addr) is int and type(offset) is int:
            return self.val(addr + offset)
        if offset == 0 and type(offset) is int:
            return self.val(addr)
        return f"{self.val(addr)} + {self.val(offset)}"


class _Charge:
    """An open fuel charge: a placeholder line counting instructions."""

    __slots__ = ("line", "count", "check")

    def __init__(self, line: list, check: bool) -> None:
        self.line = line
        self.count = 0
        self.check = check

    def add(self) -> None:
        self.count += 1
        if self.check:
            self.line[1] = f"if (steps := steps + {self.count}) > _L: raise _Overflow"
        else:
            self.line[1] = f"steps += {self.count}"


# -- compiled forms and their cache -------------------------------------------


class _Form:
    """One program compiled for one recording mode."""

    def __init__(self, program: Program, mode: tuple) -> None:
        self.tables = _Tables(program, mode)
        gen = _ProgramGen(program, self.tables, mode)
        source = gen.source()
        errors = gen.errors
        namespace = {
            "_div": _div,
            "_mod": _mod,
            "_Overflow": _Overflow,
            "TrapError": TrapError,
            "_K": gen.constants,
            "_X": lambda index: errors[index][0](*errors[index][1]),
        }
        exec(compile(source, "<repro.interp.compiled>", "exec"), namespace)
        self.factory = namespace["_factory"]
        self.generators = gen.generators
        self.registers = gen.registers
        self.source_bytes = len(source)


_CACHE: "OrderedDict[tuple, _Form]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def _compiled(program: Program, mode: tuple) -> _Form:
    """The compiled form of *program* for *mode*, from the cache when
    a program with the same text was compiled before."""
    try:
        key: Optional[tuple] = (format_program(program), mode)
    except (IRError, KeyError):  # unprintable (e.g. a bad entry): never cached
        key = None
    if key is not None:
        with _CACHE_LOCK:
            form = _CACHE.get(key)
            if form is not None:
                _CACHE.move_to_end(key)
        if form is not None:
            OBS.add("interp.compile_cache_hits")
            return form
    with OBS.span("interp.compile", instructions=program.size()) as span:
        form = _Form(program, mode)
        span.set(source_bytes=form.source_bytes)
    OBS.add("interp.compiles")
    if key is not None:
        with _CACHE_LOCK:
            _CACHE[key] = form
            while len(_CACHE) > CACHE_SIZE:
                _CACHE.popitem(last=False)
    return form


# -- execution ----------------------------------------------------------------


class Execution:
    """One run of a program, compiled, recorded into columns.

    Parameters mirror :class:`Machine`.  Branch codes are always
    recorded; ``history_bits`` adds the frame-local history to each
    code, and the flags add columns: ``edges`` (edge counters) and
    ``blocks`` (the block-entry stream).  After
    :meth:`run` — and after a trap too — :attr:`output` and
    :attr:`memory` hold exactly what :class:`Machine` would hold.
    """

    def __init__(
        self,
        program: Program,
        input_values: Sequence[int] = (),
        max_steps: int = 50_000_000,
        *,
        history_bits: int = 0,
        edges: bool = False,
        blocks: bool = False,
    ) -> None:
        self.program = program
        self.input_values = list(input_values)
        self.max_steps = max_steps
        self.history_bits = history_bits
        self.mode = (history_bits, edges, blocks)
        self.memory: Dict[int, int] = {}
        self.output: List[int] = []
        self.result: Optional[RunResult] = None
        self._started = False
        self._charged = lambda: 0
        self._form: Optional[_Form] = None
        if program.size() <= COMPILE_BUDGET:
            self._form = _compiled(program, self.mode)
            tables = self._form.tables
            self._columns(tables.sites.keys, tables.blocks.keys, tables.edges.keys)

    def _columns(self, sites: list, blocks: list, edges: list) -> None:
        """Fresh, empty columns numbering sites, blocks and edges as
        the given lists do (the lists may still grow while recording)."""
        #: site id -> branch site
        self.sites = sites
        #: block id -> (function, label)
        self.block_keys = blocks
        #: edge id -> (function, source, target)
        self.edge_keys = edges
        self.site_shift = _site_shift(self.program)
        bits = self.history_bits + self.site_shift  # of the widest code
        self.codes = array("i") if bits < 32 else array("q") if bits < 64 else []
        self.edge_counters = [0] * len(edges)
        self.block_stream = array("i")
        self._counted = None

    # -- running

    def run(self, *args: int) -> RunResult:
        """Run the entry function with *args*."""
        return self.call(self.program.main, list(args))

    def call(self, func_name: str, args: Sequence[int]) -> RunResult:
        """Run the function *func_name* with *args* (once per instance)."""
        if self._started:
            raise RuntimeError("an Execution runs once; make a new one")
        self._started = True
        if self._form is None:
            OBS.add("interp.fallbacks.size")
            return self._replay(func_name, args)
        function = self.program.function(func_name)
        if len(args) != len(function.params):
            raise TrapError(
                f"{func_name} expects {len(function.params)} args, got {len(args)}"
            )
        try:
            value = self._compiled_call(func_name, args)
        except Exception as error:
            # A fault after the charged steps passed the limit may come
            # after the reference's own fuel trap: replay to find out.
            if isinstance(error, _Overflow) or self._charged() > self.max_steps:
                return self._fuel_replay(func_name, args)
            if isinstance(error, UnboundLocalError):
                raise self._undefined(error) from None
            raise
        steps = self._charged()
        if steps > self.max_steps:
            return self._fuel_replay(func_name, args)
        self.result = RunResult(value, self.output, steps, len(self.codes))
        return self.result

    def _compiled_call(self, func_name: str, args: Sequence[int]):
        """The return value of a compiled run; :meth:`_charged` reads
        its step count."""
        inputs = iter(self.input_values)
        brk = [0x10000]

        def read_input():
            for value in inputs:
                return value
            raise TrapError("input exhausted")

        def alloc(size):
            if size < 0:
                raise TrapError(f"alloc of negative size {size}")
            base = brk[0]
            brk[0] = base + size + 1
            return base

        functions, self._charged = self._form.factory(
            self.memory,
            self.output.append,
            read_input,
            alloc,
            self.codes.append,
            self.block_stream.append,
            self.edge_counters,
            self.max_steps,
        )
        entry = functions[func_name]
        if self._form.generators[func_name]:
            return _drive(entry(*args))
        return entry(*args)

    def _fuel_replay(self, func_name: str, args: Sequence[int]) -> RunResult:
        OBS.add("interp.fallbacks.fuel")
        return self._replay(func_name, args)

    def _replay(self, func_name: str, args: Sequence[int]) -> RunResult:
        """Run on the reference :class:`Machine`, recording into fresh
        columns that number sites and blocks as they are first seen."""
        history_bits, edges, blocks = self.mode
        site_id, block_id = _Ids(), _Ids()
        self._columns(site_id.keys, block_id.keys, [])
        append = self.codes.append
        shift = self.site_shift

        def on_branch(site, taken):
            code = site_id(site) << 1 | (1 if taken else 0)
            append(machine.path_history << shift | code)

        on_block = None
        if blocks:
            record = self.block_stream.append

            def on_block(function_name, label):
                record(block_id((function_name, label)))

        machine = Machine(
            self.program,
            self.input_values,
            self.max_steps,
            on_branch,
            track_history_bits=history_bits,
            count_edges=edges,
            on_block=on_block,
        )
        self.memory = machine.memory
        self.output = machine.output
        try:
            self.result = machine.call(func_name, args)
        finally:
            self.edge_keys.extend(machine.edge_counts)
            self.edge_counters.extend(machine.edge_counts.values())
        return self.result

    def _undefined(self, error: UnboundLocalError) -> KeyError:
        """The reference reads registers from a dict: a register read
        before any write raises ``KeyError(register)`` there."""
        message = str(error)
        for local in message.split("'")[1::2]:
            if local[:1] == "r" and local[1:].isdigit():
                return KeyError(self._form.registers[int(local[1:])])
        return error

    # -- columns

    @property
    def edge_counts(self) -> Dict[Tuple[str, str, str], int]:
        """Executions per ``(function, source, target)`` edge — equal, as
        a mapping, to :attr:`Machine.edge_counts`."""
        edges = self.edge_keys
        return {edges[i]: count for i, count in enumerate(self.edge_counters) if count}

    def code_counts(self) -> Counter:
        """Events per distinct code, codes in first-execution order."""
        if self._counted is None:
            self._counted = Counter(self.codes)
        return self._counted

    def site_of(self, code: int) -> BranchSite:
        """The branch site an event code belongs to."""
        return self.sites[(code & ((1 << self.site_shift) - 1)) >> 1]

    def events(self) -> Iterator[Tuple[BranchSite, bool]]:
        """``(site, taken)`` for every branch event, in execution order."""
        site_of = self.site_of
        for code in self.codes:
            yield site_of(code), code & 1 == 1

    def site_outcomes(self) -> Dict[BranchSite, List[int]]:
        """``site -> [not_taken, taken]``, sites in first-execution order."""
        outcomes: Dict[BranchSite, List[int]] = {}
        for code, count in self.code_counts().items():
            site = self.site_of(code)
            cell = outcomes.get(site)
            if cell is None:
                cell = outcomes[site] = [0, 0]
            cell[code & 1] += count
        return outcomes


def _drive(generator):
    """Run a generator-compiled call to completion on an explicit stack."""
    stack = []
    push = stack.append
    pop = stack.pop
    value = None
    send = generator.send
    while True:
        try:
            callee = send(value)
        except StopIteration as stop:
            value = stop.value
            if not stack:
                return value
            send = pop()
            continue
        push(send)
        send = callee.send
        value = None


def execute(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 50_000_000,
    **recording,
) -> Execution:
    """Run *program*'s entry function and return the finished
    :class:`Execution` (its columns, :attr:`~Execution.result`, output
    and memory).  *recording* takes :class:`Execution`'s flags."""
    execution = Execution(program, input_values, max_steps, **recording)
    execution.run(*args)
    return execution


__all__ = [
    "CACHE_SIZE",
    "COMPILE_BUDGET",
    "Execution",
    "execute",
]
