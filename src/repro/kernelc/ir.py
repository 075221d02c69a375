"""Kernel IR node definitions.

A :class:`Kernel` is a per-thread program over three kinds of state:

* **mapped arrays** — the arbitrarily-large streaming structures BigKernel
  manages (``streamingMap``-ed); accessed via :class:`Load`/:class:`Store`
  of a :class:`MappedRef` (record index + field).
* **resident arrays** — structures explicitly copied to GPU memory the
  traditional way (cluster centroids, dictionaries, output tables);
  accessed via :class:`ResidentLoad`/:class:`ResidentStore`/:class:`AtomicAdd`.
* **locals/params** — scalars.

The implicit thread context provides ``tid``, ``start`` and ``end`` — the
virtual thread id and its record range — mirroring the
``myParticleStartIndex``/``EndIndex`` idiom of the paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import IRValidationError

# ---------------------------------------------------------------------------
# Record schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """One field of a fixed-length record."""

    name: str
    dtype: str  # numpy dtype string, e.g. "f8", "i4", "u1"
    offset: int

    @property
    def nbytes(self) -> int:
        return np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class RecordSchema:
    """Byte layout of the records in a mapped array.

    ``fields`` must tile (a subset of) a ``record_size``-byte record without
    overlap. Variable-length byte data (text) uses a single ``u1`` field of
    record_size 1, i.e. the array is addressed byte-wise.
    """

    fields: tuple[FieldSpec, ...]
    record_size: int

    def __post_init__(self):
        seen = set()
        for f in self.fields:
            if f.name in seen:
                raise IRValidationError(f"duplicate field {f.name!r}")
            seen.add(f.name)
            if f.offset < 0 or f.offset + f.nbytes > self.record_size:
                raise IRValidationError(
                    f"field {f.name!r} [{f.offset}, {f.offset + f.nbytes}) "
                    f"outside record of {self.record_size} bytes"
                )
        spans = sorted((f.offset, f.offset + f.nbytes) for f in self.fields)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if e1 > s2:
                raise IRValidationError("record fields overlap")

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise IRValidationError(f"no field {name!r} in schema")

    def numpy_dtype(self) -> np.dtype:
        """Structured dtype with explicit offsets and itemsize."""
        return np.dtype(
            {
                "names": [f.name for f in self.fields],
                "formats": [f.dtype for f in self.fields],
                "offsets": [f.offset for f in self.fields],
                "itemsize": self.record_size,
            }
        )

    @staticmethod
    def packed(pairs: Sequence[tuple[str, str]], record_size: Optional[int] = None) -> "RecordSchema":
        """Build a schema by packing fields back to back."""
        fields = []
        off = 0
        for name, dtype in pairs:
            fields.append(FieldSpec(name, dtype, off))
            off += np.dtype(dtype).itemsize
        return RecordSchema(tuple(fields), record_size if record_size is not None else off)

    @staticmethod
    def bytes_schema() -> "RecordSchema":
        """Byte-addressed schema for variable-length (text) data."""
        return RecordSchema((FieldSpec("byte", "u1", 0),), 1)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for IR expressions."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    value: Union[int, float, bool]


@dataclass(frozen=True)
class Var(Expr):
    """A kernel-local variable (including the builtins tid/start/end)."""

    name: str


@dataclass(frozen=True)
class Param(Expr):
    """A scalar kernel parameter (bound at launch)."""

    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def children(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnOp(Expr):
    op: str
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Call(Expr):
    """Call into a named device function (opaque compute, may read resident
    arrays through its closure, never mapped arrays)."""

    fn: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args


@dataclass(frozen=True)
class MappedRef(Expr):
    """The *address* of ``array[index].field`` in a mapped structure."""

    array: str
    index: Expr
    field_name: str

    def children(self):
        return (self.index,)


@dataclass(frozen=True)
class Load(Expr):
    """Dereference of a mapped address — the accesses BigKernel rewrites."""

    ref: MappedRef

    def children(self):
        return (self.ref,)


@dataclass(frozen=True)
class ResidentLoad(Expr):
    """Read of a GPU-resident (non-mapped) array element."""

    array: str
    index: Expr

    def children(self):
        return (self.index,)


@dataclass(frozen=True)
class DataBufLoad(Expr):
    """Post-transform node: pop the next prefetched value (Section III's
    ``dataBuf[counter++][tid]``). Carries the original ref for tracing."""

    original: MappedRef


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for IR statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    value: Expr


@dataclass(frozen=True)
class Store(Stmt):
    """Write to a mapped structure (handled via write buffers, Section III)."""

    ref: MappedRef
    value: Expr


@dataclass(frozen=True)
class WriteBufStore(Stmt):
    """Post-transform node: push the value into the GPU-side write buffer."""

    original: MappedRef
    value: Expr


@dataclass(frozen=True)
class EmitAddress(Stmt):
    """Post-slice node: record a mapped access's address instead of making it."""

    ref: MappedRef
    is_write: bool = False


@dataclass(frozen=True)
class ResidentStore(Stmt):
    array: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class AtomicAdd(Stmt):
    """Atomic accumulation into a resident array (hash tables, histograms)."""

    array: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class For(Stmt):
    """``for var in range(start, end, step)`` over scalar expressions."""

    var: str
    start: Expr
    end: Expr
    body: tuple[Stmt, ...]
    step: Expr = Const(1)


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """Evaluate an expression for its effects (device-function calls)."""

    expr: Expr


# ---------------------------------------------------------------------------
# Kernel container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """A per-thread kernel program.

    ``mapped`` maps array name -> :class:`RecordSchema`; ``resident`` is the
    set of resident array names; ``params`` the scalar parameter names;
    ``device_functions`` the names the :class:`Call` nodes may reference.
    ``form`` tags which transformation produced this kernel.
    """

    name: str
    body: tuple[Stmt, ...]
    mapped: dict = field(default_factory=dict)
    resident: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    device_functions: tuple[str, ...] = ()
    form: str = "original"  # "original" | "addrgen" | "databuf"

    def schema(self, array: str) -> RecordSchema:
        try:
            return self.mapped[array]
        except KeyError:
            raise IRValidationError(f"{array!r} is not a mapped array of {self.name}")


def walk_exprs(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth first."""
    yield expr
    for c in expr.children():
        yield from walk_exprs(c)


def stmt_exprs(stmt: Stmt) -> tuple[Expr, ...]:
    """Direct expressions of one statement (not recursing into bodies)."""
    if isinstance(stmt, Assign):
        return (stmt.value,)
    if isinstance(stmt, Store):
        return (stmt.ref, stmt.value)
    if isinstance(stmt, WriteBufStore):
        return (stmt.value,)
    if isinstance(stmt, EmitAddress):
        return (stmt.ref,)
    if isinstance(stmt, (ResidentStore, AtomicAdd)):
        return (stmt.index, stmt.value)
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, For):
        return (stmt.start, stmt.end, stmt.step)
    if isinstance(stmt, While):
        return (stmt.cond,)
    if isinstance(stmt, ExprStmt):
        return (stmt.expr,)
    return ()


def stmt_bodies(stmt: Stmt) -> tuple[tuple[Stmt, ...], ...]:
    """Nested statement lists of one statement."""
    if isinstance(stmt, If):
        return (stmt.then_body, stmt.else_body)
    if isinstance(stmt, (For, While)):
        return (stmt.body,)
    return ()


def walk_stmts(body: Sequence[Stmt]):
    """Yield every statement in ``body``, depth first, in program order."""
    for s in body:
        yield s
        for b in stmt_bodies(s):
            yield from walk_stmts(b)
