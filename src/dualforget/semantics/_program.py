"""Circuit program representation evaluated by the truth-table kernel.

A program is a straight-line boolean circuit.  Slots ``0 .. len(inputs)-1``
are the inputs; instruction ``k`` (opcode plus up to two operand slot
indices) writes slot ``len(inputs) + k``.  The kernel evaluates one
designated output slot over every valuation of the first ``n_vars`` inputs.
``OP_EXISTS`` projects an input out of its operand: its second operand is
that input's index, which is also the input's slot.

Circuits are built by computing with :class:`Gate` values as if they were
int truth tables: ``&``, ``|`` and ``^`` emit gates, and the ints 0 and 1
are the constants false and true, which fold away.  So the oracles' one walk
builds a circuit from the same expressions that compute tables below the
kernel's cut.
"""

from array import array

OP_CONST0 = 0
OP_CONST1 = 1
OP_NOT = 2
OP_AND = 3
OP_OR = 4
OP_XOR = 5
OP_EXISTS = 6


class Gate:
    """The value of one slot of a builder.  Combined with another gate of
    the same builder, or with the constant 0 or 1, ``&``, ``|`` and ``^``
    act as on int truth tables whose all-true table is 1: ``x & 1`` is
    ``x``, ``x ^ 1`` is a NOT gate, ``x ^ x`` is 0.  Gates are hash-consed,
    so equal expressions are the same object (``a & b is b & a``)."""

    __slots__ = ("builder", "slot")

    def __init__(self, builder: "CircuitBuilder", slot: int):
        self.builder = builder
        self.slot = slot

    def __index__(self) -> int:
        return self.slot

    def _pair(self, op: int, other: "Gate") -> "Gate":
        a, b = self.slot, other.slot
        return self.builder._emit(op, a, b) if a < b else self.builder._emit(op, b, a)

    def __and__(self, other):
        if type(other) is int:
            return self if other else 0
        return self if other is self else self._pair(OP_AND, other)

    def __or__(self, other):
        if type(other) is int:
            return 1 if other else self
        return self if other is self else self._pair(OP_OR, other)

    def __xor__(self, other):
        if type(other) is int:
            return self.builder._emit(OP_NOT, self.slot) if other else self
        return 0 if other is self else self._pair(OP_XOR, other)

    __rand__, __ror__, __rxor__ = __and__, __or__, __xor__


class CircuitBuilder:
    """Accumulates instructions with hash-consing (structurally identical
    subcircuits share a slot and a :class:`Gate`).  ``inputs`` holds the
    gate of each input and ``full``, the all-true value, is 1.  ``n_vars``
    is the number of inputs, unless a walk that used fewer records so."""

    __slots__ = ("n_vars", "inputs", "ops", "arg1", "arg2", "_memo")

    full = 1

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.inputs = [Gate(self, i) for i in range(n_vars)]
        self.ops = array("B")
        self.arg1 = array("l")
        self.arg2 = array("l")
        self._memo: dict[tuple[int, int, int], Gate] = {}

    def _emit(self, op: int, a: int = 0, b: int = 0) -> Gate:
        key = (op, a, b)
        gate = self._memo.get(key)
        if gate is None:
            gate = self._memo[key] = Gate(self, len(self.inputs) + len(self.ops))
            self.ops.append(op)
            self.arg1.append(a)
            self.arg2.append(b)
        return gate

    def const(self, value: bool) -> Gate:
        """A constant gate; computing with the ints 0 and 1 emits none."""
        return self._emit(OP_CONST1 if value else OP_CONST0)

    def exists(self, a, var: int):
        """``a`` with input ``var`` projected out: ``a[var:=0] | a[var:=1]``."""
        return a if type(a) is int else self._emit(OP_EXISTS, a.slot, var)

    def __len__(self) -> int:
        return len(self.ops)
