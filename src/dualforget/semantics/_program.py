"""Circuit program representation evaluated by the truth-table kernel.

A program is a straight-line boolean circuit.  Slots ``0 .. n_vars-1`` are
the inputs; instruction ``k`` (opcode plus up to two operand slot indices)
writes slot ``n_vars + k``.  The kernel evaluates one designated output slot
over every valuation of the inputs.
"""

from array import array

OP_CONST0 = 0
OP_CONST1 = 1
OP_NOT = 2
OP_AND = 3
OP_OR = 4
OP_XOR = 5


class CircuitBuilder:
    """Accumulates instructions with hash-consing (structurally identical
    subcircuits share a slot)."""

    __slots__ = ("n_vars", "ops", "arg1", "arg2", "_memo", "_nslots")

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.ops = array("B")
        self.arg1 = array("l")
        self.arg2 = array("l")
        self._memo: dict[tuple[int, int, int], int] = {}
        self._nslots = n_vars

    def _emit(self, op: int, a: int = 0, b: int = 0) -> int:
        key = (op, a, b)
        slot = self._memo.get(key)
        if slot is not None:
            return slot
        self.ops.append(op)
        self.arg1.append(a)
        self.arg2.append(b)
        slot = self._nslots
        self._nslots += 1
        self._memo[key] = slot
        return slot

    def const(self, value: bool) -> int:
        return self._emit(OP_CONST1 if value else OP_CONST0)

    def not_(self, a: int) -> int:
        return self._emit(OP_NOT, a)

    def and2(self, a: int, b: int) -> int:
        if a == b:
            return a
        return self._emit(OP_AND, a, b) if a < b else self._emit(OP_AND, b, a)

    def or2(self, a: int, b: int) -> int:
        if a == b:
            return a
        return self._emit(OP_OR, a, b) if a < b else self._emit(OP_OR, b, a)

    def xor2(self, a: int, b: int) -> int:
        if a == b:
            return self.const(False)
        return self._emit(OP_XOR, a, b) if a < b else self._emit(OP_XOR, b, a)

    def and_many(self, slots) -> int:
        acc = None
        for s in slots:
            acc = s if acc is None else self.and2(acc, s)
        return self.const(True) if acc is None else acc

    def or_many(self, slots) -> int:
        acc = None
        for s in slots:
            acc = s if acc is None else self.or2(acc, s)
        return self.const(False) if acc is None else acc

    def __len__(self) -> int:
        return len(self.ops)
