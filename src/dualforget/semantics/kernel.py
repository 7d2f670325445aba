"""Truth-table kernel.

Evaluates a boolean circuit over all 2**n_vars valuations at once, using
arbitrary-precision integers as bit-parallel truth tables: bit ``v`` of a
table is the value under the valuation where input ``i`` is true iff
``(v >> i) & 1``.

The oracles compute with the values of :func:`_space`: int truth tables
below ``FREE_FROM_VARS`` inputs, and from there on gates of a circuit, which
:func:`eval_table` evaluates once per check.  The same expressions compute
both, and :func:`_table` reads either back as a table.
"""

from __future__ import annotations

import functools

from ._program import (
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_EXISTS,
    OP_NOT,
    OP_OR,
    OP_XOR,
    CircuitBuilder,
    Gate,
)

#: which kernel implementation runs; there is one, in pure Python
BACKEND = "pure"

#: The width at which tables get big.  Below it a table is at most 256
#: bytes, and the oracles' walks compute every node's table, calling no
#: kernel, because building the circuit cost more than evaluating it (the
#: figures are in the ``prop_oracle`` and ``fo_oracle`` docstrings).  A
#: propositional check whose names, free and bound, number at most one
#: less than this is compiled in one walk over that many table inputs,
#: projecting the bound names out, and a first-order check grounds there
#: while its atoms fit.  From this many inputs on, the walks build gates,
#: and one circuit per check is evaluated by :func:`eval_table`.  Read by
#: :func:`_space` and both oracles at each call.
FREE_FROM_VARS = 12


@functools.cache
def _var_mask(i: int, nbits: int) -> int:
    """Table of input ``i``: bit v set iff (v >> i) & 1.  One period (``2**i``
    clear bits, then ``2**i`` set bits) is doubled until it fills ``nbits``."""
    chunk = 1 << i
    if chunk >= nbits:
        return 0
    m = ((1 << chunk) - 1) << chunk
    width = chunk << 1
    while width < nbits:
        m |= m << width
        width <<= 1
    return m


def project(t: int, i: int, nbits: int) -> int:
    """Table ``t`` over ``nbits`` bits with input ``i`` projected out:
    ``t[i:=0] | t[i:=1]``.  The half where input ``i`` is set and the half
    where it is clear are each copied onto the other and OR-ed in."""
    hi = t & _var_mask(i, nbits)
    s = 1 << i
    return t | (hi >> s) | ((t ^ hi) << s)


def eval_table(builder: CircuitBuilder, out: int) -> int:
    """Truth table of slot ``out`` (an index or its gate) as an integer
    over 2**n_vars bits, for the builder's ``n_vars``: no instruction reads
    an input past them."""
    n_vars = builder.n_vars
    nbits = 1 << n_vars
    full = (1 << nbits) - 1
    slots: list = [_var_mask(i, nbits) for i in range(n_vars)]
    slots += [None] * (len(builder.inputs) - n_vars)
    ops, arg1, arg2 = builder.ops, builder.arg1, builder.arg2
    n_ops = len(ops)
    # last[s]: the last instruction with s as an operand, after which its
    # table is released; freed tables are reused instead of growing the
    # heap (the 66 prop_rules circuits of one benchmark round, up to 20
    # inputs, took 0.19 s keeping every table and 0.06 s freeing them).
    # Constants and NOT carry a dummy operand 0, which only keeps
    # input 0 (cached by _var_mask anyway) a little longer.  OP_EXISTS's
    # second operand is an input index read here as a slot: that keeps the
    # input's table, also cached by _var_mask, until the projection at the
    # latest.  ``out`` is never released.
    last = [-1] * (len(slots) + n_ops)
    for k in range(n_ops):
        last[arg1[k]] = k
        last[arg2[k]] = k
    last[out] = n_ops
    for k in range(n_ops):
        op = ops[k]
        a = arg1[k]
        b = arg2[k]
        if op == OP_AND:
            slots.append(slots[a] & slots[b])
        elif op == OP_OR:
            slots.append(slots[a] | slots[b])
        elif op == OP_NOT:
            slots.append(slots[a] ^ full)
        elif op == OP_XOR:
            slots.append(slots[a] ^ slots[b])
        elif op == OP_CONST0:
            slots.append(0)
        elif op == OP_CONST1:
            slots.append(full)
        elif op == OP_EXISTS:
            slots.append(project(slots[a], b, nbits))
        else:
            raise ValueError(f"bad opcode {op}")
        if last[a] == k:
            slots[a] = None
        if last[b] == k:
            slots[b] = None
    return slots[out]


class _Tables:
    """The values below the cut: each value is its own truth table.  Has
    the builder's ``n_vars``, ``inputs``, ``full`` and ``exists``."""

    __slots__ = ("n_vars", "nbits", "inputs", "full")

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.nbits = 1 << n_vars
        self.inputs = [_var_mask(i, self.nbits) for i in range(n_vars)]
        self.full = (1 << self.nbits) - 1

    def exists(self, t: int, i: int) -> int:
        return project(t, i, self.nbits)


_tables = functools.cache(_Tables)


class _Wide(Exception):
    """Raised by an oracle's walk when its table inputs run out: at a name
    past them, or a binder whose tuples do not fit; the check then takes
    its circuit path."""


def _space(n_vars: int):
    """What the oracles compute with over ``n_vars`` inputs: int truth
    tables below ``FREE_FROM_VARS``, from there on the gates of a fresh
    circuit."""
    return _tables(n_vars) if n_vars < FREE_FROM_VARS else CircuitBuilder(n_vars)


def _table(space, value) -> int:
    """The truth table of ``value``, a value of ``space``.  A circuit's
    constant 1 (its ``full``) stands for the all-true table."""
    if type(value) is Gate:
        return eval_table(space, value)
    return (1 << (1 << space.n_vars)) - 1 if value == space.full else value
