"""Truth-table kernel.

Evaluates a boolean circuit over all 2**n_vars valuations at once, using
arbitrary-precision integers as bit-parallel truth tables: bit ``v`` of a
table is the value under the valuation where input ``i`` is true iff
``(v >> i) & 1``.
"""

from __future__ import annotations

from ._program import (
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_EXISTS,
    OP_NOT,
    OP_OR,
    OP_XOR,
    CircuitBuilder,
)

#: which kernel implementation runs; there is one, in pure Python
BACKEND = "pure"

#: The width at which tables get big.  Below it a table is at most 256
#: bytes, and both oracles compute their tables as they walk the formulas
#: and call no kernel, because building the circuit cost more than
#: evaluating it (3,000 prop_random checks on a 2-vCPU VM: 0.14 s as
#: tables, 0.31 s as circuits; the first-order figures are in the
#: ``fo_oracle`` docstring).  From this many inputs on, the oracles build
#: circuits for :func:`eval_table`.
FREE_FROM_VARS = 12

_mask_cache: dict[tuple[int, int], int] = {}


def _var_mask(i: int, nbits: int) -> int:
    """Table of input ``i``: bit v set iff (v >> i) & 1.  One period (``2**i``
    clear bits, then ``2**i`` set bits) is doubled until it fills ``nbits``."""
    key = (i, nbits)
    cached = _mask_cache.get(key)
    if cached is not None:
        return cached
    chunk = 1 << i
    if chunk >= nbits:
        m = 0
    else:
        m = ((1 << chunk) - 1) << chunk
        width = chunk << 1
        while width < nbits:
            m |= m << width
            width <<= 1
    _mask_cache[key] = m
    return m


def project(t: int, i: int, nbits: int) -> int:
    """Table ``t`` over ``nbits`` bits with input ``i`` projected out:
    ``t[i:=0] | t[i:=1]``.  The half where input ``i`` is set and the half
    where it is clear are each copied onto the other and OR-ed in."""
    hi = t & _var_mask(i, nbits)
    s = 1 << i
    return t | (hi >> s) | ((t ^ hi) << s)


def eval_table(builder: CircuitBuilder, out: int) -> int:
    """Truth table of slot ``out`` as an integer over 2**n_vars bits."""
    n_vars = builder.n_vars
    nbits = 1 << n_vars
    full = (1 << nbits) - 1
    slots: list = [_var_mask(i, nbits) for i in range(n_vars)]
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
    last = [-1] * (n_vars + n_ops)
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
