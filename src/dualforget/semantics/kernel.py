"""Truth-table kernel.

Evaluates a boolean circuit over all 2**n_vars valuations at once, using
arbitrary-precision integers as bit-parallel truth tables: bit ``v`` of a
table is the value under the valuation where input ``i`` is true iff
``(v >> i) & 1``.
"""

from __future__ import annotations

from ._program import OP_AND, OP_CONST0, OP_CONST1, OP_NOT, OP_OR, OP_VAR, CircuitBuilder

#: which kernel implementation runs; there is one, in pure Python
BACKEND = "pure"

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


def eval_table(builder: CircuitBuilder, out: int) -> int:
    """Truth table of slot ``out`` as an integer over 2**n_vars bits."""
    nbits = 1 << builder.n_vars
    full = (1 << nbits) - 1
    slots: list[int] = [_var_mask(i, nbits) for i in range(builder.n_vars)]
    ops, arg1, arg2 = builder.ops, builder.arg1, builder.arg2
    for k in range(len(ops)):
        op = ops[k]
        if op == OP_AND:
            slots.append(slots[arg1[k]] & slots[arg2[k]])
        elif op == OP_OR:
            slots.append(slots[arg1[k]] | slots[arg2[k]])
        elif op == OP_NOT:
            slots.append(slots[arg1[k]] ^ full)
        elif op == OP_CONST0:
            slots.append(0)
        elif op == OP_CONST1:
            slots.append(full)
        elif op == OP_VAR:
            slots.append(slots[arg1[k]])
        else:
            raise ValueError(f"bad opcode {op}")
    return slots[out]
