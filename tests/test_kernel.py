"""The truth-table kernel against a naive per-valuation evaluation, and its
input masks against a bit-by-bit construction."""

import random

from dualforget.semantics import kernel
from dualforget.semantics._program import CircuitBuilder


def random_circuit(rng: random.Random, max_vars: int = 10, min_vars: int = 0, gates: int = 40):
    n = rng.randint(min_vars, max_vars)
    b = CircuitBuilder(n)
    slots = list(range(n)) or [b.const(True)]
    for _ in range(rng.randint(1, gates)):
        op = rng.choice(["not", "and", "or", "xor", "c0", "c1"])
        if op == "not":
            slots.append(b.not_(rng.choice(slots)))
        elif op == "and":
            slots.append(b.and2(rng.choice(slots), rng.choice(slots)))
        elif op == "or":
            slots.append(b.or2(rng.choice(slots), rng.choice(slots)))
        elif op == "xor":
            slots.append(b.xor2(rng.choice(slots), rng.choice(slots)))
        else:
            slots.append(b.const(op == "c1"))
    return b, slots[-1]


def reference_eval(b: CircuitBuilder, out: int, v: int) -> bool:
    from dualforget.semantics._program import OP_AND, OP_CONST0, OP_CONST1, OP_NOT, OP_OR, OP_XOR

    values = [bool((v >> i) & 1) for i in range(b.n_vars)]
    for op, a1, a2 in zip(b.ops, b.arg1, b.arg2):
        if op == OP_AND:
            values.append(values[a1] and values[a2])
        elif op == OP_OR:
            values.append(values[a1] or values[a2])
        elif op == OP_NOT:
            values.append(not values[a1])
        elif op == OP_XOR:
            values.append(values[a1] != values[a2])
        elif op == OP_CONST0:
            values.append(False)
        elif op == OP_CONST1:
            values.append(True)
        else:
            raise AssertionError(f"unknown opcode {op}")
    return values[out]


def test_pure_backend_matches_naive_evaluation():
    rng = random.Random(5)
    for _ in range(60):
        b, out = random_circuit(rng, max_vars=6)
        table = kernel.eval_table(b, out)
        for v in range(1 << b.n_vars):
            assert bool((table >> v) & 1) == reference_eval(b, out, v)


def test_freeing_path_matches_naive_evaluation(monkeypatch):
    # From kernel.FREE_FROM_VARS (12) inputs on, tables are released after
    # their last read; ``out`` must survive even when later gates read it.
    rng = random.Random(13)
    for trial in range(8):
        b, out = random_circuit(rng, max_vars=14, min_vars=12, gates=60)
        if trial % 2:
            reader = b.xor2(out, rng.randrange(b.n_vars))
            b.and2(b.not_(reader), out)
            assert out in (b.arg1[-1], b.arg2[-1])
        assert b.n_vars >= kernel.FREE_FROM_VARS
        table = kernel.eval_table(b, out)
        for v in rng.sample(range(1 << b.n_vars), 200):
            assert bool((table >> v) & 1) == reference_eval(b, out, v)
        with monkeypatch.context() as m:
            m.setattr(kernel, "FREE_FROM_VARS", 15)
            assert kernel.eval_table(b, out) == table


def test_input_masks_match_bitwise_construction():
    for n_vars in range(13):
        nbits = 1 << n_vars
        for i in range(n_vars + 1):
            expected = sum(1 << v for v in range(nbits) if (v >> i) & 1)
            assert kernel._var_mask(i, nbits) == expected, (i, n_vars)


def test_hash_consing_dedups():
    b = CircuitBuilder(2)
    x = b.and2(0, 1)
    y = b.and2(1, 0)
    assert x == y
    assert len(b) == 1
