"""The truth-table kernel against a naive per-valuation evaluation, its
input masks against a bit-by-bit construction, and gates against the int
truth tables whose operators they share."""

import random

from dualforget.semantics import kernel
from dualforget.semantics._program import OP_NOT, CircuitBuilder, Gate


def random_circuit(rng: random.Random, max_vars: int = 10, min_vars: int = 0, gates: int = 40):
    n = rng.randint(min_vars, max_vars)
    b = CircuitBuilder(n)

    def gate(value):
        # a combination that folds to the constant 0 or 1 becomes its gate
        return value if type(value) is Gate else b.const(value == 1)

    values = list(b.inputs) or [b.const(True)]
    for _ in range(rng.randint(1, gates)):
        op = rng.choice(["not", "and", "or", "xor", "c0", "c1"])
        if op == "not":
            values.append(gate(rng.choice(values) ^ 1))
        elif op == "and":
            values.append(gate(rng.choice(values) & rng.choice(values)))
        elif op == "or":
            values.append(gate(rng.choice(values) | rng.choice(values)))
        elif op == "xor":
            values.append(gate(rng.choice(values) ^ rng.choice(values)))
        else:
            values.append(b.const(op == "c1"))
    return b, values[-1]


def reference_eval(b: CircuitBuilder, out: int, v: int) -> bool:
    from dualforget.semantics._program import (
        OP_AND,
        OP_CONST0,
        OP_CONST1,
        OP_EXISTS,
        OP_NOT,
        OP_OR,
        OP_XOR,
    )

    values = [bool((v >> i) & 1) for i in range(b.n_vars)]
    for op, a1, a2 in zip(b.ops[: max(0, out + 1 - b.n_vars)], b.arg1, b.arg2):
        if op == OP_EXISTS:
            # the OR of the two cofactors of a1 on input a2
            values.append(values[a1] or reference_eval(b, a1, v ^ (1 << a2)))
        elif op == OP_AND:
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
            assert bool((table >> v) & 1) == reference_eval(b, out.slot, v)


def test_freeing_path_matches_naive_evaluation():
    # Tables are released after their last read; ``out`` must survive even
    # when later gates read it.  Every valuation is checked.
    rng = random.Random(13)
    for trial in range(8):
        b, out = random_circuit(rng, max_vars=14, min_vars=12, gates=60)
        if trial % 2:
            reader = out ^ b.inputs[rng.randrange(b.n_vars)]
            (reader ^ 1) & out
            assert out.slot in (b.arg1[-1], b.arg2[-1])
        table = kernel.eval_table(b, out)
        for v in range(1 << b.n_vars):
            assert bool((table >> v) & 1) == reference_eval(b, out.slot, v)


def test_exists_matches_the_or_of_both_cofactors():
    # below and from FREE_FROM_VARS inputs, the oracles' cut; the projected
    # input is read again after its projection
    rng = random.Random(19)
    for trial in range(12):
        wide = trial % 2
        b, out = random_circuit(rng, max_vars=13 if wide else 8, min_vars=12 if wide else 1, gates=50)
        assert (b.n_vars >= kernel.FREE_FROM_VARS) == bool(wide)
        i, j = rng.randrange(b.n_vars), rng.randrange(b.n_vars)
        once = b.exists(out, i)
        twice = b.exists(once | (b.inputs[j] ^ 1), j)
        reader = (twice & b.inputs[i]) ^ out
        valuations = rng.sample(range(1 << b.n_vars), 150) if wide else range(1 << b.n_vars)
        for gate in (once, twice, reader):
            table = kernel.eval_table(b, gate)
            for v in valuations:
                assert bool((table >> v) & 1) == reference_eval(b, gate.slot, v), (trial, gate.slot, v)


def test_input_masks_match_bitwise_construction():
    for n_vars in range(13):
        nbits = 1 << n_vars
        for i in range(n_vars + 1):
            expected = sum(1 << v for v in range(nbits) if (v >> i) & 1)
            assert kernel._var_mask(i, nbits) == expected, (i, n_vars)


def test_hash_consing_dedups():
    b = CircuitBuilder(2)
    p, q = b.inputs
    assert p & q is q & p
    assert len(b) == 1


def test_gates_combine_like_truth_tables():
    # one random program of &, | and ^ over the inputs and both constants,
    # run on int tables and on gates: every value reads back as the same
    # table, a gate's through eval_table
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(0, 6)
        program = []
        for k in range(rng.randint(1, 30)):
            op = rng.choice(["&", "|", "^"])
            program.append((op, rng.randrange(n + 2 + k), rng.randrange(n + 2 + k)))
        runs = []
        for space in (kernel._Tables(n), CircuitBuilder(n)):
            values = [*space.inputs, 0, space.full]
            for op, i, j in program:
                x, y = values[i], values[j]
                values.append(x & y if op == "&" else x | y if op == "|" else x ^ y)
            runs.append([kernel._table(space, value) for value in values])
        assert runs[0] == runs[1], program
    # the constants fold, on either side, and emit no gate but NOT
    b = CircuitBuilder(2)
    x, y = b.inputs
    for g in (x, x & y):
        assert g & 1 is g and 1 & g is g
        assert g & 0 == 0 and 0 & g == 0
        assert g | 0 is g and 0 | g is g
        assert g | 1 == 1 and 1 | g == 1
        assert g ^ 0 is g and 0 ^ g is g
        assert g & g is g and g | g is g and g ^ g == 0
    assert len(b) == 1  # only x & y
    negated = x ^ 1
    assert 1 ^ x is negated and b.ops[negated.slot - b.n_vars] == OP_NOT
    assert b.exists(1, 0) == 1 and b.exists(0, 1) == 0
