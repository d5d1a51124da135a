"""Reversible circuits for the tests: truth-table synthesis and circuit
generators.

The synthesis is Criterion 8's round trip (a Boolean function becomes a
Toffoli/CNOT/X circuit, whose propagated Z images give the function
back); the generators feed the randomized and exhaustive checks of the
dense oracle.
"""

import itertools

import numpy as np

from qmfslab.circuits import MAX_BITS, BoolFunc, ReversibleCircuit


class SynthesisBudgetError(RuntimeError):
    """Synthesis would exceed the bit budget."""


def truth_table_from_function(n_bits: int, fn) -> BoolFunc:
    """BoolFunc from a python predicate over bit tuples (lsb first)."""
    table = [
        fn(*[(x >> j) & 1 for j in range(n_bits)]) & 1
        for x in range(1 << n_bits)
    ]
    return BoolFunc(n_bits, np.array(table, dtype=np.uint8))


def anf_monomials(func: BoolFunc):
    """Algebraic normal form: the set of AND-monomials (as bitmasks)
    whose XOR equals the function (Moebius transform over GF(2))."""
    coeffs = func.table.astype(np.uint8).copy()
    n = func.n_bits
    for j in range(n):
        bit = 1 << j
        for x in range(1 << n):
            if x & bit:
                coeffs[x] ^= coeffs[x ^ bit]
    return [x for x in range(1 << n) if coeffs[x]]


def build_classical_function(targets, n_inputs: int):
    """Toffoli/CNOT/X circuit computing each target on its own output
    bit: ``(circuit, output_bits)``.

    Naive exclusive-sum-of-products construction from the ANF: degree-0
    terms become X, degree-1 CX, degree-2 CCX; higher-degree monomials
    are accumulated through AND-chain ancillas (one CCX per extra
    factor, no uncomputation, no optimality).  Inputs occupy bits
    0..n_inputs-1 and are left untouched, the outputs follow them, and
    the ancillas come last; outputs and ancillas assume they start at 0.
    """
    targets = list(targets)
    for tgt in targets:
        if tgt.n_bits != n_inputs:
            raise ValueError("all targets must be functions of the inputs")

    monomial_lists = [anf_monomials(t) for t in targets]
    n_outputs = len(targets)
    n_chain = sum(
        max(0, bin(m).count("1") - 2)
        for mons in monomial_lists
        for m in mons
    )
    n_total = n_inputs + n_outputs + n_chain
    if n_total > MAX_BITS:
        raise SynthesisBudgetError(
            f"need {n_total} bits (inputs {n_inputs}, outputs {n_outputs}, "
            f"chain ancillas {n_chain}), budget is {MAX_BITS}"
        )

    gates = []
    output_bits = tuple(range(n_inputs, n_inputs + n_outputs))
    next_ancilla = n_inputs + n_outputs
    for out_bit, mons in zip(output_bits, monomial_lists):
        for mask in mons:
            factors = [j for j in range(n_inputs) if mask & (1 << j)]
            if not factors:
                gates.append(("X", out_bit))
            elif len(factors) == 1:
                gates.append(("CX", factors[0], out_bit))
            elif len(factors) == 2:
                gates.append(("CCX", factors[0], factors[1], out_bit))
            else:
                # chain: acc = f0 AND f1, then AND in one factor at a time
                acc = next_ancilla
                next_ancilla += 1
                gates.append(("CCX", factors[0], factors[1], acc))
                for fac in factors[2:-1]:
                    nxt = next_ancilla
                    next_ancilla += 1
                    gates.append(("CCX", acc, fac, nxt))
                    acc = nxt
                gates.append(("CCX", acc, factors[-1], out_bit))
    return ReversibleCircuit(n_total, tuple(gates)), output_bits


def random_circuit(n_bits: int, n_gates: int, rng) -> ReversibleCircuit:
    """Uniformly random gate list; used by the randomized oracle checks."""
    gates = []
    kinds = ["X", "CX", "CCX"] if n_bits >= 3 else (
        ["X", "CX"] if n_bits == 2 else ["X"]
    )
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        arity = {"X": 1, "CX": 2, "CCX": 3}[kind]
        idx = rng.choice(n_bits, size=arity, replace=False)
        gates.append((kind,) + tuple(int(i) for i in idx))
    return ReversibleCircuit(n_bits, tuple(gates))


def all_circuits_exhaustive(n_bits: int, max_gates: int):
    """Every circuit up to max_gates gates (for small n); a generator."""
    single = []
    for t in range(n_bits):
        single.append(("X", t))
    for c, t in itertools.permutations(range(n_bits), 2):
        single.append(("CX", c, t))
    for c1, c2, t in itertools.permutations(range(n_bits), 3):
        if c1 < c2:
            single.append(("CCX", c1, c2, t))
    for length in range(max_gates + 1):
        for combo in itertools.product(single, repeat=length):
            yield ReversibleCircuit(n_bits, combo)
