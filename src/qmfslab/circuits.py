"""Heisenberg propagation of Pauli-Z observables through permutation circuits.

A circuit of X / CX / CCX gates permutes computational-basis states, so
conjugating any Z_j gives a diagonal operator with entries
(-1)^(f_j(x)): a Boolean function of the input bits.  All such images
commute with the inputs, which is the stroboscopic (pre/post-gate)
no-back-action condition; the classical processing between input and
output lives entirely inside this commuting family.  The oracle
tolerances are zero: the truth tables are integer arithmetic, and the
dense check runs in float64 on 0/+-1 matrices whose products are sums
with at most one nonzero term, so BLAS computes them exactly.

Circuit text format: first line "bits N", then one gate per line,
"X t" / "CX c t" / "CCX c1 c2 t" with 0-indexed distinct bit indices.
Bit j of basis state x is (x >> j) & 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReversibleCircuit",
    "BoolFunc",
    "circuit_permutation",
    "propagate_z",
    "dense_oracle_check",
    "check_dense_size",
]

MAX_BITS = 16
MAX_DENSE_BITS = 8


def _check_gate(gate, n_bits: int):
    name, *idx = gate
    arity = {"X": 1, "CX": 2, "CCX": 3}
    if name not in arity:
        raise ValueError(f"unknown gate {name!r}")
    if len(idx) != arity[name]:
        raise ValueError(f"{name} takes {arity[name]} bit indices, got {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"gate {gate} repeats a bit index")
    if any(not 0 <= i < n_bits for i in idx):
        raise ValueError(f"gate {gate} out of range for {n_bits} bits")


@dataclass(frozen=True)
class ReversibleCircuit:
    """Sequence of X / CX / CCX gates on n_bits <= 16 bits."""

    n_bits: int
    gates: tuple

    def __post_init__(self):
        if not 1 <= self.n_bits <= MAX_BITS:
            raise ValueError(f"n_bits must be in [1, {MAX_BITS}]")
        gates = tuple(tuple(g) for g in self.gates)
        for gate in gates:
            _check_gate(gate, self.n_bits)
        object.__setattr__(self, "gates", gates)

    def to_text(self) -> str:
        lines = [f"bits {self.n_bits}"]
        lines += [" ".join(str(p) for p in gate) for gate in self.gates]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ReversibleCircuit":
        lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]
        if not lines or not lines[0][1].startswith("bits "):
            raise ValueError('circuit text must start with "bits N"')
        rows = []
        for n, ln in lines:
            name, *fields = ln.split()
            try:
                rows.append((name, *map(int, fields)))
            except ValueError:
                raise ValueError(f"line {n}: {ln!r}: expected integers "
                                 f"after {name!r}") from None
        (_, *n_bits), *gates = rows
        if len(n_bits) != 1:
            n, ln = lines[0]
            raise ValueError(f'line {n}: {ln!r}: expected "bits N"')
        return ReversibleCircuit(n_bits[0], tuple(gates))


@dataclass(frozen=True)
class BoolFunc:
    """Truth table over n input bits; value table[x] for input x."""

    n_bits: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.uint8) & 1
        if table.shape != (1 << self.n_bits,):
            raise ValueError(
                f"table must have 2^{self.n_bits} entries, got {table.shape}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the corresponding +-1 operator, (-1)^f(x)."""
        return 1 - 2 * self.table.astype(np.int64)


def _apply_gate(gate, x: np.ndarray) -> np.ndarray:
    name = gate[0]
    if name == "X":
        return x ^ (1 << gate[1])
    if name == "CX":
        c, t = gate[1], gate[2]
        return x ^ (((x >> c) & 1) << t)
    c1, c2, t = gate[1], gate[2], gate[3]
    return x ^ ((((x >> c1) & 1) & ((x >> c2) & 1)) << t)


def circuit_permutation(circuit: ReversibleCircuit) -> np.ndarray:
    """The bijection on {0, ..., 2^n - 1} composed from the gate list."""
    x = np.arange(1 << circuit.n_bits, dtype=np.int64)
    for gate in circuit.gates:
        x = _apply_gate(gate, x)
    return x


def propagate_z(circuit: ReversibleCircuit) -> tuple:
    """Heisenberg images of Z_0, ..., Z_{n-1}: f_j(x) = bit j of the
    permuted input, all from one ``circuit_permutation``.

    With U|x> = |pi(x)>, U+ Z_j U is diagonal with entries
    (-1)^(pi(x)_j).
    """
    perm = circuit_permutation(circuit)
    return tuple(BoolFunc(circuit.n_bits, (perm >> j) & 1)
                 for j in range(circuit.n_bits))


def check_dense_size(n_bits: int) -> None:
    """Raise unless the dense oracle takes a circuit of ``n_bits`` bits."""
    if n_bits > MAX_DENSE_BITS:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_BITS} bits")


def dense_oracle_check(circuit: ReversibleCircuit, tables=None) -> int:
    """Brute-force unitary conjugation check; returns the max deviation.

    Builds the 2^n x 2^n permutation unitary, conjugates every Z_j, and
    asserts that each image (a) is diagonal, (b) matches the truth-table
    prediction ``tables[j]`` (``propagate_z(circuit)`` when not given),
    and (c) commutes with every input Z_k.  The image is built from
    ``circuit_permutation`` alone, never from the truth tables, so it is
    an independent check of them.

    The arithmetic is float64 BLAS, one product (U^T Z_j) U per bit with
    the diagonal Z_j applied as a column scaling, and it is exact: U has
    one 1 per column, so every entry of U^T Z_j is 0 or +-1 and every
    entry of (U^T Z_j) U is a sum with at most one nonzero (+-1) term (a
    few, all small integers, if a defect made U non-bijective).  The
    off-diagonal part and the commutator with the diagonal Z_k are read
    elementwise on the image's nonzero entries; both are exactly 0
    elsewhere.  Any nonzero deviation is therefore a real bug.  Circuits of more than
    ``MAX_DENSE_BITS`` bits are refused (``check_dense_size``).
    """
    if tables is None:
        tables = propagate_z(circuit)
    return max(_dense_deviations(circuit, tables))


def _dense_deviations(circuit: ReversibleCircuit, tables) -> tuple:
    """(off-diagonal, prediction, commutator) deviations of the dense
    check of the truth tables ``tables``, one per bit."""
    n = circuit.n_bits
    check_dense_size(n)
    dim = 1 << n
    perm = circuit_permutation(circuit)
    U = np.zeros((dim, dim))
    U[perm, np.arange(dim)] = 1.0  # U |x> = |perm(x)>
    z = [1.0 - 2.0 * ((np.arange(dim) >> k) & 1) for k in range(n)]
    off_dev = pred_dev = comm_dev = 0
    for j in range(n):
        img = (U.T * z[j]) @ U  # U^T Z_j U, Z_j = diag(z[j])
        diag = np.diag(img)
        predicted = tables[j].diagonal()
        pred_dev = max(pred_dev, int(np.max(np.abs(diag - predicted))))
        # the off-diagonal part and [img, Z_k] are exactly 0 wherever img
        # is, so both are read on img's nonzero entries only
        a, b = np.nonzero(img)
        v = img[a, b]
        off_dev = max(off_dev, int(np.max(np.abs(v[a != b]), initial=0)))
        for zk in z:
            comm = v * zk[b] - zk[a] * v  # [img, Z_k] at (a, b)
            comm_dev = max(comm_dev, int(np.max(np.abs(comm), initial=0)))
    return off_dev, pred_dev, comm_dev
