"""Stroboscopic Pauli-Z propagation through reversible circuits."""

import numpy as np
import pytest
from circuit_reference import (
    SynthesisBudgetError,
    all_circuits_exhaustive,
    anf_monomials,
    build_classical_function,
    random_circuit,
    truth_table_from_function,
)

from qmfslab import circuits
from qmfslab.circuits import (
    BoolFunc,
    ReversibleCircuit,
    circuit_permutation,
    dense_oracle_check,
    propagate_z,
)


class TestReversibleCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            ReversibleCircuit(2, (("CCX", 0, 1, 2),))  # out of range
        with pytest.raises(ValueError):
            ReversibleCircuit(2, (("CX", 0, 0),))  # repeated index
        with pytest.raises(ValueError):
            ReversibleCircuit(2, (("H", 0),))  # unknown gate

    def test_bit_budget(self):
        with pytest.raises(ValueError):
            ReversibleCircuit(17, ())

    def test_text_round_trip(self):
        c = ReversibleCircuit(3, (("X", 0), ("CX", 0, 1), ("CCX", 0, 1, 2)))
        assert ReversibleCircuit.from_text(c.to_text()) == c

    def test_from_text_requires_header(self):
        with pytest.raises(ValueError):
            ReversibleCircuit.from_text("X 0\n")

    @pytest.mark.parametrize("text, line", [
        ("bits 3\n\nX a\n", "line 3: 'X a'"),
        ("bits x\n", "line 1: 'bits x'"),
        ("bits 3\nCX 0 1.5\n", "line 2: 'CX 0 1.5'"),
    ])
    def test_non_integer_field_names_the_line(self, text, line):
        with pytest.raises(ValueError, match="^" + line + ": expected integers"):
            ReversibleCircuit.from_text(text)

    @pytest.mark.parametrize("header", ["bits 3 4", "bits 3 0", "bits"])
    def test_header_is_exactly_bits_n(self, header):
        with pytest.raises(ValueError, match='"bits N"'):
            ReversibleCircuit.from_text(header + "\nCCX 0 1 2\n")
        # blank lines before the header count in its line number
        if header != "bits":
            with pytest.raises(ValueError, match=f"^line 3: '{header}': "):
                ReversibleCircuit.from_text("\n\n" + header + "\nX 0\n")


class TestPermutation:
    def test_x_gate(self):
        c = ReversibleCircuit(2, (("X", 1),))
        assert np.array_equal(circuit_permutation(c), [2, 3, 0, 1])

    def test_cx_gate(self):
        c = ReversibleCircuit(2, (("CX", 0, 1),))
        # control bit 0: inputs 1 and 3 flip bit 1
        assert np.array_equal(circuit_permutation(c), [0, 3, 2, 1])

    def test_ccx_gate(self):
        c = ReversibleCircuit(3, (("CCX", 0, 1, 2),))
        perm = circuit_permutation(c)
        assert perm[3] == 7 and perm[7] == 3
        assert all(perm[x] == x for x in (0, 1, 2, 4, 5, 6))

    def test_is_bijection(self):
        rng = np.random.default_rng(0)
        c = random_circuit(5, 30, rng)
        perm = circuit_permutation(c)
        assert sorted(perm) == list(range(32))


class TestPropagateZ:
    def test_cnot_output_is_parity(self):
        # conjugating Z on the target of a CNOT gives Z1 Z2: the Boolean
        # image is the XOR of the two input bits
        c = ReversibleCircuit(2, (("CX", 0, 1),))
        g, f = propagate_z(c)
        for x in range(4):
            b0, b1 = x & 1, (x >> 1) & 1
            assert f.table[x] == b0 ^ b1
        # the control is untouched
        for x in range(4):
            assert g.table[x] == x & 1

    def test_toffoli_output_is_and_xor(self):
        # Z on the Toffoli target pulls back to x3 XOR (x1 AND x2)
        c = ReversibleCircuit(3, (("CCX", 0, 1, 2),))
        f = propagate_z(c)[2]
        for x in range(8):
            b0, b1, b2 = x & 1, (x >> 1) & 1, (x >> 2) & 1
            assert f.table[x] == b2 ^ (b0 & b1)

    def test_index_range(self):
        # one image per bit index 0, ..., n - 1, and no other
        c = ReversibleCircuit(2, ())
        images = propagate_z(c)
        assert len(images) == 2
        for j, f in enumerate(images):
            assert np.array_equal(f.table, (np.arange(4) >> j) & 1)


class TestDenseOracle:
    def test_cnot_zero_deviation(self):
        c = ReversibleCircuit(2, (("CX", 0, 1),))
        assert dense_oracle_check(c) == 0

    def test_toffoli_zero_deviation(self):
        c = ReversibleCircuit(3, (("CCX", 0, 1, 2),))
        assert dense_oracle_check(c) == 0

    def test_random_circuits_zero_deviation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = random_circuit(4, 15, rng)
            assert dense_oracle_check(c) == 0

    def test_exhaustive_two_bits(self):
        count = 0
        for c in all_circuits_exhaustive(2, 2):
            assert dense_oracle_check(c) == 0
            count += 1
        assert count > 1  # empty circuit plus all 1- and 2-gate lists

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_oracle_check(ReversibleCircuit(9, ()))


class TestDenseOracleCatchesDefects:
    """The float64 check is exact, so one planted defect must show."""

    toffoli = ReversibleCircuit(3, (("CCX", 0, 1, 2), ("CX", 2, 0)))

    def test_non_bijective_permutation(self, monkeypatch):
        perm = circuit_permutation(self.toffoli)
        perm[1] = perm[0]  # inputs 0 and 1 collide: U is no permutation
        monkeypatch.setattr(circuits, "circuit_permutation",
                            lambda circuit: perm.copy())
        off_diag, _, commutator = circuits._dense_deviations(
            self.toffoli, propagate_z(self.toffoli))
        assert off_diag > 0
        assert commutator > 0
        assert dense_oracle_check(self.toffoli) > 0

    def test_flipped_truth_table_entry(self, monkeypatch):
        honest = circuits.propagate_z

        def flipped(circuit):
            *tables, last = honest(circuit)
            table = last.table.copy()
            table[5] ^= 1
            return (*tables, BoolFunc(circuit.n_bits, table))

        tables = flipped(self.toffoli)
        assert circuits._dense_deviations(self.toffoli, tables) == (0, 2, 0)
        assert dense_oracle_check(self.toffoli, tables) > 0
        monkeypatch.setattr(circuits, "propagate_z", flipped)
        assert dense_oracle_check(self.toffoli) > 0


    @pytest.mark.parametrize("seed", range(6))
    def test_deviations_equal_the_whole_matrix_reading(self, seed,
                                                       monkeypatch):
        # off-diagonal and commutator deviations read on the image's
        # nonzero entries equal those read on every entry, also for a U
        # that is no permutation and for a wrong truth table
        rng = np.random.default_rng(seed)
        n = 4
        perm = rng.integers(0, 1 << n, size=1 << n)
        if seed == 0:
            perm = np.arange(1 << n)[::-1].copy()
        monkeypatch.setattr(circuits, "circuit_permutation",
                            lambda circuit: perm.copy())
        circuit = ReversibleCircuit(n, ())
        dim = 1 << n
        U = np.zeros((dim, dim))
        U[perm, np.arange(dim)] = 1.0
        z = [1.0 - 2.0 * ((np.arange(dim) >> k) & 1) for k in range(n)]
        off = pred = comm = 0
        for j in range(n):
            img = U.T @ np.diag(z[j]) @ U
            diag = np.diag(img)
            off = max(off, int(np.max(np.abs(img - np.diag(diag)))))
            pred = max(pred, int(np.max(np.abs(
                diag - (1.0 - 2.0 * ((perm >> j) & 1))))))
            for zk in z:
                comm = max(comm, int(np.max(np.abs(
                    img * zk[None, :] - zk[:, None] * img))))
        assert circuits._dense_deviations(
            circuit, propagate_z(circuit)) == (off, pred, comm)
        assert (off > 0) == (seed != 0)


class TestBoolFunc:
    def test_diagonal_signs(self):
        f = BoolFunc(1, np.array([0, 1]))
        assert np.array_equal(f.diagonal(), [1, -1])

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            BoolFunc(2, np.array([0, 1]))

    def test_truth_table_from_function(self):
        maj = truth_table_from_function(3, lambda a, b, c: (a & b) | (b & c) | (a & c))
        assert maj.table[0b011] == 1
        assert maj.table[0b100] == 0


class TestAnf:
    def test_xor_function(self):
        f = truth_table_from_function(2, lambda a, b: a ^ b)
        assert sorted(anf_monomials(f)) == [0b01, 0b10]

    def test_and_function(self):
        f = truth_table_from_function(2, lambda a, b: a & b)
        assert anf_monomials(f) == [0b11]

    def test_constant_one(self):
        f = BoolFunc(2, np.ones(4, dtype=np.uint8))
        assert anf_monomials(f) == [0]

    def test_reconstruction(self):
        # XOR of the ANF monomials reproduces the table
        rng = np.random.default_rng(5)
        table = rng.integers(0, 2, size=16).astype(np.uint8)
        f = BoolFunc(4, table)
        mons = anf_monomials(f)
        for x in range(16):
            val = 0
            for m in mons:
                val ^= int((x & m) == m)
            assert val == f.table[x]


class TestSynthesis:
    def test_full_adder_round_trip(self):
        # sum and carry of three input bits, synthesized and re-derived
        # by Z propagation through the synthesized circuit, with the
        # outputs and ancillas starting at 0
        s = truth_table_from_function(3, lambda a, b, c: a ^ b ^ c)
        cy = truth_table_from_function(
            3, lambda a, b, c: (a & b) | (b & c) | (a & c)
        )
        circuit, output_bits = build_classical_function([s, cy], 3)
        assert dense_oracle_check(circuit) == 0
        for target, out_bit in zip([s, cy], output_bits):
            f = propagate_z(circuit)[out_bit]
            assert np.array_equal(f.table[:1 << 3], target.table)

    def test_inputs_untouched(self):
        f = truth_table_from_function(2, lambda a, b: a ^ b)
        circuit, _ = build_classical_function([f], 2)
        for j in range(2):
            g = propagate_z(circuit)[j]
            for x in range(1 << circuit.n_bits):
                assert g.table[x] == (x >> j) & 1

    def test_high_degree_uses_ancillas(self):
        f = truth_table_from_function(4, lambda a, b, c, d: a & b & c & d)
        circuit, output_bits = build_classical_function([f], 4)
        assert circuit.n_bits > 4 + len(output_bits)
        back = propagate_z(circuit)[output_bits[0]].table[:1 << 4]
        assert np.array_equal(back, f.table)

    def test_budget_error(self):
        # many high-degree targets exhaust the 16-bit budget
        targets = [
            truth_table_from_function(5, lambda a, b, c, d, e: a & b & c & d & e)
            for _ in range(4)
        ]
        with pytest.raises(SynthesisBudgetError):
            build_classical_function(targets, 5)

    def test_input_width_checked(self):
        f = truth_table_from_function(2, lambda a, b: a ^ b)
        with pytest.raises(ValueError):
            build_classical_function([f], 3)
