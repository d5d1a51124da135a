"""CSV output: the block formatter writes the bytes of the per-row
formula, header then ``",".join(map(repr, row.tolist()))`` per row."""

import math
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmfslab import conditional, csvtext, models  # noqa: E402
from qmfslab.cli import _write_csv, main  # noqa: E402
from qmfslab.csvtext import BLOCK_VALUES, csv_blocks  # noqa: E402


def reference_text(header, rows) -> str:
    """The per-row formula the block formatter must reproduce."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row.tolist()))
              for row in np.asarray(rows, dtype=float)]
    return "\n".join(lines) + "\n"


SPECIALS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308,  # subnormals
    2.2250738585072014e-308,  # smallest normal
    1e-4, 9.999999999999999e-05, 1.0000000000000002e-04,  # repr switches
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,  # to exponents
    1.7976931348623157e308, 0.1, 1 / 3,
]


def block_edges(n_cols):
    """Row counts at the edges of csv_blocks' blocks of n_cols columns:
    one row less, one block, one row more, two blocks and a row."""
    rows = BLOCK_VALUES // n_cols
    return [rows - 1, rows, rows + 1, 2 * rows + 1]


CASES = settings(max_examples=40, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@CASES
@given(
    shape=st.integers(1, 9).flatmap(lambda n_cols: st.tuples(
        st.sampled_from([0, 1] + block_edges(n_cols)) | st.integers(0, 40),
        st.just(n_cols))),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=24),
    as_list=st.booleans(),
)
def test_float_rows_match_the_reference(tmp_path, shape, seed, specials,
                                        as_list):
    n_rows, n_cols = shape
    # random float64 bit patterns: every sign, exponent and mantissa
    raw = np.random.default_rng(seed).bytes(8 * n_rows * n_cols)
    rows = np.frombuffer(raw, dtype=np.float64).reshape(n_rows, n_cols).copy()
    flat = rows.reshape(-1)
    for j, value in enumerate(specials[:flat.size]):
        flat[(j * 7919) % flat.size] = value
    header = [f"c{j}" for j in range(n_cols)]
    given_rows = rows.tolist() if as_list else rows
    path = tmp_path / "x.csv"
    _write_csv(path, header, given_rows)
    assert path.read_bytes() == reference_text(header, rows).encode()


@CASES
@given(
    values=st.lists(
        st.lists(st.integers(-2**62, 2**62), min_size=3, max_size=3),
        max_size=40,
    ),
)
def test_int_rows_match_the_reference(tmp_path, values):
    # cmd_circuit passes lists of Python ints
    header = ["input", "f_0", "f_1"]
    path = tmp_path / "x.csv"
    _write_csv(path, header, values)
    assert path.read_bytes() == reference_text(header, values).encode()


def test_no_rows_writes_the_header_only(tmp_path):
    path = tmp_path / "x.csv"
    for rows in ([], np.empty((0, 3))):
        _write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == b"a,b,c\n"


@pytest.mark.parametrize("n_cols", [1, 6, 9])
def test_block_edges(n_cols):
    rng = np.random.default_rng(n_cols)
    for n_rows in block_edges(n_cols):
        assert_as_reference(rng.standard_normal((n_rows, n_cols)))


def truth_table(n_rows):
    """n_rows of a 9-column circuit truth table: 0/1 bits, half zeros."""
    return ((np.arange(n_rows)[:, None] >> np.arange(9)) & 1).astype(float)


@pytest.mark.parametrize("rows", [
    np.random.default_rng(0).standard_normal((BLOCK_VALUES // 6, 6)),
    truth_table(BLOCK_VALUES // 9),
    np.full((BLOCK_VALUES // 6, 6), math.nan),  # all through repr
], ids=["trajectory", "truth-table", "nan"])
def test_kernel_temporaries_per_value(rows):
    # one block of the CLI's size: the block size rests on this bound
    header = [f"c{j}" for j in range(rows.shape[1])]
    list(csv_blocks(header, rows[:1]))  # the tables are built on first use
    tracemalloc.start()
    try:
        list(csv_blocks(header, rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * rows.size


def assert_as_reference(rows):
    """The text _write_csv writes for rows equals the reference text.

    Compared as lists of lines: on a mismatch pytest then reports the
    first differing line at once, where its diff of two long strings
    can take minutes.
    """
    header = [f"c{j}" for j in range(np.shape(rows)[1])]
    got = "".join(csv_blocks(header, rows))
    assert got.split("\n") == reference_text(header, rows).split("\n")


def assert_as_repr(values, n_cols=1):
    """The kernel's text of values equals the per-row repr formula, with
    values in one column and in n_cols columns, both signs."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    values = np.concatenate([values, values[: (-len(values)) % n_cols]])
    for rows in (values.reshape(-1, 1), values.reshape(-1, n_cols)):
        assert_as_reference(rows)


def test_powers_of_two_over_the_normal_range():
    assert_as_repr(np.ldexp(1.0, np.arange(-1022, 1024)), n_cols=5)


def test_powers_of_ten():
    assert_as_repr([float(f"1e{e}") for e in range(-307, 309)], n_cols=3)


@pytest.mark.parametrize("switch", [1e-4, 1e16])
def test_neighbours_of_the_exponent_switch(switch):
    # repr prints 9.999999999999999e-05 but 0.0001, and 1e+16 but
    # 9999999999999998.0: the layout changes between these neighbours
    values = [switch]
    for direction in (0.0, math.inf):
        x = switch
        for _ in range(4):
            x = np.nextafter(x, direction)
            values.append(x)
    values += [switch * 10 ** d for d in (-1, 1)]
    assert_as_repr(values, n_cols=4)


def test_three_digit_exponents_of_both_signs():
    values = [1e100, 9.999999999999999e99, 1.5e-100, 1e-99, 1e-100,
              2.5e-101, 1.7976931348623157e308, 2.2250738585072014e-308,
              1.234567890123456e250, 1.234567890123456e-250, 3e-150]
    assert_as_repr(values, n_cols=2)


def test_subnormals_and_zero_are_exactly_repr():
    # 2**-1070 is 8e-323 to repr; Schubfach's shortcut gives 7.9e-323
    values = [0.0, -0.0, 5e-324, 2.0**-1070, 2.0**-1060, 1e-310,
              2.225073858507201e-308, 9.9e-324, 1.5e-323]
    assert_as_repr(values, n_cols=3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0])
def test_special_value_in_first_and_last_column(value):
    # the separator after the value is "," in the first column, "\n" in
    # the last
    rows = np.array([[value, 1.5, 2.0], [0.1, 2.5, value], [value, 3.0, value]])
    assert_as_reference(rows)


def test_one_million_random_bit_patterns():
    raw = np.random.default_rng(20201).bytes(8 * 1_000_000)
    rows = np.frombuffer(raw, dtype=np.float64).reshape(-1, 20)
    assert_as_reference(rows)


def test_decimal_grid_and_its_neighbours():
    # short decimals m * 10**e, where the shortest digits are few, and
    # the doubles beside them, where they are 16 or 17
    rng = np.random.default_rng(7)
    grid = np.array([float(f"{m}e{e}") for m, e in zip(
        rng.integers(1, 10**6, 20_000), rng.integers(-300, 300, 20_000))])
    for values in (grid, np.nextafter(grid, 0), np.nextafter(grid, math.inf)):
        assert_as_repr(values, n_cols=4)


def test_ties_go_to_the_even_digit():
    # x + 1/4 in [2**50, 2**51): the two shortest decimals, one digit
    # after the point, are 0.05 away on either side, and repr takes the
    # even last digit (1125899906842624.2, 1125899906842624.8); likewise
    # odd multiples of 1/8 in [2**48, 2**49), two digits after the point
    rng = np.random.default_rng(3)
    quarters = (2**52 + 2 * rng.integers(0, 2**51, 500) + 1) / 4
    eighths = (2**51 + 2 * rng.integers(0, 2**50, 500) + 1) / 8
    assert_as_repr(np.concatenate([quarters, eighths]), n_cols=5)


def test_zero_one_table_matches_the_reference(tmp_path):
    # a circuit truth table: about half its values are 0, here of both signs
    bits = (np.arange(256)[:, None] >> np.arange(9)) & 1
    rows = np.where(np.arange(9) % 3 == 2, -1.0, 1.0) * bits
    header = [f"c{j}" for j in range(9)]
    path = tmp_path / "x.csv"
    _write_csv(path, header, rows)
    text = path.read_bytes().decode()
    assert text == reference_text(header, rows)
    assert "-0.0," in text and ",0.0," in text


def spliced_blocks(header, rows):
    """csv_blocks' text of rows with their first column spliced in from
    leading_column."""
    lead = csvtext.leading_column(rows[:, 0])
    return "".join(csv_blocks(header, rows[:, 1:], lead))


@pytest.mark.parametrize("n_cols", [2, 6, 9])
def test_spliced_column_gives_the_same_text(n_cols):
    # at the edges of the blocks of the n_cols - 1 columns formatted
    # beside the lead, and of leading_column's own blocks
    rng = np.random.default_rng(n_cols)
    header = [f"c{j}" for j in range(n_cols)]
    for n_rows in [0, 1, *block_edges(n_cols - 1), BLOCK_VALUES + 1]:
        rows = rng.standard_normal((n_rows, n_cols))
        rows[: n_rows // 2, 0] = np.arange(n_rows // 2) * 1e-3
        rows[1::7] = SPECIALS[:n_cols]
        got = spliced_blocks(header, rows)
        assert got == "".join(csv_blocks(header, rows))
        assert got.split("\n") == reference_text(header, rows).split("\n")


def pair_trajectories(k, dt, T, batch, seed):
    """The batch that ``simulate --model pair --force-amp 1`` runs, as
    the rows of its trajectory files: time, means, and the records after
    a zero first row."""
    bundle = models.oscillator_pair(1.0, 1.0)
    model = bundle.model
    channels = ((conditional.MeasurementChannel(bundle.monitor, k, 1.0),)
                if k > 0 else ())
    force = conditional.ForceDrive.sinusoid(model.force_couplings[0], 1.0,
                                            1.0)
    result = conditional.simulate_batch(
        model, conditional.vacuum_state(model), channels, force, dt=dt, T=T,
        master_seed=seed, n_traj=batch)
    zero = np.zeros((1, len(channels)))
    return [np.column_stack([result.times, result.means[i],
                             np.vstack([zero, result.records[i]])])
            for i in range(batch)]


# rows a block of a trajectory file formats: the pair's 4 means and one
# record, beside the spliced time column
BLOCK_ROWS = BLOCK_VALUES // 5


class TestSimulateText:
    """Every trajectory file of ``simulate``, whose time column is made
    once per batch and spliced into each file, is the per-row formula of
    the batch's values."""

    def check(self, out, rows_count, batch=1, parallel=1, k=2.0):
        dt = 1e-3
        T = (rows_count - 1) * dt
        assert main(["--out", str(out), "--seed", "3", "simulate",
                     "--model", "pair", "--k", repr(k), "--dt", repr(dt),
                     "--T", repr(T), "--force-amp", "1",
                     "--batch", str(batch),
                     "--parallel", str(parallel)]) == 0
        header = ["time", "mean_0", "mean_1", "mean_2", "mean_3"]
        header += ["yrecord_0"] if k > 0 else []
        expected = pair_trajectories(k, dt, T, batch, 3)
        for i, rows in enumerate(expected):
            assert len(rows) == rows_count
            text = (out / f"trajectory_{i:04d}.csv").read_text()
            assert text.split("\n") == reference_text(header, rows).split(
                "\n")
            # the first row is time 0 with no record increment yet
            first = text.split("\n")[1].split(",")
            assert first[0] == "0.0"
            assert first[5:] == (["0.0"] if k > 0 else [])

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("parallel", [1, 2, 3])
    def test_batch_and_writers(self, tmp_path, batch, parallel):
        self.check(tmp_path / "run", 201, batch, parallel)

    @pytest.mark.parametrize("rows_count",
                             [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, rows_count):
        self.check(tmp_path / "run", rows_count, batch=2, parallel=2)

    def test_t_equal_to_dt(self, tmp_path):
        self.check(tmp_path / "run", 2, batch=3)

    @pytest.mark.parametrize("rows_count",
                             [2, BLOCK_VALUES // 4, BLOCK_VALUES // 4 + 1])
    def test_without_records(self, tmp_path, rows_count):
        self.check(tmp_path / "run", rows_count, batch=2, k=0.0)
