"""CSV output: the block formatter writes the bytes of the per-row
formula, header then ``",".join(map(repr, row.tolist()))`` per row."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmfslab.cli import _CSV_BLOCK_ROWS, _write_csv  # noqa: E402


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
BLOCK_EDGES = [_CSV_BLOCK_ROWS + k for k in (-1, 0, 1)] + [2 * _CSV_BLOCK_ROWS + 1]

CASES = settings(max_examples=40, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@CASES
@given(
    n_rows=st.sampled_from([0, 1] + BLOCK_EDGES) | st.integers(0, 40),
    n_cols=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=24),
    as_list=st.booleans(),
)
def test_float_rows_match_the_reference(tmp_path, n_rows, n_cols, seed,
                                        specials, as_list):
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
