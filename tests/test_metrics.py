"""PSNR, end errors, speedup accounting, aggregation, CSV contract."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ltc_accel import NumericError, aggregate, end_error, nfe_speedup, psnr
from ltc_accel.metrics import SCHEMAS, write_csv

from conftest import read_csv

# Hand value: reference peak 1, mse = 0.005 -> 10 * log10(200)
PSNR_GOLDEN = 23.010299956639813


def test_psnr_golden_value():
    ref = np.array([0.0, 1.0])
    test = np.array([0.0, 0.9])
    assert psnr(ref, test) == pytest.approx(PSNR_GOLDEN, rel=1e-12)


def test_psnr_identical_inputs_hit_cap():
    x = np.array([0.2, 0.7, -0.4])
    assert psnr(x, x) == 99.0
    assert psnr(x, x + 1e-9) == 99.0  # mse below the relative floor


def test_psnr_rejects_undefined_cases():
    with pytest.raises(NumericError, match="constant reference"):
        psnr(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(NumericError, match="shape mismatch"):
        psnr(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(NumericError, match="must be finite"):
        psnr(np.array([np.nan, 1.0]), np.array([0.0, 1.0]))


def _psnr_of_mse(mse: float) -> float:
    ref = np.array([0.0, 1.0])
    return psnr(ref, ref + np.sqrt(mse))


@given(st.floats(1e-9, 0.5), st.floats(1.01, 100.0))
def test_psnr_strictly_decreases_with_mse(mse, factor):
    lo, hi = mse, min(mse * factor, 0.9)
    if hi <= lo:
        return
    assert _psnr_of_mse(lo) > _psnr_of_mse(hi)


def test_end_error_hand_value():
    full = np.array([3.0, 4.0])
    accel = np.array([3.3, 4.4])
    err, rel = end_error(full, accel)
    assert err == pytest.approx(0.5, rel=1e-12)
    assert rel == pytest.approx(10.0, rel=1e-12)


def test_end_error_rejects_zero_reference():
    with pytest.raises(NumericError, match="zero reference"):
        end_error(np.zeros(3), np.ones(3))


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 12), d=st.integers(2, 64),
       log_scale=st.floats(-3.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_batched_metrics_equal_row_calls(rows, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    ref = 10.0 ** log_scale * rng.standard_normal((rows, d))
    # relative noise from 1e-14 (capped PSNR) to 1; row 0 is exact
    noise = 10.0 ** rng.uniform(-14.0, 0.0, size=(rows, 1))
    test = ref * (1.0 + noise * rng.standard_normal((rows, d)))
    test[0] = ref[0]
    p, (err, rel) = psnr(ref, test), end_error(ref, test)
    assert p.shape == err.shape == rel.shape == (rows,)
    for k in range(rows):
        one = psnr(ref[k], test[k])
        assert isinstance(one, float) and p[k] == one
        assert (err[k], rel[k]) == end_error(ref[k], test[k])


def test_batched_metrics_check_every_row():
    ref = np.array([[0.0, 1.0], [2.0, 3.0]])
    bad = {"constant": np.array([[0.0, 1.0], [2.0, 2.0]]),
           "zero": np.array([[0.0, 1.0], [0.0, 0.0]]),
           "nan": np.array([[0.0, 1.0], [np.nan, 3.0]])}
    with pytest.raises(NumericError, match="constant"):
        psnr(bad["constant"], ref)
    with pytest.raises(NumericError, match="zero reference"):
        end_error(bad["zero"], ref)
    with pytest.raises(NumericError, match="finite"):
        psnr(ref, bad["nan"])
    for f in (psnr, end_error):
        with pytest.raises(NumericError, match="shape"):
            f(ref, ref[:1])
    with pytest.raises(NumericError, match="need 1 <= nfe <= iterations"):
        nfe_speedup(40, np.array([26, 0]))
    assert np.array_equal(nfe_speedup(40, np.array([26, 40])), [40 / 26, 1.0])


def test_nfe_speedup_golden_and_errors():
    assert nfe_speedup(40, 26) == pytest.approx(40 / 26, rel=1e-15)
    assert nfe_speedup(40, 40) == 1.0
    with pytest.raises(NumericError, match="need 1 <= nfe <= iterations"):
        nfe_speedup(40, 0)
    with pytest.raises(NumericError, match="need 1 <= nfe <= iterations"):
        nfe_speedup(40, 41)


def test_aggregate_hand_case():
    mean, lo, hi = aggregate([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mean, [2.0, 3.0])
    assert np.array_equal(lo, [1.0, 2.0])
    assert np.array_equal(hi, [3.0, 4.0])


@given(st.lists(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_aggregate_is_permutation_invariant(series, rnd):
    shuffled = list(series)
    rnd.shuffle(shuffled)
    a = aggregate(series)
    b = aggregate(shuffled)
    for x, y in zip(a, b):
        assert np.allclose(x, y, rtol=0, atol=0)


def test_aggregate_rejects_bad_input():
    with pytest.raises(NumericError, match="nothing to aggregate"):
        aggregate([])
    with pytest.raises(NumericError, match="equal length"):
        aggregate([[1.0, 2.0], [1.0]])


def test_csv_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "latent_wg_summary.csv")
    rows = [(13, 0.1 + 0.2, 1 / 3, 2 / 3), (15, -1.5e-17, 0.25, 99.0)]
    write_csv(path, "latent_wg_summary", list(zip(*rows)))
    header, back = read_csv(path, "latent_wg_summary")
    assert header == SCHEMAS["latent_wg_summary"]
    for want, got in zip(rows, back):
        assert tuple(float(v) for v in want) == got  # repr round-trips floats


def test_csv_rewrite_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    columns = [(2, 3), (0.123456789012345678, np.float64(1) / 7)]
    write_csv(str(a), "angle", columns)
    write_csv(str(b), "angle", columns)
    assert a.read_bytes() == b.read_bytes()


def test_csv_schema_enforcement(tmp_path):
    path = str(tmp_path / "x.csv")
    with pytest.raises(NumericError, match="angle needs 2 columns, got 3"):
        write_csv(path, "angle", [(1,), (2,), (3,)])
    write_csv(path, "angle", [(1,), (2.0,)])
    with pytest.raises(NumericError, match="does not match schema"):
        read_csv(path, "error_summary")
    (tmp_path / "x.csv").write_text("Timestep,Angle\n1,abc\n")
    with pytest.raises(ValueError):
        read_csv(path, "angle")


_INT_CELLS = [(7, "7"), (np.int64(3), "3")]
_FLOAT_CELLS = [(-0.0, "-0.0"), (1 / 7, repr(1 / 7)), (5e-324, "5e-324"),
                (1e308, "1e+308"), (np.inf, "inf"), (-np.inf, "-inf"),
                (np.nan, "nan")]


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_csv_bytes_are_the_joined_cells_and_read_back_as_written(tmp_path, schema):
    # no header name needs quoting and every cell is a bare float literal,
    # so the bytes are the plain joins and read back to what was written.
    # The first column holds the ints, one float array each of the others:
    # one mixed array would promote 7 to 7.0.
    header = SCHEMAS[schema]
    width = len(header)
    n = len(_FLOAT_CELLS)
    rows = [[_INT_CELLS[i % len(_INT_CELLS)]] +
            [_FLOAT_CELLS[(i + j) % n] for j in range(1, width)]
            for i in range(n)]  # every float cell in every float column
    columns = [[v for v, _ in col] for col in zip(*rows)]
    path = tmp_path / f"{schema}.csv"
    write_csv(str(path), schema, [columns[0], *map(np.array, columns[1:])])
    want = "".join(",".join(line) + "\r\n" for line in
                   [header, *([text for _, text in row] for row in rows)])
    assert path.read_bytes() == want.encode("ascii")
    back_header, back = read_csv(str(path), schema)
    assert back_header == header
    assert [[repr(c) for c in row] for row in back] == \
        [[repr(float(v)) for v, _ in row] for row in rows]


def test_csv_bad_last_row_leaves_the_old_file_untouched(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(str(path), "report", [(v,) for v in (0, 40, 40, 1.0, 99.0, 0.0, 0.0)])
    old = path.read_bytes()
    columns = [(1, 1, 1, 2), (26,) * 4, (40,) * 4] + [(v,) * 3 for v in (40 / 26, 30.5, 0.1, 1.5)]
    with pytest.raises(NumericError,
                       match=r"report columns differ in length: \[4, 4, 4, 3, 3, 3, 3\]"):
        write_csv(str(path), "report", columns)
    assert path.read_bytes() == old


def test_csv_write_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "angle.csv"
    path.write_bytes(b"9,9.0\r\n" * 500)
    digest = write_csv(str(path), "angle", [(2, 3), (0.5, 1 / 7)])
    want = f"Timestep,Angle\r\n2,0.5\r\n3,{1 / 7!r}\r\n".encode("ascii")
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_csv_write_that_stores_other_bytes_is_rejected(tmp_path, monkeypatch):
    write = os.write

    def corrupting(fd, data):
        return write(fd, bytes(data).replace(b"0.5", b"0.6"))

    path = str(tmp_path / "angle.csv")
    with monkeypatch.context() as m:
        m.setattr(os, "write", corrupting)
        with pytest.raises(OSError, match="differs"):
            write_csv(path, "angle", [(2,), (0.5,)])


def _row_writer_bytes(schema, columns) -> bytes:
    """The row writer the columnar one replaced: each cell of each row by
    _format_cell's rule, kept here as the reference."""
    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))
    lines = [",".join(SCHEMAS[schema])]
    lines += [",".join(cell(v) for v in row) for row in zip(*columns)]
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
_floats = st.floats() | st.sampled_from(_SPECIAL)
# numpy holds ints in [2**63, 2**64) as uint64 or, next to a negative one, as
# float64, and wider ones as objects
_ints = st.integers(-2**70, 2**70) | st.sampled_from(
    [0, 3, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70])


@st.composite
def _columns(draw):
    """A schema and one column per name: int64, uint64, float64 or float32
    arrays, tuples of Python ints beyond 64 bits, or lists of Python floats."""
    schema = draw(st.sampled_from(sorted(SCHEMAS)))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in SCHEMAS[schema]:
        kind = draw(st.sampled_from(["int64", "uint64", "float64", "float32",
                                     "ints", "floats"]))
        if kind in ("int64", "uint64"):
            columns.append(draw(hnp.arrays(np.dtype(kind), n)))
        elif kind == "ints":
            columns.append(tuple(draw(st.lists(_ints, min_size=n, max_size=n))))
        else:
            values = draw(st.lists(_floats, min_size=n, max_size=n))
            with np.errstate(over="ignore"):  # 1e308 is inf as a float32
                columns.append(values if kind == "floats"
                               else np.array(values).astype(kind))
    return schema, columns


@settings(max_examples=200, deadline=None)
@given(_columns())
def test_csv_columns_give_the_row_writers_bytes(tmp_path_factory, drawn):
    schema, columns = drawn
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    digest = write_csv(str(path), schema, columns)
    want = _row_writer_bytes(schema, columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


@pytest.mark.parametrize("columns,message", [
    ([np.arange(3)], "angle needs 2 columns, got 1"),
    ([np.arange(3), np.zeros(3), np.zeros(3)], "angle needs 2 columns, got 3"),
    ([np.arange(3), np.zeros(2)], r"differ in length: \[3, 2\]"),
    ([(1, 2, 3), [0.5, 0.25]], r"differ in length: \[3, 2\]"),
    ([np.arange(3), np.zeros((3, 1))], "must be 1-D"),
    ([np.arange(3)[:, None], np.zeros(3)], "must be 1-D"),
    ([np.array(3), np.zeros(1)], "must be 1-D"),
], ids=["one", "three", "arrays", "sequences", "column", "ints", "scalar"])
def test_csv_bad_columns_leave_the_old_file_untouched(tmp_path, columns, message):
    path = tmp_path / "angle.csv"
    write_csv(str(path), "angle", [(2, 3), (0.5, 0.25)])
    old = path.read_bytes()
    with pytest.raises(NumericError, match=message):
        write_csv(str(path), "angle", columns)
    assert path.read_bytes() == old
