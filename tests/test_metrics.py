"""PSNR, end errors, speedup accounting, aggregation, CSV contract."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltc_accel import NumericError, aggregate, end_error, nfe_speedup, psnr
from ltc_accel.metrics import SCHEMAS, read_csv, write_csv

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
    write_csv(path, "latent_wg_summary", rows)
    header, back = read_csv(path, "latent_wg_summary")
    assert header == SCHEMAS["latent_wg_summary"]
    for want, got in zip(rows, back):
        assert tuple(float(v) for v in want) == got  # repr round-trips floats


def test_csv_rewrite_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rows = [(2, 0.123456789012345678), (3, np.float64(1) / 7)]
    write_csv(str(a), "angle", rows)
    write_csv(str(b), "angle", rows)
    assert a.read_bytes() == b.read_bytes()


def test_csv_schema_enforcement(tmp_path):
    path = str(tmp_path / "x.csv")
    with pytest.raises(NumericError, match="rows need 2 cells"):
        write_csv(path, "angle", [(1, 2, 3)])
    write_csv(path, "angle", [(1, 2.0)])
    with pytest.raises(NumericError, match="does not match schema"):
        read_csv(path, "error_summary")
    (tmp_path / "x.csv").write_text("Timestep,Angle\n1,abc\n")
    with pytest.raises(ValueError):
        read_csv(path, "angle")


_CELLS = [(7, "7"), (np.int64(3), "3"), (-0.0, "-0.0"), (1 / 7, repr(1 / 7)),
          (5e-324, "5e-324"), (1e308, "1e+308"), (np.inf, "inf"),
          (-np.inf, "-inf"), (np.nan, "nan")]


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_csv_bytes_are_the_joined_cells_and_read_back_as_written(tmp_path, schema):
    # no header name needs quoting and every cell is a bare float literal,
    # so the bytes are the plain joins and read back to what was written
    header = SCHEMAS[schema]
    width = len(header)
    rows = [[_CELLS[(i + j) % len(_CELLS)] for j in range(width)]
            for i in range(0, len(_CELLS), width)]  # every cell, wrapped
    path = tmp_path / f"{schema}.csv"
    write_csv(str(path), schema, [[v for v, _ in row] for row in rows])
    want = "".join(",".join(line) + "\r\n" for line in
                   [header, *([text for _, text in row] for row in rows)])
    assert path.read_bytes() == want.encode("ascii")
    back_header, back = read_csv(str(path), schema)
    assert back_header == header
    assert [[repr(c) for c in row] for row in back] == \
        [[repr(float(v)) for v, _ in row] for row in rows]


def test_csv_bad_last_row_leaves_the_old_file_untouched(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(str(path), "report", [(0, 40, 40, 1.0, 99.0, 0.0, 0.0)])
    old = path.read_bytes()
    rows = [(1, 26, 40, 40 / 26, 30.5, 0.1, 1.5)] * 3 + [(2, 26, 40)]
    with pytest.raises(NumericError, match="report rows need 7 cells, got 3"):
        write_csv(str(path), "report", rows)
    assert path.read_bytes() == old


def test_csv_write_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "angle.csv"
    path.write_bytes(b"9,9.0\r\n" * 500)
    digest = write_csv(str(path), "angle", [(2, 0.5), (3, 1 / 7)])
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
            write_csv(path, "angle", [(2, 0.5)])
