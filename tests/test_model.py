"""Analytic denoisers: exact inversion, scores, and trace replay."""

import errno
import os
import tempfile
import threading
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltc_accel import (ConfigError, NumericError, TraceError, benchmark_gmm,
                       build_linear_beta)
from ltc_accel import model
from ltc_accel.model import (
    _CACHE_BYTES,
    _read_rows,
    DiagGmmDenoiser,
    PointMassDenoiser,
    RecordedTraceDenoiser,
    read_trace,
    write_trace,
)


@pytest.fixture(scope="module")
def sched():
    return build_linear_beta(1000, 1e-4, 0.02)


class TestPointMass:
    def test_zero_noise_at_scaled_mean(self, sched):
        mu = np.array([0.3, -1.2, 4.0])
        den = PointMassDenoiser(mu, sched)
        for t in (1, 500, 1000):
            x = sched.sqrt_alpha_bar[t] * mu
            assert np.allclose(den.epsilon_hat(x, t), 0.0, atol=1e-15)

    def test_x0_reconstruction_is_mu_for_any_state(self, sched):
        # (x - sqrt(1-ab) * eps) / sqrt(ab) collapses to mu identically.
        rng = np.random.default_rng(7)
        mu = rng.normal(size=5)
        den = PointMassDenoiser(mu, sched)
        for t in (3, 250, 999):
            x = rng.normal(size=5) * 3.0
            eps = den.epsilon_hat(x, t)
            x0 = (x - sched.sqrt_one_minus_alpha_bar[t] * eps) / sched.sqrt_alpha_bar[t]
            assert np.allclose(x0, mu, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_inputs(self, sched):
        with pytest.raises(ConfigError, match="finite vector"):
            PointMassDenoiser([0.0, np.inf], sched)
        den = PointMassDenoiser([0.0, 1.0], sched)
        with pytest.raises(NumericError):
            den.epsilon_hat([np.nan, 0.0], 10)
        with pytest.raises(ValueError):
            den.epsilon_hat([1.0, 2.0, 3.0], 10)
        with pytest.raises(IndexError):
            den.epsilon_hat([1.0, 2.0], 0)
        with pytest.raises(IndexError):
            den.epsilon_hat([1.0, 2.0], 1001)
        with pytest.raises(NumericError):  # checked per row
            den.epsilon_hat([[1.0, 2.0], [np.inf, 0.0]], 10)
        with pytest.raises(ValueError):
            den.epsilon_hat(np.zeros((2, 2, 2)), 10)


class TestDiagGmm:
    def test_single_component_matches_closed_form(self, sched):
        mu = np.array([[0.5, -0.25, 1.0]])
        var = np.array([[0.04, 0.09, 0.16]])
        den = DiagGmmDenoiser([1.0], mu, var, sched)
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        for t in (1, 77, 1000):
            ab = sched.alpha_bar[t]
            m = np.sqrt(ab) * mu[0]
            v = ab * var[0] + (1.0 - ab)
            want = np.sqrt(1.0 - ab) * (x - m) / v
            assert np.allclose(den.epsilon_hat(x, t), want, rtol=1e-12)

    def test_zero_variance_component_equals_point_mass(self, sched):
        mu = np.array([0.7, -0.1])
        gmm = DiagGmmDenoiser([1.0], mu[None, :], np.zeros((1, 2)), sched)
        pm = PointMassDenoiser(mu, sched)
        x = np.array([1.3, 0.4])
        for t in (5, 400, 1000):
            assert np.allclose(gmm.epsilon_hat(x, t), pm.epsilon_hat(x, t),
                               rtol=1e-12, atol=1e-12)

    def test_score_matches_finite_differences_1d(self, sched):
        # Bimodal 1-D mixture probed at x = 0.3.
        den = DiagGmmDenoiser(
            [0.5, 0.5], [[-1.0], [1.0]], [[0.01], [0.01]], sched)
        x = np.array([0.3])
        h = 1e-5
        for t in (25, 300, 900):
            fd = (den.log_density(x + h, t) - den.log_density(x - h, t)) / (2 * h)
            got = den.score(x, t)[0]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_score_matches_finite_differences_multidim(self, sched):
        rng = np.random.default_rng(11)
        k, d = 3, 6
        w = np.array([0.5, 0.3, 0.2])
        means = rng.normal(size=(k, d))
        var = rng.uniform(0.05, 0.3, size=(k, d))
        den = DiagGmmDenoiser(w, means, var, sched)
        x = rng.normal(size=d)
        t = 140
        h = 1e-5
        got = den.score(x, t)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (den.log_density(x + e, t) - den.log_density(x - e, t)) / (2 * h)
            assert abs(got[j] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_symmetric_mixture_has_zero_score_at_origin(self, sched):
        den = DiagGmmDenoiser(
            [0.5, 0.5], [[-1.0, 2.0], [1.0, -2.0]], [[0.1, 0.1], [0.1, 0.1]], sched)
        assert np.allclose(den.score(np.zeros(2), 123), 0.0, atol=1e-13)

    def test_timesteps_must_be_integers(self, sched):
        # a float t is refused alike before and after its integer twin's
        # constants are cached; Python and numpy integers are accepted
        den, x = benchmark_gmm(sched), np.full(16, 0.3)
        for cached in (False, True):
            assert (500 in den._per_t) is cached
            for f in (den.score, den.epsilon_hat, den.log_density):
                with pytest.raises(IndexError, match="integer t in"):
                    f(x, 500.0)
            den.score(x, 500)
        want = den.epsilon_hat(x, 500)
        for t in (np.int64(500), np.int32(500), np.uint16(500)):
            assert np.array_equal(den.epsilon_hat(x, t), want)
            assert den.log_density(x, t) == den.log_density(x, 500)
        with pytest.raises(IndexError, match="integer t in"):
            PointMassDenoiser([0.0], sched).epsilon_hat([1.0], np.float64(10))

    def test_far_field_states_stay_finite(self, sched):
        den = DiagGmmDenoiser(
            [0.5, 0.5], [[-1.0], [1.0]], [[0.01], [0.01]], sched)
        for x in (np.array([1e8]), np.array([-1e8])):
            out = den.epsilon_hat(x, 500)
            assert np.all(np.isfinite(out))

    def test_underflowed_log_terms_go_to_the_nearest_component(self, sched):
        # past |x| ~ 1e155 every log term is -inf; the broader component has
        # the smaller scaled residual and takes all responsibility
        den = DiagGmmDenoiser(
            [0.5, 0.5], [[-1.0], [1.0]], [[0.01], [0.04]], sched)
        m, v = den._constants(500)[:2]
        c = sched.sqrt_one_minus_alpha_bar[500]
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (1e160, -1e160, 1e300, -1e300):
                assert np.array_equal(den.epsilon_hat([x], 500),
                                      c * ((x - m[1]) / v[1]))
                assert np.array_equal(den.score([x], 500), (m[1] - x) / v[1])
            out = den.epsilon_hat([[1e160], [0.3], [-1e300]], 500)
            score = den.score([[1e160], [0.3], [-1e300]], 500)
            for f in (den.epsilon_hat, den.score):
                with pytest.raises(NumericError):  # the nearest score overflows
                    f([-1.7e308], 500)
                with pytest.raises(NumericError):  # in a batch too
                    f([[0.3], [-1.7e308]], 500)
        assert np.array_equal(out[1], den.epsilon_hat([0.3], 500))
        assert np.array_equal(out[[0, 2], 0], c * ((np.array([1e160, -1e300])
                                                    - m[1, 0]) / v[1, 0]))
        assert np.array_equal(score[1], den.score([0.3], 500))
        assert np.array_equal(score[[0, 2], 0], (m[1, 0] - np.array([1e160, -1e300]))
                              / v[1, 0])

    @pytest.mark.parametrize(
        "w,means,var",
        [
            ([0.5, 0.4], [[0.0], [1.0]], [[0.1], [0.1]]),      # weights sum != 1
            ([0.5, -0.5], [[0.0], [1.0]], [[0.1], [0.1]]),     # negative weight
            ([1.0], [[0.0]], [[-0.1]]),                        # negative variance
            ([0.5, 0.5], [[0.0]], [[0.1]]),                    # k mismatch
            ([1.0], [[0.0, 1.0]], [[0.1]]),                    # shape mismatch
            ([0.5, 0.5], [[0.0], [1.0, 2.0]], [[0.1], [0.1]]), # ragged rows
            ([1.0], [[]], [[]]),                               # d = 0
            ([1.0], [[np.nan]], [[0.1]]),                      # non-finite
        ],
    )
    def test_rejects_invalid_mixtures(self, sched, w, means, var):
        with pytest.raises(ConfigError):
            DiagGmmDenoiser(w, means, var, sched)


# bytes of any short length, or pseudo-random bytes beyond 5 KiB, the
# size from which zlib.crc32 releases the GIL
_checksummed = st.binary(max_size=600) | st.builds(
    lambda n, seed: np.random.default_rng(seed).bytes(n),
    st.integers(5 << 10, 40 << 10), st.integers(0, 2**32 - 1))


@st.composite
def _trace_reads(draw):
    """(seeds, steps, dim, ts, chunk bytes) of a selected trace read."""
    steps = draw(st.integers(1, 40))
    return (draw(st.integers(0, 3)), steps, draw(st.sampled_from([1, 3, 256, 1024])),
            draw(st.lists(st.integers(1, steps), unique=True, max_size=steps)),
            draw(st.sampled_from([1, 100, 4096, 1 << 20])))


class TestTraceIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 5, 4)).astype(np.float32)
        path = str(tmp_path / "dump.trace")
        manifest = write_trace(path, data)
        crc = zlib.crc32(data.astype("<f4").tobytes())
        assert (tmp_path / "dump.trace").read_text(encoding="ascii") == (
            f"dim=4\nsteps=5\nseeds=3\ndata=dump.f32\nendian=little\ncrc32={crc:08x}\n")
        back_manifest, back = read_trace(path)
        assert back_manifest == manifest
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), data.view(np.uint32))

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.trace")
        write_trace(path, np.zeros((0, 4, 2), dtype=np.float32))
        manifest, back = read_trace(path)
        assert manifest.seeds == 0 and back.shape == (0, 4, 2)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "t.trace")
        write_trace(path, np.ones((2, 3, 2), dtype=np.float32))
        data_file = tmp_path / "t.f32"
        data_file.write_bytes(data_file.read_bytes()[:-4])
        with pytest.raises(TraceError, match="bytes"):
            read_trace(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        # a flipped byte at either end of the payload or on either side of
        # the bound between its two chunks, in 48 bytes and in 12 KB
        path = str(tmp_path / "c.trace")
        data_file = tmp_path / "c.f32"
        for shape in ((2, 3, 2), (2, 300, 5)):
            write_trace(path, np.ones(shape, dtype=np.float32))
            good = data_file.read_bytes()
            half = len(good) // 2  # whole rows, so one chunk of half bytes ends there
            for at in (0, 5, half - 1, half, len(good) - 1):
                raw = bytearray(good)
                raw[at] ^= 0xFF
                data_file.write_bytes(bytes(raw))
                with mock.patch.object(model, "_CHUNK", half), \
                        pytest.raises(TraceError, match="checksum"):
                    read_trace(path)

    def test_checksum_worker_failure_reaches_the_caller(self, tmp_path, monkeypatch):
        # zlib failing in the checker, off the calling thread: read_trace
        # raises that very exception, threading.excepthook stays silent and
        # no thread outlives the call
        path = str(tmp_path / "w.trace")
        write_trace(path, np.ones((2, 300, 5), dtype=np.float32))
        boom = RuntimeError("crc32 failed off the calling thread")

        class OffThreadFailure:
            @staticmethod
            def crc32(data, value=0):
                if threading.current_thread() is not threading.main_thread():
                    raise boom
                return zlib.crc32(data, value)

        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        monkeypatch.setattr(model, "zlib", OffThreadFailure)
        monkeypatch.setattr(model, "_CHUNK", 4096)  # 12 KB: more than two chunks
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            read_trace(path)
        assert caught.value is boom
        assert hooked == [] and threading.active_count() == threads

    @settings(max_examples=300, deadline=None)
    @given(a=_checksummed, b=_checksummed)
    @example(a=b"", b=b"")
    @example(a=b"", b=b"\x01")
    @example(a=b"\xff", b=b"")
    @example(a=b"\x00" * 5121, b=bytes(range(256)) * 21)
    def test_checksum_equals_zlib(self, a, b):
        # the checker's running CRC-32 of a file, in one chunk or in chunks of
        # 4 KiB, equals zlib's over the whole and differs from any other; the
        # reader takes whole 4-byte rows, so it sums (a + b) * 4
        payload = (a + b) * 4
        crc = zlib.crc32(payload)
        with tempfile.TemporaryFile() as f:
            f.write(payload)
            f.flush()
            for chunk in (4096, model._CHUNK):
                with mock.patch.object(model, "_CHUNK", chunk):  # the checker closes its fd
                    rows, confirm = _read_rows(os.dup(f.fileno()), 1, len(a + b), 1, None,
                                               f"{crc:08x}")
                    confirm()
                    assert rows.tobytes() == payload
                    confirm = _read_rows(os.dup(f.fileno()), 1, len(a + b), 1, None,
                                         f"{crc ^ 1:08x}")[1]
                with pytest.raises(TraceError, match=f"checksum mismatch: payload {crc:08x}"):
                    confirm()

    def test_manifest_path_ending_in_f32_is_refused(self, tmp_path):
        # the payload would land on the manifest's own path
        with pytest.raises(TraceError, match="its own payload"):
            write_trace(str(tmp_path / "x.f32"), np.ones((1, 2, 2), dtype=np.float32))
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(case=_trace_reads())
    @example(case=(0, 5, 4, [2, 5], 4096))        # no seeds
    @example(case=(1, 1, 3, [1], 1))              # a single row
    @example(case=(1, 7, 1, [7, 1, 4], 1))        # 7 rows, a chunk each
    @example(case=(3, 9, 1024, [9, 2, 5, 3], 1 << 20))
    @example(case=(2, 6, 1024, [], 1 << 20))      # no t kept
    @example(case=(2, 12, 256, [12, 11, 10, 9, 5], 1 << 20))  # 4 KiB runs and 1 KiB rows
    @example(case=(1, 5, 1024, [5, 4, 3], 8192))  # a chunk kept whole, one in part
    def test_selected_read_equals_columns_of_the_full_read(self, case):
        # any order or subset of t values, any chunk size: the kept rows
        # equal the full read's, byte for byte, and so do every t kept
        seeds, steps, dim, ts, chunk = case
        data = np.random.default_rng(steps).standard_normal((seeds, steps, dim),
                                                            dtype=np.float32)
        ts = np.array(ts, dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(model, "_CHUNK", chunk):
            path = os.path.join(tmp, "s.trace")
            write_trace(path, data)
            full = read_trace(path)[1]
            picked = read_trace(path, ts)[1]
        assert full.tobytes() == data.tobytes()
        assert picked.shape == (seeds, len(ts), dim) and picked.dtype == np.float32
        assert picked.tobytes() == full[:, steps - ts].tobytes()

    def test_fifo_or_device_payload_is_refused(self, tmp_path):
        # a FIFO with no writer opens at once and, like a device, is refused
        # by its type before any byte is read; the read runs off the test's
        # thread so that a read that blocks fails here instead of hanging
        write_trace(str(tmp_path / "f.trace"), np.ones((3, 40, 5), dtype=np.float32))
        text = (tmp_path / "f.trace").read_text(encoding="ascii")
        os.mkfifo(tmp_path / "f.fifo")
        for data in (str(tmp_path / "f.fifo"), "/dev/zero"):
            manifest = tmp_path / "p.trace"
            manifest.write_text(text.replace("data=f.f32", f"data={data}"), encoding="ascii")
            caught = []

            def read():
                try:
                    read_trace(str(manifest))
                except BaseException as e:
                    caught.append(e)

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive()
            assert len(caught) == 1 and isinstance(caught[0], TraceError)
            assert str(caught[0]) == f"trace payload {data} is not a regular file"

    def test_flipped_byte_in_a_row_not_kept_fails_the_checksum(self, tmp_path):
        # every byte is checksummed, kept or not, at either end and with
        # chunks of one row or of many
        path = str(tmp_path / "u.trace")
        data_file = tmp_path / "u.f32"
        write_trace(path, np.ones((2, 30, 5), dtype=np.float32))
        good = data_file.read_bytes()
        row = 5 * 4
        ts = [30, 10]  # step indices 0 and 20 of each seed
        for at in (3 * row, 25 * row + 7, 35 * row, 59 * row + row - 1):
            raw = bytearray(good)
            raw[at] ^= 0xFF
            data_file.write_bytes(bytes(raw))
            for chunk in (1, model._CHUNK):
                with mock.patch.object(model, "_CHUNK", chunk), \
                        pytest.raises(TraceError, match="checksum"):
                    read_trace(path, ts)

    @pytest.mark.parametrize("ts,match", [
        ([1.5], "integers"), ([True], "integers"), (["3"], "integers"),
        (np.array([2.0]), "integers"), ([3, 3], "distinct"), ([[1, 2]], "distinct"),
        ([0], r"1\.\.4"), ([5], r"1\.\.4"), ([2**70], r"1\.\.4"),
        (True, "integers"), (np.True_, "integers"), (2.0, "integers"), (1.5, "integers"),
        ("3", "integers"), ([0, True], "integers"), ([True, 3], "integers"),
        (5, r"1\.\.4"), (2**70, r"1\.\.4"),
        ([], None), (np.int32(3), None), (np.uint64(3), None),  # None: read
    ])
    def test_t_values_are_checked(self, tmp_path, ts, match):
        path = str(tmp_path / "v.trace")
        write_trace(path, np.arange(8, dtype=np.float32).reshape(1, 4, 2))
        if match is None:  # t = 3 is step 1
            assert read_trace(path, ts)[1].tolist() == [[[2.0, 3.0]] * np.size(ts)]
            return
        with pytest.raises(TraceError, match=f"trace (holds )?t values (must be )?{match}"):
            read_trace(path, ts)

    def test_selected_read_holds_less_than_half_the_payload(self, tmp_path):
        # 100 of 1000 steps of an (8, 1000, 256) trace: the result is a tenth
        # of the 8.2 MB payload, plus the checker's chunk buffer
        data = np.random.default_rng(0).standard_normal((8, 1000, 256), dtype=np.float32)
        path = str(tmp_path / "m.trace")
        write_trace(path, data)
        del data
        ts = np.arange(1000, 0, -10)
        tracemalloc.start()
        try:
            picked = read_trace(path, ts)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert picked.shape == (8, 100, 256)
        assert peak < (8 * 1000 * 256 * 4) // 2

    def test_write_holds_no_copy_of_a_float32_payload(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((8, 1000, 256), dtype=np.float32)
        tracemalloc.start()
        try:
            write_trace(str(tmp_path / "w.trace"), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "w.f32").read_bytes() == data.tobytes()

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda lines: lines + ["extra=1"], "unknown manifest field: 'extra'"),
            (lambda lines: lines[1:], r"missing fields: \['dim'\]"),
            (lambda lines: lines + [lines[0]], "duplicate manifest field: 'dim'"),
            (lambda lines: [l.replace("little", "big") for l in lines], "endianness"),
            (lambda lines: ["dim=x" if l.startswith("dim=") else l for l in lines],
             "non-integer manifest field"),
            (lambda lines: lines + ["dim 2"], "malformed manifest line: 'dim 2'"),
            # blank lines are skipped, so the missing field is what is refused
            (lambda lines: ["", "  "] + lines[1:] + [""], r"missing fields: \['dim'\]"),
        ],
        ids=["unknown-key", "missing-key", "duplicate-key", "big-endian", "non-integer",
             "no-equals", "blank-line-skipped"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, mutate, match):
        path = str(tmp_path / "m.trace")
        write_trace(path, np.ones((1, 2, 2), dtype=np.float32))
        lines = (tmp_path / "m.trace").read_text().strip().split("\n")
        (tmp_path / "m.trace").write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(TraceError, match=match):
            read_trace(path)

    @pytest.mark.parametrize("chunk,overlapped", [(4096, True), (1 << 20, False)])
    def test_pending_check_runs_on_a_thread_for_more_than_two_chunks(
            self, tmp_path, monkeypatch, chunk, overlapped):
        # given a list, read_trace returns the rows of a 12 KB payload while a
        # checker thread still sums it when that is more than two chunks, and
        # after summing it on the calling thread when not; the callable it
        # leaves awaits the check either way
        path = str(tmp_path / "p.trace")
        write_trace(path, np.ones((2, 300, 5), dtype=np.float32))
        release = threading.Event()

        class HeldOffThread:
            @staticmethod
            def crc32(data, value=0):
                if threading.current_thread() is not threading.main_thread():
                    assert release.wait(5)
                return zlib.crc32(data, value)

        monkeypatch.setattr(model, "zlib", HeldOffThread)
        monkeypatch.setattr(model, "_CHUNK", chunk)
        threads, pending = threading.active_count(), []
        rows = read_trace(path, [300, 1], pending)[1]
        assert threading.active_count() == threads + overlapped and len(pending) == 1
        release.set()
        pending[0]()
        assert threading.active_count() == threads
        assert rows.tolist() == [[[1.0] * 5] * 2] * 2

    @pytest.mark.parametrize("dim", [5, 1024], ids=["short-runs", "long-runs"])
    def test_kept_row_read_other_than_the_payload_fails_the_checksum(self, tmp_path,
                                                                     monkeypatch, dim):
        # the calling thread's reads of the kept rows, from a buffer of their
        # chunk or straight into the result, return other bytes than the
        # payload holds: the checker sums the kept rows as they were read
        path = str(tmp_path / "k.trace")
        write_trace(path, np.ones((2, 30, dim), dtype=np.float32))
        preadv = os.preadv

        def changing(fd, buffers, offset):
            n = preadv(fd, buffers, offset)
            if threading.current_thread() is threading.main_thread():
                np.asarray(buffers[0]).view(np.uint8).reshape(-1)[-1] ^= 0xFF
            return n

        monkeypatch.setattr(os, "preadv", changing)
        with pytest.raises(TraceError, match="checksum mismatch"):
            read_trace(path, [30, 10])

    @pytest.mark.parametrize("checker", [False, True], ids=["kept-rows", "checker"])
    def test_failing_read_is_a_trace_error(self, tmp_path, monkeypatch, checker):
        # the calling thread's read of the kept rows, or the checker's read
        # of the rows the grid does not keep, fails
        path = str(tmp_path / "r.trace")
        write_trace(path, np.ones((2, 300, 5), dtype=np.float32))
        preadv = os.preadv

        def failing(fd, buffers, offset):
            if (threading.current_thread() is not threading.main_thread()) == checker:
                raise OSError(errno.EIO, "Input/output error")
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", failing)
        monkeypatch.setattr(model, "_CHUNK", 4096)  # 12 KB: more than two chunks
        threads, fds = threading.active_count(), len(os.listdir("/proc/self/fd"))
        with pytest.raises(TraceError) as caught:
            read_trace(path, [300, 1])
        assert str(caught.value) == "cannot read trace payload: [Errno 5] Input/output error"
        assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == fds  # the payload is closed

    def test_write_refuses_data_that_is_not_a_trace(self, tmp_path):
        for data, match in ((np.ones((2, 3), np.float32), r"shape \(seeds, steps, dim\)"),
                            (np.ones((1, 0, 2), np.float32), "at least 1"),
                            (np.ones((1, 2, 0), np.float32), "at least 1")):
            with pytest.raises(TraceError, match=match):
                write_trace(str(tmp_path / "w.trace"), data)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["point", "gmm", "trace"])
def test_every_denoiser_refuses_a_t_that_is_not_an_integer(sched, kind):
    # a float or a bool t gets the module's IndexError before any lookup or
    # cached constant; a numpy integer is served as its int
    data = np.arange(5 * 4, dtype=np.float32).reshape(1, 5, 4)
    den = {"point": PointMassDenoiser(np.ones(4), sched),
           "gmm": DiagGmmDenoiser([1.0], np.ones((1, 4)), np.ones((1, 4)), sched),
           "trace": RecordedTraceDenoiser(data, 0)}[kind]
    x = np.full(4, 0.3)
    for t in (3.0, np.float64(3.0), True, False):
        with pytest.raises(IndexError, match="integer t"):
            den.epsilon_hat(x, t)
    assert getattr(den, "_per_t", {}) == {}
    assert np.array_equal(den.epsilon_hat(x, np.int64(3)), den.epsilon_hat(x, 3))
    if kind == "trace":  # an integer outside the trace stays a TraceError
        for t in (np.int64(0), np.int64(6)):
            with pytest.raises(TraceError, match="trace covers"):
                den.epsilon_hat(x, t)


class TestRecordedTraceDenoiser:
    def test_lookup_indexes_steps_from_high_t(self, tmp_path):
        # steps axis is t = T..1, so t = T lives at index 0.
        data = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2)
        path = str(tmp_path / "d.trace")
        write_trace(path, data)
        den = RecordedTraceDenoiser(read_trace(path)[1], 1)
        x = np.zeros(2)
        assert np.array_equal(den.epsilon_hat(x, 3), data[1, 0].astype(np.float64))
        assert np.array_equal(den.epsilon_hat(x, 1), data[1, 2].astype(np.float64))

    def test_key_misses_raise(self, tmp_path):
        data = np.zeros((1, 3, 2), dtype=np.float32)
        path = str(tmp_path / "d.trace")
        write_trace(path, data)
        den = RecordedTraceDenoiser(read_trace(path)[1], 0)
        with pytest.raises(TraceError, match="trace covers 1 <= t <= 3, got t=0"):
            den.epsilon_hat(np.zeros(2), 0)
        with pytest.raises(TraceError, match="trace covers 1 <= t <= 3, got t=4"):
            den.epsilon_hat(np.zeros(2), 4)
        with pytest.raises(TraceError, match=r"trace holds seeds 0\.\.0, got 1"):
            RecordedTraceDenoiser(data, seed=1)

    def test_data_must_be_three_dimensional(self):
        for data in (np.zeros((3, 2), np.float32), np.zeros((1, 1, 3, 2), np.float32)):
            with pytest.raises(TraceError, match=r"shape \(seeds, steps, dim\)"):
                RecordedTraceDenoiser(data, 0)


    def test_seed_rows(self):
        data = np.arange(3 * 4 * 2, dtype=np.float32).reshape(3, 4, 2)
        den = RecordedTraceDenoiser(data, [2, 0, 2])
        out = den.epsilon_hat(np.zeros((3, 2)), 4)
        assert np.array_equal(out, data[[2, 0, 2], 0].astype(np.float64))
        sub = den.take([1])
        assert np.array_equal(sub.epsilon_hat(np.zeros(2), 4), data[0, 0])
        assert np.array_equal(sub.epsilon_hat(np.zeros((1, 2)), 4), data[None, 0, 0])
        with pytest.raises(ValueError):  # one row per seed
            den.epsilon_hat(np.zeros((2, 2)), 4)
        with pytest.raises(ValueError):
            den.epsilon_hat(np.zeros(2), 4)
        with pytest.raises(TraceError, match=r"trace holds seeds 0\.\.2, got \[0, 3\]"):
            RecordedTraceDenoiser(data, [0, 3])

    def test_holds_only_its_t_values(self):
        # column j holds t = ts[j]; any other t is refused, and take() keeps ts
        data = np.arange(3 * 4 * 2, dtype=np.float32).reshape(3, 4, 2)
        ts = [9, 5, 7, 1]
        den = RecordedTraceDenoiser(data, [2, 0], ts)
        for j, t in enumerate(ts):
            assert np.array_equal(den.epsilon_hat(np.zeros((2, 2)), t), data[[2, 0], j])
        for t in (0, 2, 4, 8, 10, np.int64(6), 2**70):
            with pytest.raises(TraceError, match=r"trace covers t in \[9, 5, 7, 1\], got"):
                den.epsilon_hat(np.zeros((2, 2)), t)
        sub = den.take([1])
        assert np.array_equal(sub.epsilon_hat(np.zeros(2), 7), data[0, 2])
        with pytest.raises(TraceError, match=r"trace covers t in \[9, 5, 7, 1\], got t=4"):
            sub.epsilon_hat(np.zeros(2), 4)
        for bad in ([9, 5, 7], [9, 5, 7, 1, 2], [9, 5, 5, 1], [[9, 5, 7, 1]],
                    [9, 5, 7, 1.0], [9, 5, 7, True], [0, 5, 7, 1]):
            with pytest.raises(TraceError):
                RecordedTraceDenoiser(data, 0, bad)

    def test_seeds_must_be_integers(self):
        # a float or a bool is refused, not truncated to a row; numpy
        # integers serve, and Python ints beyond int64 meet the range check
        data = np.arange(3 * 4 * 2, dtype=np.float32).reshape(3, 4, 2)
        # [0, True] is int64 to numpy; its elements are checked as given
        for seed in (1.5, 1.0, True, np.bool_(False), [0, 2.9], [True],
                     np.array([0.0, 2.0]), "1", [0, True], (np.True_, 1), [True, 3]):
            with pytest.raises(TraceError, match="trace seeds must be integers"):
                RecordedTraceDenoiser(data, seed)
        for seed in (np.int32(1), np.array([2, 0], np.uint8), [np.int64(2), 1],
                     np.uint64(2), []):
            den = RecordedTraceDenoiser(data, seed)
            assert np.array_equal(den.take(slice(None))._rows, np.atleast_1d(seed))
        for seed in (2**70, [0, 2**70], [np.int64(1), -2**70], 3, -1):
            with pytest.raises(TraceError, match=r"trace holds seeds 0\.\.2"):
                RecordedTraceDenoiser(data, seed)


_BATCH_DIM = 6


@pytest.fixture(scope="module")
def batch_denoisers(sched):
    """(kind -> (denoiser of a batch's seeds, denoiser of one seed))."""
    rng = np.random.default_rng(5)
    mu = rng.normal(size=(3, _BATCH_DIM))
    gmm = DiagGmmDenoiser([0.5, 0.3, 0.2], mu,
                          rng.uniform(0.05, 1.5, size=(3, _BATCH_DIM)), sched)
    point = PointMassDenoiser(mu[0], sched)
    data = rng.standard_normal((30, 1000, _BATCH_DIM)).astype(np.float32)
    return {
        "point": (lambda seeds: point, lambda seed: point),
        "gmm": (lambda seeds: gmm, lambda seed: gmm),
        "trace": (lambda seeds: RecordedTraceDenoiser(data, seeds),
                  lambda seed: RecordedTraceDenoiser(data, seed)),
    }


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["point", "gmm", "trace"]),
       seeds=st.lists(st.integers(0, 29), min_size=1, max_size=24),
       t=st.integers(1, 1000), gen=st.integers(0, 2**32 - 1))
def test_batched_epsilon_hat_rows_equal_single_calls(batch_denoisers, kind,
                                                     seeds, t, gen):
    rng = np.random.default_rng(gen)
    # row scales from near the origin to the far field, where every GMM log
    # term underflows (overflow warnings are expected there), in one batch
    scale = rng.choice([0.01, 1.0, 20.0, 1e8, 1e160, 1e300],
                       size=(len(seeds), 1))
    x = rng.standard_normal((len(seeds), _BATCH_DIM)) * scale
    batched, single = batch_denoisers[kind]
    with np.errstate(over="ignore", invalid="ignore"):
        out = batched(seeds).epsilon_hat(x, t)
        assert out.shape == x.shape
        for j, seed in enumerate(seeds):
            assert np.array_equal(out[j], single(seed).epsilon_hat(x[j], t))


# DiagGmmDenoiser's formulas as they stood before its per-t constants were
# cached: the reference that every bit of the cached path must match.
def _ref_marginal(den, t):
    ab = den.schedule.alpha_bar[t]
    return den.schedule.sqrt_alpha_bar[t] * den.means, ab * den.variances + (1.0 - ab)


def _ref_log_terms(den, x, m, v):
    q = (x[..., None, :] - m) ** 2 / v
    return np.log(den.weights) - 0.5 * np.sum(np.log(2.0 * np.pi * v) + q, axis=-1)


def _ref_logsumexp(a):
    m = np.max(a, axis=-1, keepdims=True)
    s = m + np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True))
    return np.where(np.isfinite(m), s, m)[..., 0]


def _ref_log_density(den, x, t):
    return _ref_logsumexp(_ref_log_terms(den, x, *_ref_marginal(den, t)))


def _ref_score(den, x, t):
    m, v = _ref_marginal(den, t)
    logt = _ref_log_terms(den, x, m, v)
    r = np.exp(logt - _ref_logsumexp(logt)[..., None])
    out = np.sum(r[..., None] * (m - x[..., None, :]) / v, axis=-2)
    # rows whose log terms are all -inf: the nearest component's score,
    # from the residual x - m that _ref_epsilon_hat's far field uses
    far = np.all(np.atleast_2d(logt) == -np.inf, axis=-1)
    res = np.atleast_2d(x)[far][:, None, :] - m
    scaled = res / np.max(np.abs(res), axis=(1, 2), keepdims=True)
    k = np.argmin(np.sum(scaled ** 2 / v, axis=-1), axis=-1)
    np.atleast_2d(out)[far] = -(res[np.arange(len(k)), k] / v[k])
    return out


def _ref_epsilon_hat(den, x, t):
    c = den.schedule.sqrt_one_minus_alpha_bar[t]
    out = -c * _ref_score(den, x, t)
    if not np.all(np.isfinite(out)):
        m, v = _ref_marginal(den, t)
        far = np.all(np.atleast_2d(_ref_log_terms(den, x, m, v)) == -np.inf, axis=-1)
        res = np.atleast_2d(x)[far][:, None, :] - m
        scaled = res / np.max(np.abs(res), axis=(1, 2), keepdims=True)
        k = np.argmin(np.sum(scaled ** 2 / v, axis=-1), axis=-1)
        np.atleast_2d(out)[far] = c * (res[np.arange(len(k)), k] / v[k])
    return out


def _same_bits(got, want):
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# near the origin; the 1e16 - 1e154 range where tied components each get
# responsibility 1; the far field past 1e155 where every log term is -inf
_SCALES = [0.0, 0.01, 1.0, 20.0, 1e8, 1e16, 1e40, 1e100, 1e154, 1e155, 1e160, 1e300]


@settings(max_examples=60, deadline=None)
@given(gen=st.integers(0, 2**32 - 1), k=st.integers(1, 4), d=st.integers(1, 5),
       ts=st.lists(st.integers(1, 1000), min_size=1, max_size=12))
def test_gmm_path_matches_the_uncached_formulas_bit_for_bit(sched, gen, k, d, ts):
    rng = np.random.default_rng(gen)
    w = rng.uniform(0.1, 1.0, size=k)
    w /= np.sum(w)
    means = rng.choice([0.0, 1.0], size=(k, 1)) * rng.normal(size=(k, d))
    if rng.integers(2):  # symmetric components: the far-field and tie regimes
        means[-1] = -means[0]
    variances = rng.choice([0.0, 0.01, 0.5, 2.0], size=(k, d))
    den = DiagGmmDenoiser(w, means, variances, sched)
    x = (rng.standard_normal((5, d)) * rng.choice(_SCALES, size=(5, 1))
         * rng.choice([-1.0, 1.0], size=(5, 1)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in ts:  # drawn in any order, with repeats: cache hits and misses
            for state in (x, x[0]):
                want = _ref_epsilon_hat(den, state, t)
                if np.all(np.isfinite(want)):
                    assert _same_bits(den.epsilon_hat(state, t), want)
                    assert _same_bits(den.score(state, t), _ref_score(den, state, t))
                else:  # the nearest score overflows
                    with pytest.raises(NumericError):
                        den.epsilon_hat(state, t)
                    with pytest.raises(NumericError):
                        den.score(state, t)
                assert _same_bits(den.log_density(state, t),
                                  _ref_log_density(den, state, t))


@pytest.mark.parametrize("scale", [*_SCALES, 1e307, 1.7e308])
def test_epsilon_hat_is_the_scaled_score_at_every_scale(sched, scale):
    # one path: epsilon_hat has the bits of -c * score, and both raise on
    # the same states, from the origin through the tie regime to the far
    # field and the overflow of the nearest score
    rng = np.random.default_rng(17)
    c = sched.sqrt_one_minus_alpha_bar
    for k, d in ((1, 1), (2, 1), (2, 3), (4, 5)):
        means = rng.normal(size=(k, d))
        means[-1] = -means[0]
        den = DiagGmmDenoiser(np.full(k, 1.0 / k), means,
                              rng.choice([0.0, 0.01, 0.5, 2.0], size=(k, d)), sched)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = rng.standard_normal((5, d)) * scale
            for t in (1, 37, 500, 1000):
                for state in (x, x[0], -x[1]):
                    try:
                        eps = den.epsilon_hat(state, t)
                    except NumericError:
                        with pytest.raises(NumericError):
                            den.score(state, t)
                        continue
                    assert _same_bits(eps, -c[t] * den.score(state, t))


def test_per_t_constants_stay_within_their_bound(sched):
    # d = 1024, k = 3 at all 1000 t would hold 74 MB of constants
    rng = np.random.default_rng(4)
    for d in (16, 1024):
        den = DiagGmmDenoiser([0.5, 0.3, 0.2], rng.normal(size=(3, d)),
                              rng.uniform(0.5, 1.5, size=(3, d)), sched)
        x = rng.standard_normal((2, d))
        most = 0
        for t in [*range(1, 1001), *range(1000, 0, -7)]:
            assert _same_bits(den.epsilon_hat(x, t), _ref_epsilon_hat(den, x, t))
            most = max(most, len(den._per_t))
        assert most * sum(a.nbytes for a in den._per_t[t]) <= _CACHE_BYTES
        if d == 16:  # small mixtures keep every t of the schedule
            assert most == len(den._per_t) == 1000
