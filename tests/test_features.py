import math

import numpy as np
import pytest

from scalemix.features import (
    SignalBlock,
    butter2_coeffs,
    butterworth2_lowpass,
    mav_window,
    pipeline_rect_smooth,
    rectify,
)


def sine_block(freq, fs, seconds, amplitude=1.0):
    t = np.arange(int(seconds * fs)) / fs
    x = amplitude * np.sin(2 * math.pi * freq * t)
    return SignalBlock(samples=x[:, None], fs=fs, labels=np.ones(t.shape[0], int))


def steady_amplitude(block, freq):
    """Least-squares sinusoid amplitude over the last third of the signal."""
    n = block.n_samples
    t = np.arange(n) / block.fs
    tail = slice(2 * n // 3, n)
    basis = np.column_stack(
        [np.sin(2 * math.pi * freq * t[tail]), np.cos(2 * math.pi * freq * t[tail])]
    )
    coef, *_ = np.linalg.lstsq(basis, block.samples[tail, 0], rcond=None)
    return float(np.hypot(*coef))


class TestSignalBlock:
    def test_one_dimensional_samples_rejected(self):
        # a (T,) signal is not silently read as one sample of T channels
        with pytest.raises(ValueError, match="matrix"):
            SignalBlock(np.sin(np.arange(200) / 5), fs=1000.0)
        with pytest.raises(ValueError, match="matrix"):
            SignalBlock(samples=[], fs=1000.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, value):
        samples = np.zeros((10, 2))
        samples[4, 1] = value
        with pytest.raises(ValueError, match="^samples must be finite$"):
            SignalBlock(samples, fs=100.0)

    @pytest.mark.parametrize("labels", [np.ones(9, int), np.ones((10, 1), int)])
    def test_labels_must_align_with_samples(self, labels):
        with pytest.raises(ValueError, match="^labels must align with samples$"):
            SignalBlock(np.zeros((10, 2)), fs=100.0, labels=labels)

    @pytest.mark.parametrize("fs", [math.inf, math.nan, 0.0])
    def test_rate_must_be_positive_and_finite(self, fs):
        with pytest.raises(ValueError, match="sampling rate"):
            SignalBlock(np.zeros((10, 1)), fs=fs)


class TestRectify:
    def test_elementwise_absolute(self):
        block = SignalBlock(np.array([[-1.0], [2.0], [-3.0]]), fs=10.0)
        assert np.array_equal(rectify(block).samples, [[1.0], [2.0], [3.0]])

    def test_zero_preserved(self):
        block = SignalBlock(np.zeros((5, 2)), fs=10.0)
        assert np.array_equal(rectify(block).samples, np.zeros((5, 2)))

    def test_idempotent(self, rng):
        block = SignalBlock(rng.standard_normal((50, 3)), fs=100.0)
        once = rectify(block)
        twice = rectify(once)
        assert np.array_equal(once.samples, twice.samples)


class TestFilterDesign:
    def test_dc_gain_exactly_one(self):
        for fc, fs in ((2.0, 2000.0), (10.0, 1000.0), (0.5, 64.0)):
            b, a = butter2_coeffs(fc, fs)
            assert len(b) == len(a) == 3 and a[0] == 1.0
            assert sum(b) / sum(a) == pytest.approx(1.0, abs=1e-12)

    def test_poles_inside_unit_circle(self):
        _, a = butter2_coeffs(2.0, 2000.0)
        assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            butter2_coeffs(0.0, 100.0)
        with pytest.raises(ValueError):
            butter2_coeffs(60.0, 100.0)

    def test_near_nyquist_cutoff_rejected_as_unstable(self):
        # two ulps below fs/2, the rounded taps put a pole outside the unit circle
        fc = 499.9999999999999
        assert fc == math.nextafter(math.nextafter(500.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="unstable filter, pole magnitudes"):
            butter2_coeffs(fc, 1000.0)


class TestFilterResponse:
    def test_constant_input_converges_to_dc(self):
        fs, fc, level = 500.0, 2.0, 3.7
        n = int(5 / fc * fs) + 200
        block = SignalBlock(np.full((n, 1), level), fs=fs)
        out = butterworth2_lowpass(block, fc)
        assert abs(out.samples[-1, 0] - level) < 1e-6 * level
        # steady-state initialization suppresses the startup transient
        assert abs(out.samples[0, 0] - level) < 1e-9 * level

    def test_minus_3db_at_cutoff(self):
        fs, fc = 1000.0, 10.0
        block = sine_block(fc, fs, seconds=6.0)
        ratio = steady_amplitude(butterworth2_lowpass(block, fc), fc)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)

    def test_strong_attenuation_a_decade_up(self):
        fs, fc = 4000.0, 10.0
        block = sine_block(10 * fc, fs, seconds=3.0)
        ratio = steady_amplitude(butterworth2_lowpass(block, fc), 10 * fc)
        assert ratio <= 0.012

    def test_channel_independence(self, rng):
        fs = 200.0
        a = rng.standard_normal(400)
        b = rng.standard_normal(400)
        both = SignalBlock(np.column_stack([a, b]), fs=fs)
        first = SignalBlock(a[:, None], fs=fs)
        out_both = butterworth2_lowpass(both, 3.0)
        out_first = butterworth2_lowpass(first, 3.0)
        assert np.array_equal(out_both.samples[:, 0], out_first.samples[:, 0])

    def test_bounded_output_on_long_random_input(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(1_000_000, 1))
        out = butterworth2_lowpass(SignalBlock(x, fs=2000.0), 2.0)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0 + 1e-6

    def test_empty_block_returned_unchanged(self):
        block = SignalBlock(np.empty((0, 3)), fs=100.0)
        out = butterworth2_lowpass(block, 2.0)
        assert out.samples.shape == (0, 3)
        assert out.fs == block.fs


class TestMavWindow:
    def test_constant_signal(self):
        block = SignalBlock(np.full((100, 2), 3.0), fs=100.0, labels=np.ones(100, int))
        ds = mav_window(block, window_ms=400.0, step_ms=200.0)
        assert np.allclose(ds.features, 3.0)

    def test_window_sample_count_at_100hz(self):
        block = SignalBlock(
            np.arange(100, dtype=float)[:, None], fs=100.0, labels=np.ones(100, int)
        )
        ds = mav_window(block, window_ms=400.0, step_ms=400.0)
        # 400 ms at 100 Hz spans 40 samples
        assert ds.features[0, 0] == pytest.approx(np.mean(np.arange(40)))

    def test_alternating_sign_mav_is_one(self):
        x = np.tile([1.0, -1.0], 50)[:, None]
        block = SignalBlock(x, fs=100.0, labels=np.ones(100, int))
        ds = mav_window(block, window_ms=200.0, step_ms=100.0)
        assert np.allclose(ds.features, 1.0)

    def test_output_count_formula(self):
        for t, w_ms, s_ms in ((100, 400, 100), (250, 500, 50), (40, 400, 400)):
            block = SignalBlock(
                np.zeros((t, 1)), fs=100.0, labels=np.ones(t, int)
            )
            ds = mav_window(block, window_ms=w_ms, step_ms=s_ms)
            w = round(w_ms * 100.0 / 1000.0)
            s = round(s_ms * 100.0 / 1000.0)
            assert ds.n_rows == (t - w) // s + 1

    def test_majority_label(self):
        labels = np.array([1] * 30 + [2] * 70)
        block = SignalBlock(np.zeros((100, 1)), fs=100.0, labels=labels)
        ds = mav_window(block, window_ms=1000.0, step_ms=1000.0)
        assert ds.labels[0] == 2

    @pytest.mark.parametrize("step_ms", [0.0, -100.0, 4.0])
    def test_step_below_one_sample_rejected(self, step_ms):
        # at 100 Hz a 4 ms step rounds to 0 samples
        block = SignalBlock(np.zeros((100, 1)), fs=100.0, labels=np.ones(100, int))
        with pytest.raises(ValueError, match="step"):
            mav_window(block, window_ms=400.0, step_ms=step_ms)

    def test_window_below_one_sample_rejected(self):
        # at 100 Hz a 4 ms window rounds to 0 samples
        block = SignalBlock(np.zeros((100, 1)), fs=100.0, labels=np.ones(100, int))
        with pytest.raises(ValueError, match="^window of 4.0 ms spans no samples at fs=100.0$"):
            mav_window(block, window_ms=4.0, step_ms=100.0)

    def test_labels_required(self):
        block = SignalBlock(np.zeros((100, 1)), fs=100.0)
        with pytest.raises(ValueError, match="^mav_window needs per-sample labels$"):
            mav_window(block, window_ms=400.0, step_ms=100.0)

    def test_window_longer_than_signal(self):
        block = SignalBlock(np.zeros((10, 1)), fs=100.0, labels=np.ones(10, int))
        with pytest.raises(ValueError):
            mav_window(block, window_ms=400.0, step_ms=100.0)


class TestPipeline:
    def test_zero_signal_gives_zero_features(self):
        block = SignalBlock(np.zeros((200, 2)), fs=100.0, labels=np.ones(200, int))
        ds = pipeline_rect_smooth(block, fc=2.0)
        assert np.allclose(ds.features, 0.0)
        assert ds.n_rows == 200

    def test_dc_offset_recovered(self):
        block = SignalBlock(
            np.full((4000, 1), -2.5), fs=1000.0, labels=np.ones(4000, int)
        )
        ds = pipeline_rect_smooth(block, fc=2.0)
        assert ds.features[-1, 0] == pytest.approx(2.5, rel=1e-6)

    def test_envelope_tracking(self, rng):
        fs = 2000.0
        t = np.arange(int(6 * fs)) / fs
        envelope = 1.0 + 0.8 * np.sin(2 * math.pi * 0.25 * t)
        noise = rng.standard_normal(t.shape[0])
        block = SignalBlock(
            (envelope * noise)[:, None], fs=fs, labels=np.ones(t.shape[0], int)
        )
        ds = pipeline_rect_smooth(block, fc=2.0)
        trace = ds.features[int(fs):, 0]  # skip the first second
        target = envelope[int(fs):]
        corr = np.corrcoef(trace, target)[0, 1]
        assert corr > 0.95

    def test_empty_block_gives_empty_dataset(self):
        block = SignalBlock(np.empty((0, 2)), fs=100.0, labels=np.empty(0, int))
        ds = pipeline_rect_smooth(block, fc=2.0)
        assert ds.n_rows == 0
        assert ds.features.shape == (0, 2)
        assert ds.labels.shape == ds.trials.shape == ds.participants.shape == (0,)

    def test_labels_required(self):
        block = SignalBlock(np.zeros((10, 1)), fs=100.0)
        with pytest.raises(ValueError):
            pipeline_rect_smooth(block, fc=2.0)
