"""Signal-to-feature pipeline: rectification, low-pass smoothing, windowed
mean absolute value.

Multichannel signal blocks are filtered per channel with small IIR
low-pass filters designed from the analog Butterworth prototype through
the bilinear transform (cutoff prewarped). Filtering is causal and
single-pass, matching a real-time envelope follower. Filter state starts
at the steady-state response of the first sample, which suppresses the
startup transient on short records.
"""

from dataclasses import dataclass
import math

import numpy as np

from .data import FeatureDataset

__all__ = [
    "SignalBlock",
    "FilterCoeffs",
    "butter2_coeffs",
    "rectify",
    "butterworth2_lowpass",
    "mav_window",
    "pipeline_rect_smooth",
]


@dataclass(frozen=True, eq=False)
class SignalBlock:
    """A block of multichannel samples at a fixed rate.

    ``labels`` optionally assigns a class id to every sample; ``trial``
    and ``participant`` tag the whole block.
    """

    samples: np.ndarray
    fs: float
    labels: np.ndarray = None
    trial: int = 1
    participant: int = 1

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be a (time, channels) matrix")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not 0 < self.fs < math.inf:
            raise ValueError("sampling rate must be positive and finite")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (samples.shape[0],):
                raise ValueError("labels must align with samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", float(self.fs))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trial", int(self.trial))
        object.__setattr__(self, "participant", int(self.participant))

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]

    def with_samples(self, samples):
        return SignalBlock(
            samples=samples,
            fs=self.fs,
            labels=self.labels,
            trial=self.trial,
            participant=self.participant,
        )


@dataclass(frozen=True)
class FilterCoeffs:
    """Biquad coefficients (numerator b, denominator a with a[0] = 1)."""

    b: tuple
    a: tuple

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        a = tuple(float(v) for v in self.a)
        if len(b) != 3 or len(a) != 3:
            raise ValueError("expected 3 numerator and 3 denominator taps")
        if a[0] != 1.0:
            raise ValueError("denominator must be normalized (a[0] = 1)")
        gain = sum(b) / sum(a)
        if abs(gain - 1.0) > 1e-12:
            raise ValueError(f"DC gain must be 1, got {gain!r}")
        poles = np.roots(a)
        if np.any(np.abs(poles) >= 1.0):
            raise ValueError(f"unstable filter, pole magnitudes {np.abs(poles)}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    def steady_state(self):
        # direct-form-II-transposed state for a unit constant input
        b0, b1, b2 = self.b
        _, a1, a2 = self.a
        return np.array([b1 + b2 - a1 - a2, b2 - a2])


def butter2_coeffs(fc, fs):
    """Second-order Butterworth low-pass, bilinear transform, prewarped cutoff.

    The numerator taps are derived from the rounded denominator sum rather
    than computed independently, which pins the DC gain to exactly 1 even
    when ``fc / fs`` is tiny and the denominator sum cancels catastrophically.
    """
    if not 0 < fc < fs / 2:
        raise ValueError(f"cutoff must satisfy 0 < fc < fs/2, got fc={fc}, fs={fs}")
    k = math.tan(math.pi * fc / fs)
    k2 = k * k
    root2 = math.sqrt(2.0)
    denom = k2 + root2 * k + 1.0
    a1 = 2.0 * (k2 - 1.0) / denom
    a2 = (k2 - root2 * k + 1.0) / denom
    a_sum = 1.0 + a1 + a2  # 4 k^2 / denom up to rounding
    b = (a_sum / 4.0, a_sum / 2.0, a_sum / 4.0)
    return FilterCoeffs(b=b, a=(1.0, a1, a2))


def rectify(block):
    """Elementwise absolute value; shape preserved, idempotent."""
    return block.with_samples(np.abs(block.samples))


def butterworth2_lowpass(block, fc):
    """Per-channel second-order Butterworth low-pass smoothing."""
    coeffs = butter2_coeffs(fc, block.fs)
    x = block.samples
    if not x.shape[0]:
        return block.with_samples(x)
    # imported here: scipy.signal pulls in scipy.stats, which the CLI never needs
    from scipy.signal import lfilter

    zi = np.outer(coeffs.steady_state(), x[0])
    y, _ = lfilter(coeffs.b, coeffs.a, x, axis=0, zi=zi)
    return block.with_samples(y)


def _majority_label(values):
    counts = np.bincount(values)
    return int(np.argmax(counts))


def mav_window(block, window_ms, step_ms):
    """Windowed mean absolute value per channel.

    Windows of ``window_ms`` advance by ``step_ms``; each yields one
    feature row whose label is the majority label within the window.
    Produces ``floor((T - window) / step) + 1`` rows.
    """
    if block.labels is None:
        raise ValueError("mav_window needs per-sample labels")
    window = int(round(window_ms * block.fs / 1000.0))
    step = int(round(step_ms * block.fs / 1000.0))
    if window < 1:
        raise ValueError(f"window of {window_ms} ms spans no samples at fs={block.fs}")
    if step < 1:
        raise ValueError(f"step of {step_ms} ms spans no samples at fs={block.fs}")
    t = block.n_samples
    if window > t:
        raise ValueError(f"window of {window} samples exceeds signal length {t}")
    n_windows = (t - window) // step + 1
    feats = np.empty((n_windows, block.n_channels))
    labels = np.empty(n_windows, dtype=int)
    rect = np.abs(block.samples)
    for w in range(n_windows):
        lo = w * step
        hi = lo + window
        feats[w] = rect[lo:hi].mean(axis=0)
        labels[w] = _majority_label(block.labels[lo:hi])
    return FeatureDataset(
        features=feats,
        labels=labels,
        trials=np.full(n_windows, block.trial),
        participants=np.full(n_windows, block.participant),
    )


def pipeline_rect_smooth(block, fc=2.0):
    """Rectify then low-pass; every sample becomes one feature row."""
    if block.labels is None:
        raise ValueError("pipeline_rect_smooth needs per-sample labels")
    smooth = butterworth2_lowpass(rectify(block), fc)
    return FeatureDataset(
        features=smooth.samples,
        labels=block.labels,
        trials=np.full(block.n_samples, block.trial),
        participants=np.full(block.n_samples, block.participant),
    )
