"""Soft-label encoding and KL loss/gradient against independent oracles."""

import itertools
import math

import numpy as np
import pytest

from blendfuse.core import BlendAnnotation, Emotion, EmotionDistribution, ValidationError
from blendfuse.labels import (
    SoftLabel,
    encode_soft_label,
    kl_grad_logits,
    kl_loss,
    mean_kl,
    soft_label_rows,
    softmax,
)

RNG_SOFT_KINDS = ("single", "7030", "5050")


def random_soft_label(rng: np.random.Generator) -> SoftLabel:
    kind = RNG_SOFT_KINDS[int(rng.integers(3))]
    values = [0.0] * 6
    i = int(rng.integers(6))
    j = int((i + 1 + rng.integers(5)) % 6)
    if kind == "single":
        values[i] = 1.0
    elif kind == "7030":
        values[i], values[j] = 0.7, 0.3
    else:
        values[i], values[j] = 0.5, 0.5
    return SoftLabel(tuple(values))


class TestSoftLabel:
    def test_valid_supports(self):
        SoftLabel((1, 0, 0, 0, 0, 0))
        SoftLabel((0.7, 0, 0.3, 0, 0, 0))
        SoftLabel((0, 0.5, 0, 0, 0, 0.5))

    def test_invalid_support_rejected(self):
        with pytest.raises(ValidationError):
            SoftLabel((0.6, 0.4, 0, 0, 0, 0))
        with pytest.raises(ValidationError):
            SoftLabel((0.4, 0.3, 0.3, 0, 0, 0))

    def test_encode_70_30(self):
        ann = BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70)
        assert encode_soft_label(ann).values == (0.7, 0, 0.3, 0, 0, 0)

    def test_encode_single(self):
        ann = BlendAnnotation(Emotion.HAPPINESS, None, 100)
        assert encode_soft_label(ann).values == (0, 0, 0, 1, 0, 0)

    def test_encode_50_50(self):
        ann = BlendAnnotation(Emotion.DISGUST, Emotion.SURPRISE, 50)
        assert encode_soft_label(ann).values == (0, 0.5, 0, 0, 0, 0.5)

    def test_encode_always_valid_and_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            soft = random_soft_label(rng)
            encoded = encode_soft_label(_annotation_of(soft))
            assert encoded == soft
            assert math.fsum(encoded.values) == 1.0


def _annotation_of(soft: SoftLabel) -> BlendAnnotation:
    nz = [(v, i) for i, v in enumerate(soft.values) if v > 0]
    if len(nz) == 1:
        return BlendAnnotation(Emotion(nz[0][1]), None, 100)
    nz.sort(reverse=True)
    if nz[0][0] == 0.7:
        return BlendAnnotation(Emotion(nz[0][1]), Emotion(nz[1][1]), 70)
    lo, hi = sorted(i for _, i in nz)
    return BlendAnnotation(Emotion(lo), Emotion(hi), 50)


def test_soft_label_rows_match_encode_soft_label_on_every_outcome():
    # The 51 canonical outcomes: 6 singles, 15 blends at 50/50 and 30 at 70/30.
    annotations = [
        *(BlendAnnotation(e) for e in Emotion),
        *(BlendAnnotation(a, b, 50) for a, b in itertools.combinations(Emotion, 2)),
        *(BlendAnnotation(a, b, 70) for a, b in itertools.permutations(Emotion, 2)),
    ]
    assert len(annotations) == 51
    codes = [(a.primary, -1 if a.secondary is None else a.secondary, a.salience_primary) for a in annotations]
    rows = soft_label_rows(*(np.array(c, dtype=np.int8) for c in zip(*codes)))
    assert rows.dtype == np.float64 and rows.shape == (51, 6)
    assert rows.tobytes() == np.array([encode_soft_label(a).values for a in annotations]).tobytes()
    # Each share is the float literal of its ratio, bit for bit: 1 - 0.7 would not be 0.3.
    shares = {100: (1.0, None), 70: (0.7, 0.3), 50: (0.5, 0.5)}
    for row, a in zip(rows, annotations):
        expected = [0.0] * 6
        expected[a.primary], second = shares[a.salience_primary]
        if a.secondary is not None:
            expected[a.secondary] = second
        assert row.tobytes() == np.array(expected).tobytes()


class TestKlLoss:
    def test_zero_on_match(self):
        y = SoftLabel((0.7, 0, 0.3, 0, 0, 0))
        p = EmotionDistribution((0.7, 0, 0.3, 0, 0, 0))
        assert kl_loss(y, p) == 0.0

    def test_against_uniform(self):
        # 0.7*ln(4.2) + 0.3*ln(1.8), evaluated directly
        y = SoftLabel((0.7, 0, 0.3, 0, 0, 0))
        p = EmotionDistribution(tuple([1 / 6] * 6))
        expected = 0.7 * math.log(4.2) + 0.3 * math.log(1.8)
        assert kl_loss(y, p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.1808951671731616, abs=1e-12)

    def test_single_term_reduction(self):
        y = SoftLabel((0, 0, 0, 1, 0, 0))
        p = EmotionDistribution((0.1, 0.1, 0.1, 0.5, 0.1, 0.1))
        assert kl_loss(y, p) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            y = random_soft_label(rng)
            raw = rng.dirichlet(np.ones(6))
            p = EmotionDistribution(tuple(raw / raw.sum()))
            assert kl_loss(y, p) >= 0.0

    def test_rejects_nonfinite(self):
        y = SoftLabel((1, 0, 0, 0, 0, 0))
        with pytest.raises(ValidationError):
            kl_loss(y, [math.nan, 0, 0, 0, 0, 0])

    def test_batch_matches_scalar_mean(self):
        rng = np.random.default_rng(13)
        ys, ps = [], []
        for _ in range(16):
            ys.append(random_soft_label(rng).as_array())
            raw = rng.dirichlet(np.ones(6))
            ps.append(raw / raw.sum())
        batch = mean_kl(np.stack(ys), np.stack(ps))
        scalar = np.mean([kl_loss(y, p) for y, p in zip(ys, ps)])
        assert batch == pytest.approx(scalar, rel=1e-12)


class TestKlGradLogits:
    def test_zero_at_minimum(self):
        z = np.array([0.3, -0.8, 1.2, 0.0, -0.4, 0.7])
        y = softmax(z)
        grad = kl_grad_logits(y, z)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_closed_form_at_uniform(self):
        y = SoftLabel((0.7, 0, 0.3, 0, 0, 0))
        grad = kl_grad_logits(y, np.zeros(6))
        expected = np.array([1 / 6 - 0.7, 1 / 6, 1 / 6 - 0.3, 1 / 6, 1 / 6, 1 / 6])
        assert np.allclose(grad, expected, atol=1e-15)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(100):
            y = random_soft_label(rng)
            z = rng.uniform(-3, 3, 6)
            analytic = kl_grad_logits(y, z)
            numeric = np.empty(6)
            for i in range(6):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                numeric[i] = (kl_loss(y, softmax(zp)) - kl_loss(y, softmax(zm))) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5
