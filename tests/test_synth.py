"""Synthetic dataset generator: determinism, invariants, heterogeneity."""

import math

import pytest

from fixtures_util import beta_instability_run

from blendfuse.core import ValidationError
from blendfuse.synth import SynthConfig, generate


class TestGenerate:
    def test_rows_are_valid_distributions(self):
        cfg = SynthConfig(n_actors=8, clips_per_actor=20, noise_sigma=0.4, seed=1)
        ds = generate(cfg)
        # EmotionDistribution construction enforces the invariants; spot-check sums
        for clips in ds.predictions.rows.values():
            for clip in clips:
                assert abs(math.fsum(clip.values) - 1.0) <= 1e-6
                assert min(clip.values) >= 0.0

    def test_same_seed_identical(self):
        cfg = SynthConfig(n_actors=5, clips_per_actor=15, noise_sigma=0.3, seed=9)
        a, b = generate(cfg), generate(cfg)
        assert a.records == b.records
        assert a.predictions == b.predictions
        assert dict(a.actor_gaps) == dict(b.actor_gaps)

    def test_different_seed_differs(self):
        base = dict(n_actors=5, clips_per_actor=15, noise_sigma=0.3)
        a = generate(SynthConfig(seed=1, **base))
        b = generate(SynthConfig(seed=2, **base))
        assert a.predictions != b.predictions

    def test_all_single_mix(self):
        cfg = SynthConfig(n_actors=4, clips_per_actor=10, label_mix=(1.0, 0.0, 0.0), seed=3)
        ds = generate(cfg)
        assert all(r.annotation.secondary is None for r in ds.records)

    def test_noiseless_gap_is_exact(self):
        cfg = SynthConfig(
            n_actors=3,
            clips_per_actor=12,
            label_mix=(0.0, 0.0, 1.0),
            actor_gap_range=(0.3, 0.3),
            noise_sigma=0.0,
            seed=4,
        )
        ds = generate(cfg)
        for clips in ds.predictions.rows.values():
            values = sorted(clips[0].values, reverse=True)
            assert abs((values[0] - values[1]) - 0.3) <= 1e-12

    def test_label_proportions_follow_mix(self):
        cfg = SynthConfig(n_actors=20, clips_per_actor=120, noise_sigma=0.2, seed=5)
        ds = generate(cfg)
        n = len(ds.records)
        assert n >= 2000
        singles = sum(1 for r in ds.records if r.annotation.secondary is None) / n
        even = sum(1 for r in ds.records if r.annotation.salience_primary == 50) / n
        blends = sum(1 for r in ds.records if r.annotation.salience_primary == 70) / n
        assert abs(singles - 0.46) <= 0.03
        assert abs(even - 0.18) <= 0.03
        assert abs(blends - 0.36) <= 0.03

    def test_gap_range_respected(self):
        cfg = SynthConfig(n_actors=30, clips_per_actor=2, actor_gap_range=(0.1, 0.2), seed=6)
        ds = generate(cfg)
        assert all(0.1 <= g <= 0.2 for g in ds.actor_gaps.values())

    def test_bad_configs_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(label_mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            SynthConfig(label_mix=(0.5, 0.5))
        with pytest.raises(ValidationError):
            SynthConfig(actor_gap_range=(0.0, 0.4))
        with pytest.raises(ValidationError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ValidationError):
            generate(SynthConfig(actor_gap_range=(0.81, 0.81)))


class TestHeterogeneity:
    def test_gap_spread_drives_fold_beta_spread(self):
        alphas, betas = beta_instability_run(0.05, 0.45)
        assert min(betas) > 0
        assert max(betas) / min(betas) >= 3.0
        assert max(alphas) - min(alphas) <= 0.05

    def test_degenerate_gap_gives_stable_beta(self):
        alphas, betas = beta_instability_run(0.25, 0.25)
        assert max(betas) - min(betas) <= 0.01 + 1e-12
        assert max(alphas) - min(alphas) <= 0.05
