"""Synthetic generator: determinism, factor disentanglement, bin prior,
and bitwise agreement with the per-sample reference loop."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from agecontrast.errors import ConfigError
from agecontrast.synth import (SynthConfig, age_curve, feasible_bins, generate_dataset,
                               save_ground_truth)

from conftest import make_dataset, prior_baseline_mae


def generate_dataset_loop(cfg, seed):
    """The reference generator: per sample, ``Generator.choice`` over the
    bins, an age in the bin, ``age_curve`` and the noise row. Returns
    inputs, ages, identities and the identity codes."""
    bins = feasible_bins(cfg)
    probs = np.array([w for _, _, w in bins])
    child_seeds = np.random.SeedSequence(seed).spawn(cfg.num_identities)
    num_samples = cfg.num_identities * cfg.samples_per_identity
    inputs = np.zeros((num_samples, cfg.input_dim))
    ages = np.empty(num_samples, dtype=np.int64)
    codes, identities = {}, []
    for i in range(cfg.num_identities):
        ident = f"id{i:05d}"
        rng = np.random.default_rng(child_seeds[i])
        code = rng.normal(0.0, 1.0, cfg.identity_dims)
        codes[ident] = code
        for _ in range(cfg.samples_per_identity):
            b = int(rng.choice(len(bins), p=probs))
            lo, hi, _ = bins[b]
            age = int(rng.integers(lo, hi + 1))
            x = inputs[len(identities)]
            x[:cfg.identity_dims] = code
            x[cfg.identity_dims:cfg.identity_dims + cfg.age_dims] = age_curve(age, cfg)
            x += cfg.noise_std * rng.standard_normal(cfg.input_dim)
            ages[len(identities)] = age
            identities.append(ident)
    return inputs, ages, identities, codes


@st.composite
def synth_configs(draw):
    """Small configs over every bin layout: num_ages 2-100 drops bins, and
    a weight may be zero."""
    identity_dims, age_dims = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = draw(st.none() | st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 7469.0])] * 4))
    return SynthConfig(num_identities=draw(st.integers(2, 5)),
                       samples_per_identity=draw(st.integers(1, 6)),
                       num_ages=draw(st.integers(2, 100)),
                       input_dim=identity_dims + age_dims + draw(st.integers(0, 3)),
                       identity_dims=identity_dims, age_dims=age_dims,
                       noise_std=draw(st.sampled_from([0.0, 0.1, 2.5])),
                       age_bin_weights=None if weights is None or sum(weights) == 0 else weights)


@settings(max_examples=150, deadline=None)
@given(synth_configs(), st.integers(0, 2 ** 32))
def test_matches_the_per_sample_loop_bitwise(cfg, seed):
    try:
        inputs, ages, identities, codes = generate_dataset_loop(cfg, seed)
    except ConfigError:  # every bin in range has zero weight
        with pytest.raises(ConfigError, match="no feasible age bin"):
            generate_dataset(cfg, seed)
        return
    ds, truth = generate_dataset(cfg, seed)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.ages.tobytes() == ages.tobytes() == truth.sample_ages.tobytes()
    assert ds.identities == identities == truth.sample_identities
    assert list(truth.identity_codes) == list(codes)
    assert all(truth.identity_codes[k].tobytes() == v.tobytes() for k, v in codes.items())


NOISELESS = SynthConfig(num_identities=20, samples_per_identity=6, num_ages=30,
                        input_dim=20, identity_dims=8, age_dims=4, noise_std=0.0)


def test_bitwise_determinism():
    cfg = SynthConfig(num_identities=8, samples_per_identity=3, num_ages=12,
                      input_dim=10, identity_dims=4, age_dims=2, noise_std=0.2)
    (a, ta), (b, tb) = generate_dataset(cfg, 42), generate_dataset(cfg, 42)
    npt.assert_array_equal(a.inputs, b.inputs)
    npt.assert_array_equal(a.ages, b.ages)
    assert a.identities == b.identities
    npt.assert_array_equal(ta.sample_ages, tb.sample_ages)
    (c, _) = generate_dataset(cfg, 43)[0], None
    assert not np.array_equal(a.inputs, c.inputs)


def test_noiseless_same_identity_same_age_identical():
    ds, truth = generate_dataset(NOISELESS, 1)
    by_key = {}
    for i in range(len(ds)):
        by_key.setdefault((ds.identities[i], int(ds.ages[i])), []).append(i)
    repeated = [idx for idx in by_key.values() if len(idx) > 1]
    assert repeated, "fixture should contain repeated (identity, age) pairs"
    for idx in repeated:
        for j in idx[1:]:
            npt.assert_array_equal(ds.inputs[idx[0]], ds.inputs[j])


def test_noiseless_age_changes_only_age_block():
    cfg = NOISELESS
    ds, _ = generate_dataset(cfg, 2)
    lo, hi = cfg.identity_dims, cfg.identity_dims + cfg.age_dims
    for ident in ds.unique_identities():
        idx = ds.indices_of_identity(ident)
        base = ds.inputs[idx[0]]
        for j in idx[1:]:
            other = ds.inputs[j]
            npt.assert_array_equal(base[:lo], other[:lo])
            npt.assert_array_equal(base[hi:], other[hi:])
            if ds.ages[j] != ds.ages[idx[0]]:
                assert not np.array_equal(base[lo:hi], other[lo:hi])


def test_noiseless_identity_recovered_by_nearest_centroid():
    cfg = NOISELESS
    ds, truth = generate_dataset(cfg, 3)
    idents = ds.unique_identities()
    centroids = np.stack([truth.identity_codes[i] for i in idents])
    block = ds.inputs[:, :cfg.identity_dims]
    picked = np.argmin(((block[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert all(idents[picked[i]] == ds.identities[i] for i in range(len(ds)))


def test_noiseless_age_rank_order_recovered():
    cfg = NOISELESS
    ds, _ = generate_dataset(cfg, 4)
    for k in range(cfg.age_dims):
        coord = ds.inputs[:, cfg.identity_dims + k]
        for i in range(len(ds)):
            for j in range(len(ds)):
                if ds.ages[i] < ds.ages[j]:
                    assert coord[i] < coord[j]
                elif ds.ages[i] == ds.ages[j]:
                    assert coord[i] == coord[j]


def test_bin_frequencies_match_prior_chi_square():
    from scipy import stats

    weights = (0.3, 0.4, 0.2, 0.1)
    cfg = SynthConfig(num_identities=100, samples_per_identity=100, num_ages=60,
                      input_dim=4, identity_dims=2, age_dims=1, noise_std=0.0,
                      age_bin_weights=weights)
    ds, _ = generate_dataset(cfg, 11)
    edges = [(1, 19), (20, 39), (40, 59), (60, 60)]
    counts = np.array([np.sum((ds.ages >= lo) & (ds.ages <= hi)) for lo, hi in edges])
    assert counts.sum() == len(ds) == 10_000
    _, p = stats.chisquare(counts, len(ds) * np.array(weights))
    assert p > 0.01


def test_default_bins_normalized_and_feasible():
    bins = feasible_bins(SynthConfig())
    assert len(bins) == 4
    assert sum(w for _, _, w in bins) == pytest.approx(1.0, rel=1e-12)
    assert bins[-1][:2] == (60, 60)


def test_small_age_range_drops_infeasible_bins():
    bins = feasible_bins(SynthConfig(num_ages=25))
    assert [b[:2] for b in bins] == [(1, 19), (20, 25)]
    assert sum(w for _, _, w in bins) == pytest.approx(1.0, rel=1e-12)


class TestPriorBaseline:
    def test_constant_labels(self):
        ds = make_dataset([4, 4, 4], list("ABC"), num_ages=9)
        assert prior_baseline_mae(ds) == 0.0

    def test_three_labels(self):
        ds = make_dataset([1, 1, 3], list("ABC"), num_ages=9)
        assert prior_baseline_mae(ds) == pytest.approx(2 / 3, rel=1e-12)

    def test_uniform_one_to_nine(self):
        ds = make_dataset(list(range(1, 10)), list("ABCDEFGHI"), num_ages=9)
        assert prior_baseline_mae(ds) == pytest.approx(20 / 9, rel=1e-12)
        assert prior_baseline_mae(ds) == pytest.approx(2.22, abs=5e-3)


def test_config_validation():
    with pytest.raises(ConfigError, match="identity_dims"):
        SynthConfig(input_dim=4, identity_dims=3, age_dims=2)
    with pytest.raises(ConfigError, match="num_identities"):
        SynthConfig(num_identities=1)
    with pytest.raises(ConfigError, match="age_bin_weights"):
        SynthConfig(age_bin_weights=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="noise_std"):
        SynthConfig(noise_std=-0.1)
    with pytest.raises(ConfigError, match="seed"):
        SynthConfig(seed=-1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_bin_weight_is_rejected(bad):
    # inf or nan passes the sign and sum checks but would break the age draw
    with pytest.raises(ConfigError, match="age_bin_weights"):
        SynthConfig(age_bin_weights=(bad, 1.0, 1.0, 1.0))


def test_ground_truth_sidecar_round_trip(tmp_path):
    cfg = SynthConfig(num_identities=5, samples_per_identity=2, num_ages=10,
                      input_dim=8, identity_dims=3, age_dims=2)
    _, truth = generate_dataset(cfg, 21)
    path = tmp_path / "truth.json"
    save_ground_truth(truth, path)
    loaded = json.loads(path.read_text())
    assert loaded["sample_identities"] == truth.sample_identities
    npt.assert_array_equal(loaded["sample_ages"], truth.sample_ages)
    assert loaded["identity_codes"].keys() == truth.identity_codes.keys()
    for k, v in truth.identity_codes.items():
        npt.assert_array_equal(loaded["identity_codes"][k], v)
    # The JSON lists hold exactly the per-element Python numbers.
    assert path.read_text() == json.dumps({
        "identity_codes": {k: [float(v) for v in a] for k, a in truth.identity_codes.items()},
        "sample_identities": truth.sample_identities,
        "sample_ages": [int(a) for a in truth.sample_ages]}, indent=1) + "\n"


def test_default_config_shape():
    ds, _ = generate_dataset(SynthConfig(), 0)
    assert len(ds) == 1000 and ds.input_dim == 64 and ds.num_ages == 60
