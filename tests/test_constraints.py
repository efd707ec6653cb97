import numpy as np
import pytest

from fairmetric.constraints import _valid_c, _valid_c_counts, sample_triplets
from fairmetric.errors import ConfigurationError
from fairmetric.reference import build_pairs, build_triplets, subsample_triplets

from conftest import brute_pairs, brute_triplets, make_dataset, toy


def test_build_pairs_small_example():
    ps = build_pairs(toy(np.zeros((3, 1)), [1, 1, 2]))
    assert {tuple(p) for p in ps.similar} == {(0, 1)}
    assert {tuple(p) for p in ps.dissimilar} == {(0, 2), (1, 2)}


def test_build_pairs_all_equal():
    ps = build_pairs(toy(np.zeros((4, 1)), [3, 3, 3, 3]))
    assert ps.n_similar == 6
    assert ps.n_dissimilar == 0


def test_build_pairs_matches_brute_force_and_partitions():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, 50, 2)
    ps = build_pairs(ds)
    sim, dis = brute_pairs(ds.labels.tolist())
    assert {tuple(p) for p in ps.similar} == sim
    assert {tuple(p) for p in ps.dissimilar} == dis
    assert ps.n_similar + ps.n_dissimilar == 50 * 49 // 2


def test_literal_triplets_small_example():
    ts = build_triplets(toy(np.zeros((3, 1)), [2, 2, 4]), sigma=1.0, variant="literal")
    assert {tuple(t) for t in ts.indices} == {(0, 1, 2), (1, 0, 2)}


def test_literal_triplets_empty_when_sigma_spans_scale():
    ts = build_triplets(toy(np.zeros((5, 1)), [1, 2, 3, 4, 5]), sigma=5.0, variant="literal")
    assert len(ts) == 0


def test_symmetric_triplet_example():
    ts = build_triplets(toy(np.zeros((3, 1)), [1, 2, 5]), sigma=0.0, variant="symmetric")
    assert (0, 1, 2) in {tuple(t) for t in ts.indices}


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_triplets_match_brute_force(variant):
    rng = np.random.default_rng(1)
    for trial in range(12):
        n = int(rng.integers(3, 21))
        ds = make_dataset(rng, n, 2)
        sigma = float(rng.choice([0.0, 1.0, 2.0]))
        ts = build_triplets(ds, sigma, variant)
        expected = brute_triplets(ds.labels.tolist(), sigma, variant)
        assert {tuple(t) for t in ts.indices} == expected


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_every_emitted_triplet_satisfies_predicate(variant):
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, 30, 2)
    ts = build_triplets(ds, 1.0, variant)
    s = ds.labels
    for a, b, c in ts.indices:
        if variant == "literal":
            assert s[a] <= s[b] + 1.0 < s[c]
        else:
            assert abs(s[a] - s[b]) + 1.0 < abs(s[a] - s[c])


def test_triplets_canonical_order():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, 15, 2)
    idx = build_triplets(ds, 0.0).indices
    keys = [tuple(row) for row in idx]
    assert keys == sorted(keys)


def test_literal_sigma_zero_only_orders_by_label():
    ds = toy(np.zeros((4, 1)), [1, 1, 3, 5])
    ts = build_triplets(ds, 0.0, "literal")
    s = ds.labels
    assert all(s[b] < s[c] for _, b, c in ts.indices)


def test_subsample_full_set_when_m_large():
    ds = toy(np.zeros((4, 1)), [1, 2, 3, 4])
    ts = build_triplets(ds, 0.0)
    sub = subsample_triplets(ts, 10_000, seed=0)
    assert {tuple(t) for t in sub.indices} == {tuple(t) for t in ts.indices}


def test_subsample_single_and_determinism():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 20, 2)
    ts = build_triplets(ds, 0.0)
    one = subsample_triplets(ts, 1, seed=11)
    assert len(one) == 1
    assert tuple(one.indices[0]) in {tuple(t) for t in ts.indices}
    again = subsample_triplets(ts, 50, seed=11)
    twice = subsample_triplets(ts, 50, seed=11)
    assert np.array_equal(again.indices, twice.indices)


def test_build_triplets_rejects_tiny_dataset_and_negative_sigma():
    ds = toy(np.zeros((3, 1)), [1, 2, 3])
    with pytest.raises(ConfigurationError):
        build_triplets(toy(np.zeros((2, 1)), [1, 2]), 0.0)
    with pytest.raises(ConfigurationError):
        build_triplets(ds, -1.0)
    with pytest.raises(ConfigurationError):
        build_triplets(ds, 0.0, "bogus")


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
def test_sample_triplets_equals_subsampled_enumeration(variant, sigma):
    rng = np.random.default_rng(5)
    datasets = [make_dataset(rng, int(rng.integers(3, 31)), 2) for _ in range(6)]
    datasets.append(toy(np.zeros((5, 1)), [3, 3, 3, 3, 3]))  # no triplets at any sigma
    datasets.append(toy(np.zeros((5, 1)), [1, 2, 3, 4, 5]))  # all labels distinct
    for ds in datasets:
        full = build_triplets(ds, sigma, variant)
        for m in sorted({1, max(1, len(full) // 3), max(1, len(full)), len(full) + 7}):
            seed = int(rng.integers(2**31))
            expected = subsample_triplets(full, m, seed)
            got = sample_triplets(ds, sigma, m, seed, variant)
            assert np.array_equal(got.indices, expected.indices)
    assert len(build_triplets(datasets[-2], sigma, variant)) == 0


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
def test_valid_c_counts_are_the_rule_summed(variant, sigma):
    rng = np.random.default_rng(6)
    folds = [make_dataset(rng, int(rng.integers(3, 31)), 2) for _ in range(6)]
    folds.append(toy(np.zeros((5, 1)), [3, 3, 3, 3, 3]))  # a single label
    folds.append(toy(np.zeros((3, 1)), [1, 2, 4]))  # n = 3
    folds.append(toy(np.zeros((3, 1)), [2, 2, 2]))
    for ds in folds:
        labels = ds.labels.astype(float)
        a, b = np.indices((ds.n, ds.n))
        summed = np.where(a == b, 0, _valid_c(labels, sigma, variant, a, b).sum(axis=-1))
        assert np.array_equal(_valid_c_counts(labels, sigma, variant), summed)


def test_sample_triplets_rejects_what_build_and_subsample_reject():
    ds = toy(np.zeros((3, 1)), [1, 2, 3])
    with pytest.raises(ConfigurationError):
        sample_triplets(toy(np.zeros((2, 1)), [1, 2]), 0.0, 5, seed=0)
    with pytest.raises(ConfigurationError):
        sample_triplets(ds, -1.0, 5, seed=0)
    with pytest.raises(ConfigurationError):
        sample_triplets(ds, 0.0, 5, seed=0, variant="bogus")
    with pytest.raises(ConfigurationError):
        sample_triplets(ds, 0.0, 0, seed=0)
