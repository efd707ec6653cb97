import math

import numpy as np
import pytest

from fairmetric.core import (
    COMPAS_SCALE,
    SURVEY_SCALE,
    ExperimentConfig,
    LabeledDataset,
    MahalanobisMetric,
    RatingScale,
    TripletSet,
    subseed,
)
from fairmetric.errors import ConfigurationError, InvariantError
from fairmetric.ingest import attach_labels, standardize

from conftest import SurveyRow, pair_distance, random_spd, survey_table


def test_distance_identity_is_euclidean():
    m = MahalanobisMetric.identity(2)
    assert pair_distance(m, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_distance_point_to_itself_is_zero():
    m = MahalanobisMetric(random_spd(np.random.default_rng(0), 3))
    x = np.array([1.2, -0.5, 3.3])
    assert pair_distance(m, x, x) == 0.0


def test_distance_diagonal_hand_computed():
    # (1,1) under diag(4,1): 4*1 + 1*1 = 5
    m = MahalanobisMetric(np.diag([4.0, 1.0]))
    assert pair_distance(m, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(5.0))


def test_squared_distance_identity_example():
    m = MahalanobisMetric.identity(2)
    assert pair_distance(m, (0.0, 0.0), (3.0, 4.0)) ** 2 == pytest.approx(25.0)
    assert pair_distance(m, (1.0, 2.0), (1.0, 2.0)) == 0.0


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = MahalanobisMetric(random_spd(rng, 3))
        x, y, z = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        assert pair_distance(m, x, y) == pytest.approx(pair_distance(m, y, x), abs=1e-12)
        assert pair_distance(m, x, z) <= pair_distance(m, x, y) + pair_distance(m, y, z) + 1e-9


def test_metric_rejects_asymmetric_matrix():
    with pytest.raises(InvariantError):
        MahalanobisMetric(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_metric_rejects_indefinite_matrix():
    with pytest.raises(InvariantError):
        MahalanobisMetric(np.diag([1.0, -0.5]))


def test_metric_tolerates_float_psd_slack():
    m = MahalanobisMetric(np.diag([1.0, -4e-9]))
    assert m.d == 2


def test_rating_scale_validation():
    with pytest.raises(ConfigurationError):
        RatingScale(5, 5)
    assert RatingScale(1, 5).contains(3)
    assert not RatingScale(1, 5).contains(6)


def test_dataset_label_bounds_checked():
    with pytest.raises(ConfigurationError):
        LabeledDataset(np.zeros((3, 2)), [1, 2, 6], RatingScale(1, 5), ("a", "b"))


def test_dataset_rejects_nonfinite_features():
    feats = np.zeros((3, 2))
    feats[1, 1] = np.nan
    with pytest.raises(ConfigurationError):
        LabeledDataset(feats, [1, 2, 3], RatingScale(1, 5), ("a", "b"))


def test_dataset_subset_keeps_order_and_ids():
    ds = LabeledDataset(
        np.arange(8.0).reshape(4, 2),
        [1, 2, 3, 4],
        COMPAS_SCALE,
        ("a", "b"),
        source_tag="defendants:d.csv",
        ids=("w", "x", "y", "z"),
    )
    sub = ds.subset([2, 0])
    assert sub.ids == ("y", "w")
    assert sub.labels.tolist() == [3, 1]
    assert sub.features[0, 0] == 4.0
    # each derived dataset keeps every field it does not set
    kept = ("feature_names", "source_tag", "scale")
    assert [getattr(sub, name) for name in kept] == [getattr(ds, name) for name in kept]
    z, _ = standardize(sub)
    assert [getattr(z, name) for name in kept + ("ids",)] == [
        getattr(sub, name) for name in kept + ("ids",)
    ]
    assert z.labels.tolist() == [3, 1]
    survey = survey_table([SurveyRow("r", "y", 5, True, 3, False), SurveyRow("r", "w", 2, False, 3, True)])
    labeled = attach_labels(ds, survey, "pooled_median")
    assert labeled.ids == ("w", "y")  # in defendant-table order
    assert labeled.labels.tolist() == [2, 5]
    assert labeled.features.tolist() == ds.features[[0, 2]].tolist()
    assert labeled.feature_names == ds.feature_names
    assert labeled.scale == SURVEY_SCALE
    assert labeled.source_tag == "defendants:d.csv|labels:pooled_median"


def test_dataset_arrays_are_readonly():
    ds = LabeledDataset(np.zeros((2, 2)), [1, 2], RatingScale(1, 5), ("a", "b"))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0


def test_triplet_set_validates_rows():
    with pytest.raises(ConfigurationError):
        TripletSet(np.array([[0, 0, 2]]))
    ts = TripletSet(np.array([[0, 1, 2], [2, 1, 0]]))
    assert len(ts) == 2


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(train_size=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(triplet_variant="nope")
    for bad in (
        {"k_neighbors": 6, "train_size": 5},
        {"lmnn_k_targets": 0},
        {"lsml_max_iter": 0},
        {"lmnn_max_iter": 0},
        {"mmc_max_iter": 0},
        {"lsml_tol": -1e-6},
        {"lmnn_tol": -1e-6},
        {"mmc_tol": -1e-6},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"sigma_train": float("nan")},
        {"sigma_test": float("inf")},
        {"lsml_tol": float("nan")},
        {"lmnn_tol": float("inf")},
        {"mmc_tol": float("nan")},
        {"rng_seed": -1},
        {"train_size": 1, "k_neighbors": 1},
        {"test_size": 1},
    ):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**bad)
    for key in ("train_size", "test_size"):  # below 2, the message names the key
        with pytest.raises(ConfigurationError, match=f"^{key} must be >= 2"):
            ExperimentConfig(**{key: 1, "k_neighbors": 1})
    ExperimentConfig(k_neighbors=5, train_size=5, lsml_tol=0.0)
    cfg = ExperimentConfig()
    assert (cfg.train_size, cfg.test_size, cfg.n_repeats, cfg.k_neighbors) == (140, 60, 10, 5)
    assert cfg.alpha == 0.01


def test_subseed_streams_are_independent_and_stable():
    a = subseed(7, 0, 0).integers(0, 1 << 30, 4)
    b = subseed(7, 0, 0).integers(0, 1 << 30, 4)
    c = subseed(7, 1, 0).integers(0, 1 << 30, 4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
