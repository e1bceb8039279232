"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import RetrievalDataset, Split
from repro.data.longtail import labels_from_sizes, zipf_class_sizes
from repro.data.synthetic import make_feature_model


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fingerprints(monkeypatch) -> list:
    """One entry per ``CodebookChain.parameter_fingerprint`` call — the hash
    over every chain parameter that each codebook resolve pays."""
    from repro.core.codebook import CodebookChain

    calls = []
    original = CodebookChain.parameter_fingerprint

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(CodebookChain, "parameter_fingerprint", counted)
    return calls


def build_tiny_dataset(
    num_classes: int = 6,
    dim: int = 12,
    head_size: int = 40,
    imbalance_factor: float = 10.0,
    n_query: int = 60,
    n_db: int = 180,
    separation: float = 3.0,
    intra_sigma: float = 0.6,
    seed: int = 7,
) -> RetrievalDataset:
    """A small, clearly separable long-tail retrieval dataset for tests."""
    model_rng = np.random.default_rng(seed)
    feature_model = make_feature_model(
        num_classes, dim, separation, intra_sigma, model_rng
    )
    train_sizes = zipf_class_sizes(num_classes, head_size, imbalance_factor)
    train_labels = labels_from_sizes(train_sizes, rng=seed + 1)
    query_labels = np.tile(np.arange(num_classes), n_query // num_classes)
    db_labels = np.tile(np.arange(num_classes), n_db // num_classes)
    return RetrievalDataset(
        name="tiny",
        num_classes=num_classes,
        target_imbalance_factor=imbalance_factor,
        train=Split(feature_model.sample(train_labels, seed + 2), train_labels),
        query=Split(feature_model.sample(query_labels, seed + 3), query_labels),
        database=Split(feature_model.sample(db_labels, seed + 4), db_labels),
        metadata={"modality": "image"},
    )


@pytest.fixture
def tiny_dataset() -> RetrievalDataset:
    return build_tiny_dataset()


@pytest.fixture
def tiny_text_dataset() -> RetrievalDataset:
    dataset = build_tiny_dataset(separation=2.5, intra_sigma=0.8, seed=11)
    dataset.metadata["modality"] = "text"
    return dataset
