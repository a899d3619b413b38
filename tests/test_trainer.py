import numpy as np
import pytest

from watchlab.data_model import Dataset, Interaction
from watchlab.trainer import (
    FMModel,
    TrainConfig,
    Vocabulary,
    bce_grad,
    bce_loss,
    build_vocab,
    encode,
    fm_score_bruteforce,
    train,
)


def pair_dataset(pairs, labels=None):
    rows = []
    for i, (u, v) in enumerate(pairs):
        rows.append(Interaction(u, v, 1.0, 10, timestamp=i,
                                true_interest=None if labels is None else labels[i]))
    return Dataset.from_rows(rows)


class TestVocabulary:
    def test_token_count(self):
        # 3 users + 3 items + 2 per-field unknowns
        ds = pair_dataset([("a", "x"), ("b", "y"), ("c", "z")])
        vocab = build_vocab(ds)
        assert len(vocab) == 8
        assert vocab.fields == ("user_id", "item_id")

    def test_unknown_fallback(self):
        vocab = build_vocab(pair_dataset([("a", "x")]))
        unseen = vocab.index("user_id", "zzz")
        assert unseen == vocab.index("user_id", "also-unseen")
        assert unseen != vocab.index("user_id", "a")

    def test_encode_shape_and_determinism(self):
        ds = pair_dataset([("a", "x"), ("b", "x")])
        vocab = build_vocab(ds)
        idx = encode(vocab, ds)
        assert idx.shape == (2, 2)
        assert np.array_equal(idx, encode(vocab, ds))
        assert idx[0, 1] == idx[1, 1]  # shared item token

    def test_feature_fields_tokenized(self):
        ds = Dataset.from_rows([Interaction("a", "x", 1.0, 10, features=(("tab", "2"),))])
        vocab = build_vocab(ds)
        assert vocab.fields == ("user_id", "item_id", "tab")
        assert len(vocab) == 6


class TestFmScore:
    def test_fresh_model_logit_is_near_zero(self):
        ds = pair_dataset([("a", "x")])
        model = FMModel(build_vocab(ds), k=4, seed=0)
        # bias and linear start at zero; only the tiny embedding dot remains
        assert abs(model.score_interactions(ds)[0]) < 1e-2

    def test_single_token_bias_plus_linear(self):
        ds = pair_dataset([("a", "x")])
        model = FMModel(build_vocab(ds), k=2, seed=0)
        model.bias = 0.7
        model.linear[:] = 0.0
        model.embeddings[:] = 0.0
        model.linear[model.vocab.index("user_id", "a")] = 0.3
        assert model.score_interactions(ds)[0] == pytest.approx(1.0)

    def test_pair_dot_product(self):
        ds = pair_dataset([("a", "x")])
        model = FMModel(build_vocab(ds), k=2, seed=0)
        model.embeddings[:] = 0.0
        model.embeddings[model.vocab.index("user_id", "a")] = [1.0, 2.0]
        model.embeddings[model.vocab.index("item_id", "x")] = [1.0, 1.0]
        assert model.score_interactions(ds)[0] == pytest.approx(3.0)

    def test_identity_matches_bruteforce(self):
        ds = Dataset.from_rows([
            Interaction(f"u{i % 4}", f"i{i % 5}", 1.0, 10,
                        features=(("tab", str(i % 3)),))
            for i in range(30)
        ])
        vocab = build_vocab(ds)
        model = FMModel(vocab, k=6, seed=3)
        model.bias = 0.2
        rng = np.random.default_rng(7)
        model.linear = rng.normal(0, 1, len(vocab))
        model.embeddings = rng.normal(0, 1, (len(vocab), 6))
        idx = encode(vocab, ds)
        fast = model.score(idx)
        slow = np.array([fm_score_bruteforce(model, row) for row in idx])
        assert np.abs(fast - slow).max() < 1e-9

    def test_checkpoint_round_trip(self, tmp_path):
        ds = pair_dataset([("a", "x"), ("b", "y")])
        model = FMModel(build_vocab(ds), k=3, seed=1)
        model.bias = -0.4
        path = tmp_path / "model.json"
        model.save(path)
        back = FMModel.load(path)
        assert np.allclose(back.score_interactions(ds), model.score_interactions(ds))


class TestBce:
    def test_symmetric_point(self):
        # logit 0 against any label costs log 2
        assert bce_loss(np.zeros(4), np.array([0.0, 0.3, 0.7, 1.0])) == pytest.approx(np.log(2.0))

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 3, 200)
        y = rng.uniform(0, 1, 200)
        p = 1 / (1 + np.exp(-z))
        naive = float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))
        assert bce_loss(z, y) == pytest.approx(naive, rel=1e-12)

    def test_extreme_logits_stay_finite(self):
        assert np.isfinite(bce_loss(np.array([1e4, -1e4]), np.array([0.0, 1.0])))

    def test_grad_against_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 2, 1000)
        y = rng.uniform(0, 1, 1000)
        g = bce_grad(z, y)
        h = 1e-6
        for i in range(0, 1000, 97):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            num = (bce_loss(zp, y) - bce_loss(zm, y)) * 1000 / (2 * h)
            assert g[i] == pytest.approx(num, rel=1e-5, abs=1e-8)


def toy_training_setup(seed=0, n=400):
    """Separable toy task: half the users love half the items."""
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for i in range(n):
        u, v = rng.integers(0, 8), rng.integers(0, 8)
        y = int((u < 4) == (v < 4))
        rows.append(Interaction(f"u{u}", f"i{v}", 1.0, 10, timestamp=i, true_interest=y))
        labels.append(float(y))
    ds = Dataset.from_rows(rows)
    return ds, np.array(labels)


class TestTrain:
    def test_lr_zero_leaves_model_unchanged(self):
        ds, y = toy_training_setup()
        model = FMModel(build_vocab(ds), k=4, seed=0)
        before = model.params()
        train(model, ds, y, ds, y.astype(int), TrainConfig(learning_rate=0.0, epochs=1))
        after = model.params()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert np.array_equal(before[2], after[2])

    def test_same_seed_same_model(self):
        ds, y = toy_training_setup()
        cfg = TrainConfig(epochs=3, seed=4)
        m1 = FMModel(build_vocab(ds), k=4, seed=1)
        m2 = FMModel(build_vocab(ds), k=4, seed=1)
        train(m1, ds, y, ds, y.astype(int), cfg)
        train(m2, ds, y, ds, y.astype(int), cfg)
        assert np.array_equal(m1.embeddings, m2.embeddings)
        assert np.array_equal(m1.linear, m2.linear)

    def test_fits_separable_toy_task(self):
        ds, y = toy_training_setup()
        model = FMModel(build_vocab(ds), k=8, seed=0)
        cfg = TrainConfig(learning_rate=0.05, batch_size=64, epochs=60, patience=60)
        hist = train(model, ds, y, ds, y.astype(int), cfg)
        # early stopping restores the best-GAUC snapshot, so judge the fit by
        # the loss trajectory rather than the restored parameters
        assert hist.train_loss[-1] < 0.05
        assert hist.best_val_gauc > 0.99

    def test_loss_trends_down(self):
        ds, y = toy_training_setup(seed=3)
        model = FMModel(build_vocab(ds), k=4, seed=0)
        hist = train(model, ds, y, ds, y.astype(int),
                     TrainConfig(learning_rate=0.05, batch_size=64, epochs=10, patience=10))
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_early_stopping_restores_best(self):
        ds, y = toy_training_setup(seed=6)
        model = FMModel(build_vocab(ds), k=4, seed=0)
        cfg = TrainConfig(learning_rate=0.05, batch_size=64, epochs=40, patience=1)
        hist = train(model, ds, y, ds, y.astype(int), cfg)
        assert hist.best_epoch <= len(hist.val_gauc) - 1
        assert hist.best_val_gauc == max(hist.val_gauc)

    def test_misaligned_labels_rejected(self):
        ds, y = toy_training_setup()
        model = FMModel(build_vocab(ds), k=2, seed=0)
        with pytest.raises(ValueError):
            train(model, ds, y[:-1], ds, y.astype(int), TrainConfig(epochs=1))
