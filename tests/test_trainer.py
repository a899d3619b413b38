import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import watchlab.trainer
from watchlab.data_model import Dataset
from watchlab.errors import NonFiniteLoss
from watchlab.evaluation import gauc
from watchlab.trainer import (
    FMModel,
    StackHistory,
    TrainConfig,
    TrainHistory,
    Vocabulary,
    _Adam,
    _field_columns,
    bce_grad,
    bce_loss,
    build_vocab,
    encode,
    train,
)

from oracles import fm_score_bruteforce
from rows import rows_dataset


UNKNOWN = None  # value of a field's unknown token in the reference; no id string equals it


def reference_build_vocab(train):
    """The earlier dict-building build_vocab: {(field, value): token}, the
    tokens of each field in order of first appearance, then its unknown."""
    token_to_idx = {}
    for fld, table, codes in _field_columns(train):
        seen, first = np.unique(codes, return_index=True)
        for value in table[seen[np.argsort(first)]].tolist():
            token_to_idx[(fld, value)] = len(token_to_idx)
        token_to_idx[(fld, UNKNOWN)] = len(token_to_idx)
    return token_to_idx


def dict_walk(ref, fld, values):
    """Token of each value in a reference vocabulary: one dict.get per value."""
    unknown = ref[(fld, UNKNOWN)]
    return np.array([ref.get((fld, v), unknown) for v in values], dtype=np.int64)


def dict_walk_encode(ref, dataset):
    cols = {"user_id": dataset.user_ids, "item_id": dataset.item_ids, **dataset.features}
    fields = list(dict.fromkeys(fld for fld, _ in ref))
    return np.stack([dict_walk(ref, fld, cols[fld].tolist()) for fld in fields], axis=1)


def token(vocab, fld, value) -> int:
    """Token index of one value, UNKNOWN for the field's unknown token."""
    if value is UNKNOWN:
        return vocab.tables[fld][2]
    return int(vocab.lookup(fld, [value])[0])


def assert_same_vocab(vocab, ref, datasets, unseen=("<unk>", "never-seen")):
    """vocab gives the reference's size, fields, tokens and encodings, and
    the field's unknown token for each `unseen` value not in the reference."""
    assert len(vocab) == len(ref)
    assert vocab.fields == tuple(dict.fromkeys(fld for fld, _ in ref))
    for (fld, value), tok in ref.items():
        assert token(vocab, fld, value) == tok
    for fld in vocab.fields:
        values = [v for f, v in ref if f == fld and v is not UNKNOWN] + list(unseen)
        assert vocab.lookup(fld, values).tolist() == dict_walk(ref, fld, values).tolist()
        assert [token(vocab, fld, v) for v in values] == dict_walk(ref, fld, values).tolist()
    for ds in datasets:
        assert encode(vocab, ds).tolist() == dict_walk_encode(ref, ds).tolist()


def pair_dataset(pairs, labels=None):
    users, items = zip(*pairs)
    n = len(pairs)
    return Dataset(users, items, [1.0] * n, [10] * n, timestamps=range(n), true_interest=labels)


class TestVocabulary:
    def test_token_count(self):
        # 3 users + 3 items + 2 per-field unknowns
        ds = pair_dataset([("a", "x"), ("b", "y"), ("c", "z")])
        vocab = build_vocab(ds)
        assert len(vocab) == 8
        assert vocab.fields == ("user_id", "item_id")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            build_vocab(pair_dataset([("a", "x")]).subset([]))

    def test_unknown_fallback(self):
        vocab = build_vocab(pair_dataset([("a", "x")]))
        unseen = token(vocab, "user_id", "zzz")
        assert unseen == token(vocab, "user_id", "also-unseen")
        assert unseen != token(vocab, "user_id", "a")

    def test_encode_shape_and_determinism(self):
        ds = pair_dataset([("a", "x"), ("b", "x")])
        vocab = build_vocab(ds)
        idx = encode(vocab, ds)
        assert idx.shape == (2, 2)
        assert np.array_equal(idx, encode(vocab, ds))
        assert idx[0, 1] == idx[1, 1]  # shared item token

    def test_feature_fields_tokenized(self):
        ds = rows_dataset([("a", "x", 1.0, 10, "2")], "tab")
        vocab = build_vocab(ds)
        assert vocab.fields == ("user_id", "item_id", "tab")
        assert len(vocab) == 6

    def test_tokens_follow_first_appearance_not_sorted_order(self):
        ds = rows_dataset([(u, i, 1.0, 10, t) for u, i, t in [("c", "y", "2"), ("a", "z", "1"),
                                                             ("c", "x", "2"), ("b", "y", "0")]],
                          "tab")
        vocab = build_vocab(ds)
        assert [token(vocab, "user_id", u) for u in ["a", "b", "c", "zz"]] == [1, 2, 0, 3]
        assert [token(vocab, "item_id", i) for i in ["x", "y", "z", "zz"]] == [6, 4, 5, 7]
        assert [token(vocab, "tab", t) for t in ["0", "1", "2", "zz"]] == [10, 9, 8, 11]
        assert_same_vocab(vocab, reference_build_vocab(ds), [ds])
        # a subset keeps the full id tables; values it never saw get no token
        part = ds.subset([2, 3])
        vocab = build_vocab(part)
        assert [token(vocab, "user_id", u) for u in ["a", "b", "c"]] == [2, 1, 0]
        assert len(vocab) == 9  # 2 users, 2 items and 2 tabs, each field with its unknown
        assert_same_vocab(vocab, reference_build_vocab(part), [part, ds])

    def test_unk_value_gets_its_own_token(self):
        ds = rows_dataset([("<unk>", "x", 1.0, 10), ("b", "y", 1.0, 10)])
        vocab, ref = build_vocab(ds), reference_build_vocab(ds)
        assert sorted(ref.values()) == list(range(len(vocab))) == list(range(6))
        unseen = rows_dataset([("never-seen", "x", 1.0, 10)])
        assert_same_vocab(vocab, ref, [ds, unseen])
        unk_user, never_seen = (token(vocab, "user_id", u) for u in ("<unk>", "never-seen"))
        assert unk_user != never_seen
        assert token(vocab, "item_id", "x") not in (unk_user, never_seen)
        assert encode(vocab, unseen)[0].tolist() == [token(vocab, "user_id", "zzz"),
                                                    token(vocab, "item_id", "x")]


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
        model.linear[token(model.vocab, "user_id", "a")] = 0.3
        assert model.score_interactions(ds)[0] == pytest.approx(1.0)

    def test_pair_dot_product(self):
        ds = pair_dataset([("a", "x")])
        model = FMModel(build_vocab(ds), k=2, seed=0)
        model.embeddings[:] = 0.0
        model.embeddings[token(model.vocab, "user_id", "a")] = [1.0, 2.0]
        model.embeddings[token(model.vocab, "item_id", "x")] = [1.0, 1.0]
        assert model.score_interactions(ds)[0] == pytest.approx(3.0)

    def test_identity_matches_bruteforce(self):
        ds = rows_dataset([(f"u{i % 4}", f"i{i % 5}", 1.0, 10, str(i % 3)) for i in range(30)],
                          "tab")
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
        rows.append((f"u{u}", f"i{v}", 1.0, 10, i, y))
        labels.append(float(y))
    ds = rows_dataset(rows, "timestamp", "true_interest")
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


# any text but NUL and lone surrogates, as in the CSV round-trip tests
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
              min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ids, ids, st.sampled_from(["a", "b", "<unk>"])), min_size=1,
                max_size=20),
       st.lists(st.tuples(ids, ids, st.sampled_from(["a", "c"])), min_size=1, max_size=20))
def test_lookup_matches_dict_walk(seen, other):
    def log(rows):
        return rows_dataset([(u, i, 1.0, 10, t) for u, i, t in rows], "tab")

    train_set, other_set = log(seen), log(other)
    vocab, ref = build_vocab(train_set), reference_build_vocab(train_set)
    assert_same_vocab(vocab, ref, [train_set, other_set])
    for fld, column in zip(vocab.fields, zip(*(seen + other))):
        values = list(column) + ["<unk>", "never-seen"]
        assert np.array_equal(vocab.lookup(fld, values), dict_walk(ref, fld, values))


class _LazyAdam:
    """Lazy Adam written the plain way: full-table gradients and moments, and
    only the rows the batch touched updated."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes, lr):
        self.lr = lr
        self.t = 0
        self.bias_m = self.bias_v = 0.0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, bias, g_bias, tables, grads, touched):
        """Update `tables` in place on the `touched` rows; return the new bias."""
        b1, b2, lr, eps = self.b1, self.b2, self.lr, self.eps
        self.t += 1
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        self.bias_m = b1 * self.bias_m + (1 - b1) * g_bias
        self.bias_v = b2 * self.bias_v + (1 - b2) * g_bias * g_bias
        bias -= lr * (self.bias_m / c1) / (np.sqrt(self.bias_v / c2) + eps)
        for p, m, v, g in zip(tables, self.m, self.v, grads):
            g = g[touched]
            m[touched] = b1 * m[touched] + (1 - b1) * g
            v[touched] = b2 * v[touched] + (1 - b2) * g * g
            p[touched] -= lr * (m[touched] / c1) / (np.sqrt(v[touched] / c2) + eps)
        return float(bias)


def reference_train(model, train_set, train_labels, val_set, val_labels, config):
    """The train loop with a full-table np.add.at gradient per batch and
    lazy Adam over a touched-row mask."""
    y = np.asarray(train_labels, dtype=np.float64)
    idx = encode(model.vocab, train_set)
    val_idx = encode(model.vocab, val_set)
    val_y = np.asarray(val_labels)
    val_users = val_set.user_codes

    rng = np.random.default_rng(config.seed)
    opt = _LazyAdam([model.linear.shape, model.embeddings.shape], config.learning_rate)
    history = TrainHistory()
    best = model.params()
    best_gauc = -np.inf
    stall = 0
    n = len(train_set)

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            bi = idx[batch]
            logits = model.score(bi)
            loss = bce_loss(logits, y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss} at epoch {epoch}")
            epoch_loss += loss * batch.size

            g = bce_grad(logits, y[batch]) / batch.size
            g_linear = np.zeros_like(model.linear)
            np.add.at(g_linear, bi, g[:, None])
            V = model.embeddings[bi]
            s = V.sum(axis=1)
            g_emb = np.zeros_like(model.embeddings)
            np.add.at(g_emb, bi, g[:, None, None] * (s[:, None, :] - V))
            touched = np.zeros(len(model.linear), dtype=bool)
            touched[bi] = True
            model.bias = opt.step(model.bias, g.sum(), [model.linear, model.embeddings],
                                  [g_linear, g_emb], touched)

        history.train_loss.append(epoch_loss / n)
        vg = gauc(model.score(val_idx), val_y, val_users)
        history.val_gauc.append(vg)
        if vg > best_gauc:
            best_gauc = vg
            best = model.params()
            history.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall > config.patience:
                break

    bias, model.linear, model.embeddings = best
    model.bias = float(bias)
    history.best_val_gauc = best_gauc
    return history


def random_log(seed, n, n_users, n_items, user_share=0.0, feature=False, t0=0):
    """A log whose interest is a user-item parity, with `user_share` of its
    rows on user u0."""
    rng = np.random.default_rng(seed)
    users = np.where(rng.random(n) < user_share, 0, rng.integers(0, n_users, n))
    items = rng.integers(0, n_items, n)
    interest = ((users + items) % 2).astype(np.int64)
    features = {"tab": rng.integers(0, 3, n).astype(str)} if feature else None
    ds = Dataset([f"u{u}" for u in users], [f"i{i}" for i in items], np.ones(n),
                 np.full(n, 10), timestamps=np.arange(t0, t0 + n), true_interest=interest,
                 features=features)
    soft = np.clip(interest + rng.normal(0, 0.3, n), 0.0, 1.0)
    return ds, soft


def train_both(train_set, labels, val_set, config, k=4):
    """(model, history) from train and from reference_train on one init."""
    out = []
    for fit in (train, reference_train):
        model = FMModel(build_vocab(train_set), k=k, seed=config.seed)
        hist = fit(model, train_set, labels, val_set, val_set.true_interest, config)
        out.append((model, hist))
    return out


def assert_same_fit(fits):
    (model, hist), (ref, ref_hist) = fits
    assert model.bias == ref.bias
    assert np.array_equal(model.linear, ref.linear)
    assert np.array_equal(model.embeddings, ref.embeddings)
    assert hist == ref_hist


def stacked_fit(train_set, labels, val_set, config, k=4):
    """(model, history) of one stacked fit of the columns of `labels`."""
    model = FMModel(build_vocab(train_set), k=k, seed=config.seed)
    return model, train(model, train_set, labels, val_set, val_set.true_interest, config)


def assert_slices_match_separate_fits(train_set, labels, val_set, config, k=4):
    """Each slice of one stacked fit of the columns of `labels` equals, under
    ==, the separate train and reference_train fits of its column: parameters,
    val scores, train loss, val GAUC and best epoch. Returns the stack's history."""
    model, stack = stacked_fit(train_set, labels, val_set, config, k)
    n_slices = labels.shape[1]
    assert isinstance(stack, StackHistory) and len(stack) == n_slices
    scores = model.score_interactions(val_set)
    assert scores.shape == (len(val_set), n_slices)
    for m, column in enumerate(labels.T):
        fits = train_both(train_set, column, val_set, config, k)
        assert_same_fit(fits)
        single, history = fits[0]
        assert model.bias[m] == single.bias
        assert np.array_equal(model.linear.reshape(n_slices, -1)[m], single.linear)
        assert np.array_equal(model.embeddings.reshape(n_slices, -1, k)[m], single.embeddings)
        assert np.array_equal(scores[:, m], single.score_interactions(val_set))
        assert stack[m] == history
    return stack


class TestLazyAdam:
    def test_rows_outside_the_batch_keep_parameters_and_moments(self):
        rng = np.random.default_rng(0)
        linear, emb = rng.normal(size=6), rng.normal(size=(6, 3))
        opt = _Adam([linear, emb], 0.1)
        # a first step over every row leaves nonzero moments everywhere
        opt.step([np.arange(6)] * 2, [rng.normal(size=6), rng.normal(size=(6, 3))])
        def tracked():
            return [linear, emb, *opt.moments[0], *opt.moments[1]]

        before = [a.copy() for a in tracked()]
        rows, kept = np.array([1, 4]), np.array([0, 2, 3, 5])
        opt.step([rows] * 2, [rng.normal(size=2), rng.normal(size=(2, 3))])
        for old, new in zip(before, tracked()):
            assert new[kept].tobytes() == old[kept].tobytes()
            assert (new[rows] != old[rows]).all()

    def test_bias_correction_uses_the_global_step(self):
        linear = np.zeros(3)
        opt = _Adam([linear], 0.1)
        for _ in range(4):
            opt.step([np.array([0])], [np.array([1.0])])
        opt.step([np.array([1])], [np.array([1.0])])
        # row 1's first update comes at step 5 and is bias-corrected for step 5
        m, v = (1 - 0.9) * 1.0, (1 - 0.999) * 1.0 * 1.0
        c1, c2 = 1 - 0.9 ** 5, 1 - 0.999 ** 5
        assert linear[1] == -(0.1 * (m / c1) / (np.sqrt(v / c2) + 1e-8))
        assert linear[2] == 0.0


class TestTrainMatchesDenseReference:
    """`train` against `reference_train`. The name is that of the earlier
    dense-Adam reference, kept so that these test ids stay stable; the
    reference is now lazy Adam over a touched-row mask."""

    def test_batch_size_not_dividing_n(self):
        ds, y = random_log(1, 203, 12, 15)
        assert_same_fit(train_both(ds, y, ds, TrainConfig(learning_rate=0.02, batch_size=64,
                                                          epochs=3, patience=3)))

    def test_many_rows_of_one_user_in_a_batch(self):
        ds, y = random_log(2, 300, 20, 10, user_share=0.8)
        val, _ = random_log(3, 200, 20, 10, user_share=0.5, t0=300)
        assert_same_fit(train_both(ds, y, val, TrainConfig(learning_rate=0.05, batch_size=128,
                                                           epochs=3, patience=3)))

    def test_declared_feature_field(self):
        ds, y = random_log(4, 250, 10, 12, feature=True)
        fits = train_both(ds, y, ds, TrainConfig(learning_rate=0.02, batch_size=50, epochs=2))
        assert fits[0][0].vocab.fields == ("user_id", "item_id", "tab")
        assert_same_fit(fits)

    def test_learning_rate_zero(self):
        ds, y = random_log(5, 150, 8, 8)
        assert_same_fit(train_both(ds, y, ds, TrainConfig(learning_rate=0.0, batch_size=32,
                                                          epochs=2)))

    def test_early_stop_restores_best_snapshot(self):
        ds, y = random_log(6, 200, 8, 8)
        val, _ = random_log(7, 200, 8, 8, t0=200)
        fits = train_both(ds, 1.0 - y, val, TrainConfig(learning_rate=0.05, batch_size=32,
                                                        epochs=8, patience=0))
        hist = fits[0][1]
        assert len(hist.val_gauc) < 8 and hist.best_epoch < len(hist.val_gauc) - 1
        assert_same_fit(fits)

    def test_val_rows_with_unseen_tokens(self):
        ds, y = random_log(8, 200, 10, 10)
        val, _ = random_log(9, 200, 25, 25, t0=200)
        fits = train_both(ds, y, val, TrainConfig(learning_rate=0.02, batch_size=40, epochs=3,
                                                  patience=3))
        vocab = fits[0][0].vocab
        unknowns = [token(vocab, fld, UNKNOWN) for fld in vocab.fields]
        assert (encode(vocab, val) == unknowns).any(axis=0).all()
        assert_same_fit(fits)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.integers(20, 160), st.integers(1, 12),
           st.integers(2, 12), st.sampled_from([0.0, 0.5, 0.9]), st.booleans(),
           st.integers(1, 70), st.sampled_from([0.0, 1e-3, 0.1]), st.integers(0, 2))
    def test_random_logs(self, seed, n, n_users, n_items, user_share, feature, batch_size,
                         lr, patience):
        ds, y = random_log(seed, n, n_users, n_items, user_share, feature)
        val, _ = random_log(seed + 1, 60, n_users + 2, n_items + 2, t0=n)
        positives = np.bincount(val.user_codes, val.true_interest)
        assume(((positives > 0) & (positives < np.bincount(val.user_codes))).any())
        cfg = TrainConfig(learning_rate=lr, batch_size=batch_size, epochs=3, patience=patience,
                          seed=seed)
        # each column also against reference_train, and as a slice of one stack
        assert_slices_match_separate_fits(ds, np.column_stack([y, 1.0 - y]), val, cfg)


class TestStackedTrain:
    def test_slices_equal_separate_fits_while_one_stops_early(self):
        ds, y = random_log(6, 200, 8, 8)
        val, _ = random_log(7, 200, 8, 8, t0=200)
        labels = np.column_stack([y, 1.0 - y, y ** 2])
        stack = assert_slices_match_separate_fits(
            ds, labels, val, TrainConfig(learning_rate=0.05, batch_size=32, epochs=8, patience=1))
        epochs = [len(h.val_gauc) for h in stack]
        assert min(epochs) < max(epochs)  # a slice stopped while the others went on
        assert [len(losses) for losses in stack.train_loss] == [
            sum(e > epoch for e in epochs) for epoch in range(max(epochs))]

    def test_one_column_matrix_is_the_vector_fit(self):
        ds, y = random_log(4, 250, 10, 12, feature=True)
        cfg = TrainConfig(learning_rate=0.02, batch_size=50, epochs=2)
        (model, history), _ = train_both(ds, y, ds, cfg)
        stacked, (stack_history,) = stacked_fit(ds, y[:, None], ds, cfg)
        assert stacked.bias.tolist() == [model.bias]
        assert np.array_equal(stacked.linear, model.linear)
        assert np.array_equal(stacked.embeddings, model.embeddings)
        assert np.array_equal(stacked.score_interactions(ds)[:, 0], model.score_interactions(ds))
        assert stack_history == history

    def test_peak_memory_stays_below_five_copies_of_the_tables(self):
        # a stack whose memory is its vocabulary: the parameters, Adam's two
        # moments and the best snapshot, which the model keeps, are the four copies
        ds, y = random_log(0, 20_000, 8_000, 12_000)
        labels = np.column_stack([y, 1.0 - y, y ** 2])
        model = FMModel(build_vocab(ds), k=10)
        table_bytes = labels.shape[1] * len(model.vocab) * (10 + 1) * 8
        tracemalloc.start()
        try:
            train(model, ds, labels, ds, ds.true_interest, TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * table_bytes, peak / table_bytes

    def test_non_finite_loss_comes_only_from_a_slice_still_training(self, monkeypatch):
        ds, y = random_log(6, 200, 8, 8)
        val, _ = random_log(7, 200, 8, 8, t0=200)
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, epochs=8, patience=0)
        labels = np.column_stack([y, np.full(len(y), 0.5)])  # only column 1 is all 0.5
        _, clean = stacked_fit(ds, labels, val, cfg)
        stopped = len(clean[1].val_gauc)
        assert stopped < len(clean[0].val_gauc)
        steps = stopped * -(-len(ds) // cfg.batch_size)  # the batches column 1 trained on
        real = watchlab.trainer.bce_loss

        def nan_for_column_1_after(n_calls):
            calls = []

            def loss(logits, targets):
                out = real(logits, targets)
                calls.append(None)
                if len(calls) > n_calls:
                    out[(targets == 0.5).all(axis=-1)] = np.nan
                return out
            return loss

        monkeypatch.setattr(watchlab.trainer, "bce_loss", nan_for_column_1_after(steps))
        assert stacked_fit(ds, labels, val, cfg)[1] == clean
        monkeypatch.setattr(watchlab.trainer, "bce_loss", nan_for_column_1_after(steps - 1))
        with pytest.raises(NonFiniteLoss, match=f"at epoch {stopped - 1} in label column 1"):
            stacked_fit(ds, labels, val, cfg)
