"""Factorization-machine scorer trained with BCE on soft labels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset
from .errors import NonFiniteLoss

UNKNOWN = None  # value of a field's unknown token; no id string equals it


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 512
    epochs: int = 10
    embedding_dim: int = 10
    patience: int = 2  # eval rounds without val-GAUC improvement before stop
    seed: int = 0

    def validate(self) -> None:
        if (not 0 <= self.learning_rate < math.inf
                or min(self.batch_size, self.epochs, self.embedding_dim) < 1):
            raise ValueError("learning_rate must be finite and >= 0, and batch_size, epochs "
                             "and embedding_dim >= 1")


class Vocabulary:
    """Token index over (field, value) pairs with one unknown token per field.

    `lookup` searches per-field sorted copies of `token_to_idx`, made on first
    use, so the mapping is not to be changed after that.
    """

    def __init__(self, fields, token_to_idx):
        self.fields = tuple(fields)
        self.token_to_idx = dict(token_to_idx)
        self._sorted = {}

    def __len__(self):
        return len(self.token_to_idx)

    def index(self, fld, value) -> int:
        return self.token_to_idx.get((fld, value), self.token_to_idx[(fld, UNKNOWN)])

    def _sorted_tokens(self, fld):
        """(the field's values as a sorted string array, their token indices),
        built on the field's first lookup."""
        if fld not in self._sorted:
            items = [(v, i) for (f, v), i in self.token_to_idx.items()
                     if f == fld and v is not UNKNOWN]
            values = np.array([v for v, _ in items], dtype=str)
            order = np.argsort(values, kind="stable")
            tokens = np.array([i for _, i in items], dtype=np.int64)
            self._sorted[fld] = values[order], tokens[order]
        return self._sorted[fld]

    def lookup(self, fld, values) -> np.ndarray:
        """Token index of each value (an id string); the field's unknown token
        where unseen."""
        unknown = self.token_to_idx[(fld, UNKNOWN)]
        keys, tokens = self._sorted_tokens(fld)
        values = np.asarray(values, dtype=str)
        pos = np.searchsorted(keys, values).clip(max=keys.size - 1)
        return np.where(keys[pos] == values, tokens[pos], unknown)


def _field_columns(dataset: Dataset):
    """(field, value table, per-row code into the table) for every tokenized
    field: user, item, then the declared features."""
    yield "user_id", dataset.user_table, dataset.user_codes
    yield "item_id", dataset.item_table, dataset.item_codes
    for fld, column in dataset.features.items():
        table, codes = np.unique(column, return_inverse=True)
        yield fld, table, codes


def build_vocab(train: Dataset) -> Vocabulary:
    """One token per (field, value) seen in training plus per-field unknowns.

    A field's tokens follow the order in which its values first appear.
    """
    if len(train) == 0:
        raise ValueError("cannot build a vocabulary from an empty dataset")
    fields = []
    token_to_idx = {}
    for fld, table, codes in _field_columns(train):
        seen, first = np.unique(codes, return_index=True)
        for value in table[seen[np.argsort(first)]].tolist():
            token_to_idx[(fld, value)] = len(token_to_idx)
        token_to_idx[(fld, UNKNOWN)] = len(token_to_idx)
        fields.append(fld)
    return Vocabulary(fields, token_to_idx)


def encode(vocab: Vocabulary, dataset: Dataset) -> np.ndarray:
    """Token index matrix, one row per interaction, one column per field."""
    out = np.empty((len(dataset), len(vocab.fields)), dtype=np.int64)
    out[:] = [vocab.token_to_idx[(fld, UNKNOWN)] for fld in vocab.fields]
    for fld, table, codes in _field_columns(dataset):
        if fld in vocab.fields:
            out[:, vocab.fields.index(fld)] = vocab.lookup(fld, table)[codes]
    return out


class FMModel:
    """Second-order factorization machine over one-hot categorical fields."""

    def __init__(self, vocab: Vocabulary, k: int, seed: int = 0):
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        n = len(vocab)
        self.bias = 0.0
        self.linear = np.zeros(n)
        self.embeddings = rng.normal(0.0, 0.01, (n, k))

    def score(self, idx: np.ndarray) -> np.ndarray:
        """Logits for a token-index matrix via the sum-of-squares identity."""
        V = self.embeddings[idx]  # (n, m, k)
        s = V.sum(axis=1)
        pair = 0.5 * ((s ** 2).sum(axis=1) - (V ** 2).sum(axis=(1, 2)))
        return self.bias + self.linear[idx].sum(axis=1) + pair

    def score_interactions(self, dataset: Dataset) -> np.ndarray:
        return self.score(encode(self.vocab, dataset))

    def params(self):
        return self.bias, self.linear.copy(), self.embeddings.copy()

    def set_params(self, p):
        self.bias, linear, emb = p
        self.linear = linear.copy()
        self.embeddings = emb.copy()


def fm_score_bruteforce(model: FMModel, idx_row) -> float:
    """O(k m^2) pairwise reference used to check the identity-based score."""
    s = model.bias + sum(model.linear[i] for i in idx_row)
    for a in range(len(idx_row)):
        for b in range(a + 1, len(idx_row)):
            s += float(model.embeddings[idx_row[a]] @ model.embeddings[idx_row[b]])
    return float(s)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(logits, labels) -> float:
    """Mean binary cross entropy against soft targets, log-sum-exp stabilized."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    # -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) = max(z,0) - y*z + log(1+exp(-|z|))
    loss = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    return float(loss.mean())


def bce_grad(logits, labels) -> np.ndarray:
    """d loss / d logit = sigmoid(logit) - label."""
    return _sigmoid(np.asarray(logits, dtype=np.float64)) - np.asarray(labels, dtype=np.float64)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_gauc: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_gauc: float = float("nan")


class _Adam:
    """Lazy Adam over the scalar bias and the parameter tables, updated in place.

    A step updates only the batch's rows: their moments decay and take the
    gradient, and they move. Every other row keeps its parameters and both
    moments exactly, as in PyTorch's SparseAdam. The bias correction uses the
    global step count. The scalar bias takes a plain Adam step every batch.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tables, lr):
        self.lr = lr
        self.t = 0
        self.bias_m = self.bias_v = 0.0
        self.moments = [(np.zeros_like(p), np.zeros_like(p)) for p in tables]
        # each table and its moments as vectors of opaque rows, which numpy
        # gathers and scatters several times faster than the rows of a 2-d array
        self.row_vectors = [(p.dtype, [a.view((np.void, p[0].nbytes)).reshape(len(p))
                                       for a in (p, m, v)])
                            for p, (m, v) in zip(tables, self.moments)]

    def step(self, bias: float, g_bias: float, rows, grads) -> float:
        """Update the tables' `rows` in place from their gradients (one
        gradient row per entry of `rows`); return the updated bias."""
        self.t += 1
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        self.bias_m = self.b1 * self.bias_m + (1 - self.b1) * g_bias
        self.bias_v = self.b2 * self.bias_v + (1 - self.b2) * g_bias * g_bias
        bias -= self.lr * (self.bias_m / c1) / (math.sqrt(self.bias_v / c2) + self.eps)
        for (dtype, arrays), g in zip(self.row_vectors, grads):
            gathered = [a.take(rows) for a in arrays]
            p, m, v = (x.view(dtype).reshape(g.shape) for x in gathered)
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            for a, x in zip(arrays, gathered):
                a[rows] = x
        return bias


def train(model: FMModel, train_set: Dataset, train_labels, val_set: Dataset,
          val_labels, config: TrainConfig) -> TrainHistory:
    """Mini-batch Adam on BCE with early stopping on validation GAUC.

    val_labels must be binary interest ground truth. The model is left at the
    best-on-validation snapshot. Deterministic for a fixed config/seed.
    """
    from .evaluation import gauc  # deferred to avoid an import cycle

    config.validate()
    y = np.asarray(train_labels, dtype=np.float64)
    if y.shape[0] != len(train_set):
        raise ValueError("train labels not aligned with train rows")
    idx = encode(model.vocab, train_set)
    val_idx = encode(model.vocab, val_set)

    rng = np.random.default_rng(config.seed)
    opt = _Adam([model.linear, model.embeddings], config.learning_rate)
    n_fields, k = idx.shape[1], model.embeddings.shape[1]
    history = TrainHistory(best_val_gauc=-np.inf)
    best = model.params()
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
            # per-row gradient sums over the batch's distinct tokens, added in
            # (row, field) order as a full-table np.add.at would add them
            rows, inv = np.unique(bi.ravel(), return_inverse=True)
            g_linear = np.bincount(inv, weights=np.repeat(g, n_fields), minlength=rows.size)
            V = model.embeddings[bi]
            s = V.sum(axis=1)
            terms = g[:, None, None] * (s[:, None, :] - V)
            cells = (inv[:, None] * k + np.arange(k)).ravel()  # (row, column) of each term
            g_emb = np.bincount(cells, weights=terms.ravel(),
                                minlength=rows.size * k).reshape(rows.size, k)
            model.bias = opt.step(model.bias, float(g.sum()), rows, [g_linear, g_emb])

        history.train_loss.append(epoch_loss / n)
        vg = gauc(model.score(val_idx), np.asarray(val_labels), val_set.user_codes)
        history.val_gauc.append(vg)
        if vg > history.best_val_gauc:
            history.best_val_gauc = vg
            best = model.params()
            history.best_epoch = epoch
        elif epoch - history.best_epoch > config.patience:
            break

    model.set_params(best)
    return history
