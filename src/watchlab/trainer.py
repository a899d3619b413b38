"""Factorization-machine scorer trained with BCE on soft labels; M label
columns train as M slices of one stacked model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset
from .errors import NonFiniteLoss
from .evaluation import gauc
from .ranking import group_codes

_SCORE_ROWS = 2048  # rows per scoring call, which bounds the memory of scoring a split


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
                or min(self.batch_size, self.epochs, self.embedding_dim) < 1
                or self.patience < 0):
            raise ValueError("learning_rate must be finite and >= 0, batch_size, epochs "
                             "and embedding_dim >= 1, and patience >= 0")


class Vocabulary:
    """Token index over (field, value) pairs with one unknown token per field.

    `tables` maps each field, in token order, to the sorted value table that
    the training set codes it by, the token of each entry of that table and
    the field's unknown token, which the entries training never saw hold too.
    """

    def __init__(self, tables, size: int):
        self.tables = dict(tables)
        self.fields = tuple(self.tables)
        self._size = size

    def __len__(self):
        return self._size

    def lookup(self, fld, values) -> np.ndarray:
        """Token index of each value (an id string); the field's unknown token
        where unseen. Values equal to the training table, such as the table
        of another split of the same log, take its tokens without a search."""
        table, tokens, unknown = self.tables[fld]
        values = np.asarray(values, dtype=str)
        if np.array_equal(table, values):
            return tokens
        pos = np.searchsorted(table, values).clip(max=table.size - 1)
        return np.where(table[pos] == values, tokens[pos], unknown)


def _field_columns(dataset: Dataset):
    """(field, value table, per-row code into the table) for every tokenized
    field: user, item, then the declared features."""
    yield "user_id", dataset.user_table, dataset.user_codes
    yield "item_id", dataset.item_table, dataset.item_codes
    for fld, column in dataset.features.items():
        yield fld, *group_codes(column)


def build_vocab(train: Dataset) -> Vocabulary:
    """One token per (field, value) seen in training plus per-field unknowns.

    A field's tokens follow the order in which its values first appear, and
    its unknown token comes after them.
    """
    if len(train) == 0:
        raise ValueError("cannot build a vocabulary from an empty dataset")
    tables, n = {}, 0
    for fld, table, codes in _field_columns(train):
        rows = np.arange(codes.size)
        first = np.full(table.size, codes.size)
        np.minimum.at(first, codes, rows)
        seen = np.flatnonzero(first < codes.size)
        # a value's token counts the first appearances up to and including its own
        appeared = np.cumsum(first[codes] == rows)
        unknown = n + seen.size
        tokens = np.full(table.size, unknown)
        tokens[seen] = n - 1 + appeared[first[seen]]
        tables[fld] = (table, tokens, unknown)
        n = unknown + 1
    return Vocabulary(tables, n)


def encode(vocab: Vocabulary, dataset: Dataset) -> np.ndarray:
    """Token index matrix, one row per interaction, one column per field."""
    out = np.empty((len(dataset), len(vocab.fields)), dtype=np.int64)
    out[:] = [unknown for _, _, unknown in vocab.tables.values()]
    for fld, table, codes in _field_columns(dataset):
        if fld in vocab.fields:
            out[:, vocab.fields.index(fld)] = vocab.lookup(fld, table).take(codes)
    return out


class FMModel:
    """Second-order factorization machine over one-hot categorical fields.

    A fit on M label columns (see `train`) leaves M stacked slices: `bias`
    is then an (M,) vector, and slice m owns rows m*V to (m+1)*V - 1 of
    `linear` and `embeddings`, where V = len(vocab).
    """

    def __init__(self, vocab: Vocabulary, k: int, seed: int = 0):
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        n = len(vocab)
        self.bias = 0.0
        self.linear = np.zeros(n)
        self.embeddings = rng.normal(0.0, 0.01, (n, k))

    def score(self, idx: np.ndarray) -> np.ndarray:
        """Logits for a token-index matrix: (n,) for one model, (n, M) for M
        stacked slices."""
        bias = np.atleast_1d(self.bias)
        logits = _slice_logits(bias, self.linear, self.embeddings, idx, range(bias.size))
        return logits.T if np.ndim(self.bias) else logits[0]

    def score_interactions(self, dataset: Dataset) -> np.ndarray:
        return self.score(encode(self.vocab, dataset))

    def params(self):
        return np.copy(self.bias), self.linear.copy(), self.embeddings.copy()


def _field_sum(a):
    """a.sum(axis=2), added field by field in the order numpy adds them,
    which is faster than numpy's reduction over the strided field axis."""
    out = a[:, :, 0] + a[:, :, 1]  # every vocabulary has user and item fields
    for j in range(2, a.shape[2]):
        out += a[:, :, j]
    return out


def _forward(bias, linear, embeddings, tokens):
    """(logits (M, b), gathered embeddings E (M, b, f, k), their sum over
    fields s (M, b, k)) of slice-offset token matrices (M, b, f) and the
    slices' biases (M,), via the sum-of-squares identity."""
    E = embeddings.take(tokens, axis=0)
    s = _field_sum(E)
    pair = 0.5 * ((s ** 2).sum(axis=-1) - (E ** 2).sum(axis=(-2, -1)))
    return bias[:, None] + _field_sum(linear.take(tokens)) + pair, E, s


def _slice_logits(bias, linear, embeddings, idx, slices):
    """(len(slices), n) logits of the given slices of a stack on a token-index
    matrix, one slice and at most _SCORE_ROWS rows at a time."""
    size = linear.size // bias.size
    out = np.empty((len(slices), len(idx)))
    for j, m in enumerate(slices):
        for start in range(0, len(idx), _SCORE_ROWS):
            tokens = idx[start:start + _SCORE_ROWS] + m * size
            out[j, start:start + len(tokens)] = _forward(bias[m:m + 1], linear, embeddings,
                                                          tokens[None])[0][0]
    return out


def _sigmoid(z):
    """1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def bce_loss(logits, labels):
    """Mean binary cross entropy against soft targets over the last axis (one
    value per row of (M, b) inputs), log-sum-exp stabilized."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    # -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) = max(z,0) - y*z + log(1+exp(-|z|))
    loss = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    return loss.mean(axis=-1)


def bce_grad(logits, labels) -> np.ndarray:
    """d loss / d logit = sigmoid(logit) - label."""
    return _sigmoid(np.asarray(logits, dtype=np.float64)) - np.asarray(labels, dtype=np.float64)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_gauc: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_gauc: float = float("nan")


class StackHistory(tuple):
    """The TrainHistory of each label column of a stacked fit, in column order."""

    @property
    def train_loss(self) -> list:
        """For each epoch the stack ran, the train loss of every slice still
        training in it."""
        return [[h.train_loss[e] for h in self if e < len(h.train_loss)]
                for e in range(max(len(h.train_loss) for h in self))]


class _Adam:
    """Lazy Adam over parameter tables, updated in place.

    A step updates only the given rows of each table: their moments decay and
    take the gradient, and they move. Every other row keeps its parameters
    and both moments exactly, as in PyTorch's SparseAdam. The bias correction
    uses the global step count. The bias vector is one more table, whose rows
    at every step are the slices still training, so each takes a plain Adam step.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tables, lr):
        self.lr = lr
        self.t = 0
        self.moments = [(np.zeros_like(p), np.zeros_like(p)) for p in tables]
        # each table and its moments as vectors of opaque rows, which numpy
        # gathers and scatters several times faster than the rows of a 2-d array
        self.row_vectors = [(p.dtype, [a.view((np.void, p[0].nbytes)).reshape(len(p))
                                       for a in (p, m, v)])
                            for p, (m, v) in zip(tables, self.moments)]

    def step(self, rows, grads) -> None:
        """Update each table's `rows[i]` in place from their gradients
        `grads[i]` (one gradient row per entry of `rows[i]`)."""
        self.t += 1
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        for (dtype, arrays), r, g in zip(self.row_vectors, rows, grads):
            gathered = [a.take(r) for a in arrays]
            p, m, v = (x.view(dtype).reshape(g.shape) for x in gathered)
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), with the same
            # operations in the same order but in place on two temporaries
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            tmp = (1 - self.b2) * g
            tmp *= g
            v += tmp
            update = m / c1
            update *= self.lr
            np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
            tmp += self.eps
            update /= tmp
            p -= update
            for a, x in zip(arrays, gathered):
                a[r] = x


def train(model: FMModel, train_set: Dataset, train_labels, val_set: Dataset,
          val_labels, config: TrainConfig):
    """Mini-batch Adam on BCE with early stopping on validation GAUC, which
    is `gauc` of each slice's val scores over val_set.user_codes.

    `train_labels` is (n,) or (n, M). M label columns fit as the M slices of
    one stacked model (see FMModel), each from the model's init. The slices
    share the batch order, one np.unique of each batch's tokens and Adam's
    step count, so every slice is bit-identical to a separate fit on its
    column. A slice stops once its val GAUC has not improved for more than
    `patience` epochs; it keeps its best snapshot and records no more
    history, and the others go on. val_labels must be binary interest ground
    truth. The model keeps the arrays of each slice's best-on-validation
    snapshot, so a fit holds four copies of its tables: the parameters, Adam's
    two moments and the snapshot.
    Returns a TrainHistory for (n,) labels and a StackHistory for (n, M).
    Deterministic for a fixed config/seed.
    """
    config.validate()
    y = np.asarray(train_labels, dtype=np.float64)
    n = len(train_set)
    if y.ndim not in (1, 2) or y.shape[0] != n or 0 in y.shape[1:]:
        raise ValueError("train labels must be (n,) or (n, M >= 1), aligned with train rows")
    labels = np.ascontiguousarray(np.atleast_2d(y.T))  # one row per slice still training
    n_slices, size = len(labels), len(model.vocab)
    idx = encode(model.vocab, train_set)
    val_idx = encode(model.vocab, val_set)
    val_y = np.asarray(val_labels)

    model.bias = np.full(n_slices, model.bias, dtype=np.float64)
    model.linear = np.tile(model.linear, n_slices)
    model.embeddings = np.tile(model.embeddings, (n_slices, 1))
    tables = [model.bias, model.linear, model.embeddings]
    rng = np.random.default_rng(config.seed)
    opt = _Adam(tables, config.learning_rate)
    n_fields, k = idx.shape[1], model.embeddings.shape[1]
    histories = [TrainHistory(best_val_gauc=-np.inf) for _ in range(n_slices)]
    best = model.params()
    live = np.arange(n_slices)  # the slices still training

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        offsets = live * size
        epoch_loss = np.zeros(live.size)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            bi = idx.take(batch, axis=0)
            yb = labels.take(batch, axis=1)
            logits, E, s = _forward(model.bias.take(live), model.linear, model.embeddings,
                                    bi + offsets[:, None, None])
            loss = bce_loss(logits, yb)
            if not np.isfinite(loss).all():
                j = np.flatnonzero(~np.isfinite(loss))[0]
                raise NonFiniteLoss(f"loss became {loss[j]} at epoch {epoch} "
                                    f"in label column {live[j]}")
            epoch_loss += loss * batch.size

            g = bce_grad(logits, yb) / batch.size
            # per-row gradient sums over the batch's distinct tokens, one block
            # of cells per slice, each added in (row, field) order as a
            # full-table np.add.at would add them
            rows, inv = np.unique(bi.ravel(), return_inverse=True)
            block = np.arange(live.size)[:, None] * rows.size
            g_linear = np.bincount((inv + block).ravel(),
                                   weights=np.repeat(g, n_fields, axis=1).ravel(),
                                   minlength=live.size * rows.size)
            terms = np.subtract(s[:, :, None, :], E, out=E)  # E is not needed after this
            terms *= g[:, :, None, None]
            cells = inv[:, None] * k + np.arange(k)  # (row, column) of each term
            g_emb = np.bincount((cells.ravel() + block * k).ravel(), weights=terms.ravel(),
                                minlength=live.size * rows.size * k).reshape(-1, k)
            del E, s, terms  # freed before Adam's gathers and the next batch's
            table_rows = (rows + offsets[:, None]).ravel()
            opt.step([live, table_rows, table_rows], [g.sum(axis=1), g_linear, g_emb])

        val_logits = _slice_logits(model.bias, model.linear, model.embeddings, val_idx, live)
        going = np.ones(live.size, dtype=bool)
        for j, m in enumerate(live):
            history = histories[m]
            history.train_loss.append(float(epoch_loss[j] / n))
            vg = gauc(val_logits[j], val_y, val_set.user_codes)
            history.val_gauc.append(vg)
            if vg > history.best_val_gauc:
                history.best_val_gauc = vg
                history.best_epoch = epoch
                for snapshot, table in zip(best, tables):
                    snapshot.reshape(n_slices, -1)[m] = table.reshape(n_slices, -1)[m]
            elif epoch - history.best_epoch > config.patience:
                going[j] = False
        live, labels = live[going], labels[going]
        if not live.size:
            break

    bias, model.linear, model.embeddings = best
    model.bias = bias if y.ndim == 2 else float(bias[0])
    return StackHistory(histories) if y.ndim == 2 else histories[0]
