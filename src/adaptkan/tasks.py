"""Dataset generation for symbolic-regression targets, corruption hooks, and
the CSV reader and writer behind every numeric table the CLI reads or writes.

Ships a small catalogue of dimensionless physics formulas with input ranges
chosen to stay clear of singularities (denominators bounded away from zero,
positive arguments where required).  Generators are pure functions of the
seed.  A poisoning plan can corrupt the inputs of a chosen number of
training epochs with scaled Gaussian noise, leaving the labels untouched.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SymbolicTask:
    """A closed-form regression target with per-input sampling ranges."""

    name: str
    arity: int
    fn: callable
    ranges: tuple
    train_n: int = 3000
    test_n: int = 1000

    def __post_init__(self):
        if len(self.ranges) != self.arity:
            raise ValueError(f"{self.name}: {len(self.ranges)} ranges for arity {self.arity}")


def _gauss_1d(X):
    theta, sigma = X[:, 0], X[:, 1]
    return np.exp(-(theta**2) / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma**2)


TASKS = {
    "II.38.3": SymbolicTask("II.38.3", 2, lambda X: X[:, 0] * X[:, 1],
                            ((-1.0, 1.0), (-1.0, 1.0))),
    "I.6.2": SymbolicTask("I.6.2", 2, _gauss_1d, ((-1.0, 1.0), (0.5, 2.0))),
    "I.16.6": SymbolicTask("I.16.6", 2,
                           lambda X: (X[:, 0] + X[:, 1]) / (1.0 + X[:, 0] * X[:, 1]),
                           ((-0.8, 0.8), (-0.8, 0.8))),
    "I.40.1": SymbolicTask("I.40.1", 2, lambda X: X[:, 0] * np.exp(-X[:, 1]),
                           ((0.0, 1.0), (-1.0, 1.0))),
    "II.2.42": SymbolicTask("II.2.42", 2, lambda X: (X[:, 0] - 1.0) * X[:, 1],
                            ((-1.0, 1.0), (-1.0, 1.0))),
    "I.12.11": SymbolicTask("I.12.11", 2,
                            lambda X: 1.0 / (1.0 + X[:, 0] * np.sin(X[:, 1])),
                            ((-0.5, 0.5), (0.0, 2.0 * np.pi))),
}


def get_task(name: str) -> SymbolicTask:
    try:
        return TASKS[name]
    except KeyError:
        raise KeyError(f"unknown task {name!r}; available: {sorted(TASKS)}") from None


def generate(task: SymbolicTask, seed: int = 0):
    """Sample disjoint train/test sets uniformly inside the task's ranges."""
    rng = np.random.default_rng(seed)
    total = task.train_n + task.test_n
    lo = np.array([r[0] for r in task.ranges])
    hi = np.array([r[1] for r in task.ranges])
    X = rng.uniform(lo, hi, size=(total, task.arity))
    y = task.fn(X)
    return (X[:task.train_n], y[:task.train_n]), (X[task.train_n:], y[task.train_n:])


def rmse(pred, target) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.sqrt(np.mean((pred - target) ** 2)))


@dataclass
class PoisonPlan:
    """Which training epochs get their inputs replaced by scaled noise.

    Out of ``epochs`` total, ``n_up`` epochs are corrupted with noise scaled
    by ``scale_up`` and ``n_down`` with ``scale_down``; the epochs are drawn
    without replacement from the seed.  Labels are never modified.
    """

    epochs: int = 1000
    n_up: int = 5
    n_down: int = 5
    scale_up: float = 10.0
    scale_down: float = 0.1
    seed: int = 0
    scales: dict = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        chosen = rng.choice(self.epochs, size=self.n_up + self.n_down, replace=False)
        self.scales = {int(e): self.scale_up for e in chosen[:self.n_up]}
        self.scales.update({int(e): self.scale_down for e in chosen[self.n_up:]})


def poison_hook(plan: PoisonPlan):
    """Batch hook replacing inputs of corrupted epochs with scale * N(0, 1)."""
    rng = np.random.default_rng(plan.seed)

    def hook(epoch, X, y):
        scale = plan.scales.get(epoch)
        if scale is None:
            return X, y
        return scale * rng.standard_normal(X.shape), y

    return hook


def poison(stream, plan: PoisonPlan):
    """Corrupt an iterable of (epoch, X, y) batches according to the plan."""
    hook = poison_hook(plan)
    for epoch, X, y in stream:
        Xc, yc = hook(epoch, X, y)
        yield epoch, Xc, yc


def read_table(path) -> np.ndarray:
    """Read a numeric CSV table with a one-line header into an (N, k) array.

    Parsed by ``np.loadtxt``'s C reader with correctly rounded conversion,
    so values written by :func:`write_table` come back bitwise.  The file
    needs a header and at least one data row, every data row has as many
    fields as the header, cells may be double-quoted, and empty lines are
    skipped.  Anything else (an empty or non-numeric cell, a ragged row, a
    ``#`` line) raises ``ValueError`` naming the path.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        if not header:
            raise ValueError(f"malformed CSV {path}: no header line")
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed CSV {path}: {exc}") from None
    if len(data) == 0:
        raise ValueError(f"malformed CSV {path}: no data rows")
    if data.shape[1] != len(header):
        raise ValueError(f"malformed CSV {path}: {data.shape[1]} fields per row "
                         f"for {len(header)} header fields")
    return data


def write_table(path, header, data, int_columns=()) -> None:
    """Write a numeric table as CSV in one call: header, then one row per row.

    ``data`` is a column (N,) or a matrix (N, k).  Floats are written as
    their shortest round-trip ``repr``, the columns in ``int_columns`` as
    integers, with CRLF line endings: the bytes ``csv.writer`` gives for the
    same rows.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    row = ",".join("%d" if j in int_columns else "%r" for j in range(data.shape[1]))
    body = ((row + "\r\n") * len(data)) % tuple(data.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def save_dataset(path, X, y) -> None:
    """Write features-then-target CSV with a one-line header."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    write_table(path, [f"x{j}" for j in range(X.shape[1])] + ["target"],
                np.column_stack([X, y]))


def load_dataset(path):
    """Read a dataset CSV back into (X, y)."""
    data = read_table(path)
    return data[:, :-1], data[:, -1]
