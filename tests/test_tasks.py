"""Symbolic-regression targets, sampling, metrics, data poisoning, CSV tables."""

import csv

import numpy as np
import pytest
import sympy

from adaptkan.cli import main
from adaptkan.tasks import (
    TASKS,
    PoisonPlan,
    generate,
    get_task,
    load_dataset,
    poison_hook,
    read_table,
    rmse,
    save_dataset,
    write_table,
)

# independent route for every formula (different library, different
# expression source) for the two-expression rule
_a, _b = sympy.symbols("a b")
SYMPY_FORMS = {
    "II.38.3": _a * _b,
    "I.6.2": sympy.exp(-(_a**2) / (2 * _b**2)) / sympy.sqrt(2 * sympy.pi * _b**2),
    "I.16.6": (_a + _b) / (1 + _a * _b),
    "I.40.1": _a * sympy.exp(-_b),
    "II.2.42": (_a - 1) * _b,
    "I.12.11": 1 / (1 + _a * sympy.sin(_b)),
}


def sympy_eval(name, X):
    f = sympy.lambdify((_a, _b), SYMPY_FORMS[name], "numpy")
    return f(X[:, 0], X[:, 1])


def test_point_values():
    assert get_task("II.38.3").fn(np.array([[0.5, 2.0]]))[0] == pytest.approx(1.0)
    got = get_task("I.6.2").fn(np.array([[0.0, 1.0]]))[0]
    assert got == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-7)


@pytest.mark.parametrize("name", sorted(TASKS))
def test_formulas_match_independent_implementation(name):
    task = get_task(name)
    rng = np.random.default_rng(123)
    lo = np.array([r[0] for r in task.ranges])
    hi = np.array([r[1] for r in task.ranges])
    X = rng.uniform(lo, hi, size=(100, task.arity))
    np.testing.assert_allclose(task.fn(X), sympy_eval(name, X), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(TASKS))
def test_generated_inputs_inside_ranges(name):
    task = get_task(name)
    (X_tr, y_tr), (X_te, y_te) = generate(task, seed=5)
    for X in (X_tr, X_te):
        for j, (lo, hi) in enumerate(task.ranges):
            assert X[:, j].min() >= lo and X[:, j].max() <= hi
    assert np.isfinite(y_tr).all() and np.isfinite(y_te).all()
    assert len(X_tr) == task.train_n and len(X_te) == task.test_n


def test_generate_deterministic_and_disjoint():
    task = get_task("II.38.3")
    (Xa, ya), (Ta, _) = generate(task, seed=9)
    (Xb, yb), (Tb, _) = generate(task, seed=9)
    np.testing.assert_array_equal(Xa, Xb)
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(Ta, Tb)
    # train and test come from one sample without replacement
    both = np.vstack([Xa, Ta])
    assert len(np.unique(both, axis=0)) == len(both)


def test_unknown_task_raises():
    with pytest.raises(KeyError):
        get_task("I.999")


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0, 4.0], [1.0, 2.0]) == 2.0
    assert rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_poison_plan_epoch_selection():
    plan = PoisonPlan(epochs=1000, seed=3)
    assert len(plan.scales) == 10
    ups = [e for e, s in plan.scales.items() if s == 10.0]
    downs = [e for e, s in plan.scales.items() if s == 0.1]
    assert len(ups) == 5 and len(downs) == 5
    assert all(0 <= e < 1000 for e in plan.scales)
    plan2 = PoisonPlan(epochs=1000, seed=3)
    assert plan.scales == plan2.scales


def test_poison_zero_epochs_is_identity():
    plan = PoisonPlan(epochs=100, n_up=0, n_down=0, seed=0)
    hook = poison_hook(plan)
    X = np.ones((4, 2))
    y = np.arange(4.0)
    X2, y2 = hook(7, X, y)
    assert X2 is X and y2 is y


def test_poison_replaces_inputs_keeps_labels():
    plan = PoisonPlan(epochs=10, n_up=1, n_down=0, scale_up=10.0, seed=1)
    hook = poison_hook(plan)
    bad_epoch = next(iter(plan.scales))
    X = np.zeros((64, 3))
    y = np.arange(64.0)
    X2, y2 = hook(bad_epoch, X, y)
    assert y2 is y
    assert X2.shape == X.shape
    # scaled standard normal: spread far beyond the zero inputs
    assert X2.std() > 5.0


def test_poison_stream_determinism():
    def stream():
        rngs = np.random.default_rng(0)
        for e in range(20):
            yield e, rngs.normal(size=(8, 2)), np.zeros(8)

    def poisoned(plan):
        hook = poison_hook(plan)
        return [(e, hook(e, X, y)[0].copy()) for e, X, y in stream()]

    plan = PoisonPlan(epochs=20, n_up=2, n_down=2, seed=4)
    out1 = poisoned(plan)
    out2 = poisoned(plan)
    assert len(out1) == len(out2) == 20
    for (e1, X1), (e2, X2) in zip(out1, out2):
        assert e1 == e2
        np.testing.assert_array_equal(X1, X2)


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    path = tmp_path / "data.csv"
    save_dataset(path, X, y)
    X2, y2 = load_dataset(path)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,target"


# ----------------------------------------------------------------------
# CSV tables: the per-row csv.writer / float() codec they replaced is the
# oracle, so files and parsed values must stay byte- and bit-identical
# ----------------------------------------------------------------------

SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0]


def oracle_write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def oracle_read(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return np.asarray(rows, dtype=float)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def mixed_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
    X.flat[:len(SPECIAL)] = SPECIAL
    return X


def test_write_table_column_matches_oracle(tmp_path):
    scores = mixed_matrix(200, 1, 0)[:, 0]
    write_table(tmp_path / "new.csv", ["score"], scores)
    oracle_write(tmp_path / "old.csv", ["score"], [[float(s)] for s in scores])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_dataset_matches_oracle(tmp_path):
    X = mixed_matrix(100, 3, 1)
    y = mixed_matrix(100, 1, 2)[::-1, 0]
    save_dataset(tmp_path / "new.csv", X, y)
    oracle_write(tmp_path / "old.csv", ["x0", "x1", "x2", "target"],
                 [[float(v) for v in row] + [float(t)] for row, t in zip(X, y)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_table_int_column_matches_oracle(tmp_path):
    # the --paths-out layout: time, integer trajectory index, two states
    dt, steps, K = 0.01, 7, 5
    path = mixed_matrix(steps * K, 2, 3).reshape(steps, K, 2)
    write_table(tmp_path / "new.csv", ["time", "trajectory", "x1", "x2"],
                np.column_stack([np.repeat(np.arange(steps) * dt, K),
                                 np.tile(np.arange(K), steps), path.reshape(-1, 2)]),
                int_columns=(1,))
    oracle_write(tmp_path / "old.csv", ["time", "trajectory", "x1", "x2"],
                 [[float(t * dt), k, float(path[t, k, 0]), float(path[t, k, 1])]
                  for t in range(steps) for k in range(K)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_special_values_roundtrip_bitwise(tmp_path):
    X = np.array([SPECIAL, SPECIAL[::-1]])
    write_table(tmp_path / "t.csv", [f"f{j}" for j in range(X.shape[1])], X)
    np.testing.assert_array_equal(bits(read_table(tmp_path / "t.csv")), bits(X))
    write_table(tmp_path / "c.csv", ["score"], SPECIAL)
    got = read_table(tmp_path / "c.csv")
    assert got.shape == (len(SPECIAL), 1)
    np.testing.assert_array_equal(bits(got[:, 0]), bits(SPECIAL))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (300, 1), (150, 8)])
def test_read_table_matches_oracle_on_oracle_files(tmp_path, shape):
    X = mixed_matrix(*shape, seed=shape[0] + shape[1])
    path = tmp_path / "m.csv"
    oracle_write(path, [f"f{j}" for j in range(shape[1])], [[float(v) for v in row] for row in X])
    np.testing.assert_array_equal(bits(read_table(path)), bits(oracle_read(path)))


def test_read_table_matches_float_on_long_decimals(tmp_path):
    # correctly rounded parsing beyond 17 significant digits
    rng = np.random.default_rng(7)
    cells = [f"{rng.integers(1, 10)}.{rng.integers(0, 10**18):018d}{rng.integers(0, 10**9):09d}"
             f"e{rng.integers(-320, 309)}" for _ in range(400)]
    path = tmp_path / "long.csv"
    path.write_text("v\n" + "\n".join(cells) + "\n")
    np.testing.assert_array_equal(bits(read_table(path)[:, 0]), bits([float(c) for c in cells]))


def test_read_table_accepts_quotes_and_skips_blank_lines(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('"a","b"\r\n"1.5",2\r\n\r\n3, 4 \r\n')
    np.testing.assert_array_equal(read_table(path), [[1.5, 2.0], [3.0, 4.0]])


MALFORMED = {
    "empty": "",
    "header_only": "a,b\r\n",
    "ragged": "a,b\n1,2\n3\n",
    "non_numeric": "a,b\n1,x\n",
    "empty_cell": "a,b\n1,\n",
    "trailing_comma": "a,b\n1,2,\n",
    "header_width": "a,b,c\n1,2\n3,4\n",
    "comment": "a,b\n1,2\n# 3,4\n",
    "underscore": "a\n1_000\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_table_rejects_malformed(tmp_path, capsys, case):
    path = tmp_path / f"{case}.csv"
    path.write_text(MALFORMED[case])
    with pytest.raises(ValueError, match=f"{case}.csv"):
        read_table(path)
    with pytest.raises(ValueError, match=f"{case}.csv"):
        load_dataset(path)
    capsys.readouterr()
    assert main(["ood", "fit", "--features", str(path), "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{case}.csv" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "s.json").exists()
