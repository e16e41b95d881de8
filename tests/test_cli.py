"""CLI subcommands, exit codes, persistence, and determinism."""

import json

import numpy as np
import pytest

from adaptkan.cli import main
from adaptkan.model_io import load_model, save_model
from adaptkan.network import init_network
from adaptkan.optim import TrainPlan, train
from adaptkan.tasks import generate, get_task

TRAIN_CFG = {
    "task": "II.38.3",
    "shape": [2, 5, 1],
    "rounds": [{"lr": 1e-2, "steps": 30, "omega": 3},
               {"lr": 5e-3, "steps": 30, "omega": 5}],
    "batch_size": 64,
    "train_n": 200,
    "test_n": 100,
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_missing_config_key_exits_2(tmp_path, capsys):
    cfg = dict(TRAIN_CFG)
    del cfg["rounds"]
    code = main(["train", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "rounds" in capsys.readouterr().err


def test_unknown_task_exits_2(tmp_path, capsys):
    cfg = dict(TRAIN_CFG, task="nope")
    code = main(["train", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_train_writes_model_and_metrics(tmp_path):
    code = main(["train", "--config", write_cfg(tmp_path, TRAIN_CFG),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,omega,lr,train_rmse,test_rmse,adapt_events,fail"
    assert len(metrics) == 3
    assert (tmp_path / "model.json").exists()


def test_train_deterministic_under_seed(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    cfgp = write_cfg(tmp_path, TRAIN_CFG)
    assert main(["train", "--config", cfgp, "--seed", "7", "--out-dir", str(out1)]) == 0
    assert main(["train", "--config", cfgp, "--seed", "7", "--out-dir", str(out2)]) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_model_roundtrip_bitwise(tmp_path):
    task = get_task("II.38.3")
    (Xtr, ytr), (Xte, yte) = generate(task, seed=1)
    net = init_network([2, 4, 1], mode="kan", noise=0.5, seed=1)
    plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 40, "omega": 3}], batch_size=64, seed=1)
    train(net, (Xtr, ytr, Xte, yte), plan)
    path = tmp_path / "model.json"
    save_model(net, path)
    net2 = load_model(path)
    X = Xte[:100]
    Y1, _ = net.forward(X)
    Y2, _ = net2.forward(X)
    np.testing.assert_array_equal(Y1, Y2)
    # twice through the file stays identical too
    path2 = tmp_path / "model2.json"
    save_model(net2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_eval_command(tmp_path, capsys):
    from adaptkan.tasks import save_dataset
    net = init_network([2, 3, 1], mode="kan", seed=2)
    model = tmp_path / "m.json"
    save_model(net, model)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (50, 2))
    y = X[:, 0] * X[:, 1]
    data = tmp_path / "d.csv"
    save_dataset(data, X, y)
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    out = capsys.readouterr().out.strip()
    pred, _ = net.forward(X)
    assert float(out) == pytest.approx(float(np.sqrt(np.mean((pred[:, 0] - y) ** 2))))


def write_features(path, X):
    from adaptkan.tasks import save_dataset  # reuse float formatting
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{j}" for j in range(X.shape[1])])
        for row in X:
            w.writerow([repr(float(v)) for v in row])


def test_ood_pipeline_and_auroc(tmp_path, capsys):
    rng = np.random.default_rng(3)
    fit = rng.normal(0, 1, size=(2000, 4))
    idq = rng.normal(0, 1, size=(50, 4))
    oodq = rng.normal(6, 1, size=(50, 4))
    f_fit, f_id, f_ood = (tmp_path / n for n in ("fit.csv", "id.csv", "ood.csv"))
    write_features(f_fit, fit)
    write_features(f_id, idq)
    write_features(f_ood, oodq)
    scorer = tmp_path / "scorer.json"
    assert main(["ood", "fit", "--features", str(f_fit), "--bins", "50",
                 "--out", str(scorer)]) == 0
    s_id, s_ood = tmp_path / "sid.csv", tmp_path / "sood.csv"
    assert main(["ood", "score", "--scorer", str(scorer), "--features", str(f_id),
                 "--out", str(s_id)]) == 0
    assert main(["ood", "score", "--scorer", str(scorer), "--features", str(f_ood),
                 "--out", str(s_ood)]) == 0
    # row counts match inputs
    assert len(s_id.read_text().splitlines()) == 51
    capsys.readouterr()
    assert main(["ood", "auroc", "--id", str(s_id), "--ood", str(s_ood)]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_ood_fit_default_bins_is_200(tmp_path):
    rng = np.random.default_rng(4)
    f = tmp_path / "f.csv"
    write_features(f, rng.normal(size=(500, 2)))
    scorer = tmp_path / "s.json"
    assert main(["ood", "fit", "--features", str(f), "--out", str(scorer)]) == 0
    assert json.loads(scorer.read_text())["bins"] == 200


def test_clf_simulate_and_conformal(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert main(["clf", "simulate", "--analytical", "--trajectories", "1000",
                 "--seed", "0", "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "final_distance"
    assert len(lines) == 1001
    capsys.readouterr()
    assert main(["clf", "conformal", "--report", str(report), "--C", "0.5"]) == 0
    conf = float(capsys.readouterr().out.strip())
    assert conf == pytest.approx(0.999, abs=0.01)
    # quantile rule: ceil((K+1)(1-delta)) with the infinity convention
    assert main(["clf", "conformal", "--report", str(report), "--delta", "0.0001"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_clf_simulate_deterministic_under_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["clf", "simulate", "--analytical", "--trajectories", "50",
                     "--horizon", "1.0", "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_clf_simulate_paths_out(tmp_path):
    report = tmp_path / "r.csv"
    paths = tmp_path / "paths.csv"
    assert main(["clf", "simulate", "--analytical", "--trajectories", "3",
                 "--horizon", "0.05", "--dt", "0.01", "--out", str(report),
                 "--paths-out", str(paths)]) == 0
    lines = paths.read_text().splitlines()
    assert lines[0] == "time,trajectory,x1,x2"
    assert len(lines) == 1 + 6 * 3  # (steps + 1) * trajectories


def test_clf_conformal_requires_query(tmp_path, capsys):
    report = tmp_path / "r.csv"
    report.write_text("final_distance\n0.1\n")
    assert main(["clf", "conformal", "--report", str(report)]) == 2


def test_clf_simulate_requires_provider(tmp_path):
    assert main(["clf", "simulate", "--trajectories", "10",
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_clf_train_runs(tmp_path):
    cfg = {
        "shape": [2, 4, 1],
        "epochs": 3,
        "lr": 0.02,
        "batch_size": 128,
        "train_n": 256,
        "test_n": 64,
        "output_mode": "squared_norm",
        "init": {"mode": "linear", "noise": 0.1, "domain": [-3.0, 3.0]},
        "adapt": {"alpha": 0.01, "stretch_mode": "max"},
        "seed": 0,
    }
    code = main(["clf", "train", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "clf_metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,val_loss"
    assert (tmp_path / "model.json").exists()


def test_io_error_exit_code(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path)]) == 3


def test_model_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError):
        load_model(path)


def _one_line_config_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ood_fit_on_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["ood", "fit", "--features", str(empty),
                 "--out", str(tmp_path / "s.json")]) == 2
    _one_line_config_error(capsys, empty)


def test_clf_conformal_on_header_only_report_exits_2(tmp_path, capsys):
    report = tmp_path / "r.csv"
    report.write_text("final_distance\r\n")
    assert main(["clf", "conformal", "--report", str(report), "--C", "0.5"]) == 2
    _one_line_config_error(capsys, report)


def test_ood_auroc_on_header_only_scores_exits_2(tmp_path, capsys):
    good, bare = tmp_path / "good.csv", tmp_path / "bare.csv"
    good.write_text("score\r\n-1.5\r\n")
    bare.write_text("score\r\n")
    assert main(["ood", "auroc", "--id", str(good), "--ood", str(bare)]) == 2
    _one_line_config_error(capsys, bare)


def _saved_model(tmp_path, shape, seed=2):
    path = tmp_path / "m.json"
    save_model(init_network(shape, seed=seed), path)
    return path, json.loads(path.read_text())


def test_eval_rejects_truncated_coef(tmp_path, capsys):
    from adaptkan.tasks import save_dataset
    path, doc = _saved_model(tmp_path, [2, 3, 1])
    doc["layers"][0]["coef"] = doc["layers"][0]["coef"][:1]  # (2, 3, 6) -> (1, 3, 6)
    path.write_text(json.dumps(doc))
    data = tmp_path / "d.csv"
    save_dataset(data, np.zeros((4, 2)), np.zeros(4))
    assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "coef" in err and err.count("\n") == 1


def _bad_hist_length(doc):
    doc["layers"][0]["features"][1]["hist"]["hist"].append(0.0)


def _bad_ood_hist_length(doc):
    doc["layers"][1]["features"][0]["hist"]["ood_hist"].append(0.0)


def _mixed_omega(doc):
    feat = doc["layers"][0]["features"][1]
    feat["domain"]["omega"] = 5
    feat["hist"]["hist"] = [0.0] * 5


def _extra_feature(doc):
    layer = doc["layers"][1]
    layer["features"].append(layer["features"][0])


def _widths_do_not_chain(doc):
    # layer 0 still declares m = 3, but its arrays are 4 wide
    wide = init_network([2, 4, 1], seed=2).layers[0]
    doc["layers"][0].update(coef=wide.coef.tolist(), w_s=wide.w_s.tolist(),
                            w_b=wide.w_b.tolist())


@pytest.mark.parametrize("corrupt", [_bad_hist_length, _bad_ood_hist_length, _mixed_omega,
                                     _extra_feature, _widths_do_not_chain])
def test_load_model_rejects_inconsistent_shapes(tmp_path, corrupt):
    path, doc = _saved_model(tmp_path, [2, 3, 1])
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)
