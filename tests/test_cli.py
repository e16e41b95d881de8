"""CLI subcommands, exit codes, persistence, and determinism."""

import json
import math
import signal
import warnings

import numpy as np
import pytest

from adaptkan.cli import main
from adaptkan.histogram import PROB_FLOOR
from adaptkan.model_io import load_model, save_model
from adaptkan.network import init_network
from adaptkan.ood import OodScorer
from adaptkan.optim import TrainPlan, train
from adaptkan.tasks import generate, get_task, read_table

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


def test_eval_on_nan_data_is_a_numerical_failure(tmp_path, capsys):
    model, data = tmp_path / "m.json", tmp_path / "d.csv"
    save_model(init_network([2, 3, 1], mode="kan", seed=2), model)
    data.write_text("x0,x1,target\n0.1,0.2,0.3\nnan,0.2,0.3\n")
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


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


CLF_CFG = {
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


def test_clf_train_runs(tmp_path):
    code = main(["clf", "train", "--config", write_cfg(tmp_path, CLF_CFG),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "clf_metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,val_loss"
    assert (tmp_path / "model.json").exists()


def test_clf_train_failure_writes_metrics_and_exits_1(tmp_path, capsys):
    # a huge step overflows the origin term V0^2 on the second step
    cfg = {"shape": [2, 4], "epochs": 3, "train_n": 1000, "lr": 1e60}
    code = main(["clf", "train", "--config", write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "clf_metrics.csv" in capsys.readouterr().err
    lines = (tmp_path / "clf_metrics.csv").read_text().splitlines()
    assert lines == ["epoch,loss,val_loss", "0,nan,nan", "1,nan,", "2,nan,nan"]
    assert (tmp_path / "model.json").exists()


@pytest.mark.parametrize("lr", [1e60, 1e200])
def test_clf_train_divergence_fails_without_warnings(tmp_path, capsys, lr):
    # lr 1e60 overflows Adam's squared gradient on a finite loss, lr 1e200
    # the squared-norm outputs: both fail every epoch with no RuntimeWarning
    cfg = {"shape": [2, 4], "epochs": 3, "train_n": 1000, "lr": lr,
           "init": {"mode": "linear", "domain": [-3.0, 3.0]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["clf", "train", "--config", write_cfg(tmp_path, cfg),
                     "--out-dir", str(tmp_path)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 1
    assert "clf_metrics.csv" in capsys.readouterr().err
    lines = (tmp_path / "clf_metrics.csv").read_text().splitlines()
    assert lines == ["epoch,loss,val_loss", "0,nan,nan", "1,nan,", "2,nan,nan"]


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


def test_ood_score_rejects_nan_and_floors_infinities(tmp_path, capsys):
    fit, query = tmp_path / "fit.csv", tmp_path / "q.csv"
    write_features(fit, np.random.default_rng(10).normal(size=(200, 2)))
    scorer, scores = tmp_path / "s.json", tmp_path / "scores.csv"
    assert main(["ood", "fit", "--features", str(fit), "--bins", "10", "--out", str(scorer)]) == 0
    query.write_text("f0,f1\r\n0.0,inf\r\n-inf,0.0\r\n")
    assert main(["ood", "score", "--scorer", str(scorer), "--features", str(query),
                 "--out", str(scores)]) == 0
    p0, p1 = OodScorer.load(scorer).feature_probs([0.0, 0.0])[0]
    expected = [(np.log(p0) + np.log(PROB_FLOOR)) / 2, (np.log(PROB_FLOOR) + np.log(p1)) / 2]
    np.testing.assert_array_equal(read_table(scores)[:, 0], expected)
    query.write_text("f0,f1\r\n0.0,nan\r\n")
    capsys.readouterr()
    assert main(["ood", "score", "--scorer", str(scorer), "--features", str(query),
                 "--out", str(scores)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "NaN" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _misspelled_adapt_key(cfg):
    cfg["adapt"] = {"alpah": 0.01}


def _misspelled_round_key(cfg):
    cfg["rounds"] = [{"lr": 1e-2, "step": 30, "omega": 3}]


def _misspelled_init_key(cfg):
    cfg["init"] = {"omgea": 10}


def _init_repeats_the_seed(cfg):
    cfg["init"] = {"seed": 1}  # the run's seed is passed to init_network already


def _rounds_is_a_number(cfg):
    cfg["rounds"] = 5


@pytest.mark.parametrize("corrupt", [_misspelled_adapt_key, _misspelled_round_key,
                                     _misspelled_init_key, _init_repeats_the_seed,
                                     _rounds_is_a_number])
def test_train_config_with_misspelled_key_exits_2(tmp_path, capsys, corrupt):
    cfg = json.loads(json.dumps(TRAIN_CFG))
    corrupt(cfg)
    path = write_cfg(tmp_path, cfg)
    assert main(["train", "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,cfg", [
    ("train", {**TRAIN_CFG, "batch_size": 0}),
    ("train", {**TRAIN_CFG, "batch_size": -5}),
    ("train", {**TRAIN_CFG, "batch_size": "x"}),
    ("clf", {**CLF_CFG, "batch_size": "x"}),
    ("clf", {**CLF_CFG, "epochs": "ten"}),
    ("clf", {**CLF_CFG, "epochs": 0}),
    ("train", {**TRAIN_CFG, "shape": 5}),
    ("train", {**TRAIN_CFG, "shape": [2]}),
    ("train", {**TRAIN_CFG, "shape": [2, 0, 1]}),
    ("train", {**TRAIN_CFG, "train_n": "x"}),
    ("train", {**{k: v for k, v in TRAIN_CFG.items() if k != "test_n"}, "train_n": 0}),
    ("train", {**TRAIN_CFG, "test_n": 2.5}),
    ("clf", {**CLF_CFG, "shape": 5}),
    ("clf", {**CLF_CFG, "train_n": "x"}),
    ("clf", {**CLF_CFG, "bounds": 5}),
    ("clf", {**CLF_CFG, "bounds": [-3.0, math.inf]}),
    ("clf", {**CLF_CFG, "bounds": [-3.0, "3"]}),
    ("train", {**TRAIN_CFG, "rounds": [{"lr": 1e-2, "steps": 30, "omega": 0}]}),
    ("train", {**TRAIN_CFG, "rounds": [{"lr": 1e-2, "steps": 30, "omega": 2.5}]}),
    ("train", {**TRAIN_CFG, "init": {"omega": 5}}),  # first round trains at omega 3
    ("train", {**TRAIN_CFG, "rounds": []}),
    # JSON true is a bool, not the count 1
    ("train", {**TRAIN_CFG, "batch_size": True}),
    ("train", {**TRAIN_CFG, "rounds": [{"lr": 1e-2, "steps": True, "omega": 3}]}),
    ("train", {**TRAIN_CFG, "init": {"omega": 1},
               "rounds": [{"lr": 1e-2, "steps": 30, "omega": True}]}),
    ("clf", {**CLF_CFG, "epochs": True}),
    ("train", {**TRAIN_CFG, "shape": [2, True, 1]}),
    ("train", {**TRAIN_CFG, "train_n": True}),
])
def test_trainer_settings_must_be_counts(tmp_path, capsys, command, cfg):
    argv = ["train"] if command == "train" else ["clf", "train"]
    path = write_cfg(tmp_path, cfg)
    assert main(argv + ["--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value", [
    ("train", "seed", "x"),
    ("train", "seed", 1.5),
    ("train", "seed", True),
    ("train", "seed", -1),
    ("clf", "seed", "x"),
    ("clf", "seed", 1.5),
    ("clf", "lam_f", "x"),
    ("clf", "k1", "x"),
    ("clf", "tau", "x"),
    ("clf", "lr", "x"),
    ("clf", "eps", None),
    ("clf", "bounds", [True, 3.0]),
    ("train", "weight_decay", "x"),
    ("train", "sparsity_lambda", "x"),
    ("train", "rounds", [{"lr": "x", "steps": 30, "omega": 3}]),
    ("train", "poly_decay", "x"),
    ("train", "adapt", {"alpha": True}),
    ("train", "adapt", {"prune_patience": True}),
    ("train", "adapt", {"prune_patience": 2.5}),
    ("train", "adapt", {"outlier_count": -3}),
    ("train", "adapt", {"outlier_count": "x"}),
    ("clf", "adapt", {"outlier_count": "x"}),
    ("train", "init", {"noise": True}),
    ("train", "init", {"noise": math.nan}),
    ("train", "init", {"noise": "x"}),
    ("train", "init", {"omega": True}),
    ("train", "init", {"mode": "linear", "slope": True}),
    ("train", "init", {"domain": [True, 3]}),
    ("train", "init", {"domain": [0, "1"]}),
    ("train", "init", {"domain": [0.0]}),
])
def test_config_numbers_of_the_wrong_type_exit_2(tmp_path, capsys, command, key, value):
    argv = ["train"] if command == "train" else ["clf", "train"]
    path = write_cfg(tmp_path, {**(TRAIN_CFG if command == "train" else CLF_CFG), key: value})
    assert main(argv + ["--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_train_config_with_list_init_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {**TRAIN_CFG, "init": [{"mode": "kan"}]})
    assert main(["train", "--config", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "init" in err and err.count("\n") == 1


def test_init_keys_are_init_network_keywords():
    from adaptkan.cli import _build_net
    init = {"mode": "linear", "noise": 0.0, "omega": 4, "domain": [-2.0, 2.0], "slope": 0.5}
    net = _build_net({"init": init}, [2, 3], seed=1)
    np.testing.assert_array_equal(net.parameters()[0],
                                  init_network([2, 3], seed=1, **init).parameters()[0])
    np.testing.assert_array_equal(net.layers[0].hist.b, [2.0, 2.0])


def test_clf_train_defaults_are_train_clfs(tmp_path):
    cfg = {"shape": [2, 4], "epochs": 2, "train_n": 600, "test_n": 64}
    outs = []
    for name, extra in (("given", {"lr": 0.01, "batch_size": 256}), ("default", {})):
        out = tmp_path / name
        path = write_cfg(tmp_path, {**cfg, **extra}, f"{name}.json")
        assert main(["clf", "train", "--config", path, "--out-dir", str(out)]) == 0
        outs.append([(out / f).read_bytes() for f in ("model.json", "clf_metrics.csv")])
    assert outs[0] == outs[1]


def _simulate(tmp_path, *flags):
    return ["clf", "simulate", "--analytical", "--trajectories", "3", "--horizon", "0.05",
            "--out", str(tmp_path / "r.csv"), *flags]


def _conformal(tmp_path, *flags):
    report = tmp_path / "report.csv"
    report.write_text("final_distance\n0.1\n0.2\n")
    return ["clf", "conformal", "--report", str(report), *flags]


def _ood_fit(tmp_path, *flags):
    features = tmp_path / "f.csv"
    write_features(features, np.random.default_rng(12).normal(size=(20, 2)))
    return ["ood", "fit", "--features", str(features), "--out", str(tmp_path / "s.json"), *flags]


def _config_file(command, text):
    def argv(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return command + ["--config", str(path), "--out-dir", str(tmp_path / "out")]
    return argv


class _StillRunning(BaseException):
    """Raised by the alarm that cuts off a command still running."""


@pytest.mark.parametrize("argv,named", [
    (lambda t: _simulate(t, "--dt", "0"), "dt"),
    (lambda t: _simulate(t, "--dt", "nan"), "dt"),
    (lambda t: _simulate(t, "--horizon", "inf"), "horizon"),
    (lambda t: _simulate(t, "--horizon", "-1"), "horizon"),
    (lambda t: _simulate(t, "--trajectories", "0"), "trajectories"),
    (lambda t: _simulate(t, "--horizon", "1e300"), "horizon"),
    (lambda t: _simulate(t, "--horizon", "0.001"), "horizon"),
    (lambda t: _simulate(t, "--trajectories", "10", "--horizon", "1e4",
                         "--paths-out", str(t / "p.csv")), "path"),
    (lambda t: _conformal(t, "--delta", "2"), "delta"),
    (lambda t: _conformal(t, "--delta", "-1"), "delta"),
    (lambda t: _ood_fit(t, "--bins", "0"), "bins"),
    (lambda t: _ood_fit(t, "--bins", "-3"), "bins"),
    (_config_file(["train"], "5"), "cfg.json"),
    (_config_file(["train"], "null"), "cfg.json"),
    (_config_file(["clf", "train"], "5"), "cfg.json"),
    (_config_file(["clf", "train"], "null"), "cfg.json"),
], ids=["dt-0", "dt-nan", "horizon-inf", "horizon-negative", "trajectories-0",
        "steps-1e302", "steps-0", "path-rows", "delta-2", "delta-negative", "bins-0",
        "bins-negative", "train-number", "train-null", "clf-train-number", "clf-train-null"])
def test_out_of_range_cli_values_exit_2(tmp_path, capsys, argv, named):
    # a simulation the checks fail to refuse would run for hours: cut it off
    def cut(signum, frame):
        raise _StillRunning

    old = signal.signal(signal.SIGALRM, cut)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        code = main(argv(tmp_path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _model_is_a_list(doc):
    return [doc]


def _adapt_is_a_list(doc):
    doc["adapt"] = [doc["adapt"]]
    return doc


def _no_layers(doc):
    doc["layers"] = []
    return doc


def _layer_is_a_number(doc):
    doc["layers"][1] = 3
    return doc


def _feature_is_a_list(doc):
    feat = doc["layers"][0]["features"][1]
    doc["layers"][0]["features"][1] = [feat["domain"], feat["hist"]]
    return doc


def _quadratic_features(doc):
    # k = 2 everywhere with coef sized to match: only cubic windows exist
    for layer in doc["layers"]:
        for feat in layer["features"]:
            feat["domain"]["k"] = 2
        layer["coef"] = [[row[:-1] for row in rows] for rows in layer["coef"]]
    return doc


def _extreme_is_nan(doc):
    doc["layers"][0]["features"][0]["hist"]["ood_a"] = float("nan")
    return doc


def _extreme_inside_domain(doc):
    doc["layers"][0]["features"][0]["hist"]["ood_a"] = 0.5  # on the domain [-1, 1]
    return doc


def _negative_bin_count(doc):
    doc["layers"][0]["features"][0]["hist"]["hist"][0] = -5.0
    return doc


def _negative_tally(doc):
    doc["layers"][0]["features"][0]["hist"]["ood_hist"][0] = -1.0
    return doc


def _feature_alpha_differs(doc):
    doc["layers"][1]["features"][0]["hist"]["alpha"] = 0.5  # the adapt block holds 0.001
    return doc


def _adapt_alpha_is_true(doc):
    doc["adapt"]["alpha"] = True  # not the rate 1.0 that every feature records
    for layer in doc["layers"]:
        for feature in layer["features"]:
            feature["hist"]["alpha"] = 1.0
    return doc


@pytest.mark.parametrize("corrupt", [_model_is_a_list, _adapt_is_a_list, _no_layers,
                                     _layer_is_a_number, _feature_is_a_list,
                                     _quadratic_features, _extreme_is_nan,
                                     _extreme_inside_domain, _feature_alpha_differs,
                                     _negative_bin_count, _negative_tally, _adapt_alpha_is_true])
def test_eval_on_malformed_model_json_exits_2(tmp_path, capsys, corrupt):
    from adaptkan.tasks import save_dataset
    path, doc = _saved_model(tmp_path, [2, 3, 1])
    path.write_text(json.dumps(corrupt(doc)))
    data = tmp_path / "d.csv"
    save_dataset(data, np.zeros((4, 2)), np.zeros(4))
    assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def _scorer_is_a_list(doc):
    return [doc]


def _scorer_without_counts(doc):
    del doc["counts"]
    return doc


def _scorer_lo_not_a_list(doc):
    doc["lo"] = 0.0
    return doc


def _scorer_empty_range(doc):
    doc["hi"][1] = doc["lo"][1]
    return doc


def _scorer_nan_counts(doc):
    doc["counts"][0][0] = math.nan
    return doc


def _scorer_negative_counts(doc):
    doc["counts"][0][:2] = [-1.0, 2.0]
    return doc


def _scorer_infinite_lo(doc):
    doc["lo"][0] = -math.inf
    return doc


def _scorer_nan_lambda(doc):
    doc["msp_lambda"] = math.nan
    return doc


def _scorer_lo_is_an_object(doc):
    doc["lo"] = {}
    return doc


def _scorer_counts_is_an_object(doc):
    doc["counts"] = {"a": 1}
    return doc


def _scorer_lambda_is_a_list(doc):
    doc["msp_lambda"] = [1]
    return doc


def _scorer_lambda_is_true(doc):
    doc["msp_lambda"] = True
    return doc


@pytest.mark.parametrize("corrupt", [_scorer_is_a_list, _scorer_without_counts,
                                     _scorer_lo_not_a_list, _scorer_empty_range,
                                     _scorer_nan_counts, _scorer_negative_counts,
                                     _scorer_infinite_lo, _scorer_nan_lambda,
                                     _scorer_lo_is_an_object, _scorer_counts_is_an_object,
                                     _scorer_lambda_is_a_list, _scorer_lambda_is_true])
def test_ood_score_on_malformed_scorer_json_exits_2(tmp_path, capsys, corrupt):
    fit = tmp_path / "fit.csv"
    write_features(fit, np.random.default_rng(11).normal(size=(100, 2)))
    scorer = tmp_path / "s.json"
    assert main(["ood", "fit", "--features", str(fit), "--bins", "5", "--out", str(scorer)]) == 0
    scorer.write_text(json.dumps(corrupt(json.loads(scorer.read_text()))))
    capsys.readouterr()
    assert main(["ood", "score", "--scorer", str(scorer), "--features", str(fit),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
