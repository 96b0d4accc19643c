"""Tests for the command-line pipeline and configuration loading."""

import json

import numpy as np
import pytest

from trajdiff import checkpoint, config, data
from trajdiff.cli import load_scores_csv, main


# ---------------------------------------------------------------------------
# configuration

def test_config_defaults_validate():
    cfg = config.Config().validate()
    assert cfg.n == 8 and cfg.m == 12 and cfg.dt == 0.4
    assert cfg.T == 100 and cfg.lam == 0.1


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys.*epochz"):
        config.from_dict({"epochz": 3})


def test_config_rejects_bad_ranges():
    with pytest.raises(ValueError, match="dt"):
        config.from_dict({"dt": -0.4})
    with pytest.raises(ValueError, match="lam"):
        config.from_dict({"lam": -0.1})
    with pytest.raises(ValueError, match="beta"):
        config.from_dict({"beta_start": 0.5, "beta_end": 0.1})
    with pytest.raises(ValueError, match="heads"):
        config.from_dict({"width": 30, "heads": 4})
    with pytest.raises(ValueError, match="T"):
        config.from_dict({"T": 0})


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = config.from_dict({"T": 25, "scorer_hidden": [8, 4]})
    config.save_config(cfg, path)
    again = config.load_config(path)
    assert again == cfg and again.scorer_hidden == (8, 4)


def test_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        config.load_config(path)


# ---------------------------------------------------------------------------
# pipeline fixture: one tiny end-to-end run shared by the tests below

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfgp = d / "cfg.json"
    cfgp.write_text(json.dumps({
        "score_epochs": 4, "diffusion_epochs": 1, "T": 8,
        "d_e": 16, "d_n": 8, "width": 32, "depth": 1}))
    paths = {
        "dir": d, "config": str(cfgp),
        "corpus": str(d / "corpus.jsonl"), "pairs": str(d / "pairs.jsonl"),
        "scorer": str(d / "scorer.ckpt"), "scores": str(d / "scores.csv"),
        "model": str(d / "model.ckpt"),
    }
    steps = [
        ["gen-data", "--scenario", "t-intersection", "--count", "400",
         "--seed", "3", "--out", paths["corpus"], "--config", paths["config"]],
        ["make-pairs", "--corpus", paths["corpus"], "--constraint",
         "slow-down", "--fraction", "0.15", "--seed", "5",
         "--out", paths["pairs"], "--config", paths["config"]],
        ["train-score", "--pairs", paths["pairs"], "--out", paths["scorer"],
         "--report", str(d / "score_report.csv"),
         "--config", paths["config"], "--seed", "0"],
        ["score-corpus", "--checkpoint", paths["scorer"],
         "--corpus", paths["corpus"], "--out", paths["scores"]],
        ["train-diffusion", "--checkpoint", paths["scorer"],
         "--corpus", paths["corpus"], "--scores", paths["scores"],
         "--out", paths["model"], "--config", paths["config"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return paths


def test_gen_data_deterministic(pipeline, tmp_path):
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    argv = ["gen-data", "--scenario", "t-intersection", "--count", "100",
            "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_make_pairs_deterministic_and_split(pipeline, tmp_path):
    out1, out2, allp = (tmp_path / n for n in ("p1.jsonl", "p2.jsonl",
                                               "pall.jsonl"))
    argv = ["make-pairs", "--corpus", pipeline["corpus"], "--constraint",
            "turn-right", "--fraction", "0.2", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(argv + ["--all-splits", "--out", str(allp)]) == 0
    assert allp.read_bytes() != out1.read_bytes()
    pairs, meta = data.load_pairs(out1)
    assert meta["constraint"] == "turn-right"
    assert pairs


def test_scorer_checkpoint_contents(pipeline):
    bundle = checkpoint.load_bundle(pipeline["scorer"])
    assert bundle.scorer is not None and bundle.denoiser is None
    assert bundle.constraints == ["slow-down"]
    assert bundle.encoder.d_e == 16
    restored = config.from_dict(bundle.config)
    assert restored.score_epochs == 4


def test_score_csv_contents(pipeline):
    name, scores = load_scores_csv(pipeline["scores"])
    assert name == "slow-down"
    assert len(scores) == 400
    vals = np.array(list(scores.values()))
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_score_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(data.DataError, match="score table"):
        load_scores_csv(bad)
    bad.write_text("trajectory_id,score\n3,abc\n")
    with pytest.raises(data.DataError, match="row 2"):
        load_scores_csv(bad)


def test_model_checkpoint_contents(pipeline):
    bundle = checkpoint.load_bundle(pipeline["model"])
    assert bundle.denoiser is not None and bundle.schedule is not None
    assert bundle.schedule.T == 8
    assert bundle.denoiser.n_scores == 1
    assert bundle.denoiser.scale > 0.0


def test_predict_deterministic(pipeline, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["predict", "--checkpoint", pipeline["model"],
            "--corpus", pipeline["corpus"], "--c", "0.8", "--n-s", "3"]
    assert main(argv + ["--seed", "1", "--out", str(out1),
                        "--svg", str(tmp_path / "a.svg")]) == 0
    assert main(argv + ["--seed", "1", "--out", str(out2)]) == 0
    assert main(argv + ["--seed", "2", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    rows = [ln for ln in out1.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "sample,step,x,y"
    assert len(rows) == 1 + 3 * 12
    assert (tmp_path / "a.svg").exists()


def test_predict_score_count_mismatch(pipeline, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--c", "0.5", "0.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "score count mismatch" in err
    assert "code=2" in err and "kind=usage" in err


def test_predict_unknown_id(pipeline, tmp_path):
    rc = main(["predict", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--id", "999999",
               "--c", "0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_eval_subcommand(pipeline, tmp_path):
    out = tmp_path / "metrics.csv"
    argv = ["eval", "--checkpoint", pipeline["model"],
            "--corpus", pipeline["corpus"], "--n-c", "2", "--n-s", "2",
            "--limit", "3", "--baseline", "--seed", "0",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "n_c,n_s,min_ade,min_fde,runtime_seconds"
    assert len(rows) == 3
    first = out.read_bytes()
    assert main(argv) == 0
    second = out.read_bytes()
    # identical apart from wall-clock columns
    strip = lambda b: [ln.rsplit(b",", 1)[0] for ln in b.splitlines()]
    assert strip(first) == strip(second)


def test_sweep_ablation_budgets(pipeline, tmp_path):
    out = tmp_path / "ablate.csv"
    rc = main(["sweep", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--kind", "ablation",
               "--budgets", "2x2,1x1", "--limit", "2", "--seed", "0",
               "--out", str(out), "--svg", str(tmp_path / "ablate.svg")])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 3 and rows[1].startswith("2,2,")
    assert (tmp_path / "ablate.svg").exists()
    rc = main(["sweep", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--kind", "ablation",
               "--budgets", "nonsense", "--out", str(out)])
    assert rc == 2


def test_sweep_adherence(pipeline, tmp_path):
    out = tmp_path / "adh.csv"
    rc = main(["sweep", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--kind", "adherence",
               "--grid-size", "4", "--n-s", "2", "--limit", "2",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# kind=slow-down" in text
    assert sum(1 for ln in text.splitlines()
               if ln and not ln.startswith("#")) == 5


def test_sweep_grid_needs_two_scores(pipeline, tmp_path):
    rc = main(["sweep", "--checkpoint", pipeline["model"],
               "--corpus", pipeline["corpus"], "--kind", "grid",
               "--grid-size", "2", "--n-s", "2", "--limit", "1",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# failure modes

def test_usage_error_exit_code():
    assert main(["gen-data", "--scenario", "t-intersection"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_exit_code(tmp_path):
    rc = main(["score-corpus", "--checkpoint", str(tmp_path / "none.ckpt"),
               "--corpus", str(tmp_path / "none.jsonl"),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3


def test_scorer_checkpoint_refused_for_sampling(pipeline, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", pipeline["scorer"],
               "--corpus", pipeline["corpus"], "--c", "0.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "denoiser" in capsys.readouterr().err


def test_bad_config_exit_code(pipeline, tmp_path):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"lam": -1.0}))
    rc = main(["gen-data", "--scenario", "t-intersection", "--count", "10",
               "--config", str(cfgp), "--out", str(tmp_path / "c.jsonl")])
    assert rc == 2


def _corrupt_corpus(src, dst, edit_header=None, edit_record=None, raw=None):
    """Copy the header and first record of a corpus, edited in place."""
    lines = open(src).read().splitlines()
    header, rec = json.loads(lines[0]), json.loads(lines[1])
    if edit_header:
        edit_header(header)
    if edit_record:
        edit_record(rec)
    dst.write_text(json.dumps(header) + "\n" + (raw or json.dumps(rec)) + "\n")


@pytest.mark.parametrize("case, edit_header, edit_record, raw, where", [
    ("missing history", None, lambda r: r.pop("history"), None, "line 2"),
    ("missing id", None, lambda r: r.pop("id"), None, "line 2"),
    ("ragged history", None,
     lambda r: r.__setitem__("history", [[0.0, 1.0], [2.0]]), None, "line 2"),
    ("non-numeric id", None, lambda r: r.__setitem__("id", "x"), None, "line 2"),
    ("neighbors not a list", None,
     lambda r: r.__setitem__("neighbors", 5), None, "line 2"),
    ("record not an object", None, None, "[1, 2]", "line 2"),
    ("header without dt", lambda h: h.pop("dt"), None, None, "line 1"),
    ("header without m", lambda h: h.pop("m"), None, None, "line 1"),
    ("non-numeric dt", lambda h: h.__setitem__("dt", "fast"), None, None,
     "line 1"),
])
def test_malformed_corpus_is_a_data_error(pipeline, tmp_path, capsys, case,
                                          edit_header, edit_record, raw, where):
    bad = tmp_path / "bad.jsonl"
    _corrupt_corpus(pipeline["corpus"], bad, edit_header, edit_record, raw)
    capsys.readouterr()
    rc = main(["make-pairs", "--corpus", str(bad), "--constraint", "slow-down",
               "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3, case
    assert len(err) == 1, err
    assert "kind=data" in err[0] and f"bad.jsonl: {where}" in err[0]


def test_non_finite_denoiser_weight_is_a_numerics_error(pipeline, tmp_path,
                                                       capsys):
    bundle = checkpoint.load_bundle(pipeline["model"])
    bundle.denoiser.weights["den.b0.f1.w"].value[3, 5] = np.nan
    bad = tmp_path / "nan.ckpt"
    checkpoint.save_bundle(bad, bundle)
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(bad), "--corpus",
               pipeline["corpus"], "--c", "0.5", "--n-s", "2",
               "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(err) == 1 and "kind=numerics" in err[0], err
