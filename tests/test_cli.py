"""Tests for the command-line pipeline and configuration loading."""

import json
import struct

import numpy as np
import pytest

from trajdiff import checkpoint, config, data
from trajdiff.cli import main
from trajdiff.data import load_scores_csv


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
    path.write_text(json.dumps(cfg.to_dict()))
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


def _corrupt_records(src, dst, edit_header=None, edit_record=None, raw=None):
    """Copy the header and first record of a corpus or pairs file, edited
    in place."""
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
    _corrupt_records(pipeline["corpus"], bad, edit_header, edit_record, raw)
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


@pytest.mark.parametrize("case, edit_header, edit_record, raw, where", [
    ("missing label", None, lambda r: r.pop("label"), None, "line 2"),
    ("missing future_a", None, lambda r: r.pop("future_a"), None, "line 2"),
    ("ragged history", None,
     lambda r: r.__setitem__("history", [[0.0, 1.0], [2.0]]), None, "line 2"),
    ("neighbors not a list", None,
     lambda r: r.__setitem__("neighbors", 5), None, "line 2"),
    ("record not an object", None, None, "[1, 2]", "line 2"),
    ("label out of range", None, lambda r: r.__setitem__("label", 2), None,
     "line 2"),
    ("history with three columns", None,
     lambda r: r.__setitem__("history", [[0.0, 1.0, 2.0]] * 8), None,
     "line 2"),
    ("futures of unequal length", None,
     lambda r: r.__setitem__("future_b", r["future_b"][:5]), None, "line 2"),
])
def test_malformed_pairs_is_a_data_error(pipeline, tmp_path, capsys, case,
                                         edit_header, edit_record, raw, where):
    bad = tmp_path / "bad.jsonl"
    _corrupt_records(pipeline["pairs"], bad, edit_header, edit_record, raw)
    capsys.readouterr()
    rc = main(["train-score", "--pairs", str(bad),
               "--out", str(tmp_path / "s.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3, case
    assert len(err) == 1, err
    assert "kind=data" in err[0] and f"bad.jsonl: {where}" in err[0]


def test_pairs_track_lengths_must_match_the_first_record(pipeline, tmp_path,
                                                        capsys):
    bad = tmp_path / "bad.jsonl"
    lines = open(pipeline["pairs"]).read().splitlines()
    rec = json.loads(lines[2])
    rec["history"] = rec["history"][:5]
    bad.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
    capsys.readouterr()
    rc = main(["train-score", "--pairs", str(bad),
               "--out", str(tmp_path / "s.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and "bad.jsonl: line 3" in err[0], err


def test_pairs_header_not_an_object_is_a_data_error(pipeline, tmp_path,
                                                    capsys):
    bad = tmp_path / "bad.jsonl"
    lines = open(pipeline["pairs"]).read().splitlines()
    bad.write_text("[1, 2]\n" + lines[1] + "\n")
    capsys.readouterr()
    rc = main(["train-score", "--pairs", str(bad),
               "--out", str(tmp_path / "s.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and "not a pairs file" in err[0], err


def _edit_checkpoint_meta(blob, edit):
    """Checkpoint bytes with the JSON meta replaced by edit(meta bytes)."""
    (size,) = struct.unpack_from("<Q", blob, 8)
    meta = edit(blob[16:16 + size])
    return blob[:8] + struct.pack("<Q", len(meta)) + meta + blob[16 + size:]


def _drop_meta_key(key):
    def edit(meta):
        d = json.loads(meta)
        del d[key]
        return json.dumps(d).encode()
    return edit


@pytest.mark.parametrize("case, edit, reason", [
    ("bad JSON", lambda m: b"x" + m[1:], "corrupt checkpoint header"),
    ("bad UTF-8", lambda m: m[:1] + b"\xff" + m[2:],
     "corrupt checkpoint header"),
    ("missing dt", _drop_meta_key("dt"), "missing field 'dt'"),
    ("missing denoiser", _drop_meta_key("denoiser"),
     "missing field 'denoiser'"),
])
def test_corrupt_checkpoint_header_is_a_data_error(pipeline, tmp_path, capsys,
                                                   case, edit, reason):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_edit_checkpoint_meta(
        open(pipeline["model"], "rb").read(), edit))
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(bad), "--corpus",
               pipeline["corpus"], "--c", "0.5", "--n-s", "2",
               "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3, case
    assert len(err) == 1, err
    assert "kind=data" in err[0] and reason in err[0], err


def test_checkpoint_with_dropped_config_keys_predicts(pipeline, tmp_path):
    # checkpoints written before n_c, n_s and pair_fraction left the config
    # still carry them; they load and sample exactly like current ones
    def add_old_keys(meta):
        d = json.loads(meta)
        d["config"].update(n_c=20, n_s=20, pair_fraction=0.01)
        return json.dumps(d, sort_keys=True, separators=(",", ":")).encode()

    old = tmp_path / "old.ckpt"
    old.write_bytes(_edit_checkpoint_meta(
        open(pipeline["model"], "rb").read(), add_old_keys))
    assert checkpoint.load_bundle(old).config["n_c"] == 20
    argv = ["predict", "--corpus", pipeline["corpus"], "--c", "0.4",
            "--n-s", "3", "--seed", "2"]
    assert main(argv + ["--checkpoint", str(old),
                        "--out", str(tmp_path / "old.csv")]) == 0
    assert main(argv + ["--checkpoint", pipeline["model"],
                        "--out", str(tmp_path / "new.csv")]) == 0
    assert ((tmp_path / "old.csv").read_bytes()
            == (tmp_path / "new.csv").read_bytes())


# One malformed call per subcommand: a bad integer, a missing file or a
# zero count, with the exit code it must give.  "{missing}" stands for a
# path that does not exist; argument errors win over missing files.
CONTRACT_CASES = {
    "gen-data bad --count": (2, [
        "gen-data", "--scenario", "t-intersection", "--count", "abc"]),
    "import-ethucy missing --input": (3, [
        "import-ethucy", "--input", "{missing}", "--scene", "eth"]),
    "make-pairs missing --corpus": (3, [
        "make-pairs", "--corpus", "{missing}", "--constraint", "slow-down"]),
    "train-score missing --pairs": (3, [
        "train-score", "--pairs", "{missing}"]),
    "score-corpus missing --checkpoint": (3, [
        "score-corpus", "--checkpoint", "{missing}", "--corpus", "{missing}"]),
    "train-diffusion missing --checkpoint": (3, [
        "train-diffusion", "--checkpoint", "{missing}", "--corpus",
        "{missing}", "--scores", "{missing}"]),
    "predict zero --n-s": (2, [
        "predict", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--c", "0.5", "--n-s", "0"]),
    "predict bad --n-s": (2, [
        "predict", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--c", "0.5", "--n-s", "abc"]),
    "eval zero --n-c": (2, [
        "eval", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--n-c", "0"]),
    "eval zero --limit": (2, [
        "eval", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--limit", "0"]),
    "sweep zero --n-s": (2, [
        "sweep", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--kind", "adherence", "--n-s", "0"]),
    "sweep zero --limit": (2, [
        "sweep", "--checkpoint", "{missing}", "--corpus", "{missing}",
        "--kind", "ablation", "--limit", "0"]),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_every_subcommand_fails_with_one_structured_line(tmp_path, capsys,
                                                        case):
    want, argv = CONTRACT_CASES[case]
    out = tmp_path / "out"
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    capsys.readouterr()
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == want, case
    assert len(err) == 1, err
    assert err[0].startswith(f"trajdiff: error code={rc} "), err
    assert not out.exists()


def test_help_still_exits_zero(capsys):
    assert main(["eval", "--help"]) == 0
    assert "--n-c" in capsys.readouterr().out
