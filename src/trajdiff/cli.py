"""Command-line pipeline: data, pair labeling, training, prediction, reports.

Every subcommand honors --seed and writes deterministic artifacts.  Exit
codes: 0 success, 2 usage error, 3 data error, 4 numerical failure;
failures print one machine-parseable line to stderr.
"""

import argparse
import math
import sys

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_mod
from . import config as config_mod
from . import data as data_mod
from . import diffusion
from . import encoder as enc_mod
from . import evaluate
from . import scoring
from . import svg as svg_mod

USAGE, DATA, NUMERICS = 2, 3, 4
_CODE_NAMES = {USAGE: "usage", DATA: "data", NUMERICS: "numerics"}


class _Failure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _say(**kv):
    print(" ".join(f"{k}={v}" for k, v in kv.items()))


# ---------------------------------------------------------------------------
# shared helpers

def _load_config(args):
    cfg = (config_mod.load_config(args.config) if args.config
           else config_mod.Config())
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg.validate()


def _tie_threshold(cfg, kind):
    return (cfg.tie_threshold_speed if kind == "slow-down"
            else cfg.tie_threshold_turn)


def _schedule(cfg):
    return diffusion.make_schedule(cfg.T, cfg.beta_start, cfg.beta_end,
                                   cfg.schedule_kind)


def _need(bundle, part):
    if getattr(bundle, part) is None:
        raise _Failure(DATA, f"checkpoint has no {part}; run the "
                             f"corresponding training stage first")


def _test_subset(corpus, limit, seed):
    """Deterministic evaluation subset of the held-out split."""
    _, test = data_mod.split_corpus(corpus)
    trajs = sorted(test.trajectories, key=lambda t: t.id)
    if not trajs:
        raise _Failure(DATA, "corpus has no held-out trajectories")
    if limit is not None and limit < len(trajs):
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(trajs), size=limit, replace=False))
        trajs = [trajs[i] for i in keep]
    return trajs


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    cfg = _load_config(args)
    corpus = data_mod.generate_synthetic(args.scenario, args.count, cfg.seed,
                                         n=cfg.n, m=cfg.m, dt=cfg.dt)
    data_mod.save_corpus(corpus, args.out)
    _say(wrote=args.out, trajectories=len(corpus.trajectories),
         scenario=args.scenario, seed=cfg.seed)
    return 0


def cmd_import_ethucy(args):
    cfg = _load_config(args)
    corpus = data_mod.import_ethucy(args.input, args.scene,
                                    frame_rate=args.frame_rate,
                                    n=cfg.n, m=cfg.m, dt=cfg.dt,
                                    stride=args.stride,
                                    radius=cfg.neighbor_radius)
    data_mod.save_corpus(corpus, args.out)
    _say(wrote=args.out, trajectories=len(corpus.trajectories),
         scene=args.scene,
         skipped_tracks=corpus.meta.get("skipped_tracks", 0),
         skipped_segments=corpus.meta.get("skipped_segments", 0))
    return 0


def cmd_make_pairs(args):
    cfg = _load_config(args)
    corpus = data_mod.load_corpus(args.corpus)
    if not args.all_splits:
        corpus, _ = data_mod.split_corpus(corpus)
    annotator = data_mod.ConstraintAnnotator(
        args.constraint, tie_threshold=_tie_threshold(cfg, args.constraint))
    pairs = data_mod.make_pairs(corpus, annotator, args.fraction,
                                seed=cfg.seed)
    data_mod.save_pairs(pairs, args.out, meta={
        "constraint": args.constraint, "fraction": args.fraction,
        "seed": cfg.seed, "source": str(args.corpus)})
    _say(wrote=args.out, pairs=len(pairs), constraint=args.constraint)
    return 0


def cmd_train_score(args):
    cfg = _load_config(args)
    pairs, meta = data_mod.load_pairs(args.pairs)
    constraint = meta.get("constraint", "unknown")
    enc = enc_mod.init_encoder(cfg.d_e, cfg.d_n, cfg.n, cfg.dt, seed=cfg.seed)
    scorer, report = scoring.train_scorer(pairs, enc, cfg)
    bundle = ckpt_mod.Bundle(encoder=enc, scorer=scorer, denoiser=None,
                             schedule=None, constraints=[constraint],
                             config=cfg.to_dict(), m=scorer.m)
    ckpt_mod.save_bundle(args.out, bundle)
    if args.report:
        data_mod.write_table(args.report, {
            "constraint": constraint,
            "final_holdout_accuracy":
                f"{report['final_holdout_accuracy']:.6f}",
            "holdout_score_std": f"{report['holdout_score_std']:.6f}"},
            "epoch,train_loss,holdout_accuracy",
            (f"{row['epoch']},{row['train_loss']:.6f},"
             f"{row['holdout_accuracy']:.6f}" for row in report["epochs"]))
    _say(wrote=args.out, constraint=constraint,
         train_pairs=report["train_pairs"],
         holdout_accuracy=f"{report['final_holdout_accuracy']:.4f}")
    return 0


def cmd_score_corpus(args):
    bundle = ckpt_mod.load_bundle(args.checkpoint)
    _need(bundle, "scorer")
    corpus = data_mod.load_corpus(args.corpus)
    rows = scoring.score_corpus(corpus, bundle.scorer, bundle.encoder)
    data_mod.write_table(args.out, {
        "constraint": bundle.constraints[0], "checkpoint": str(args.checkpoint),
        "corpus": str(args.corpus)}, "trajectory_id,score",
        (f"{tid},{s:.12g}" for tid, s in rows))
    vals = np.array([s for _, s in rows])
    _say(wrote=args.out, scored=len(rows), mean=f"{vals.mean():.4f}",
         std=f"{vals.std():.4f}")
    return 0


def cmd_train_diffusion(args):
    cfg = _load_config(args)
    base = ckpt_mod.load_bundle(args.checkpoint)
    corpus = data_mod.load_corpus(args.corpus)
    names, tables = [], []
    for path in args.scores:
        name, table = data_mod.load_scores_csv(path)
        names.append(name or "unknown")
        tables.append(table)
    merged = {}
    for t in corpus.trajectories:
        try:
            merged[t.id] = np.array([table[t.id] for table in tables])
        except KeyError:
            continue  # train_diffusion reports missing train-split ids
    sched = _schedule(cfg)
    den, report = diffusion.train_diffusion(corpus, merged, base.encoder,
                                            sched, cfg, args.all_data)
    bundle = ckpt_mod.Bundle(encoder=base.encoder, scorer=base.scorer,
                             denoiser=den, schedule=sched, constraints=names,
                             config=cfg.to_dict(), m=corpus.m)
    ckpt_mod.save_bundle(args.out, bundle)
    if args.report:
        data_mod.write_table(args.report, {
            "scale": f"{report['scale']:.6f}",
            "trained_on": report["trained_on"],
            "constraints": ",".join(names)},
            "epoch,loss",
            (f"{row['epoch']},{row['loss']:.6f}" for row in report["epochs"]))
    losses = [e["loss"] for e in report["epochs"]]
    _say(wrote=args.out, constraints=",".join(names),
         trained_on=report["trained_on"],
         final_loss=f"{losses[-1]:.4f}" if losses else "nan")
    return 0


def cmd_predict(args):
    bundle = ckpt_mod.load_bundle(args.checkpoint)
    _need(bundle, "denoiser")
    _need(bundle, "schedule")
    den = bundle.denoiser
    if len(args.c) != den.n_scores:
        raise _Failure(USAGE, f"score count mismatch: got {len(args.c)} "
                              f"values, checkpoint has {den.n_scores} "
                              f"constraints ({','.join(bundle.constraints)})")
    corpus = data_mod.load_corpus(args.corpus)
    by_id = {t.id: t for t in corpus.trajectories}
    if args.id is not None:
        if args.id not in by_id:
            raise _Failure(DATA, f"trajectory {args.id} not in corpus")
        traj = by_id[args.id]
    else:
        traj = min(corpus.trajectories, key=lambda t: t.id)
    f = enc_mod.encode(traj.history, traj.neighbors, bundle.encoder)
    futures = diffusion.sample_batch(
        f[None], args.c, args.n_s, traj.history[-1:], bundle.schedule, den,
        [np.random.default_rng(args.seed)], args.mode)[0, 0]
    data_mod.write_table(args.out, {
        "trajectory_id": traj.id, "c": ",".join(f"{c:g}" for c in args.c),
        "n_s": args.n_s, "seed": args.seed, "mode": args.mode}, "sample,step,x,y",
        (f"{si},{k},{x:.6f},{y:.6f}"
         for si, fut in enumerate(futures) for k, (x, y) in enumerate(fut)))
    if args.svg:
        svg_mod.trajectory_overlay(
            args.svg, traj.history, traj.future, list(futures),
            sample_values=[args.c[0]] * args.n_s,
            title=f"trajectory {traj.id}, c={args.c}")
    _say(wrote=args.out, trajectory=traj.id, samples=args.n_s, seed=args.seed)
    return 0


def cmd_eval(args):
    bundle = ckpt_mod.load_bundle(args.checkpoint)
    _need(bundle, "denoiser")
    _need(bundle, "schedule")
    corpus = data_mod.load_corpus(args.corpus)
    trajs = _test_subset(corpus, args.limit, args.seed)
    report = evaluate.evaluate_trajectories(
        trajs, bundle.encoder, bundle.schedule, bundle.denoiser,
        args.n_c, args.n_s, seed=args.seed, mode=args.mode)
    reports = [report]
    meta = {"checkpoint": str(args.checkpoint), "corpus": str(args.corpus),
            "trajectories": len(trajs), "seed": args.seed}
    if args.baseline:
        reports.append(evaluate.constant_velocity_report(trajs, bundle.dt))
        meta["baseline"] = "constant-velocity"
    evaluate.write_metric_csv(args.out, reports, meta=meta)
    _say(wrote=args.out, trajectories=len(trajs),
         min_ade=f"{report.min_ade:.4f}", min_fde=f"{report.min_fde:.4f}")
    return 0


def cmd_sweep(args):
    bundle = ckpt_mod.load_bundle(args.checkpoint)
    _need(bundle, "denoiser")
    _need(bundle, "schedule")
    corpus = data_mod.load_corpus(args.corpus)
    trajs = _test_subset(corpus, args.limit, args.seed)
    meta = {"checkpoint": str(args.checkpoint), "corpus": str(args.corpus),
            "trajectories": len(trajs), "seed": args.seed}
    enc, sched, den = bundle.encoder, bundle.schedule, bundle.denoiser

    if args.kind == "ablation":
        pairs = evaluate.ABLATION_PAIRS
        if args.budgets:
            try:
                pairs = tuple(tuple(int(v) for v in cell.split("x"))
                              for cell in args.budgets.split(","))
                if any(len(c) != 2 or c[0] < 1 or c[1] < 1 for c in pairs):
                    raise ValueError
            except ValueError:
                raise _Failure(USAGE, f"bad --budgets {args.budgets!r}, "
                                      f"expected e.g. 20x20,10x10")
        reports = evaluate.ablation_sweep(trajs, enc, sched, den, pairs=pairs,
                                          seed=args.seed, mode=args.mode)
        evaluate.write_metric_csv(args.out, reports, meta=meta)
        if args.svg:
            cells = [f"{r.n_c}x{r.n_s}" for r in reports]
            svg_mod.line_plot(args.svg, np.arange(len(reports)),
                              [[r.min_ade for r in reports],
                               [r.min_fde for r in reports]],
                              labels=["minADE", "minFDE"],
                              title="budget sweep: " + " ".join(cells))
        best = min(reports, key=lambda r: r.min_ade)
        _say(wrote=args.out, cells=len(reports),
             best=f"{best.n_c}x{best.n_s}", min_ade=f"{best.min_ade:.4f}")
        return 0

    hists = [t.history for t in trajs]
    nbrs = [t.neighbors for t in trajs]
    if args.kind == "adherence":
        constraint = args.constraint or bundle.constraints[args.axis]
        report = evaluate.adherence_curve(
            hists, nbrs, enc, sched, den, constraint,
            grid_size=args.grid_size, n_s=args.n_s, axis=args.axis,
            seed=args.seed, mode=args.mode, dt=bundle.dt)
        evaluate.write_adherence_csv(args.out, report, meta=meta)
        if args.svg:
            svg_mod.line_plot(args.svg, report.grid, [report.mean_feature],
                              labels=[constraint],
                              title=f"adherence rho={report.rho:.3f}")
        _say(wrote=args.out, constraint=constraint, rho=f"{report.rho:.4f}",
             adheres=report.adheres)
        return 0

    # grid
    report = evaluate.multi_constraint_grid(
        hists, nbrs, enc, sched, den, n=args.grid_size, n_s=args.n_s,
        seed=args.seed, mode=args.mode, dt=bundle.dt)
    evaluate.write_grid_csv(args.out, report, meta=meta)
    if args.svg:
        n = report.grid.size
        turn = np.array([c[1] for c in report.cells]).reshape(n, n)
        svg_mod.line_plot(args.svg, report.grid, list(turn.T),
                          labels=[f"c2={c:.2f}" for c in report.grid],
                          title="turn feature vs c1")
    _say(wrote=args.out, cells=len(report.cells),
         rho_turn=f"{report.rho[0, 0]:.4f}",
         rho_speed=f"{report.rho[1, 1]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument surface

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a usage failure instead of exiting."""

    def error(self, message):
        raise _Failure(USAGE, f"{self.prog}: {message}")


def _count(text):
    """Sample and trajectory counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, "
                                         f"got {text!r}")
    return value


def _real(accept, expected):
    """An argparse type for floats that ``accept`` (NaN fails every bound)."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, "
                                             f"got {text!r}")
        return value
    return parse


_finite = _real(math.isfinite, "a finite number")
_positive_float = _real(lambda v: 0.0 < v < math.inf, "a finite number > 0")
_fraction = _real(lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def build_parser():
    p = _Parser(
        prog="trajdiff",
        description="Preference-scored conditional trajectory diffusion.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the config seed")

    sp = sub.add_parser("gen-data", help="generate a synthetic corpus")
    common(sp)
    sp.add_argument("--scenario", required=True,
                    choices=("t-intersection", "straight-hall"))
    sp.add_argument("--count", type=_count, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("import-ethucy", help="import a raw annotation file")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--scene", required=True)
    sp.add_argument("--frame-rate", type=_positive_float, default=25.0)
    sp.add_argument("--stride", type=_count, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_import_ethucy)

    sp = sub.add_parser("make-pairs", help="label preference pairs")
    common(sp)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--constraint", required=True,
                    choices=sorted(data_mod.ANNOTATOR_KINDS))
    sp.add_argument("--fraction", type=_fraction, default=0.01)
    sp.add_argument("--all-splits", action="store_true",
                    help="also draw pairs from the held-out split")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_make_pairs)

    sp = sub.add_parser("train-score", help="train the preference scorer")
    common(sp)
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--report", help="write per-epoch CSV here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train_score)

    sp = sub.add_parser("score-corpus", help="score a corpus with a scorer")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_score_corpus)

    sp = sub.add_parser("train-diffusion", help="train the denoiser")
    common(sp)
    sp.add_argument("--checkpoint", required=True,
                    help="scorer checkpoint providing the encoder")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--scores", required=True, nargs="+",
                    help="score CSVs, one per constraint, order defines "
                         "the conditioning channels")
    sp.add_argument("--all-data", action="store_true",
                    help="train on the held-out split too")
    sp.add_argument("--report", help="write per-epoch loss CSV here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train_diffusion)

    sp = sub.add_parser("predict", help="sample futures for one history")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--id", type=int, help="trajectory id, default lowest")
    sp.add_argument("--c", type=_finite, nargs="+", required=True,
                    help="conditioning value per constraint")
    sp.add_argument("--n-s", type=_count, default=20)
    sp.add_argument("--mode", choices=("ancestral", "paper-mean"),
                    default="ancestral")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--svg", help="also draw an overlay here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("eval", help="best-of-N metrics on the held-out split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--n-c", type=_count, default=20)
    sp.add_argument("--n-s", type=_count, default=20)
    sp.add_argument("--limit", type=_count,
                    help="evaluate at most this many trajectories")
    sp.add_argument("--baseline", action="store_true",
                    help="add a constant-velocity row")
    sp.add_argument("--mode", choices=("ancestral", "paper-mean"),
                    default="ancestral")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="budget, adherence, or grid sweeps")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--kind", required=True,
                    choices=("ablation", "adherence", "grid"))
    sp.add_argument("--budgets",
                    help="ablation cells, e.g. 20x20,10x10; default the "
                         "standard five")
    sp.add_argument("--limit", type=_count, default=8,
                    help="histories drawn from the held-out split")
    sp.add_argument("--grid-size", type=int, default=20)
    sp.add_argument("--n-s", type=_count, default=10)
    sp.add_argument("--constraint", choices=sorted(data_mod.ANNOTATOR_KINDS),
                    help="feature to measure, default from the checkpoint")
    sp.add_argument("--axis", type=int, default=0,
                    help="score channel to sweep")
    sp.add_argument("--mode", choices=("ancestral", "paper-mean"),
                    default="ancestral")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--svg", help="also draw the sweep here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:       # --help
        return exc.code if exc.code is not None else 0
    except _Failure as exc:
        code = exc.code
        message = str(exc)
    except (ad.NumericsError, FloatingPointError) as exc:
        code, message = NUMERICS, str(exc)
    except (data_mod.DataError, ad.ShapeError, OSError) as exc:
        code, message = DATA, str(exc)
    except ValueError as exc:
        code, message = USAGE, str(exc)
    message = " ".join(message.split())
    print(f"trajdiff: error code={code} kind={_CODE_NAMES[code]} "
          f"msg={message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
