"""The benchmark workloads and the metrics and checks they report.

Every workload drives trajdiff in-process through ``cli.main``, one
subcommand call per operation, single client, closed loop: the next call
starts when the previous one has returned.  The only program function
called directly is ``data.is_test_id``, which defines the held-out split
the inputs are drawn from, and ``diffusion.predict_best_of`` is observed
(its return value copied) because ``eval`` writes no futures.

Inputs:
- a fixed t-intersection corpus (``CORPUS_SEED``) and, for ``best-of-n``,
  the model a fixed training recipe makes from it;
- fixed sampling seeds, so quality metrics are identical on every run of
  one commit and change only when the program's results change;
- the workload seed, which orders the requests of the pipeline probe.
"""

import hashlib
import io
import itertools
import json
import math
import os
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import stats

CORPUS_SEED = 17
PAIR_SEED = 23
TRAIN_SEED = 0
SAMPLE_SEED = 0
CONSTRAINT = "slow-down"
# gate criterion 9: best-of-N minADE at least 20% below constant velocity
CV_MARGIN = 0.8
# one host-speed reference pass per this much measured call time
PROBE_EVERY_S = 0.8


@dataclass(frozen=True)
class Size:
    corpus: int            # trajectories in the fixed corpus
    pair_fraction: float   # labelled share of the train split
    score_epochs: int
    diffusion_epochs: int
    T: int                 # reverse steps per sample
    n_c: int               # best-of-n grid size
    n_s: int               # draws per grid value and per predict request
    grid: int              # points of the c grid predict requests draw from
    eval_set: int          # held-out histories best-of-n cycles through
    model_setups: int      # set-ups per run for best-of-n and predict
    corpus_setups: int     # set-ups per run for pipeline


SIZES = {
    "full": Size(corpus=600, pair_fraction=0.15, score_epochs=20,
                 diffusion_epochs=8, T=100, n_c=20, n_s=20, grid=20,
                 eval_set=8, model_setups=2, corpus_setups=5),
    # for the benchmark's own smoke tests, and the untimed set-up warm-up
    "tiny": Size(corpus=120, pair_fraction=0.3, score_epochs=2,
                 diffusion_epochs=1, T=4, n_c=3, n_s=4, grid=6,
                 eval_set=2, model_setups=2, corpus_setups=2),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "fraction",
    "eval_futures_per_s": "futures/s",
    "min_ade_m": "m",
    "min_fde_m": "m",
    "predict_p50_ms": "ms",
    "predict_tail_ms": "ms",
    "adherence_rho": "-",
    "train_score_pairs_per_s": "pairs/s",
    "score_corpus_traj_per_s": "traj/s",
    "train_diffusion_samples_per_s": "samples/s",
    "holdout_accuracy": "fraction",
    "diffusion_loss": "-",
}


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    """One subcommand call and the outcome of the checks on its output.

    ``wall`` is the measured time; ``seconds`` is that time scaled by the
    host-speed factor (see calib.py), and is what the metrics use.
    """
    command: str
    rc: object
    wall: float
    summary: dict
    stderr: str = ""
    problems: list = field(default_factory=list)
    seconds: float = None

    def __post_init__(self):
        if self.seconds is None:
            self.seconds = self.wall

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    @property
    def ok(self):
        return not self.problems

    def to_dict(self):
        return {"command": self.command, "rc": self.rc, "wall": self.wall,
                "seconds": self.seconds, "summary": self.summary,
                "stderr": self.stderr, "problems": self.problems}


class NoResult(RuntimeError):
    """Too many calls failed for a metric to be formed."""


def _summary(text):
    lines = [ln for ln in text.splitlines() if "=" in ln]
    if not lines:
        return {}
    return dict(kv.split("=", 1) for kv in lines[-1].split() if "=" in kv)


class Run:
    """The operations of one benchmark run, in order.

    With a ``host`` (calib.HostSpeed), the reference computation is timed
    after every call, for about 5% of the call's time, and ``normalize``
    scales this process's call times by the resulting factor.
    """

    def __init__(self, cli, host=None):
        self.cli, self.host = cli, host
        self.ops = []
        self.own = []

    def call(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main([str(a) for a in argv])
            except Exception:  # an uncaught program error fails this op only
                rc = "raised"
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        op = Op(argv[0], rc, seconds, _summary(out.getvalue()),
                err.getvalue().strip())
        op.check(rc == 0, f"{argv[0]} exited {rc}: {op.stderr[-300:]}")
        self.ops.append(op)
        self.own.append(op)
        if self.host is not None:
            # sample the host in proportion to the time just measured
            self.host.probe(passes=max(3, round(seconds / PROBE_EVERY_S)))
        return op

    def adopt(self, op_dicts):
        """Count the calls a set-up child process made, normalized there."""
        self.ops.extend(Op(**d) for d in op_dicts)

    def normalize(self):
        """Scale this process's call times by the host-speed factor."""
        factor = self.host.factor()
        for op in self.own:
            op.seconds = op.wall * factor
        return factor

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not op.ok for op in self.ops)

    def problems(self):
        return [p for op in self.ops for p in op.problems]


def _digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _mkdir(*parts):
    path = os.path.join(*parts)
    os.makedirs(path)
    return path


def _median_over(rows, key):
    return statistics.median([r[key] for r in rows])


# ---------------------------------------------------------------------------
# corpus and training recipe

def gen_corpus(run, size, d):
    return run.call("gen-data", "--scenario", "t-intersection", "--count",
                    size.corpus, "--seed", CORPUS_SEED,
                    "--out", os.path.join(d, "corpus.jsonl"))


def train_model(run, size, corpus, d):
    """make-pairs -> train-score -> score-corpus -> train-diffusion.

    Returns the four ops keyed by command, each checked; the model is
    ``d/model.ckpt``.
    """
    cfg = os.path.join(d, "config.json")
    with open(cfg, "w") as fh:
        json.dump({"score_epochs": size.score_epochs,
                   "diffusion_epochs": size.diffusion_epochs,
                   "T": size.T, "seed": TRAIN_SEED}, fh)
    p = {k: os.path.join(d, k) for k in
         ("pairs.jsonl", "scorer.ckpt", "scores.csv", "model.ckpt")}
    ops = {}
    ops["make-pairs"] = run.call(
        "make-pairs", "--corpus", corpus, "--constraint", CONSTRAINT,
        "--fraction", size.pair_fraction, "--seed", PAIR_SEED,
        "--out", p["pairs.jsonl"])
    ops["train-score"] = run.call(
        "train-score", "--config", cfg, "--pairs", p["pairs.jsonl"],
        "--out", p["scorer.ckpt"])
    ops["score-corpus"] = run.call(
        "score-corpus", "--checkpoint", p["scorer.ckpt"], "--corpus", corpus,
        "--out", p["scores.csv"])
    ops["train-diffusion"] = run.call(
        "train-diffusion", "--config", cfg, "--checkpoint", p["scorer.ckpt"],
        "--corpus", corpus, "--scores", p["scores.csv"],
        "--out", p["model.ckpt"])
    if all(op.rc == 0 for op in ops.values()):
        acc = float(ops["train-score"].summary.get("holdout_accuracy", "nan"))
        ops["train-score"].check(acc > 0.5, f"holdout accuracy {acc} <= 0.5")
        loss = float(ops["train-diffusion"].summary.get("final_loss", "nan"))
        ops["train-diffusion"].check(math.isfinite(loss),
                                     f"diffusion loss {loss} not finite")
    return ops


TRAINING = ("train_score_pairs_per_s", "score_corpus_traj_per_s",
            "train_diffusion_samples_per_s", "holdout_accuracy",
            "diffusion_loss")


def stage_metrics(ops, size):
    """The five training metrics of one recipe pass."""
    ts, sc, td = ops["train-score"], ops["score-corpus"], ops["train-diffusion"]
    return {
        "train_score_pairs_per_s":
            int(ts.summary["train_pairs"]) * size.score_epochs / ts.seconds,
        "score_corpus_traj_per_s": int(sc.summary["scored"]) / sc.seconds,
        "train_diffusion_samples_per_s":
            int(td.summary["trained_on"]) * size.diffusion_epochs / td.seconds,
        "holdout_accuracy": float(ts.summary["holdout_accuracy"]),
        "diffusion_loss": float(td.summary["final_loss"]),
    }


def prepare(cli, host, kind, size, d):
    """Set up ``model_setups`` (or ``corpus_setups``) times in ``d``.

    Runs in a child process, so the set-up's memory does not count toward
    the parent's peak.  Each set-up gets its own directory; all of them
    must produce byte-identical artifacts.  A tiny-size pass runs first,
    untimed, so that the timed set-ups are not the process's first calls
    into each code path.  Returns a JSON-able dict.
    """
    warm = Run(cli)
    gen_corpus(warm, SIZES["tiny"], _mkdir(d, "warmup"))
    if kind == "model":
        train_model(warm, SIZES["tiny"], os.path.join(d, "warmup",
                                                      "corpus.jsonl"),
                    os.path.join(d, "warmup"))
    if any(op.rc != 0 for op in warm.ops):
        raise RuntimeError("warm-up failed: " + "; ".join(warm.problems()))
    run = Run(cli, host)
    count = size.model_setups if kind == "model" else size.corpus_setups
    done, first = [], None
    for i in range(count):
        sd = _mkdir(d, f"setup{i}")
        gen = gen_corpus(run, size, sd)
        ops, last = {}, gen
        if kind == "model" and gen.ok:
            ops = train_model(run, size, os.path.join(sd, "corpus.jsonl"), sd)
            last = ops["train-diffusion"]
        if last.ok:
            digest = _digest(os.path.join(
                sd, "model.ckpt" if kind == "model" else "corpus.jsonl"))
            first = first or digest
            last.check(digest == first,
                       f"set-up {i} artifact differs from set-up 0")
        done.append((sd, gen, ops))
    factor = run.normalize()
    setups = []
    for sd, gen, ops in done:
        row = {"dir": sd,
               "seconds": gen.seconds + sum(op.seconds for op in ops.values())}
        if ops and all(op.rc == 0 for op in ops.values()):
            row.update(stage_metrics(ops, size))
        setups.append(row)
    return {"setups": setups, "host_factor": factor,
            "ops": [op.to_dict() for op in run.ops]}


# ---------------------------------------------------------------------------
# inputs drawn from the fixed corpus

def read_corpus(path):
    """Header line and {id: (record line, record)} of a corpus file."""
    with open(path) as fh:
        header = fh.readline()
        records = {}
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                records[rec["id"]] = (line, rec)
    return header, records


def held_out(records, is_test_id):
    return [tid for tid in sorted(records) if is_test_id(tid)]


def predict_ids(records, is_test_id):
    """First held-out history with 0, 1 and 2 (or more) neighbours."""
    ids = []
    test = held_out(records, is_test_id)
    for want in (0, 1, 2):
        match = [t for t in test if len(records[t][1]["neighbors"]) == want]
        if not match and want == 2:
            match = [t for t in test if len(records[t][1]["neighbors"]) > 2]
        if not match:
            raise ValueError(f"no held-out history with {want} neighbours")
        ids.append(match[0])
    return ids


def mean_speed(futures, last_point, dt):
    """Mean speed over the samples, including the step from the history."""
    pts = np.concatenate([np.broadcast_to(last_point, (len(futures), 1, 2)),
                          futures], axis=1)
    return float(np.linalg.norm(np.diff(pts, axis=1), axis=2).mean() / dt)


def best_of(futures, truth):
    """(minADE, minFDE) of the samples against the ground-truth future."""
    d = np.linalg.norm(futures - truth[None], axis=2)
    return float(d.mean(axis=1).min()), float(d[:, -1].min())


def check_adherence(op, rho, evaluate):
    op.check(rho >= evaluate.ADHERENCE_THRESHOLD,
             f"adherence rho {rho:.3f} below {evaluate.ADHERENCE_THRESHOLD}")


def read_predict_csv(path, want_id, n_s, m):
    """Futures (n_s, m, 2) from a ``predict`` CSV, or an error string."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if f"# trajectory_id={want_id}" not in lines:
        return None, f"predict output lacks trajectory_id={want_id}"
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != "sample,step,x,y":
        return None, "predict output has no sample,step,x,y header"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    if rows.shape != (n_s * m, 4):
        return None, f"predict output has {rows.shape} rows, want {n_s * m}"
    if not np.isfinite(rows).all():
        return None, "predict output has non-finite values"
    return rows[:, 2:].reshape(n_s, m, 2), None


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A workload's set-up, its operation stream and its metrics.

    ``steps()`` yields callables; each runs one closed-loop step (one or
    more subcommand calls) and returns a value that identifies its output,
    used to compare a traced step with its untraced twin.
    """
    setup_kind = "model"

    def __init__(self, run, size, seed, work, mods):
        self.run, self.size, self.seed = run, size, seed
        self.work, self.mods = work, mods

    def attach(self, setup_dir):
        self.corpus = os.path.join(setup_dir, "corpus.jsonl")
        self.model = os.path.join(setup_dir, "model.ckpt")
        self.header, self.corpus_records = read_corpus(self.corpus)
        self.dt = json.loads(self.header)["dt"]

    def probe(self):
        """Extra requests after the timed window; only pipeline has them."""

    def probe_steps(self, repeats=0):
        """One round of probe steps, plus ``repeats``; none by default."""
        return iter(())

    def metrics(self, setup_rows):
        """All end-to-end metrics but the three run-level ones, plus notes."""
        out, notes = self.sampling_metrics()
        out.update(self.training_metrics(setup_rows))
        return out, notes

    def training_metrics(self, setup_rows):
        """The five training metrics: medians over the set-ups, which run
        the same recipe as the pipeline workload."""
        if not all(TRAINING[0] in row for row in setup_rows):
            raise NoResult("a set-up's training stages failed")
        return {key: _median_over(setup_rows, key) for key in TRAINING}

    def path(self, *parts):
        """A file path under the work directory; its directory exists."""
        path = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path


class PredictRounds:
    """Rounds of ``predict`` requests over one c grid and three histories.

    Request i asks for history ``ids[i % 3]`` at c = (i + 0.5) / grid, for
    every other point of the grid, so a round is ``grid / 2`` requests and
    each history gets low, middle and high c values.  Every round holds
    the same requests, in an order drawn from the workload seed.  All
    requests use one sampling seed, so the c values of one history are
    compared on common noise.
    """

    def __init__(self, wl, model, tag):
        self.wl, self.model, self.tag = wl, model, tag
        size = wl.size
        self.ids = predict_ids(wl.corpus_records, wl.mods["data"].is_test_id)
        self.grid = [(i + 0.5) / size.grid for i in range(size.grid)]
        self.requests = list(range(0, size.grid, 2))
        self.first = {}          # request index -> output bytes
        self.calls = []
        self.round_one = []      # (id, c, mean speed, minADE, minFDE)

    def steps(self):
        r = 0
        while True:
            rng = np.random.default_rng([self.wl.seed, r])
            for i in rng.permutation(self.requests):
                yield lambda i=int(i), r=r: self.request(i, r)
            r += 1

    def request(self, i, r):
        wl, size = self.wl, self.wl.size
        tid, c = self.ids[i % len(self.ids)], self.grid[i]
        path = wl.path(self.tag, f"r{r}-{i}.csv")
        op = wl.run.call("predict", "--checkpoint", self.model, "--corpus",
                         wl.corpus, "--id", tid, "--c", f"{c:.6f}",
                         "--n-s", size.n_s, "--seed", SAMPLE_SEED,
                         "--out", path)
        self.calls.append(op)
        if op.rc != 0:
            return None
        rec = wl.corpus_records[tid][1]
        truth = np.array(rec["future"])
        futures, err = read_predict_csv(path, tid, size.n_s, truth.shape[0])
        if not op.check(err is None, err):
            return None
        with open(path, "rb") as fh:
            raw = fh.read()
        if i in self.first:
            op.check(raw == self.first[i],
                     f"repeat of request {i} is not byte-identical")
        else:
            self.first[i] = raw
            last = np.array(rec["history"])[-1]
            ade, fde = best_of(futures, truth)
            self.round_one.append((tid, c, mean_speed(futures, last, wl.dt),
                                   ade, fde))
            if len(self.round_one) == len(self.requests):
                check_adherence(op, self.rho(), wl.mods["evaluate"])
        return hashlib.sha256(raw).hexdigest()

    def rho(self):
        """Spearman rho of c against mean speed, centred per history and
        negated, because slow-down asks for lower speed at higher c."""
        tids, cs, speeds = zip(*[row[:3] for row in self.round_one])
        return -stats.spearman(cs, stats.centered_by_group(speeds, tids))

    def metrics(self):
        if len(self.round_one) < len(self.requests):
            raise NoResult("a predict round did not complete")
        size = self.wl.size
        lat_ms = [1000.0 * op.seconds for op in self.calls]
        tail_ms, pct = stats.tail(lat_ms)
        rows = self.round_one
        return {
            "eval_futures_per_s": size.n_s * len(lat_ms) / sum(lat_ms) * 1e3,
            "min_ade_m": float(np.mean([r[3] for r in rows])),
            "min_fde_m": float(np.mean([r[4] for r in rows])),
            "predict_p50_ms": statistics.median(lat_ms),
            "predict_tail_ms": tail_ms,
            "adherence_rho": self.rho(),
        }, {"predict_tail_ms": f"p{pct:.1f} of n={len(lat_ms)}"}


class BestOfN(Workload):
    name = "best-of-n"

    def attach(self, setup_dir):
        super().attach(setup_dir)
        test = held_out(self.corpus_records, self.mods["data"].is_test_id)
        self.files = []
        for tid in test[:self.size.eval_set]:
            path = self.path("evalset", f"{tid}.jsonl")
            with open(path, "w") as fh:
                fh.write(self.header + self.corpus_records[tid][0])
            self.files.append(path)
        self.evals = []          # (op, csv rows)
        self.captured = None

    def steps(self):
        k = 0
        while True:
            yield lambda k=k: self.evaluate(k)
            k += 1

    def evaluate(self, k):
        j = k % len(self.files)
        path = self.path("eval", f"{k}.csv")
        captured = []
        diffusion = self.mods["diffusion"]
        original = diffusion.predict_best_of

        def observe(history, *args, **kwargs):
            out = original(history, *args, **kwargs)
            captured.append((np.asarray(history), out))
            return out

        diffusion.predict_best_of = observe
        try:
            op = self.run.call("eval", "--checkpoint", self.model, "--corpus",
                               self.files[j], "--n-c", self.size.n_c, "--n-s",
                               self.size.n_s, "--baseline", "--seed",
                               SAMPLE_SEED, "--out", path)
        finally:
            diffusion.predict_best_of = original
        if op.rc != 0:
            return None
        with open(path) as fh:
            body = [ln for ln in fh.read().splitlines()
                    if ln and not ln.startswith("#")]
        rows = {}
        for ln in body[1:]:
            n_c, n_s, ade, fde, _ = ln.split(",")
            rows[(int(n_c), int(n_s))] = (float(ade), float(fde))
        model = rows.get((self.size.n_c, self.size.n_s))
        cv = rows.get((1, 1))
        if not op.check(model is not None and cv is not None,
                        "eval output lacks the model or baseline row"):
            return None
        op.check(all(map(math.isfinite, model + cv)), "non-finite metrics")
        op.check(model[0] <= CV_MARGIN * cv[0],
                 f"minADE {model[0]:.4f} not 20% below constant velocity "
                 f"{cv[0]:.4f}")
        self.evals.append((op, model))
        if k == 0:
            self.captured = captured
            check_adherence(op, self.adherence(), self.mods["evaluate"])
        # the last column is eval's own wall time; everything else must match
        return "\n".join(ln.rsplit(",", 1)[0] for ln in body)

    def adherence(self):
        history, preds = self.captured[0]
        cs = sorted({c for c, _, _ in preds})
        speeds = [mean_speed(np.stack([f for c2, _, f in preds if c2 == c]),
                             history[-1], self.dt) for c in cs]
        return -stats.spearman(cs, speeds)

    def sampling_metrics(self):
        if not self.evals or self.captured is None:
            raise NoResult("no eval call succeeded")
        secs = [op.seconds for op, _ in self.evals]
        lat_ms = [1000.0 * s for s in secs]
        tail_ms, pct = stats.tail(lat_ms)
        first = self.evals[0][1]
        out = {
            "eval_futures_per_s": self.size.n_c * self.size.n_s * len(secs)
            / sum(secs),
            "min_ade_m": first[0],
            "min_fde_m": first[1],
            "predict_p50_ms": statistics.median(lat_ms),
            "predict_tail_ms": tail_ms,
            "adherence_rho": self.adherence(),
        }
        return out, {"predict_tail_ms": f"p{pct:.1f} of n={len(lat_ms)}"}


class Pipeline(Workload):
    name = "pipeline"
    setup_kind = "corpus"

    def attach(self, setup_dir):
        super().attach(setup_dir)
        self.passes = []
        self.first_digest = None

    def steps(self):
        k = 0
        while True:
            yield lambda k=k: self.train(k)
            k += 1

    def train(self, k):
        # one directory for every pass: the artifacts record their paths
        d = os.path.dirname(self.path("pass", "config.json"))
        ops = train_model(self.run, self.size, self.corpus, d)
        if not all(op.rc == 0 for op in ops.values()):
            return None
        digest = _digest(*(os.path.join(d, f) for f in
                           ("pairs.jsonl", "scorer.ckpt", "scores.csv",
                            "model.ckpt")))
        self.first_digest = self.first_digest or digest
        ops["train-diffusion"].check(digest == self.first_digest,
                                     f"pass {k} artifacts differ from pass 0")
        self.passes.append(ops)
        self.model = os.path.join(d, "model.ckpt")
        return digest

    def probe(self):
        """One predict round on the model the passes trained, plus one
        repeated request to check reproducibility."""
        for step in self.probe_steps(repeats=1):
            step()

    def probe_steps(self, repeats=0):
        if not hasattr(self, "rounds"):
            self.rounds = PredictRounds(self, self.model, "probe")
        return itertools.islice(self.rounds.steps(),
                                len(self.rounds.requests) + repeats)

    def sampling_metrics(self):
        return self.rounds.metrics()

    def training_metrics(self, setup_rows):
        """Medians over the timed passes."""
        if not self.passes:
            raise NoResult("no training pass succeeded")
        rows = [stage_metrics(ops, self.size) for ops in self.passes]
        return {key: _median_over(rows, key) for key in TRAINING}


WORKLOADS = {w.name: w for w in (BestOfN, Pipeline)}


def run_steps(steps, budget):
    """Run steps closed-loop: at least one, and keep starting steps until
    ``budget`` seconds have passed."""
    t0 = time.perf_counter()
    for step in steps:
        step()
        if time.perf_counter() - t0 >= budget:
            return
