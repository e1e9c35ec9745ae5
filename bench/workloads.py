"""The benchmark's workloads and the measurement of one run.

A run repeats whole rounds until ``seconds`` have passed and at least
``min_rounds`` are done. Round 0 always uses the workload's reference seed, so
the quality metrics, taken from it, are the same in every run; later rounds
draw their data and initialisation from ``--seed``. Timings are pooled over
all rounds, scaled to the nominal host speed (``hostspeed``) and reported as
medians. Every check runs outside the timed regions and with the tracer
paused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from plmetric import data, embedder, evaluation, manifold, similarity, trainer
from plmetric.data import SyntheticSpec
from plmetric.manifold import ManifoldConfig
from plmetric.similarity import SimilarityConfig
from plmetric.trainer import TrainConfig

import checks
from hostspeed import NOMINAL_S, HostSpeed
from tracer import Tracer, layer_metrics

REFERENCE_SEED = 0
HOST_NOMINAL_MS = NOMINAL_S * 1000.0
OUT_DIR = Path(__file__).resolve().parent / "out"
# Checkpoints of the reference runs, made once per checkout (``prepare``).
CACHE_DIR = OUT_DIR / "cache"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "plmetric"
# Pairs of the step's similarity matrix compared with the closed form.
CHECKED_PAIRS = 64


def round_seed(seed: int, index: int) -> int:
    if index == 0:
        return REFERENCE_SEED
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Record:
    """Everything one run measures; ``ok`` counts operations that passed.

    The timing lists hold (start, end, seconds) of each timed region;
    ``train`` holds one list of such parts per round, each part scaled to
    the host speed of its own time.
    """

    speed: HostSpeed = field(default_factory=HostSpeed)
    setup: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    train: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    rounds: int = 0
    anchors: int = 0
    exempt: int = 0
    failures: list = field(default_factory=list)
    quality: evaluation.EvalReport | None = None
    last_eval: tuple | None = None

    def finish_op(self, failures: list[str]) -> None:
        if failures:
            self.failures.extend(failures)
        else:
            self.ok += 1


@contextlib.contextmanager
def captured(module, name: str):
    """Keep (args, result) of every call to ``module.name`` made inside.

    The call itself is the library's; the wrapper replaces the function in
    every plmetric namespace that holds it, as the tracer does, and copies
    the array arguments, so a later in-place change cannot alter what is
    checked.
    """
    raw = getattr(module, name)
    calls = []

    def capture(*args, **kwargs):
        result = raw(*args, **kwargs)
        calls.append((tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args), result))
        return result

    patched = [
        (ns, key)
        for mod_name, ns in list(sys.modules.items())
        if ns is not None and mod_name.split(".")[0] == "plmetric"
        for key, value in list(vars(ns).items())
        if value is raw
    ]
    for ns, key in patched:
        setattr(ns, key, capture)
    try:
        yield calls
    finally:
        for ns, key in patched:
            setattr(ns, key, raw)


def _check_neighbourhoods(points, neighborhoods, config, positions, rec) -> list[str]:
    canon = checks.canonical_rows(points)
    out = []
    for a in positions:
        failed, exempt = checks.neighbourhood(
            points, int(a), neighborhoods[a].member_indices, config, canon
        )
        rec.anchors += 1
        rec.exempt += int(exempt)
        out += failed
    return out


def _check_report(emb, labels, fits, scfg, seed, report, rng, n_anchors, rec) -> list[str]:
    """Check a report and the neighbourhoods that its evaluation fitted."""
    out = checks.recall(emb, labels, report.recall_at)
    if len(fits) != 1:
        return out + [f"evaluation made {len(fits)} fit_all_neighborhoods calls, expected 1"]
    (points, mcfg), neighborhoods = fits[0]
    out += checks.purity(
        [nb.member_indices for nb in neighborhoods], labels, report.neighborhood_purity
    )
    bases = np.stack([nb.basis.vectors for nb in neighborhoods])
    first, second = evaluation.sample_pairs(len(points), seed)
    out += checks.correlation(
        points, bases, labels, first, second, scfg, report.similarity_correlation
    )
    positions = rng.choice(len(points), size=n_anchors, replace=False)
    return out + _check_neighbourhoods(points, neighborhoods, mcfg, positions, rec)


def _evaluations(count, emb, labels, mcfg, scfg, seed, tracer, rec, rng, n_anchors, full=True):
    """``count`` timed evaluations of the same embeddings. The first is
    checked in full, through the neighbourhoods it fitted, or with ``full``
    off for its recall only; each repeat must reproduce its report exactly.
    Returns the first report and the (start, end, seconds) of every call."""
    first, times = None, []
    for i in range(count):
        rec.speed.sample()
        capture = i == 0 and full
        with captured(manifold, "fit_all_neighborhoods") if capture else contextlib.nullcontext() as fits:
            start = time.perf_counter()
            with tracer.span("bench.eval"):
                report = evaluation.evaluate_embeddings(emb, labels, mcfg, scfg, seed=seed)
            end = time.perf_counter()
        rec.speed.sample()
        times.append((start, end, end - start))
        if first is not None:
            rec.finish_op([] if report == first else ["repeated evaluation gave another report"])
            continue
        first = report
        with tracer.paused():
            if full:
                rec.finish_op(
                    _check_report(emb, labels, fits, scfg, seed, report, rng, n_anchors, rec)
                )
            else:
                rec.finish_op(checks.recall(emb, labels, report.recall_at))
        del fits
    rec.eval.extend(times)
    rec.last_eval = (emb, labels, mcfg, scfg, seed, first)
    return first, times


class _StepProbe:
    """Stands in for ``run.train_step``: times the real call and checks it.

    ``run_epoch`` looks ``train_step`` up on the instance, so the training
    loop itself is the library's; only the timer and the checks are added.
    On the sampled steps the neighbourhood fit and the similarity matrix that
    the step itself computes are captured and checked.
    """

    def __init__(self, run, workload, tracer, rec, rng, sampled):
        self.run = run
        self.inner = run.train_step
        self.workload = workload
        self.tracer = tracer
        self.rec = rec
        self.rng = rng
        self.sampled = sampled
        self.count = 0
        self.check_time = 0.0
        run.train_step = self

    def _check_captured(self, fits, sims) -> list[str]:
        if not fits or not sims:
            return [
                f"train_step made {len(fits)} fit_all_neighborhoods and {len(sims)} "
                "pairwise_similarity_matrix calls; nothing to check"
            ]
        out = []
        for (points, config), neighborhoods in fits:
            positions = self.rng.choice(
                len(points), size=self.workload.checked_anchors, replace=False
            )
            out += _check_neighbourhoods(points, neighborhoods, config, positions, self.rec)
        for (points, neighborhoods, config), matrix in sims:
            bases = np.stack([nb.basis.vectors for nb in neighborhoods])
            first, second = self.rng.integers(len(points), size=(2, CHECKED_PAIRS))
            out += checks.similarity_matrix(points, bases, matrix, config, first, second)
        return out

    def __call__(self, batch_indices, step_in_epoch=0):
        begin = time.perf_counter()
        self.rec.speed.sample()
        sampled = self.count in self.sampled
        with contextlib.ExitStack() as stack:
            if sampled:
                fits = stack.enter_context(captured(manifold, "fit_all_neighborhoods"))
                sims = stack.enter_context(captured(similarity, "pairwise_similarity_matrix"))
            start = time.perf_counter()
            metrics = self.inner(batch_indices, step_in_epoch)
            end = time.perf_counter()
        self.rec.steps.append((start, end, end - start))
        failures = checks.losses(metrics)
        failures += checks.proxies(self.run.proxies.locations, self.run.proxies.frames)
        if sampled:
            with self.tracer.paused():
                failures += self._check_captured(fits, sims)
        self.rec.finish_op(failures)
        self.count += 1
        self.check_time += (start - begin) + (time.perf_counter() - end)
        return metrics


def _step_from(run):
    # One more step the way run_epoch takes it, bypassing the step probe.
    embeds = embedder.forward(run.pair.averaged, run.dataset.features)
    pools = manifold.neighbor_lists(embeds, run.config.sampler.group_size - 1)
    batch = trainer.sample_batch(pools, run.config.sampler, run.rng_sampler)
    return batch, trainer.Trainer.train_step(run, batch)


def _round_trip(run, path, tracer) -> list[str]:
    """Reload the saved checkpoint; it must equal the live state bit for bit
    and take the same next step."""
    loaded = trainer.trainer_from_checkpoint(path, run.dataset)
    with tracer.paused():
        out = checks.same_state(checks.trainer_state(run), checks.trainer_state(loaded), "reload")
        batch_a, step_a = _step_from(run)
        batch_b, step_b = _step_from(loaded)
        if not np.array_equal(batch_a, batch_b) or step_a != step_b:
            out.append(f"next step differs after reload: {step_a} vs {step_b}")
        out += checks.same_state(
            checks.trainer_state(run), checks.trainer_state(loaded), "step after reload"
        )
    return out


@dataclass(frozen=True)
class TrainWorkload:
    """Train on some classes of a synthetic set, evaluate on the held-out rest.

    A round times ``window_epochs`` epochs from each start in ``windows``,
    which begins with 0, and one evaluation after each window. The first and
    the last window are sampled: their first step and their evaluation get
    the full checks, which on ``train-default`` cost more than the window
    itself; the others get the cheap ones. Start 0 is a
    fresh run on the round's data; a later start resumes the reference run's
    checkpoint at that epoch, with its batch sampling reseeded from the
    round's seed after round 0. So the timed steps and evaluations sample the
    whole ``config.epochs``-epoch run, whose late steps differ from its first
    ones (see README.md, "Why time late epochs"), and are spread over the
    round rather than taken at one moment of the host's load.
    """

    name: str
    spec: Callable[[int], SyntheticSpec]
    train_classes: int
    config: Callable[[int], TrainConfig]
    windows: tuple[int, ...]
    window_epochs: int
    min_rounds: int
    setup_repeats: int
    tail_pct: int
    checked_anchors: int
    op_span: str = "trainer.Trainer.train_step"

    @property
    def steps_per_round(self) -> int:
        n_train = self.train_classes * self.spec(0).points_per_class
        steps_per_epoch = math.ceil(n_train / self.config(0).sampler.batch_size)
        return len(self.windows) * self.window_epochs * steps_per_epoch

    @property
    def ops_per_round(self) -> int:
        # The steps, one evaluation per window and one checkpoint round trip.
        return self.steps_per_round + len(self.windows) + 1

    def split(self, seed: int):
        """(training set, held-out features, held-out labels) of one seed."""
        ds = data.generate_synthetic(self.spec(seed))
        held_in = ds.labels < self.train_classes
        train_set = data.FeatureDataset(ds.features[held_in], ds.labels[held_in])
        return train_set, ds.features[~held_in], ds.labels[~held_in]

    def checkpoint_paths(self) -> dict[int, Path]:
        """Where the reference run's checkpoint at each later start is kept.

        The name hashes the package source and the run's recipe, so a changed
        program or workload never resumes a stale checkpoint.
        """
        digest = hashlib.sha256()
        for path in sorted(SRC_DIR.rglob("*.py")):
            digest.update(path.read_bytes())
        recipe = (self.spec(REFERENCE_SEED), self.train_classes, self.config(REFERENCE_SEED))
        digest.update(repr(recipe).encode())
        key = digest.hexdigest()[:16]
        return {
            start: CACHE_DIR / f"{self.name}-{key}-epoch{start}.plck"
            for start in self.windows
            if start
        }

    def prepare(self) -> None:
        """Train the reference run once, keeping a checkpoint at each later
        window start. Untimed; later runs in the checkout reuse the files."""
        paths = self.checkpoint_paths()
        if all(path.exists() for path in paths.values()):
            return
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        train_set, _, _ = self.split(REFERENCE_SEED)
        run = trainer.Trainer.initialize(train_set, self.config(REFERENCE_SEED))
        for start, path in sorted(paths.items()):
            while run.epoch < start:
                run.run_epoch()
            partial = path.with_name(f"{path.name}.{os.getpid()}.part")
            trainer.save_checkpoint(run, partial)
            os.replace(partial, path)

    def _window(self, run, held, sampled, tracer, rec, rng):
        """Train ``window_epochs`` epochs, then evaluate the held-out
        classes. Returns the (start, end, seconds) of the training, checks
        left out, and the report."""
        run.config = dataclasses.replace(run.config, epochs=run.epoch + self.window_epochs)
        probe = _StepProbe(run, self, tracer, rec, rng, sampled={0} if sampled else set())
        start = time.perf_counter()
        with tracer.span("bench.train"):
            run.run()
        end = time.perf_counter()
        del run.train_step
        cfg = run.config
        report, _ = _evaluations(
            1, run.embed(held[0]), held[1], cfg.manifold, cfg.similarity, cfg.seed,
            tracer, rec, rng, self.checked_anchors, full=sampled,
        )
        return (start, end, end - start - probe.check_time), report

    def run_round(self, seed, index, work, tracer, rec, rng) -> None:
        train_set, held_features, held_labels = self.split(seed)
        train_path = work / "train.plmf"
        data.save_dataset(train_set, train_path)
        for _ in range(self.setup_repeats):
            rec.speed.sample()
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                run = trainer.Trainer.initialize(data.load_dataset(train_path), self.config(seed))
            end = time.perf_counter()
            rec.setup.append((start, end, end - start))

        part, report = self._window(run, (held_features, held_labels), True, tracer, rec, rng)
        parts = [part]
        reference = self.split(REFERENCE_SEED)
        last = max(self.windows)
        for start_epoch, path in sorted(self.checkpoint_paths().items()):
            with tracer.paused():
                run = trainer.trainer_from_checkpoint(path, reference[0])
            if index:
                sampler_seq, augment_seq = np.random.SeedSequence([seed, start_epoch]).spawn(2)
                run.rng_sampler = np.random.default_rng(sampler_seq)
                run.rng_augment = np.random.default_rng(augment_seq)
            part, report = self._window(
                run, reference[1:], start_epoch == last, tracer, rec, rng
            )
            parts.append(part)
        checkpoint = work / "checkpoint.plck"
        start = time.perf_counter()
        with tracer.span("bench.train"):
            trainer.save_checkpoint(run, checkpoint)
        end = time.perf_counter()
        rec.train.append(parts + [(start, end, end - start)])
        if index == 0:
            rec.quality = report
        rec.finish_op(_round_trip(run, checkpoint, tracer))


@dataclass(frozen=True)
class EvalWorkload:
    """Evaluate frozen-probe embeddings of a large synthetic set."""

    name: str
    spec: Callable[[int], SyntheticSpec]
    probe_layers: tuple[int, ...]
    probe_gain: float
    manifold: ManifoldConfig
    min_rounds: int
    setup_repeats: int
    tail_pct: int
    checked_anchors: int
    evals_per_round: int
    op_span: str = "evaluation.evaluate_embeddings"

    @property
    def ops_per_round(self) -> int:
        return self.evals_per_round

    def prepare(self) -> None:
        pass

    def run_round(self, seed, index, work, tracer, rec, rng) -> None:
        path = work / "eval.plmf"
        data.save_dataset(data.generate_synthetic(self.spec(seed)), path)
        for _ in range(self.setup_repeats):
            rec.speed.sample()
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                ds = data.load_dataset(path)
                probe = embedder.MLPParams.initialize(
                    (ds.dim, *self.probe_layers), seed=1000 + seed, gain=self.probe_gain
                )
                emb = embedder.forward(probe, ds.features)
            end = time.perf_counter()
            rec.setup.append((start, end, end - start))
        report, times = _evaluations(
            self.evals_per_round, emb, ds.labels, self.manifold, SimilarityConfig(), seed,
            tracer, rec, rng, self.checked_anchors,
        )
        # There is no training step here; the step and train metrics stand
        # for the evaluation call and the whole diagnose pass (README.md).
        rec.steps.extend(times)
        rec.train.extend([rec.setup[-1], call] for call in times)
        if index == 0:
            rec.quality = report


def _bench_config(seed: int) -> TrainConfig:
    # The acceptance recipe of tests/test_acceptance.py (criteria 6 and 7).
    return TrainConfig(
        manifold=ManifoldConfig(pool_size=20),
        hidden_sizes=(64,) * 6,
        embed_dim=4,
        init_gain=12.0,
        lr=1e-2,
        momentum=0.99,
        seed=seed,
    )


# Starts of the timed windows: eight strata of the 200-epoch run.
WINDOWS = tuple(range(0, 200, 25))

WORKLOADS = {
    "train-bench": TrainWorkload(
        name="train-bench",
        spec=lambda seed: SyntheticSpec(seed=seed),
        train_classes=3,
        config=_bench_config,
        windows=WINDOWS,
        window_epochs=2,
        min_rounds=2,
        setup_repeats=3,
        tail_pct=85,
        checked_anchors=3,
    ),
    "train-default": TrainWorkload(
        name="train-default",
        spec=lambda seed: SyntheticSpec(n_classes=8, seed=seed),
        train_classes=5,
        config=lambda seed: TrainConfig(seed=seed),
        windows=WINDOWS,
        window_epochs=1,
        min_rounds=2,
        setup_repeats=2,
        tail_pct=85,
        checked_anchors=1,
    ),
    "eval-large": EvalWorkload(
        name="eval-large",
        spec=lambda seed: SyntheticSpec(n_classes=6, points_per_class=400, seed=seed),
        probe_layers=(64, 64, 64, 64, 64, 64, 4),
        probe_gain=10.0,
        manifold=ManifoldConfig(pool_size=20),
        min_rounds=2,
        setup_repeats=20,
        evals_per_round=3,
        tail_pct=75,
        checked_anchors=3,
    ),
}


def quick(workload):
    """The same workload cut to one short round, for the self-test."""
    cut = {"min_rounds": 1, "setup_repeats": 1}
    if isinstance(workload, TrainWorkload):
        cut.update(windows=(0, 1), window_epochs=1)
    return dataclasses.replace(workload, **cut)


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[Record, dict, Tracer]:
    """Measure one run; returns the record, the metrics and the tracer."""
    workload.prepare()
    tracer = Tracer(trace)
    tracer.install()
    rec = Record()
    work = OUT_DIR / f"{workload.name}-{seed}-{trace:d}-{os.getpid()}-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        while rec.rounds < workload.min_rounds or time.perf_counter() - start < seconds:
            rng = np.random.default_rng([seed, rec.rounds])
            # Operations a round never finishes count as failed: failed is
            # attempted minus ok.
            rec.attempted += workload.ops_per_round
            try:
                workload.run_round(
                    round_seed(seed, rec.rounds), rec.rounds, work, tracer, rec, rng
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec.failures.append(f"round {rec.rounds} raised")
            rec.speed.sample()
            rec.rounds += 1
        if trace and rec.last_eval is not None:
            emb, labels, mcfg, scfg, eval_seed, report = rec.last_eval
            rec.attempted += 1
            with tracer.memory(), tracer.span("bench.memory"):
                again = evaluation.evaluate_embeddings(emb, labels, mcfg, scfg, seed=eval_seed)
            rec.finish_op([] if again == report else ["evaluation differs when repeated"])
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        # Per-layer times are scaled by the run's median host speed.
        factor = HOST_NOMINAL_MS / rec.speed.median_ms()
        metrics = {
            name: (value * factor if unit == "ms" else value, unit)
            for name, (value, unit) in layer_metrics(tracer.spans, workload.op_span).items()
        }
    else:
        metrics = end_to_end(workload, rec)
    return rec, metrics, tracer


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def raw_medians(rec: Record) -> dict[str, float]:
    """Unscaled wall-time medians, printed beside the scaled metrics."""
    out = {
        name: _median([seconds for _, _, seconds in getattr(rec, name)])
        for name in ("setup", "steps", "eval")
    }
    out["train"] = _median([sum(seconds for _, _, seconds in parts) for parts in rec.train])
    return out


def end_to_end(workload, rec: Record) -> dict[str, tuple[float, str]]:
    quality = rec.quality
    steps_ms = np.asarray(rec.speed.scaled(rec.steps)) * 1000.0
    return {
        "setup_s": (_median(rec.speed.scaled(rec.setup)), "s"),
        "step_ms_p50": (_median(steps_ms), "ms"),
        "step_ms_tail": (
            float(np.percentile(steps_ms, workload.tail_pct)) if steps_ms.size else 0.0,
            "ms",
        ),
        "train_s": (_median([sum(rec.speed.scaled(parts)) for parts in rec.train]), "s"),
        "eval_s": (_median(rec.speed.scaled(rec.eval)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "recall_at_1": (quality.recall_at[1] if quality else 0.0, "%"),
        "similarity_correlation": (quality.similarity_correlation if quality else 0.0, "coef"),
        "neighborhood_purity": (quality.neighborhood_purity if quality else 0.0, "fraction"),
    }
