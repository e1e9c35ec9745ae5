"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Each checker must pass the program's real output and reject a deliberately
corrupted copy (a swapped neighbour, a perturbed similarity, a flipped
checkpoint byte, a miscounted recall, ...), also when the corruption happens
inside a training step. Then every workload runs one short round untraced
and traced, and must report every metric that BENCHMARK.json lists, with no
failed operation. Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run as bench_run  # pins the BLAS threads before numpy is imported

bench_run.import_program()

import dataclasses

import numpy as np

import checks
import workloads
from tracer import Tracer
from plmetric import data, embedder, evaluation, manifold, similarity, trainer
from plmetric.data import SyntheticSpec
from plmetric.manifold import ManifoldConfig
from plmetric.similarity import SimilarityConfig
from plmetric.trainer import TrainConfig

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)


def _points(n=60, dim=4, seed=3):
    ds = data.generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=n // 3, seed=seed))
    probe = embedder.MLPParams.initialize((ds.dim, 32, dim), seed=seed, gain=3.0)
    return embedder.forward(probe, ds.features), ds.labels


def test_neighbourhood() -> None:
    emb, _ = _points()
    cfg = ManifoldConfig(pool_size=10)
    nbhds = manifold.fit_all_neighborhoods(emb, cfg)
    for anchor, nb in enumerate(nbhds):
        failures, exempt = checks.neighbourhood(emb, anchor, nb.member_indices, cfg)
        if not exempt and nb.size > cfg.dim:
            break
    expect("neighbourhood: real members pass", not failures and not exempt)
    members = nb.member_indices.copy()
    outsider = int(np.argmax(np.linalg.norm(emb - emb[anchor], axis=1)))
    members[-1] = outsider
    failures, _ = checks.neighbourhood(emb, anchor, members, cfg)
    expect("neighbourhood: a swapped neighbour is rejected", bool(failures))


def test_similarity() -> None:
    emb, _ = _points()
    nbhds = manifold.fit_all_neighborhoods(emb, ManifoldConfig(pool_size=10))
    bases = np.stack([nb.basis.vectors for nb in nbhds])
    cfg = SimilarityConfig()
    sims = similarity.pairwise_similarity_matrix(emb, nbhds, cfg)
    rng = np.random.default_rng(0)
    first, second = rng.integers(len(emb), size=(2, 64))
    expect(
        "similarity: real matrix passes",
        not checks.similarity_matrix(emb, bases, sims, cfg, first, second),
    )
    i, j = int(first[0]), int(second[0])
    if i == j:
        j = (i + 1) % len(emb)
        first[0], second[0] = i, j
    bad = sims.copy()
    bad[i, j] *= 1.0 + 1e-6
    bad[j, i] = bad[i, j]
    expect(
        "similarity: a perturbed similarity is rejected",
        bool(checks.similarity_matrix(emb, bases, bad, cfg, first, second)),
    )
    asym = sims.copy()
    asym[i, j] = np.nextafter(asym[i, j], 0.0)
    expect(
        "similarity: an asymmetric matrix is rejected",
        bool(checks.similarity_matrix(emb, bases, asym, cfg, first, second)),
    )


def test_report() -> None:
    emb, labels = _points(n=90)
    mcfg, scfg = ManifoldConfig(pool_size=10), SimilarityConfig()
    report = evaluation.evaluate_embeddings(emb, labels, mcfg, scfg, seed=0)
    expect("recall: real recall passes", not checks.recall(emb, labels, report.recall_at))
    shifted = {k: v + 100.0 / len(emb) for k, v in report.recall_at.items()}
    shifted[1] = report.recall_at[1] - 100.0 / len(emb)
    expect("recall: a recall off by one query is rejected", bool(checks.recall(emb, labels, shifted)))
    nbhds = manifold.fit_all_neighborhoods(emb, mcfg)
    members = [nb.member_indices for nb in nbhds]
    expect("purity: real purity passes", not checks.purity(members, labels, report.neighborhood_purity))
    expect(
        "purity: a perturbed purity is rejected",
        bool(checks.purity(members, labels, report.neighborhood_purity + 1e-6)),
    )
    bases = np.stack([nb.basis.vectors for nb in nbhds])
    first, second = evaluation.sample_pairs(len(emb), 0)
    args = (emb, bases, labels, first, second, scfg)
    expect("correlation: real correlation passes", not checks.correlation(*args, report.similarity_correlation))
    expect(
        "correlation: a perturbed correlation is rejected",
        bool(checks.correlation(*args, report.similarity_correlation + 1e-6)),
    )


def test_step_outputs() -> None:
    good = trainer.StepMetrics(0, 0, 0.5, 0.25, 0.125, 0.875)
    expect("losses: finite non-negative losses pass", not checks.losses(good))
    expect("losses: a NaN loss is rejected", bool(checks.losses(dataclasses.replace(good, proxy=float("nan")))))
    expect("losses: a negative loss is rejected", bool(checks.losses(dataclasses.replace(good, point=-1e-9))))
    rng = np.random.default_rng(1)
    frames = np.stack([np.linalg.qr(rng.standard_normal((4, 3)))[0].T for _ in range(5)])
    locations = rng.standard_normal((5, 4))
    locations /= np.linalg.norm(locations, axis=1, keepdims=True)
    expect("proxies: unit locations and orthonormal frames pass", not checks.proxies(locations, frames))
    stretched = locations.copy()
    stretched[2] *= 1.0 + 1e-6
    expect("proxies: a stretched location is rejected", bool(checks.proxies(stretched, frames)))
    skewed = frames.copy()
    skewed[3, 1] += 1e-6 * skewed[3, 0]
    expect("proxies: a skewed frame is rejected", bool(checks.proxies(locations, skewed)))


def _probed_step(module=None, name=None, corrupt=None) -> workloads.Record:
    # One sampled train-bench step through the step probe, with
    # ``module.name``'s result passed through ``corrupt`` inside the step.
    workload = dataclasses.replace(workloads.WORKLOADS["train-bench"], checked_anchors=10)
    train_set, _, _ = workload.split(1)
    run = trainer.Trainer.initialize(train_set, workload.config(1))
    rec = workloads.Record()
    workloads._StepProbe(run, workload, Tracer(False), rec, np.random.default_rng(0), sampled={0})
    embeds = embedder.forward(run.pair.averaged, run.dataset.features)
    pools = manifold.neighbor_lists(embeds, run.config.sampler.group_size - 1)
    batch = trainer.sample_batch(pools, run.config.sampler, run.rng_sampler)
    if module is None:
        run.train_step(batch)
        return rec
    raw = getattr(module, name)
    setattr(module, name, lambda *args: corrupt(args, raw(*args)))
    try:
        run.train_step(batch)
    finally:
        setattr(module, name, raw)
    return rec


def _swap_far_member(args, neighborhoods):
    points, config = args
    out = []
    for nb in neighborhoods:
        members = nb.member_indices.copy()
        if nb.size > config.dim:
            members[-1] = np.argmax(np.linalg.norm(points - points[nb.anchor_index], axis=1))
        out.append(dataclasses.replace(nb, member_indices=members))
    return out


def _scale_off_diagonal(args, sims):
    off = ~np.eye(len(sims), dtype=bool)
    sims[off] *= 1.0 - 1e-6
    return sims


def test_step_capture() -> None:
    rec = _probed_step()
    expect("step: the step's own fit and similarities pass", rec.ok == 1 and not rec.failures)
    rec = _probed_step(manifold, "fit_all_neighborhoods", _swap_far_member)
    expect("step: a swapped neighbour inside the step is rejected", rec.ok == 0 and bool(rec.failures))
    rec = _probed_step(similarity, "pairwise_similarity_matrix", _scale_off_diagonal)
    expect("step: perturbed similarities inside the step are rejected", rec.ok == 0 and bool(rec.failures))


def test_checkpoint() -> None:
    ds = data.generate_synthetic(SyntheticSpec(n_classes=3, points_per_class=40, seed=2))
    cfg = TrainConfig(
        manifold=ManifoldConfig(pool_size=5), hidden_sizes=(16,), embed_dim=4,
        n_proxies=10, epochs=1, seed=2,
    )
    run = trainer.Trainer.initialize(ds, cfg)
    run.run()
    tracer = Tracer(False)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tmp:
        path = Path(tmp) / "run.plck"
        trainer.save_checkpoint(run, path)
        expect("checkpoint: an intact checkpoint passes", not workloads._round_trip(run, path, tracer))
        trainer.save_checkpoint(run, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01
        path.write_bytes(bytes(blob))
        try:
            rejected = bool(workloads._round_trip(run, path, tracer))
        except Exception:  # an unreadable file is a rejection too
            rejected = True
        expect("checkpoint: a flipped byte is rejected", rejected)


def test_quick_runs() -> None:
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        names = [m["name"] for m in listed]
        for name in spec_names(spec):
            rec, metrics, _ = workloads.run(
                workloads.quick(workloads.WORKLOADS[name]), seed=1, seconds=0.0, trace=trace
            )
            label = f"quick {name} {'traced' if trace else 'untraced'}"
            expect(f"{label}: no failed operation", rec.ok == rec.attempted and not rec.failures)
            expect(f"{label}: reports exactly the listed metrics", sorted(metrics) == sorted(names))
            units = {m["name"]: m["unit"] for m in listed}
            expect(f"{label}: units match", all(metrics[k][1] == units[k] for k in names))
            if not trace:
                expect(f"{label}: no end-to-end metric is 0", all(v != 0 for v, _ in metrics.values()))


def spec_names(spec) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def main() -> int:
    test_neighbourhood()
    test_similarity()
    test_report()
    test_step_outputs()
    test_step_capture()
    test_checkpoint()
    test_quick_runs()
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
