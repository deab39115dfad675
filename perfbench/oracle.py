"""Reference values and output checks, computed untimed by independent paths.

Each check compares what a command wrote with a reference the benchmark
computes itself: dense NumPy pseudoinverses of enumerated second moments
for the estimators, and NDCG from the relevance labels for policy values.
Comparisons use relative tolerances, so a change that only moves the last
bits passes and a wrong value fails. A check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from inputs import EVALUATE, ranking_slates, plackett_luce_probs

REL_TOL = 1e-6
ABS_TOL = 1e-12
PINV_RCOND = 1e-10


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _mismatch(label: str, got: float, want: float) -> list[str]:
    return [] if close(got, want) else [f"{label}: got {got!r}, reference {want!r}"]


def ndcg(gains: np.ndarray, slate) -> float:
    """NDCG of a slate over a pool's gains, straight from the definition."""
    discounts = 1.0 / np.log2(np.arange(2, len(slate) + 2))
    ideal = float(np.sort(gains)[::-1][: len(slate)] @ discounts)
    return float(gains[list(slate)] @ discounts) / ideal if ideal > 0.0 else 0.0


def pool_gains(arm, relevance: dict) -> np.ndarray:
    return np.array([2.0 ** relevance[d] - 1.0 for d in arm.pool_doc_ids])


def overlap_weights(support: np.ndarray, probs: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """q' pinv(Gamma) for a support enumerated with its probabilities (pool size m)."""
    one_hot = indicator_rows(support, m)
    gamma = one_hot.T @ (probs[:, None] * one_hot)
    return q @ np.linalg.pinv(gamma, rcond=PINV_RCOND, hermitian=True)


def indicator_rows(slates: np.ndarray, m: int) -> np.ndarray:
    """Slot-major one-hot indicator of each slate row (ranking space, pool m)."""
    slots = slates.shape[1]
    rows = np.zeros((len(slates), slots * m))
    rows[np.arange(len(slates))[:, None], np.arange(slots) * m + slates] = 1.0
    return rows


# -- experiment (sweeps) ----------------------------------------------------------


@dataclass
class SweepReference:
    target_value: float
    cell: tuple  # (n, run) of the replayed cell
    pi_squared_error: float


def sweep_reference(letor_path, relevance: dict, config) -> SweepReference:
    """Target NDCG from labels, plus one replayed cell's PI squared error."""
    from slateval import build_instance, draw_logs, parse_letor

    instance = build_instance(parse_letor(letor_path), config)
    gains = {c: pool_gains(instance.arms[c], relevance) for c in instance.contexts}
    target_value = float(np.mean(
        [ndcg(gains[c], instance.arms[c].target_slate) for c in instance.contexts]))

    n, run = config.n_grid[0], 0
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, run, n]))
    logs = draw_logs(instance, n, rng)
    weights = {}
    for c in {ex.context for ex in logs}:
        arm = instance.arms[c]
        m = len(arm.pool_doc_ids)
        support = ranking_slates(m, config.slots)
        if config.alpha == 0.0:
            probs = np.full(len(support), 1.0 / len(support))
        else:
            probs = plackett_luce_probs(config.alpha * arm.title_scores, support)
        q = indicator_rows(np.array([arm.target_slate]), m)[0]
        weights[c] = (overlap_weights(support, probs, q, m), m)
    terms = []
    for ex in logs:
        w, m = weights[ex.context]
        terms.append(ex.reward * w[np.arange(len(ex.slate)) * m + np.asarray(ex.slate)].sum())
    return SweepReference(target_value, (n, run), (float(np.mean(terms)) - target_value) ** 2)


def check_sweep(ref: SweepReference, stdout: str, runs_csv: str) -> list[str]:
    values = dict(line.split("=", 1) for line in stdout.splitlines()
                  if line.startswith("target_value="))
    if "target_value" not in values:
        return ["experiment printed no target_value"]
    problems = _mismatch("target_value", float(values["target_value"]), ref.target_value)
    n, run = ref.cell
    rows = [r for r in csv.DictReader(io.StringIO(runs_csv))
            if r["estimator"] == "pi" and int(r["n"]) == n and int(r["run"]) == run]
    if len(rows) != 1:
        return problems + [f"runs.csv has {len(rows)} rows for pi at n={n} run={run}"]
    return problems + _mismatch(f"pi squared error at n={n} run={run}",
                                float(rows[0]["squared_error"]), ref.pi_squared_error)


# -- optimize -----------------------------------------------------------------------


def optimize_reference(config, generator_config, folds: int) -> list[float]:
    """Per-fold expected NDCG of uniform logging on the held-out queries.

    Under uniform logging every slot holds a uniformly random pool document,
    so the expected NDCG is the mean pool gain times the summed discounts
    over the ideal DCG.
    """
    from slateval import build_instance, generate_synthetic

    dataset = generate_synthetic(generator_config)
    relevance = {doc.doc_id: doc.relevance for _, doc in dataset.rows()}
    instance = build_instance(dataset, config)
    discounts = 1.0 / np.log2(np.arange(2, config.slots + 2))
    per_context = []
    for c in instance.contexts:
        gains = pool_gains(instance.arms[c], relevance)
        ideal = float(np.sort(gains)[::-1][: config.slots] @ discounts)
        per_context.append(gains.mean() * discounts.sum() / ideal if ideal > 0.0 else 0.0)
    return [float(np.mean(per_context[fold::folds])) for fold in range(folds)]


def check_optimize(logger_ref: list[float], ndcg_csv: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(ndcg_csv)))
    folds = [r for r in rows if r["fold"] != "avg"]
    if len(folds) != len(logger_ref) or len(rows) != len(folds) + 1:
        return [f"ndcg.csv has {len(rows)} rows for {len(logger_ref)} folds"]
    problems = []
    for row, want in zip(folds + rows[-1:], logger_ref + [float(np.mean(logger_ref))]):
        label = f"fold {row['fold']}"
        problems += _mismatch(f"{label} logger", float(row["logger"]), want)
        values = {k: float(v) for k, v in row.items() if k != "fold"}
        if not all(0.0 <= v <= 1.0 for v in values.values()):
            problems.append(f"{label}: value outside [0, 1]: {values}")
        if not values["pi_opt"] > values["logger"]:
            problems.append(f"{label}: pi_opt {values['pi_opt']} does not beat the logger")
    return problems


# -- evaluate -------------------------------------------------------------------------


@dataclass
class EvaluateReference:
    estimates: dict = field(default_factory=dict)  # estimator -> value
    sigma_sq: float = 0.0
    rho: float = 0.0


def evaluate_reference(inputs) -> EvaluateReference:
    """PI, IPS and wIPS with sigma_sq and rho from the generated tables."""
    m, slots = EVALUATE["m"], EVALUATE["slots"]
    support = ranking_slates(m, slots)
    index = {tuple(s): i for i, s in enumerate(support.tolist())}
    contexts = list(inputs.logging_table)
    code = {c: i for i, c in enumerate(contexts)}
    mu = np.zeros((len(contexts), len(support)))
    pi_t = np.zeros_like(mu)
    quad, coef_w = {}, {}
    for c in contexts:
        rows, probs = inputs.logging_table[c]
        mu[code[c], [index[tuple(s)] for s in rows.tolist()]] = probs
        rows_t, probs_t = inputs.target_table[c]
        pi_t[code[c], [index[tuple(s)] for s in rows_t.tolist()]] = probs_t
        q = probs_t @ indicator_rows(rows_t, m)
        coef_w[c] = overlap_weights(rows, probs, q, m)
        quad[c] = float(coef_w[c] @ q)

    ci = np.array([code[c] for c in inputs.log_contexts])
    si = np.array([index[tuple(s)] for s in inputs.log_slates.tolist()])
    r = inputs.log_rewards
    coords = np.arange(slots) * m + inputs.log_slates
    w_rows = np.stack([coef_w[c] for c in contexts])[ci]
    coefficients = np.take_along_axis(w_rows, coords, axis=1).sum(axis=1)
    ratio = pi_t[ci, si] / mu[ci, si]
    ref = EvaluateReference()
    ref.estimates = {
        "pi": float(np.mean(r * coefficients)),
        "ips": float(np.mean(r * ratio)),
        "wips": float(np.sum(r * ratio) / np.sum(ratio)),
    }
    ref.sigma_sq = float(np.mean([quad[c] for c in inputs.log_contexts]))
    ref.rho = float(np.abs(coefficients).max())
    return ref


def check_evaluate(ref: EvaluateReference, reports_csv: str) -> list[str]:
    rows = {r["estimator"]: r for r in csv.DictReader(io.StringIO(reports_csv))}
    if set(rows) != set(ref.estimates):
        return [f"reports.csv estimators {sorted(rows)} != {sorted(ref.estimates)}"]
    problems = []
    for name, want in ref.estimates.items():
        problems += _mismatch(f"{name} estimate", float(rows[name]["estimate"]), want)
    problems += _mismatch("pi sigma_sq", float(rows["pi"]["sigma_sq"]), ref.sigma_sq)
    problems += _mismatch("pi rho", float(rows["pi"]["rho"]), ref.rho)
    return problems
