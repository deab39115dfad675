"""Seeded input generator for the benchmark's commands.

One seed produces every file the commands read: a LETOR file and the two
sweep configs, the optimize config, both explicit-policy files and the log
TSV for ``evaluate``. The generator writes the text formats itself with
NumPy, so the inputs do not change when the program's own writers change.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# -- command sizes -------------------------------------------------------------
# Chosen so one command takes one to two seconds on a 2-core x86 machine. A
# workload runs two of them per closed-loop iteration, which gives a 55 s run
# about 14 iterations for its median (see run.py).

SWEEP_LETOR = dict(queries=60, docs_per_query=15, feature_dim=24, title_dims=12)
SWEEP_UNIFORM = dict(m=10, slots=3, alpha="0.0", n_grid="1000,3000", runs=3,
                     estimators="pi,wips,sb")
SWEEP_SOFTMAX = dict(m=10, slots=3, alpha="1.0", n_grid="500", runs=2,
                     estimators="pi,wips,sb")
OPTIMIZE = dict(m=20, slots=5, alpha="0.0", queries=120, docs_per_query=25,
                feature_dim=24, title_dims=12, n=10_000, folds=2)
EVALUATE = dict(contexts=200, m=6, slots=3, lines=40_000, kappa=0.3,
                logging_temperature=1.0, target_slates=8, target_temperature=2.0)


@dataclass
class Inputs:
    """Paths of the generated files plus what the output checks need."""

    files: dict = field(default_factory=dict)
    # evaluate-explicit ground data, kept in memory for the oracle
    logging_table: dict = field(default_factory=dict)  # context -> (slates, probs)
    target_table: dict = field(default_factory=dict)
    log_contexts: list = field(default_factory=list)
    log_slates: np.ndarray | None = None
    log_rewards: np.ndarray | None = None
    relevance: dict = field(default_factory=dict)  # doc id -> label


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, stream]))


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")


def write_letor(path: Path, seed: int, queries: int, docs_per_query: int,
                feature_dim: int, **_) -> dict:
    """SVMlight-with-qid ranking data with a planted linear relevance signal.

    Returns the relevance label of every document id.
    """
    rng = _rng(seed, 1)
    hidden = rng.normal(size=feature_dim)
    hidden /= np.linalg.norm(hidden)
    num_docs = queries * docs_per_query
    features = rng.normal(size=(num_docs, feature_dim))
    shift = np.repeat(rng.normal(scale=1.5, size=queries), docs_per_query)
    latent = features @ hidden + shift + 0.6 * rng.normal(size=num_docs)
    hi, lo = np.quantile(latent, [0.85, 0.5])
    labels = np.where(latent >= hi, 2, np.where(latent >= lo, 1, 0))
    relevance = {}
    lines = []
    for i in range(num_docs):
        qi, di = divmod(i, docs_per_query)
        doc_id = f"q{qi}d{di}"
        relevance[doc_id] = int(labels[i])
        feats = " ".join(f"{k + 1}:{v!r}" for k, v in enumerate(features[i].tolist()))
        lines.append(f"{labels[i]} qid:q{qi} {feats} # {doc_id}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return relevance


def ranking_slates(m: int, slots: int) -> np.ndarray:
    """All ordered slates of a ranking space, lexicographic, one per row."""
    return np.array(list(itertools.permutations(range(m), slots)), dtype=np.int64)


def plackett_luce_probs(logits: np.ndarray, slates: np.ndarray) -> np.ndarray:
    """Slot-by-slot softmax without replacement, evaluated for every slate row."""
    weights = np.exp(logits - logits.max())
    probs = np.ones(len(slates))
    remaining = np.full(len(slates), weights.sum())
    for j in range(slates.shape[1]):
        chosen = weights[slates[:, j]]
        probs *= chosen / remaining
        remaining = remaining - chosen
    return probs


def _write_policy(path: Path, table: dict) -> int:
    lines = []
    for context, (slates, probs) in table.items():
        for row, p in zip(slates.tolist(), probs.tolist()):
            lines.append(f"{context}\t{','.join(map(str, row))}\t{p!r}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


def write_evaluate_inputs(root: Path, seed: int, inputs: Inputs) -> None:
    """Explicit logging and target tables plus a log drawn from the logging table.

    Rewards add up per-(slot, action) values in [0, 1/slots), so the reward of
    every slate lies in [0, 1) and PI has an exact target.
    """
    cfg = EVALUATE
    rng = _rng(seed, 2)
    m, slots = cfg["m"], cfg["slots"]
    slates = ranking_slates(m, slots)
    uniform = np.full(len(slates), 1.0 / len(slates))
    contexts = [f"c{i}" for i in range(cfg["contexts"])]
    values = {}
    for context in contexts:
        scores = rng.normal(size=m)
        logging = cfg["kappa"] * uniform + (1.0 - cfg["kappa"]) * plackett_luce_probs(
            cfg["logging_temperature"] * scores, slates)
        inputs.logging_table[context] = (slates, logging / logging.sum())
        target_scores = scores + rng.normal(size=m)
        target_all = plackett_luce_probs(cfg["target_temperature"] * target_scores, slates)
        keep = np.sort(np.argsort(-target_all, kind="stable")[: cfg["target_slates"]])
        inputs.target_table[context] = (slates[keep], target_all[keep] / target_all[keep].sum())
        values[context] = rng.uniform(0.0, 1.0 / slots, size=(slots, m))

    picks = rng.integers(0, len(contexts), size=cfg["lines"])
    log_slates = np.empty((cfg["lines"], slots), dtype=np.int64)
    for ci in np.unique(picks):
        rows = np.flatnonzero(picks == ci)
        _, probs = inputs.logging_table[contexts[ci]]
        log_slates[rows] = slates[rng.choice(len(slates), size=len(rows), p=probs)]
    rewards = np.empty(cfg["lines"])
    for i, ci in enumerate(picks.tolist()):
        rewards[i] = values[contexts[ci]][np.arange(slots), log_slates[i]].sum()

    inputs.log_contexts = [contexts[ci] for ci in picks.tolist()]
    inputs.log_slates = log_slates
    inputs.log_rewards = rewards
    log_lines = [
        f"{c}\t{','.join(map(str, s))}\t{r!r}\n"
        for c, s, r in zip(inputs.log_contexts, log_slates.tolist(), rewards.tolist())
    ]
    files = inputs.files
    files["logs"] = root / "logs.tsv"
    files["logs"].write_text("".join(log_lines), encoding="utf-8")
    files["logging_policy"] = root / "logging.tsv"
    files["target_policy"] = root / "target.tsv"
    files["policy_lines"] = _write_policy(files["logging_policy"], inputs.logging_table) + \
        _write_policy(files["target_policy"], inputs.target_table)


def generate(command: str, seed: int, root: Path) -> Inputs:
    """Write the inputs of one command under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    inputs = Inputs()
    if command.startswith("sweep-"):
        letor = root / "letor.txt"
        inputs.relevance = write_letor(letor, seed, **SWEEP_LETOR)
        shape = SWEEP_UNIFORM if command == "sweep-uniform" else SWEEP_SOFTMAX
        inputs.files["config"] = root / "experiment.cfg"
        _write_config(inputs.files["config"], dict(
            shape, seed=seed, letor=letor.resolve(), title_dims=SWEEP_LETOR["title_dims"]))
    elif command == "optimize":
        inputs.files["config"] = root / "optimize.cfg"
        _write_config(inputs.files["config"], dict(OPTIMIZE, seed=seed, generator_seed=seed))
    elif command == "evaluate-explicit":
        write_evaluate_inputs(root, seed, inputs)
    else:
        raise ValueError(f"unknown command {command!r}")
    return inputs
