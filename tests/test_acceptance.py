"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from helpers import random_explicit_policy
from slateval import (
    ExperimentConfig,
    ExplicitPolicy,
    GeneratorConfig,
    LoggedExample,
    PinvSource,
    SlateSpace,
    SpaceKind,
    UniformMixturePolicy,
    UniformPolicy,
    bernstein_bound,
    build_instance,
    check_translation,
    compute_rho,
    compute_rho_bar,
    compute_sigma_sq,
    decompose,
    draw_logs,
    estimate_ips,
    estimate_pi,
    evaluate_learned,
    exact_policy_value,
    fit_scorer,
    fit_sup_scorer,
    generate_synthetic,
    pinv_uniform_cartesian,
    pinv_uniform_ranking,
    run_rmse_sweep,
)
from slateval.cli import main


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def enumerated_moment_matrix(space):
    """Independent oracle: plain average of indicator outer products."""
    total = np.zeros((space.dim, space.dim))
    count = 0
    for slate in space.enumerate_slates():
        ind = space.indicator(slate)
        total += np.outer(ind, ind)
        count += 1
    return total / count


def acceptance_spaces():
    """The full grid the closed forms are certified on."""
    spaces = []
    for ell in range(1, 5):
        for counts in itertools.product(range(1, 6), repeat=ell):
            spaces.append(SlateSpace.cartesian(counts))
    for m in range(1, 7):
        for ell in range(1, m + 1):
            spaces.append(SlateSpace.ranking(m, ell))
    return spaces


def test_criterion_01_closed_form_pinv_matches_svd():
    with criterion(1, "closed-form pseudoinverse matches SVD on full grid"):
        started = time.monotonic()
        for space in acceptance_spaces():
            numeric = np.linalg.pinv(enumerated_moment_matrix(space))
            if space.kind is SpaceKind.CARTESIAN:
                closed = pinv_uniform_cartesian(space).entries
            else:
                closed = pinv_uniform_ranking(space).entries
            err = np.linalg.norm(numeric - closed)
            assert err <= 1e-8, (space.kind, space.slot_counts, err)
        assert time.monotonic() - started < 10.0


def test_criterion_02_rho_bar_closed_forms():
    with criterion(2, "largest self-overlap matches the three closed forms"):
        for space in acceptance_spaces():
            got = compute_rho_bar(UniformPolicy(space), "q")
            ell = space.num_slots
            if space.kind is SpaceKind.CARTESIAN:
                expected = sum(space.slot_counts) - ell + 1
            else:
                m = space.num_actions
                expected = m * ell - ell + 1 if ell < m else m * m - 2 * m + 2
            assert abs(got - expected) <= 1e-8, (space.kind, space.slot_counts, got, expected)


# -- fixed additive-reward instance for criteria 3 and 7 -------------------------


def fixed_ada_setup():
    space = SlateSpace.ranking(4, 3)
    contexts = list(range(5))
    rng = np.random.default_rng(2024)
    phi = {c: rng.uniform(0.0, 1.0 / 3.0, size=space.dim) for c in contexts}

    def reward(context, slate):
        return float(phi[context][space.coords(slate)].sum())

    slates = list(space.enumerate_slates())

    def random_table(sparsity):
        table = {}
        for c in contexts:
            weights = rng.gamma(0.4, size=len(slates)) * (rng.random(len(slates)) < sparsity)
            if weights.sum() == 0:
                weights[rng.integers(len(slates))] = 1.0
            weights = weights / weights.sum()
            table[c] = [(s, p) for s, p in zip(slates, weights)]
        return ExplicitPolicy(space, table)

    logging = UniformMixturePolicy(random_table(0.4), 0.5)
    target = random_table(0.3)
    return space, contexts, reward, logging, target


def resample_estimates(contexts, reward, logging, target, runs, n, seed):
    source = PinvSource()
    pi_values = np.empty(runs)
    ips_values = np.empty(runs)
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        picks = rng.integers(0, len(contexts), size=n)
        logs = []
        for i in range(n):
            context = contexts[int(picks[i])]
            slate = logging.sample(context, rng)
            logs.append(LoggedExample(context, slate, reward(context, slate)))
        pi_values[r] = estimate_pi(logs, logging, target, pinv_source=source).estimate
        ips_values[r] = estimate_ips(logs, logging, target).estimate
    return pi_values, ips_values


def test_criterion_03_unbiasedness_over_resamples():
    with criterion(3, "PI and IPS means match the enumerated value over 10k resamples"):
        started = time.monotonic()
        _, contexts, reward, logging, target = fixed_ada_setup()
        truth = exact_policy_value(target, contexts, reward)
        pi_values, ips_values = resample_estimates(
            contexts, reward, logging, target, runs=10_000, n=50, seed=77
        )
        for values in (pi_values, ips_values):
            se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean() - truth) <= 4 * se
        assert time.monotonic() - started < 120.0


def test_criterion_04_exact_identities():
    with criterion(4, "reward-average identity and single-slot IPS agreement"):
        rng = np.random.default_rng(41)
        for space in (
            SlateSpace.ranking(4, 1),
            SlateSpace.ranking(4, 2),
            SlateSpace.ranking(4, 3),
            SlateSpace.cartesian((3, 2)),
            SlateSpace.cartesian((2, 3, 2)),
        ):
            policy = random_explicit_policy(space, ["a", "b"], rng)
            logs = []
            for i in range(150):
                context = ("a", "b")[i % 2]
                slate = policy.sample(context, rng)
                logs.append(LoggedExample(context, slate, rng.uniform(-1, 1)))
            report = estimate_pi(logs, policy, policy)
            mean_reward = float(np.mean([ex.reward for ex in logs]))
            assert abs(report.estimate - mean_reward) <= 1e-10

        space = SlateSpace.ranking(6, 1)
        for _ in range(10):
            logging = random_explicit_policy(space, ["x"], rng)
            target = random_explicit_policy(space, ["x"], rng, sparsity=0.6)
            logs = [
                LoggedExample("x", logging.sample("x", rng), rng.uniform(-1, 1))
                for _ in range(200)
            ]
            pi = estimate_pi(logs, logging, target).estimate
            ips = estimate_ips(logs, logging, target).estimate
            assert abs(pi - ips) <= 1e-12


def test_criterion_05_mean_overlap_identity():
    with criterion(5, "mean-indicator overlap equals 1 on the logging support"):
        rng = np.random.default_rng(55)
        source = PinvSource()
        spaces = (
            SlateSpace.ranking(4, 2),
            SlateSpace.ranking(3, 3),
            SlateSpace.cartesian((3, 3)),
            SlateSpace.cartesian((2, 4)),
        )
        for trial in range(100):
            space = spaces[trial % len(spaces)]
            logging = random_explicit_policy(
                space, [trial], rng, sparsity=None if trial % 3 else 0.5
            )
            pinv = source.pseudoinverse(logging, trial)
            q = logging.mean_indicator(trial)
            for slate, _ in logging.support(trial):
                value = q @ pinv @ space.indicator(slate)
                assert abs(value - 1.0) <= 1e-8


def test_criterion_06_ordering_and_translation():
    with criterion(6, "overlap ordering and translation inequality on 200 trials"):
        rng = np.random.default_rng(66)
        spaces = (
            SlateSpace.ranking(4, 2),
            SlateSpace.ranking(3, 3),
            SlateSpace.cartesian((3, 3)),
            SlateSpace.cartesian((2, 3, 2)),
        )
        for trial in range(200):
            space = spaces[trial % len(spaces)]
            base = random_explicit_policy(space, ["c"], rng, sparsity=0.4)
            logging = UniformMixturePolicy(base, float(rng.uniform(0.05, 1.0)))
            target = random_explicit_policy(space, ["c"], rng, sparsity=0.5)
            sigma_sq = compute_sigma_sq(["c"], logging, target)
            rho = compute_rho(["c"], logging, target)
            rho_bar = compute_rho_bar(logging, "c")
            assert sigma_sq <= rho + 1e-8
            assert rho <= rho_bar + 1e-8
            check = check_translation(logging, UniformPolicy(space), "c")
            assert check.lhs <= check.rhs + 1e-8


def test_criterion_07_deviation_bound_coverage():
    with criterion(7, "Bernstein bound holds in at least 93% of 500 trials"):
        _, contexts, reward, logging, target = fixed_ada_setup()
        truth = exact_policy_value(target, contexts, reward)
        n = 50
        sigma_sq = compute_sigma_sq(contexts, logging, target)
        rho = compute_rho(contexts, logging, target)
        bound = bernstein_bound(sigma_sq, rho, n, delta=0.05)
        pi_values, _ = resample_estimates(
            contexts, reward, logging, target, runs=500, n=n, seed=707
        )
        violations = np.mean(np.abs(pi_values - truth) > bound)
        assert violations <= 0.07


def test_criterion_08_rmse_trend():
    with criterion(8, "PI at most half of wIPS RMSE at n=10k and never worse"):
        started = time.monotonic()
        dataset = generate_synthetic(GeneratorConfig(seed=0))
        config = ExperimentConfig(
            m=10,
            slots=3,
            alpha=0.0,
            n_grid=(1000, 3000, 10_000),
            runs=20,
            seed=7,
            estimators=("pi", "wips"),
            title_dims=12,
        )
        instance = build_instance(dataset, config)
        result = run_rmse_sweep(instance, config)
        assert result.rmse("pi", 10_000) <= result.rmse("wips", 10_000) / 2
        for n in config.n_grid:
            assert result.rmse("pi", n) <= result.rmse("wips", n)
        assert time.monotonic() - started < 300.0


def test_criterion_09_ndcg_rewards_decompose_exactly():
    with criterion(9, "NDCG decomposes into per-slot values on 50 queries"):
        dataset = generate_synthetic(
            GeneratorConfig(num_queries=50, docs_per_query=9, feature_dim=16, title_dims=8, seed=9)
        )
        config = ExperimentConfig(m=6, slots=3, title_dims=8)
        instance = build_instance(dataset, config)
        assert len(instance.contexts) == 50
        discounts = 1.0 / np.log2(np.arange(2, 5))
        for context in instance.contexts:
            arm = instance.arms[context]
            for slate in arm.space.enumerate_slates():
                slot_sum = float(arm.intrinsic[arm.space.coords(slate)].sum())
                direct = float(
                    sum(arm.gains[a] * discounts[j] for j, a in enumerate(slate))
                    / arm.dcg_star
                ) if arm.dcg_star > 0 else 0.0
                assert abs(instance.ndcg(context, slate) - slot_sum) <= 1e-12
                assert abs(slot_sum - direct) <= 1e-12


def test_criterion_10_offpolicy_optimization():
    with criterion(10, "learned slates beat logging by 20% and track the gain baseline"):
        started = time.monotonic()
        dataset = generate_synthetic(
            GeneratorConfig(
                num_queries=120, docs_per_query=25, feature_dim=24, title_dims=12, seed=7
            )
        )
        config = ExperimentConfig(m=20, slots=5, alpha=0.0, seed=11, title_dims=12)
        instance = build_instance(dataset, config)
        heldout = [c for i, c in enumerate(instance.contexts) if i % 5 == 0]
        train = [c for i, c in enumerate(instance.contexts) if i % 5 != 0]
        rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
        logs = draw_logs(instance, 100_000, rng, contexts=train)
        targets = decompose(logs, instance.logging, features=instance.features)
        scorer = fit_scorer(targets)
        learned = evaluate_learned(scorer, instance, heldout)
        logged = instance.policy_value(instance.logging, heldout)
        supervised = evaluate_learned(
            fit_sup_scorer(instance, train, target="gain"), instance, heldout
        )
        assert learned >= 1.2 * logged
        assert learned >= 0.9 * supervised
        assert time.monotonic() - started < 300.0


def test_criterion_11_experiment_determinism(tmp_path):
    with criterion(11, "experiment reruns are byte-identical, threaded included"):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "m=6\nslots=2\nalpha=0.0\nn_grid=200,500\nruns=4\nseed=17\n"
            "estimators=pi,ips,wips\nqueries=40\ndocs_per_query=9\n"
            "feature_dim=12\ntitle_dims=6\n"
        )
        payloads = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out_dir = tmp_path / name
            code = main([
                "experiment", "--config", str(config),
                "--out-dir", str(out_dir), "--threads", threads,
            ])
            assert code == 0
            payloads.append(
                (out_dir / "aggregate.csv").read_bytes()
                + (out_dir / "runs.csv").read_bytes()
            )
        assert payloads[0] == payloads[1] == payloads[2]
