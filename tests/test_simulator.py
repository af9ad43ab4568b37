import csv
import io
import math
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from fedamp import simulator
from fedamp.accountant import Scheme, calibrate_sigma
from fedamp.cli import main
from fedamp.numerics import DomainError
from fedamp.simulator import (
    ClientDataset,
    MetricsRow,
    ModelState,
    RoundDraw,
    SimConfig,
    Task,
    TrainingDivergedError,
    _clip_rows,
    draw_rounds,
    make_streams,
    make_synthetic_datasets,
    run_round,
    run_training,
    task_loss,
    task_sample_grads,
)


def config(**overrides) -> SimConfig:
    base = dict(
        N=20, d=5, p=0.5, q=0.5, C=1.0, sigma=1.0, T=10, eta=0.1, m=3, seed=0
    )
    base.update(overrides)
    return SimConfig(**base)


def simulate_rows(cfg: SimConfig, *flags: str) -> list[dict]:
    """Rows of `fedamp simulate` on cfg's protocol; cfg.sigma is passed as
    --sigma only when no --eps/--delta flags ask for calibration."""
    args = ["simulate", "--task", Task.LINEAR_REGRESSION.value]
    for name in ("N", "d", "p", "q", "C", "T", "eta", "m", "seed"):
        args += [f"--{name}", repr(getattr(cfg, name))]
    if not flags:
        args += ["--sigma", repr(cfg.sigma)]
    result = CliRunner().invoke(main, args + list(flags))
    assert result.exit_code == 0, result.output
    return list(csv.DictReader(io.StringIO(result.stdout)))


def fresh_world(cfg: SimConfig, task: Task = Task.LINEAR_REGRESSION):
    streams = make_streams(cfg.seed, cfg.N)
    datasets, w_star = make_synthetic_datasets(cfg, task, streams.data)
    return streams, datasets, w_star


def one_round(state, cfg, datasets, streams, task=Task.LINEAR_REGRESSION):
    """One protocol round on a one-round draw."""
    (draw,) = draw_rounds(cfg, datasets, streams, 1)
    return run_round(state, cfg, draw, task)


def stream_states(streams) -> list:
    return [g.bit_generator.state for g in
            (streams.data, streams.participation, streams.noise, *streams.elements)]


def with_extra_element(
    datasets: list[ClientDataset],
    client: int,
    feature: np.ndarray,
    label: float,
) -> list[ClientDataset]:
    """Copy of the dataset list with one element appended to one client."""
    out = list(datasets)
    out[client] = ClientDataset(
        features=np.vstack([out[client].features, np.asarray(feature, float)]),
        labels=np.append(out[client].labels, float(label)),
    )
    return out


def reference_round(state, config, datasets, streams, task):
    """The per-participant round loop that `run_round` replaced, kept as an
    independent reference: one uniform draw, one index tuple and one boolean
    row selection per participant, and norms through `np.linalg.norm`."""
    part_u = streams.participation.uniform(size=config.N)
    noise = streams.noise.standard_normal(config.m)
    participants = tuple(np.flatnonzero(part_u < config.p).tolist())

    sampled = {}
    features = [np.empty((0, config.m))]
    labels = [np.empty(0)]
    for i in participants:
        ds = datasets[i]
        mask = streams.elements[i].uniform(size=len(ds)) < config.q
        sampled[i] = tuple(np.flatnonzero(mask).tolist())
        features.append(ds.features[mask])
        labels.append(ds.labels[mask])
    grads = task_sample_grads(
        task, state.weights, np.concatenate(features), np.concatenate(labels)
    )
    norms = np.linalg.norm(grads, axis=1)
    clipped = grads / np.maximum(1.0, norms / config.C)[:, None]
    total = clipped.sum(axis=0)

    scale = config.p * config.N * config.q * config.d
    estimate = (total + config.sigma * noise) / scale
    new_weights = state.weights - config.eta * estimate
    max_norm = float(np.linalg.norm(clipped, axis=1).max(initial=0.0))
    return new_weights, participants, sampled, estimate, total, max_norm


class TestClipGradient:
    """Per-sample gradient clipping, one gradient per row of `_clip_rows`."""

    def test_short_vector_unchanged(self):
        g = np.array([[0.3, -0.4]])
        np.testing.assert_array_equal(_clip_rows(g, 1.0), g)

    def test_long_vector_scaled_to_norm_c(self):
        g = np.array([[3.0, 4.0]])
        clipped = _clip_rows(g, 1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(clipped, g / 5.0)

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            _clip_rows(np.zeros((1, 4)), 0.5), np.zeros((1, 4))
        )


class TestSimConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(N=0),
            dict(d=0),
            dict(T=0),
            dict(m=0),
            dict(p=0.0),
            dict(q=1.5),
            dict(C=-1.0),
            dict(sigma=-0.5),
            dict(eta=0.0),
            dict(sigma=None),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(DomainError):
            config(**overrides)

    @pytest.mark.parametrize("name", ["N", "d", "T", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sizes_rejected(self, name, value):
        with pytest.raises(DomainError):
            config(**{name: value})

    @pytest.mark.parametrize("name", ["C", "eta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_scale_message(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive, got"):
            config(**{name: value})


class TestSyntheticData:
    def test_shapes_and_determinism(self):
        cfg = config(N=7, d=4, m=3)
        _, datasets, w_star = fresh_world(cfg)
        assert len(datasets) == 7
        assert all(ds.features.shape == (4, 3) for ds in datasets)
        assert w_star.shape == (3,)
        _, again, w_again = fresh_world(cfg)
        np.testing.assert_array_equal(datasets[3].features, again[3].features)
        np.testing.assert_array_equal(w_star, w_again)

    def test_logistic_labels_are_signs(self):
        cfg = config(N=5, d=6, m=3)
        _, datasets, _ = fresh_world(cfg, Task.LOGISTIC_REGRESSION)
        for ds in datasets:
            assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_arrays_are_read_only(self):
        _, datasets, _ = fresh_world(config())
        with pytest.raises(ValueError):
            datasets[0].features[0, 0] = 99.0

    def test_dataset_validation(self):
        with pytest.raises(DomainError):
            ClientDataset(features=np.zeros((3, 2)), labels=np.zeros(4))
        with pytest.raises(DomainError):
            ClientDataset(features=np.zeros(3), labels=np.zeros(3))


class TestWithExtraElement:
    def test_appends_one_element(self):
        _, datasets, _ = fresh_world(config(N=4, d=5, m=3))
        grown = with_extra_element(datasets, 2, np.ones(3), 1.0)
        assert len(grown[2]) == 6
        assert len(datasets[2]) == 5  # original untouched
        np.testing.assert_array_equal(grown[2].features[-1], np.ones(3))
        assert grown[2].labels[-1] == 1.0

    def test_other_clients_share_objects(self):
        _, datasets, _ = fresh_world(config(N=4))
        grown = with_extra_element(datasets, 1, np.zeros(3), -1.0)
        assert grown[0] is datasets[0]
        assert grown[3] is datasets[3]


class TestTaskFunctions:
    def test_linear_per_sample_grads(self):
        w = np.array([1.0, -2.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        y = np.array([0.5, 0.5, 0.0])
        grads = task_sample_grads(Task.LINEAR_REGRESSION, w, X, y)
        np.testing.assert_allclose(grads, (X @ w - y)[:, None] * X)

    def test_logistic_grads_match_finite_differences(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4) * 0.5
        X = rng.standard_normal((6, 4))
        y = np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
        grads = task_sample_grads(Task.LOGISTIC_REGRESSION, w, X, y)
        mean_grad = grads.mean(axis=0)
        h = 1e-6
        for k in range(4):
            bump = w.copy()
            bump[k] += h
            numeric = (
                task_loss(Task.LOGISTIC_REGRESSION, bump, X, y)
                - task_loss(Task.LOGISTIC_REGRESSION, w, X, y)
            ) / h
            assert mean_grad[k] == pytest.approx(numeric, abs=1e-5)

    def test_logistic_loss_matches_logaddexp(self):
        # one element per call, so the mean is the element's own loss;
        # with X = [[1]] and y = [-1] the loss is log(1 + e^z) at margin z
        def loss_at(z):
            return task_loss(
                Task.LOGISTIC_REGRESSION,
                np.array([z]), np.ones((1, 1)), np.array([-1.0]),
            )

        rng = np.random.default_rng(21)
        margins = rng.standard_normal(2000) * 10.0 ** rng.uniform(-4.0, 3.0, 2000)
        for z in margins:
            expected = float(np.logaddexp(0.0, z))
            assert abs(loss_at(z) - expected) <= 4 * math.ulp(expected), z
        for z in (0.0, 745.0, -745.0, 1e4, -1e4, math.inf, -math.inf):
            assert loss_at(z) == float(np.logaddexp(0.0, z)), z
        assert math.isnan(loss_at(math.nan))

    def test_linear_loss(self):
        w = np.zeros(2)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, -2.0])
        assert task_loss(Task.LINEAR_REGRESSION, w, X, y) == pytest.approx(2.0)


class TestRunRound:
    def test_deterministic_across_stream_rebuilds(self):
        cfg = config()
        streams_a, datasets, _ = fresh_world(cfg)
        streams_b = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        _, out_a = one_round(state, cfg, datasets, streams_a)
        _, out_b = one_round(state, cfg, datasets, streams_b)
        assert out_a.participants == out_b.participants
        assert out_a.sampled_elements == out_b.sampled_elements
        np.testing.assert_array_equal(out_a.noisy_estimate, out_b.noisy_estimate)

    def test_full_participation_noiseless_mean(self):
        cfg = config(p=1.0, q=1.0, sigma=0.0, N=6, d=4, m=3)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        new_state, outcome = one_round(state, cfg, datasets, streams)
        manual = np.zeros(cfg.m)
        for ds in datasets:
            grads = task_sample_grads(
                Task.LINEAR_REGRESSION, state.weights, ds.features, ds.labels
            )
            norms = np.linalg.norm(grads, axis=1)
            manual += (grads / np.maximum(1.0, norms / cfg.C)[:, None]).sum(axis=0)
        manual /= 1.0 * cfg.N * 1.0 * cfg.d
        np.testing.assert_allclose(outcome.noisy_estimate, manual, rtol=1e-12)
        np.testing.assert_allclose(
            new_state.weights, -cfg.eta * manual, rtol=1e-12
        )

    def test_only_participants_draw_element_masks(self):
        cfg = config(N=4, p=0.25)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        empty_rounds = 0
        for _ in range(20):
            before = [g.bit_generator.state for g in streams.elements]
            state, outcome = one_round(state, cfg, datasets, streams)
            for i, g in enumerate(streams.elements):
                advanced = g.bit_generator.state != before[i]
                assert advanced == (i in outcome.participants)
            assert outcome.raw_sum.shape == (cfg.m,)
            assert 0.0 <= outcome.max_clipped_norm <= cfg.C + 1e-12
            if not outcome.participants:
                empty_rounds += 1
                np.testing.assert_array_equal(outcome.raw_sum, np.zeros(cfg.m))
                assert outcome.max_clipped_norm == 0.0
        assert 0 < empty_rounds < 20

    def test_clipping_invariant(self):
        cfg = config(C=0.3, T=1)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        for _ in range(25):
            state, outcome = one_round(state, cfg, datasets, streams)
            assert outcome.max_clipped_norm <= cfg.C + 1e-12

    def test_coupling_between_neighboring_datasets(self):
        # growing client 0 leaves every other client's round draws untouched
        cfg = config(N=8, q=0.4)
        streams_a, datasets, _ = fresh_world(cfg)
        streams_b = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
        grown = with_extra_element(datasets, 0, np.full(cfg.m, 0.1), 1.0)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        for _ in range(10):
            _, out_a = one_round(state, cfg, datasets, streams_a)
            _, out_b = one_round(state, cfg, grown, streams_b)
            assert out_a.participants == out_b.participants
            for i in out_a.participants:
                if i != 0:
                    assert out_a.sampled_elements[i] == out_b.sampled_elements[i]


class TestRoundReference:
    @pytest.mark.parametrize("task", list(Task))
    def test_matches_per_participant_loop(self, task):
        # ragged clients: three of them hold one or two extra elements
        cfg = config(N=12, d=6, p=0.5, q=0.4, C=0.5, sigma=0.7, eta=0.3, m=4, seed=5)
        streams, datasets, _ = fresh_world(cfg, task)
        ref_streams = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, task, ref_streams.data)
        rng = np.random.default_rng(8)
        for client in (0, 4, 4, 9):
            datasets = with_extra_element(
                datasets, client, rng.standard_normal(cfg.m), rng.choice([-1.0, 1.0])
            )
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        ref_weights = state.weights
        for _ in range(60):
            ref_state = ModelState(weights=ref_weights, iteration=state.iteration)
            ref = reference_round(ref_state, cfg, datasets, ref_streams, task)
            state, outcome = one_round(state, cfg, datasets, streams, task)
            ref_weights, participants, sampled, estimate, total, max_norm = ref
            assert outcome.participants == participants
            assert outcome.sampled_elements == sampled
            assert outcome.raw_sum.tobytes() == total.tobytes()
            assert outcome.noisy_estimate.tobytes() == estimate.tobytes()
            assert outcome.max_clipped_norm.hex() == max_norm.hex()
            assert state.weights.tobytes() == ref_weights.tobytes()
            for g, ref_g in zip(streams.elements, ref_streams.elements):
                assert g.bit_generator.state == ref_g.bit_generator.state
        assert {len(ds) for ds in datasets} == {6, 7, 8}

    def test_metrics_count_matches_sampled_elements(self, monkeypatch):
        outcomes = []

        def recording_round(*args):
            new_state, outcome = run_round(*args)
            outcomes.append(outcome)
            return new_state, outcome

        monkeypatch.setattr(simulator, "run_round", recording_round)
        rows = run_training(config(T=30), Task.LOGISTIC_REGRESSION)
        assert len(outcomes) == 30
        for row, outcome in zip(rows, outcomes):
            assert row.sampled_elements == sum(
                len(s) for s in outcome.sampled_elements.values()
            )
            assert row.participants == len(outcome.sampled_elements)


class TestDrawRounds:
    """A block of R rounds' draws equals R one-round draws, field for field
    and in the state of every stream it leaves behind."""

    @pytest.mark.parametrize(
        "overrides, rounds, kind",
        [
            (dict(N=12, d=6, p=0.5, q=0.4, m=4, seed=5), 40, "ragged"),
            (dict(N=3, d=4, p=0.1, q=0.5, seed=1), 30, "empty rounds"),
            (dict(N=5, d=4, p=1.0, q=1.0, seed=2), 7, "p = q = 1"),
        ],
    )
    def test_block_equals_one_round_draws(self, overrides, rounds, kind):
        cfg = config(**overrides)
        streams, datasets, _ = fresh_world(cfg)
        one_streams, _, _ = fresh_world(cfg)
        rng = np.random.default_rng(8)
        for client in (0, 1, 1):
            datasets = with_extra_element(
                datasets, client, rng.standard_normal(cfg.m), rng.choice([-1.0, 1.0])
            )
        block = draw_rounds(cfg, datasets, streams, rounds)
        singles = [d for _ in range(rounds) for d in draw_rounds(cfg, datasets, one_streams, 1)]
        assert len(block) == len(singles) == rounds
        for a, b in zip(block, singles):
            for field in fields(RoundDraw):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, np.ndarray):
                    assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
                    assert x.tobytes() == y.tobytes(), field.name
                    assert not x.flags.writeable, field.name
                else:
                    assert x == y, field.name
        assert stream_states(streams) == stream_states(one_streams)

        assert {len(ds) for ds in datasets} == {cfg.d, cfg.d + 1, cfg.d + 2}
        if kind == "empty rounds":
            assert any(not d.participants for d in block)
            assert any(d.participants for d in block)
        if kind == "p = q = 1":
            for d in block:
                assert d.participants == tuple(range(cfg.N))
                assert d.element_mask.all()
                assert len(d.labels) == sum(len(ds) for ds in datasets)

    @pytest.mark.parametrize("task", list(Task))
    def test_run_training_blocks_equal_one_round_loop(self, task, monkeypatch):
        # 100 clients of 1000 elements: blocks of 2, 2 and 1 rounds
        cfg = config(N=100, d=1000, p=0.1, q=0.1, T=5, seed=4)
        blocks = []

        def recording_draw(config, datasets, streams, rounds):
            blocks.append(rounds)
            return draw_rounds(config, datasets, streams, rounds)

        monkeypatch.setattr(simulator, "draw_rounds", recording_draw)
        rows = run_training(cfg, task)
        assert blocks == [2, 2, 1]

        streams, datasets, _ = fresh_world(cfg, task)
        X = np.vstack([ds.features for ds in datasets])
        y = np.concatenate([ds.labels for ds in datasets])
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        expected = []
        for t in range(cfg.T):
            state, outcome = one_round(state, cfg, datasets, streams, task)
            expected.append(MetricsRow(
                iteration=t,
                loss=task_loss(task, state.weights, X, y),
                grad_norm=float(np.linalg.norm(outcome.noisy_estimate)),
                participants=len(outcome.participants),
                sampled_elements=sum(len(s) for s in outcome.sampled_elements.values()),
            ))
        assert rows == expected


class TestRoundStatistics:
    def test_means_and_noise_independence(self):
        cfg = config(N=30, d=5, p=0.3, q=0.4, sigma=1.0, m=3)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        rounds, block = 10_000, 1_000
        participant_counts = np.empty(rounds)
        element_counts = np.empty(rounds)
        noise_first = np.empty(rounds)
        scale = cfg.p * cfg.N * cfg.q * cfg.d
        for start in range(0, rounds, block):
            draws = draw_rounds(cfg, datasets, streams, block)
            for t, draw in enumerate(draws, start):
                _, outcome = run_round(state, cfg, draw, Task.LINEAR_REGRESSION)
                participant_counts[t] = len(outcome.participants)
                element_counts[t] = sum(
                    len(s) for s in outcome.sampled_elements.values()
                )
                noise_first[t] = (
                    outcome.noisy_estimate[0] * scale - outcome.raw_sum[0]
                ) / cfg.sigma

        se_participants = math.sqrt(cfg.N * cfg.p * (1.0 - cfg.p) / rounds)
        assert participant_counts.mean() == pytest.approx(
            cfg.N * cfg.p, abs=3.0 * se_participants
        )

        per_client_var = cfg.p * (
            cfg.d * cfg.q * (1.0 - cfg.q)
            + (1.0 - cfg.p) * (cfg.q * cfg.d) ** 2
        )
        se_elements = math.sqrt(cfg.N * per_client_var / rounds)
        assert element_counts.mean() == pytest.approx(
            cfg.N * cfg.p * cfg.q * cfg.d, abs=3.0 * se_elements
        )

        # the noise stream never sees sampling decisions
        r = np.corrcoef(noise_first, participant_counts)[0, 1]
        assert abs(r) < 0.05


class TestSensitivity:
    def test_summed_update_moves_at_most_c(self):
        # one round per seed: the grown client consumes one extra mask draw,
        # so its stream only stays aligned with the base world within a round
        for seed in range(20):
            cfg = config(N=6, d=5, q=0.5, C=0.7, sigma=1.0, m=3, seed=seed)
            streams_a, datasets, _ = fresh_world(cfg)
            streams_b = make_streams(cfg.seed, cfg.N)
            make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
            grown = with_extra_element(datasets, 0, np.full(cfg.m, 2.0), -3.0)
            rng = np.random.default_rng(seed)
            state = ModelState(weights=rng.standard_normal(cfg.m), iteration=0)
            _, out_a = one_round(state, cfg, datasets, streams_a)
            _, out_b = one_round(state, cfg, grown, streams_b)
            shift = float(np.linalg.norm(out_b.raw_sum - out_a.raw_sum))
            assert shift <= cfg.C + 1e-12


class TestRunTraining:
    def test_deterministic(self):
        cfg = config(T=8)
        a = run_training(cfg, Task.LINEAR_REGRESSION)
        b = run_training(cfg, Task.LINEAR_REGRESSION)
        assert [r.loss for r in a] == [r.loss for r in b]
        c = run_training(config(T=8, seed=1), Task.LINEAR_REGRESSION)
        assert [r.loss for r in a] != [r.loss for r in c]

    def test_noiseless_full_batch_descends(self):
        cfg = config(p=1.0, q=1.0, sigma=0.0, T=50, eta=0.5, N=10, d=8, m=4)
        rows = run_training(cfg, Task.LINEAR_REGRESSION)
        losses = [r.loss for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0] * 0.5

    def test_metrics_rows_without_targets(self):
        # a row holds what the round measured; sigma and any privacy
        # target belong to whoever chose the sigma
        rows = run_training(config(T=5, sigma=0.8), Task.LINEAR_REGRESSION)
        assert [r.iteration for r in rows] == list(range(5))
        assert [f.name for f in fields(MetricsRow)] == [
            "iteration", "loss", "grad_norm", "participants", "sampled_elements",
        ]

    def test_calibrated_mode_records_targets(self):
        # calibration lives in `fedamp simulate`: its calibrated run is
        # run_training at calibrate_sigma's sigma, with the targets in each row
        cfg = config(T=3, p=0.5, q=0.5, d=8)
        rows = simulate_rows(cfg, "--eps", "0.5", "--delta", "1e-5", "--scheme", "ub")
        expected = calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        trained = run_training(config(T=3, p=0.5, q=0.5, d=8, sigma=expected),
                               Task.LINEAR_REGRESSION)
        assert [float(r["loss"]) for r in rows] == [r.loss for r in trained]
        assert all(float(r["sigma"]) == expected for r in rows)
        assert all(float(r["eps_round"]) == 0.5 and float(r["delta_round"]) == 1e-5
                   for r in rows)

    def test_default_scheme_is_certified(self):
        # with no scheme named, calibration uses ub, which is a certificate;
        # main calibrates less noise and is marked uncertified
        cfg = config(T=2, p=0.5, q=0.5, d=8)
        targets = ("--eps", "0.5", "--delta", "1e-5")
        default = simulate_rows(cfg, *targets)
        main_rows = simulate_rows(cfg, *targets, "--scheme", "main")
        expected = calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        assert all(float(r["sigma"]) == expected and r["certified"] == "true"
                   for r in default)
        assert all(r["certified"] == "false" for r in main_rows)
        fixed = simulate_rows(config(T=2, sigma=0.8))
        assert all(r["certified"] == "" for r in fixed)

    @pytest.mark.parametrize(
        "targets",
        [
            dict(eps_per_round=0.5, delta_per_round=1e-9),
            dict(eps_per_round=0.5),
            dict(delta_per_round=1e-9),
        ],
    )
    def test_sigma_with_targets_rejected(self, targets):
        # a set sigma was not calibrated to the targets, so they must not
        # appear in the rows as if certified: the trainer takes none
        with pytest.raises(TypeError):
            run_training(config(sigma=0.01), Task.LINEAR_REGRESSION, **targets)

    def test_sigma_none_without_targets_rejected(self):
        with pytest.raises(DomainError):
            run_training(config(sigma=None), Task.LINEAR_REGRESSION)

    def test_loss_divergence_is_reported(self):
        # clipping bounds each update, so the squared residual is what
        # overflows first at an absurd step size
        cfg = config(T=5, eta=1e160, sigma=0.0, p=1.0, q=1.0)
        with pytest.raises(TrainingDivergedError, match="loss diverged"):
            run_training(cfg, Task.LINEAR_REGRESSION)

    def test_weight_divergence_is_reported(self):
        cfg = config(T=5, sigma=1e308, eta=1e10)
        with pytest.raises(TrainingDivergedError, match="weights diverged"):
            run_training(cfg, Task.LINEAR_REGRESSION)
