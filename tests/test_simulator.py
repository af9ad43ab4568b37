import csv
import io
import math

import numpy as np
import pytest

from fedamp.accountant import Scheme, calibrate_sigma
from fedamp.numerics import DomainError
from fedamp.simulator import (
    METRICS_HEADER,
    ClientDataset,
    ModelState,
    SimConfig,
    Task,
    TrainingDivergedError,
    _clip_rows,
    make_streams,
    make_synthetic_datasets,
    run_round,
    run_training,
    task_loss,
    task_sample_grads,
    write_metrics_csv,
)


def config(**overrides) -> SimConfig:
    base = dict(
        N=20, d=5, p=0.5, q=0.5, C=1.0, sigma=1.0, T=10, eta=0.1, m=3, seed=0
    )
    base.update(overrides)
    return SimConfig(**base)


def fresh_world(cfg: SimConfig, task: Task = Task.LINEAR_REGRESSION):
    streams = make_streams(cfg.seed, cfg.N)
    datasets, w_star = make_synthetic_datasets(cfg, task, streams.data)
    return streams, datasets, w_star


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
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(DomainError):
            config(**overrides)

    def test_sigma_none_means_calibrate_later(self):
        assert config(sigma=None).sigma is None


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
        _, out_a = run_round(state, cfg, datasets, streams_a, Task.LINEAR_REGRESSION)
        _, out_b = run_round(state, cfg, datasets, streams_b, Task.LINEAR_REGRESSION)
        assert out_a.participants == out_b.participants
        assert out_a.sampled_elements == out_b.sampled_elements
        np.testing.assert_array_equal(out_a.noisy_estimate, out_b.noisy_estimate)

    def test_full_participation_noiseless_mean(self):
        cfg = config(p=1.0, q=1.0, sigma=0.0, N=6, d=4, m=3)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        new_state, outcome = run_round(
            state, cfg, datasets, streams, Task.LINEAR_REGRESSION
        )
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
            state, outcome = run_round(
                state, cfg, datasets, streams, Task.LINEAR_REGRESSION
            )
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

    def test_clipping_invariant_instrumented(self):
        cfg = config(C=0.3, T=1)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        for _ in range(25):
            state, outcome = run_round(
                state, cfg, datasets, streams, Task.LINEAR_REGRESSION
            )
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
            sa, out_a = run_round(state, cfg, datasets, streams_a, Task.LINEAR_REGRESSION)
            sb, out_b = run_round(state, cfg, grown, streams_b, Task.LINEAR_REGRESSION)
            assert out_a.participants == out_b.participants
            for i in out_a.participants:
                if i != 0:
                    assert out_a.sampled_elements[i] == out_b.sampled_elements[i]


class TestRoundStatistics:
    def test_means_and_noise_independence(self):
        cfg = config(N=30, d=5, p=0.3, q=0.4, sigma=1.0, m=3)
        streams, datasets, _ = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m), iteration=0)
        rounds = 10_000
        participant_counts = np.empty(rounds)
        element_counts = np.empty(rounds)
        noise_first = np.empty(rounds)
        scale = cfg.p * cfg.N * cfg.q * cfg.d
        for t in range(rounds):
            _, outcome = run_round(
                state, cfg, datasets, streams, Task.LINEAR_REGRESSION
            )
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
            _, out_a = run_round(
                state, cfg, datasets, streams_a, Task.LINEAR_REGRESSION
            )
            _, out_b = run_round(
                state, cfg, grown, streams_b, Task.LINEAR_REGRESSION
            )
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
        cfg = config(T=5, sigma=0.8)
        rows = run_training(cfg, Task.LINEAR_REGRESSION)
        assert [r.iteration for r in rows] == list(range(5))
        assert all(r.sigma == 0.8 for r in rows)
        assert all(r.eps_round is None and r.delta_round is None for r in rows)

    def test_calibrated_mode_records_targets(self):
        cfg = config(T=3, sigma=None, p=0.5, q=0.5, d=8)
        rows = run_training(
            cfg, Task.LINEAR_REGRESSION,
            eps_per_round=0.5, delta_per_round=1e-5,
            calibration_scheme=Scheme.UPPER_BOUND,
        )
        expected = calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        assert all(r.sigma == expected for r in rows)
        assert all(r.eps_round == 0.5 and r.delta_round == 1e-5 for r in rows)

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


class TestMetricsCsv:
    def test_header_and_round_trip(self):
        cfg = config(T=4, sigma=0.3)
        rows = run_training(cfg, Task.LINEAR_REGRESSION)
        buffer = io.StringIO()
        write_metrics_csv(rows, buffer)
        parsed = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert tuple(parsed[0]) == METRICS_HEADER
        assert len(parsed) == 5
        for line, row in zip(parsed[1:], rows):
            assert int(line[0]) == row.iteration
            # 17 significant digits reproduce the double exactly
            assert float(line[1]) == row.loss
            assert line[6] == "" and line[7] == ""
