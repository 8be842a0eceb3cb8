import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcae import diagnostics as dg
from tdcae import net, tdc
from tdcae.dataio import EngineRun

from conftest import eta_per_engine


def identity_encoder(dim=3):
    specs = [net.LayerSpec(dim, dim, "identity")]
    return net.NetworkParams(specs=specs, weights=[np.eye(dim)],
                             biases=[np.zeros(dim)])


def linear_encoder(weight):
    weight = np.asarray(weight, dtype=float)
    specs = [net.LayerSpec(weight.shape[1], weight.shape[0], "identity")]
    return net.NetworkParams(specs=specs, weights=[weight],
                             biases=[np.zeros(weight.shape[0])])


def tanh_encoder(seed=0):
    return net.init_params(net.autoencoder_specs(12, 12, 4, n_hidden=1),
                           np.random.default_rng(seed))


# --- two-NN ------------------------------------------------------------------------


def brute_two_nearest(pts):
    """Exact distances from each row to every other row, two smallest kept:
    the oracle for _two_nearest."""
    out = np.empty((len(pts), 2))
    for i in range(len(pts)):
        dist = np.linalg.norm(pts - pts[i], axis=1)
        dist[i] = np.inf
        out[i] = np.sort(dist)[:2]
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 70), dim=st.integers(1, 30),
       cluster=st.integers(0, 25), offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       near_duplicates=st.integers(0, 4), block_rows=st.sampled_from([1, 5, 256]),
       candidates=st.sampled_from([2, 3, 8]))
def test_two_nearest_equals_brute_force(seed, n, dim, cluster, offset, near_duplicates,
                                        block_rows, candidates):
    # a tight cluster far from the rest defeats the Gram shortlist; those rows
    # must fall back to the exact search rather than return a wrong neighbour
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    cluster = min(cluster, n)
    pts[:cluster] = offset + 1e-6 * rng.normal(size=(cluster, dim))
    for k in range(min(near_duplicates, n // 2)):
        pts[n - 1 - k] = pts[k] + 1e-9 * rng.normal(size=dim) / math.sqrt(dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "NN_BLOCK_ROWS", block_rows)
        mp.setattr(dg, "NN_CANDIDATES", candidates)
        assert np.array_equal(dg._two_nearest(pts), brute_two_nearest(pts))


def test_two_nearest_default_constants_on_an_embedded_line():
    rng = np.random.default_rng(1004)
    frame, _ = np.linalg.qr(rng.normal(size=(24, 1)))
    pts = rng.uniform(size=(1500, 1)) @ frame.T + rng.normal(size=24)
    assert np.array_equal(dg._two_nearest(pts), brute_two_nearest(pts))


def test_two_nn_recovers_line_dimension():
    pts = np.random.default_rng(100).uniform(size=(2000, 1))
    est = dg.two_nn_dimension(pts)
    assert abs(est.value - 1.0) < 0.2
    assert est.method == "two_nn" and est.n_samples == 2000


def test_two_nn_recovers_plane_dimension():
    pts = np.random.default_rng(101).uniform(size=(2000, 2))
    assert abs(dg.two_nn_dimension(pts).value - 2.0) < 0.2


def test_two_nn_sees_through_isometric_embedding():
    # a flat 2-D patch rotated into 24 ambient coordinates
    rng = np.random.default_rng(42)
    frame, _ = np.linalg.qr(rng.normal(size=(24, 2)))
    pts = rng.uniform(size=(2000, 2)) @ frame.T
    assert abs(dg.two_nn_dimension(pts).value - 2.0) < 0.2


def test_two_nn_scale_invariant():
    pts = np.random.default_rng(102).uniform(size=(500, 2))
    a = dg.two_nn_dimension(pts).value
    b = dg.two_nn_dimension(pts * 1e3).value
    assert a == pytest.approx(b, rel=1e-9)


def test_two_nn_warns_and_removes_duplicates():
    pts = np.random.default_rng(103).uniform(size=(300, 2))
    doubled = np.vstack([pts, pts[:40]])
    with pytest.warns(UserWarning, match="40 duplicate"):
        est = dg.two_nn_dimension(doubled)
    assert est.n_samples == 300
    assert est.value == dg.two_nn_dimension(pts).value


def test_two_nn_needs_twenty_points():
    with pytest.raises(ValueError, match="at least 20"):
        dg.two_nn_dimension(np.random.default_rng(1).uniform(size=(19, 2)))


def test_two_nn_rejects_degenerate_lattice():
    # regular 1-D lattice: almost every mu ratio is exactly 1
    pts = np.arange(25.0)[:, None]
    with pytest.raises(ValueError, match="degenerate"):
        dg.two_nn_dimension(pts)


def test_two_nn_by_engine_aggregates():
    rng = np.random.default_rng(104)
    runs = []
    for u in range(3):
        t = rng.uniform(size=(500, 1))
        direction = rng.uniform(-1, 1, 24)
        runs.append(EngineRun(unit_id=u, features=t * direction,
                              labels=np.zeros(500, bool)))
    est = dg.two_nn_by_engine(runs)
    assert 0.8 < est.value < 1.2
    assert est.std >= 0.0 and est.n_samples == 1500


def test_two_nn_by_engine_skips_tiny_engines():
    rng = np.random.default_rng(105)
    good = EngineRun(unit_id=1, features=rng.uniform(size=(400, 24))[:, :1] * np.ones(24),
                     labels=np.zeros(400, bool))
    tiny = EngineRun(unit_id=2, features=rng.uniform(size=(10, 24)),
                     labels=np.zeros(10, bool))
    with pytest.warns(UserWarning, match="unit 2"):
        est = dg.two_nn_by_engine([good, tiny])
    assert est.n_samples == 400
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="no engine"):
        dg.two_nn_by_engine([tiny])


@pytest.mark.parametrize("dim,expected", [
    (4.93, 10), (4.0, 10), (3.9, 8), (0.4, 2), (1.0, 4),
])
def test_recommend_embedding_dim(dim, expected):
    assert dg.recommend_embedding_dim(dim) == expected


def test_recommend_embedding_dim_rejects_non_positive():
    with pytest.raises(ValueError):
        dg.recommend_embedding_dim(0.0)


# --- box counting -----------------------------------------------------------------


def test_box_counts_lattice_exact():
    ticks = np.linspace(0.0, 1.0, 11)
    lattice = np.array([(x, y) for x in ticks for y in ticks])
    counts = dg.box_counts(lattice, [0.5, 1.01])
    assert counts.tolist() == [9, 1]


def test_box_counts_monotone_in_epsilon():
    pts = np.random.default_rng(106).uniform(size=(3000, 2))
    counts = dg.box_counts(pts, dg.DEFAULT_EPSILONS)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_box_counts_eps_is_a_fraction_of_the_extent():
    # in data units eps 5.0 would split these points; as a fraction of the extent it does not
    pts = np.array([[0.0, 0.0], [9.99, 9.99]])
    assert dg.box_counts(pts, [5.0, 0.5]).tolist() == [1, 2]


def test_box_counts_rejects_bad_input():
    pts = np.random.default_rng(1).uniform(size=(200, 2))
    with pytest.raises(ValueError, match="positive"):
        dg.box_counts(pts, [0.1, -0.2])
    with pytest.raises(ValueError, match="degenerate"):
        dg.box_counts(np.ones((50, 2)), [0.1])


def test_box_dimension_of_segment():
    rng = np.random.default_rng(107)
    seg = np.column_stack([rng.uniform(size=5000), np.zeros(5000)])
    est = dg.box_counting_dimension(seg)
    assert abs(est.value - 1.0) < 0.1
    assert est.method == "box_counting" and est.std < 0.2


def test_box_dimension_of_filled_square():
    sq = np.random.default_rng(108).uniform(size=(50_000, 2))
    assert abs(dg.box_counting_dimension(sq).value - 2.0) < 0.2


def test_box_dimension_preconditions():
    rng = np.random.default_rng(109)
    with pytest.raises(ValueError, match="at least 100"):
        dg.box_counting_dimension(rng.uniform(size=(99, 2)))
    pts = rng.uniform(size=(200, 2))
    with pytest.raises(ValueError, match="epsilon"):
        dg.box_counting_dimension(pts, epsilons=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="decade"):
        dg.box_counting_dimension(pts, epsilons=[0.1, 0.2, 0.3, 0.4])


# --- jacobian rank ------------------------------------------------------------------


def test_rank_survey_identity_is_full_rank():
    report = dg.jacobian_rank_survey(identity_encoder(3), np.random.default_rng(2).uniform(size=(10, 3)))
    assert report.full_rank == 3
    assert report.full_rank_fraction == 1.0
    assert np.allclose(report.singular_values, 1.0)
    assert report.failed == []


def test_rank_survey_detects_rank_deficiency():
    report = dg.jacobian_rank_survey(linear_encoder(np.ones((3, 3))), np.zeros((5, 3)))
    assert report.full_rank_fraction == 0.0
    assert np.all(report.ranks == 1)


def test_rank_survey_threshold_separates_tiny_directions():
    enc = linear_encoder(np.diag([1.0, 1e-12]))
    x = np.zeros((4, 2))
    assert np.all(dg.jacobian_rank_survey(enc, x, threshold=1e-9).ranks == 1)
    assert np.all(dg.jacobian_rank_survey(enc, x, threshold=1e-13).ranks == 2)
    with pytest.raises(ValueError, match="positive"):
        dg.jacobian_rank_survey(enc, x, threshold=0.0)


def test_rank_survey_batched_svd_is_the_per_sample_loop():
    params = tanh_encoder(seed=5)
    x = np.random.default_rng(6).uniform(size=(40, 12))
    jac = net.encoder_jacobian_batch(params, x)
    loop = np.array([np.linalg.svd(j, compute_uv=False) for j in jac])
    report = dg.jacobian_rank_survey(params, x, threshold=0.05)
    assert np.array_equal(report.singular_values, loop)
    assert np.array_equal(report.ranks, [int(np.sum(s > 0.05)) for s in loop])
    assert report.failed == []


def test_rank_survey_falls_back_per_sample_when_batched_svd_fails(monkeypatch):
    params = tanh_encoder(seed=7)
    x = np.random.default_rng(8).uniform(size=(6, 12))
    loop = np.array([np.linalg.svd(j, compute_uv=False)
                     for j in net.encoder_jacobian_batch(params, x)])
    svd, calls = np.linalg.svd, []

    def flaky_svd(a, **kwargs):
        # the batched call fails, and so do the per-sample calls for samples 1 and 4
        calls.append(a.ndim)
        if a.ndim == 3 or len(calls) - 2 in (1, 4):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    report = dg.jacobian_rank_survey(params, x)
    assert calls == [3] + [2] * 6
    assert report.failed == [1, 4]
    assert np.array_equal(report.singular_values, loop[[0, 2, 3, 5]])
    assert len(report.ranks) == 4 and report.full_rank_fraction == 1.0
    assert report.as_dict()["n_failed"] == 2


# n = 1 (mod block) leaves no 1-row block: np.array_split spreads the rows
@pytest.mark.parametrize("block", [2, 7, 64, dg.RANK_BLOCK])
def test_rank_survey_blocks_are_one_whole_batch_svd(block, monkeypatch):
    monkeypatch.setattr(dg, "RANK_BLOCK", block)
    params = tanh_encoder(seed=9)
    for n in (1, 2, 3, 2 * block + 1, 3 * block):
        x = np.random.default_rng(n).uniform(size=(n, 12))
        whole = np.linalg.svd(net.encoder_jacobian_batch(params, x), compute_uv=False)
        report = dg.jacobian_rank_survey(params, x, threshold=0.05)
        assert np.array_equal(report.singular_values, whole), n
        assert np.array_equal(report.ranks, np.sum(whole > 0.05, axis=-1)), n
        assert report.failed == []


def test_rank_survey_fallback_reports_global_row_indices(monkeypatch):
    monkeypatch.setattr(dg, "RANK_BLOCK", 3)
    params = tanh_encoder(seed=7)
    x = np.random.default_rng(8).uniform(size=(9, 12))
    loop = np.array([np.linalg.svd(j, compute_uv=False)
                     for j in net.encoder_jacobian_batch(params, x)])
    svd, calls = np.linalg.svd, []

    def flaky_svd(a, **kwargs):
        # the second block's batched call fails, and so does its second sample, row 4
        calls.append(a.ndim)
        if calls == [3, 3] or calls == [3, 3, 2, 2]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    report = dg.jacobian_rank_survey(params, x)
    assert calls == [3, 3, 2, 2, 2, 3]
    assert report.failed == [4]
    assert np.array_equal(report.singular_values, loop[[0, 1, 2, 3, 5, 6, 7, 8]])
    assert len(report.ranks) == 8


def jacobi_singular_values(a, sweeps=60, tol=1e-14):
    """Independent SVD route: cyclic Jacobi diagonalization of A^T A."""
    g = a.T @ a
    n = g.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(g, -1) ** 2))
        if off < tol * np.linalg.norm(g):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if g[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * g[p, q], g[q, q] - g[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                g = rot.T @ g @ rot
    eig = np.sort(np.diag(g))[::-1]
    return np.sqrt(np.clip(eig, 0.0, None))


def test_svd_route_agrees_with_jacobi_eigensolver():
    # the rank survey leans on library SVD; cross-check it against a
    # self-contained Jacobi diagonalization on the same matrices
    rng = np.random.default_rng(110)
    for _ in range(5):
        a = rng.normal(size=(8, 24))
        lib = np.linalg.svd(a, compute_uv=False)
        ours = jacobi_singular_values(a)[: len(lib)]
        assert np.max(np.abs(lib - ours)) < 1e-8


def test_svd_reconstruction_identity():
    a = np.random.default_rng(111).normal(size=(6, 9))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    assert np.max(np.abs(u @ np.diag(s) @ vt - a)) < 1e-10


# --- injectivity ---------------------------------------------------------------------


def test_injectivity_identity_encoder_is_one():
    x = np.random.default_rng(112).uniform(size=(30, 3))
    min_ratio, violations = dg.injectivity_ratio_survey(identity_encoder(3), x)
    assert min_ratio == pytest.approx(1.0, abs=1e-12)
    assert violations == 0


def test_injectivity_constant_encoder_all_violations():
    enc = linear_encoder(np.zeros((2, 3)))
    x = np.random.default_rng(113).uniform(size=(10, 3))
    min_ratio, violations = dg.injectivity_ratio_survey(enc, x)
    assert min_ratio == 0.0
    assert violations == 10 * 9 // 2


def test_injectivity_delta_excludes_near_coincident_pairs():
    x = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0], [0.0, 1.0]])
    min_ratio, violations = dg.injectivity_ratio_survey(identity_encoder(2), x, delta=1e-6)
    assert min_ratio == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="delta"):
        dg.injectivity_ratio_survey(identity_encoder(2), x, delta=10.0)


def test_injectivity_subsample_path_matches_identity():
    x = np.random.default_rng(114).uniform(size=(40, 3))
    min_ratio, violations = dg.injectivity_ratio_survey(identity_encoder(3), x, max_pairs=50)
    assert min_ratio == pytest.approx(1.0, abs=1e-12)
    assert violations == 0


def pair_loop_injectivity(params, x, delta=dg.INJECTIVITY_DELTA, floor=dg.INJECTIVITY_FLOOR):
    """Every pair i < j, one at a time: the oracle for the all-pairs path."""
    latent, _ = net.forward(params, x, n_layers=net.encoder_layer_count(params))
    ratios = []
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            dx = np.sqrt(np.sum((x[a] - x[b]) ** 2))
            if dx > delta:
                ratios.append(np.sqrt(np.sum((latent[a] - latent[b]) ** 2)) / dx)
    return float(min(ratios)), sum(r < floor for r in ratios)


def unchunked_sampled_injectivity(params, x, max_pairs, seed, delta=dg.INJECTIVITY_DELTA,
                                  floor=dg.INJECTIVITY_FLOOR):
    """The sampled path as one whole-array formula: the oracle for its pair blocks."""
    latent, _ = net.forward(params, x, n_layers=net.encoder_layer_count(params))
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(x), size=int(max_pairs * 1.02) + 16)
    j = rng.integers(0, len(x), size=i.size)
    keep = i != j
    i, j = i[keep][:max_pairs], j[keep][:max_pairs]
    dx = np.linalg.norm(x[i] - x[j], axis=1)
    dz = np.linalg.norm(latent[i] - latent[j], axis=1)
    mask = dx > delta
    ratios = dz[mask] / dx[mask]
    return float(ratios.min()), int(np.sum(ratios < floor))


# 65_536, a block larger than the default, gives the same bits
@pytest.mark.parametrize("block", [1, 7, 100, 65_536, dg.PAIR_BLOCK])
def test_injectivity_all_pairs_matches_pair_loop(block, monkeypatch):
    monkeypatch.setattr(dg, "PAIR_BLOCK", block)
    params = tanh_encoder(seed=3)
    x = np.random.default_rng(120).uniform(size=(31, 12))
    x[7] = x[3] + 1e-8  # one pair inside delta, excluded by both
    min_ratio, violations = dg.injectivity_ratio_survey(params, x, floor=0.3)
    assert (min_ratio, violations) == pair_loop_injectivity(params, x, floor=0.3)
    assert violations > 0


@pytest.mark.parametrize("block", [1, 64, 999, 65_536, dg.PAIR_BLOCK])
def test_injectivity_sampled_path_is_bitwise_the_unchunked_formula(block, monkeypatch):
    monkeypatch.setattr(dg, "PAIR_BLOCK", block)
    params = tanh_encoder(seed=4)
    x = np.random.default_rng(121).uniform(size=(200, 12))
    for max_pairs in (1000, 5000):
        got = dg.injectivity_ratio_survey(params, x, floor=0.3, max_pairs=max_pairs, seed=9)
        assert got == unchunked_sampled_injectivity(params, x, max_pairs, seed=9, floor=0.3)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_pair_blocks_are_the_whole_array_pairs(block, monkeypatch):
    monkeypatch.setattr(dg, "PAIR_BLOCK", block)
    for n in (2, 3, 40):
        i, j = (np.concatenate(a) for a in zip(*dg._pair_blocks(n, n * (n - 1) // 2, seed=0)))
        assert np.array_equal(i, np.triu_indices(n, 1)[0])
        assert np.array_equal(j, np.triu_indices(n, 1)[1])
    rng = np.random.default_rng(5)
    i = rng.integers(0, 30, size=int(300 * 1.02) + 16)
    j = rng.integers(0, 30, size=i.size)
    keep = i != j
    blocks = list(dg._pair_blocks(30, 300, seed=5))
    assert all(len(b[0]) <= block for b in blocks)
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), i[keep][:300])
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), j[keep][:300])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_injectivity_many_self_pairs_is_bitwise_the_unchunked_formula(seed, monkeypatch):
    # n = 50 draws a self-pair 2% of the time, which the 2% margin only just covers
    monkeypatch.setattr(dg, "PAIR_BLOCK", 7)
    params = tanh_encoder(seed=4)
    x = np.random.default_rng(122).uniform(size=(50, 12))
    got = dg.injectivity_ratio_survey(params, x, floor=0.3, max_pairs=1000, seed=seed)
    assert got == unchunked_sampled_injectivity(params, x, 1000, seed=seed, floor=0.3)


@pytest.mark.parametrize("max_pairs", [0, -5])
def test_injectivity_rejects_max_pairs_below_one(max_pairs):
    x = np.random.default_rng(123).uniform(size=(10, 3))
    with pytest.raises(ValueError, match="max_pairs"):
        dg.injectivity_ratio_survey(identity_encoder(3), x, max_pairs=max_pairs)


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_surveys_run_in_block_bounded_memory():
    # the diagnose command's size: 4216 test rows of 24 features, 1M sampled pairs;
    # whole-array surveys peaked at about 50 MB (injectivity) and 16 MB (rank)
    params = net.init_params(net.autoencoder_specs(24, 24, 8), np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(size=(4216, 24))
    assert traced_peak_mb(lambda: dg.injectivity_ratio_survey(params, x, max_pairs=1_000_000)) <= 8
    assert traced_peak_mb(lambda: dg.jacobian_rank_survey(params, x)) <= 4


def test_injectivity_needs_two_inputs():
    with pytest.raises(ValueError, match="at least 2"):
        dg.injectivity_ratio_survey(identity_encoder(2), np.zeros((1, 2)))


# --- eta / rho -----------------------------------------------------------------------


def test_eta_identical_series_is_one():
    z = np.random.default_rng(115).uniform(size=50)
    assert dg.eta_metric(z, z) == pytest.approx(1.0)


def test_eta_affine_invariant():
    rng = np.random.default_rng(116)
    z, zd = rng.uniform(size=40), rng.uniform(size=40)
    base = dg.eta_metric(z, zd)
    assert dg.eta_metric(5.0 * z - 2.0, zd) == pytest.approx(base, rel=1e-12)
    assert dg.eta_metric(z, -3.0 * zd + 7.0) == pytest.approx(base, rel=1e-12)


def test_eta_rejects_constant_or_short_series():
    with pytest.raises(ValueError, match="constant"):
        dg.eta_metric(np.ones(10), np.arange(10.0))
    with pytest.raises(ValueError, match="length"):
        dg.eta_metric(np.array([1.0]), np.array([2.0]))


def test_rho_ramp_against_closed_form():
    # z=0..N with zero derivative: rho = mean of squared ramp = (N+1)(2N+1)/6
    n = 9
    z = np.arange(n + 1, dtype=float)
    zd = np.zeros(n + 1)
    assert dg.rho_metric(z, zd) == pytest.approx((n + 1) * (2 * n + 1) / 6)


def test_rho_backward_difference_is_exact_zero():
    # integer-valued walk: differences and cumsum are float-exact
    rng = np.random.default_rng(117)
    z = np.cumsum(rng.integers(-8, 9, size=30)).astype(float)
    zd = np.empty_like(z)
    zd[1:] = z[1:] - z[:-1]
    zd[0] = 999.0  # first derivative sample never enters the accumulation
    assert dg.rho_metric(z, zd, dt=1.0) == 0.0


def test_rho_backward_difference_scales_with_dt():
    dt = 0.25
    t = np.arange(20) * dt
    z = np.sin(t)
    zd = np.empty_like(z)
    zd[1:] = (z[1:] - z[:-1]) / dt
    zd[0] = 0.0
    assert dg.rho_metric(z, zd, dt=dt) == pytest.approx(0.0, abs=1e-30)


def test_rho_forward_difference_is_small_but_nonzero():
    z = np.sin(np.arange(40) * 0.1)
    zd = np.empty_like(z)
    zd[:-1] = z[1:] - z[:-1]
    zd[-1] = 0.0
    rho = dg.rho_metric(z, zd)
    assert 0.0 < rho < 0.05


def test_rho_validates_shapes():
    with pytest.raises(ValueError):
        dg.rho_metric(np.zeros(5), np.zeros(4))
    with pytest.raises(ValueError):
        dg.rho_metric(np.zeros(1), np.zeros(1))


# --- reports -------------------------------------------------------------------------


def make_latent(z_cols, zd_cols, unit_id=1):
    return tdc.LatentSeries(unit_id=unit_id, z=np.column_stack(z_cols),
                            z_dot=np.column_stack(zd_cols))


def test_constant_channel_gives_nan_eta_and_finite_rho():
    t = np.arange(20, dtype=float)
    latent = make_latent([np.sin(0.3 * t), t], [np.cos(0.3 * t), np.ones(20)])
    wavy = make_latent([np.sin(0.2 * t), np.cos(t)], [np.cos(0.2 * t), np.sin(t)])
    assert math.isnan(eta_per_engine(latent))  # constant derivative channel in pair 1
    rows = dg.eta_table([latent, wavy], [(0, 20), (0, 20)])
    assert [row["n_engines"] for row in rows] == [2, 1]
    rho = dg.rho_table([latent], [np.zeros(20, bool)])
    assert [row["pair"] for row in rho] == [0, 1]
    assert rho[1]["normal_mean"] >= 0.0 and math.isfinite(rho[1]["normal_mean"])


def test_eta_table_rejects_bad_window():
    latent = make_latent([np.sin(np.arange(10.0))], [np.cos(np.arange(10.0))])
    assert math.isfinite(dg.eta_table([latent], [(2, 8)])[0]["mean"])
    for bad in ((-1, 5), (0, 11), (4, 5)):
        with pytest.raises(ValueError, match="window"):
            dg.eta_table([latent], [bad])
        with pytest.raises(ValueError, match="window"):
            eta_per_engine(latent, window=bad)


def test_rho_table_rejects_misaligned_labels():
    latent = make_latent([np.arange(10.0)], [np.ones(10)])
    with pytest.raises(ValueError, match="labels"):
        dg.rho_table([latent], [np.zeros(11, bool)])


def test_eta_per_engine_averages_pairs():
    z = np.random.default_rng(118).uniform(size=(30, 2))
    latent = make_latent([z[:, 0], z[:, 1]], [z[:, 0], z[:, 1]])
    assert eta_per_engine(latent) == pytest.approx(1.0)


def test_eta_table_counts_finite_engines_only():
    t = np.arange(15, dtype=float)
    wavy = make_latent([np.sin(t)], [np.cos(t)], unit_id=1)
    flat = make_latent([t], [np.zeros(15)], unit_id=2)  # eta nan
    rows = dg.eta_table([wavy, flat], windows=[(0, 15), (0, 15)])
    assert rows[0]["pair"] == 0
    assert rows[0]["n_engines"] == 1
    assert math.isfinite(rows[0]["mean"])


def test_pair_constant_on_every_engine_gives_nan_eta_without_warning():
    t = np.arange(15, dtype=float)
    flat = [make_latent([np.ones(15)], [np.sin(t)], unit_id=u) for u in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = dg.eta_table(flat, windows=[(0, 15), (0, 15)])
    assert rows[0]["n_engines"] == 0
    assert math.isnan(rows[0]["mean"]) and math.isnan(rows[0]["std"])


def consistency_eta(latent, window, k):
    """Pair k's eta over one window, nan for a constant channel, computed for one
    (pair, engine) at a time: the oracle for eta_table."""
    start, stop = window
    try:
        return dg.eta_metric(latent.z[start:stop, k], latent.z_dot[start:stop, k])
    except ValueError:
        return float("nan")


def test_eta_table_matches_per_pair_loop():
    # oracle: one eta per (pair, engine), as the table once computed it
    rng = np.random.default_rng(31)
    latents, windows = [], []
    for unit in range(4):
        n = int(rng.integers(12, 30))
        t = np.arange(n, dtype=float)
        z = [np.sin(rng.uniform(0.1, 0.5) * t + k) for k in range(3)]
        zd = [np.cos(rng.uniform(0.1, 0.5) * t + k) for k in range(3)]
        if unit == 2:
            zd[1] = np.zeros(n)  # one nan eta in pair 1
        latents.append(make_latent(z, zd, unit_id=unit))
        windows.append((int(rng.integers(0, 4)), n))
    rows = dg.eta_table(latents, windows)
    for k, row in enumerate(rows):
        etas = [consistency_eta(lat, w, k) for lat, w in zip(latents, windows)]
        values = [e for e in etas if math.isfinite(e)]
        assert row == {"pair": k, "mean": float(np.mean(values)), "std": float(np.std(values)),
                       "n_engines": len(values)}
    assert [row["n_engines"] for row in rows] == [4, 3, 4]


def test_rho_table_splits_segments_at_first_anomaly():
    # state follows its derivative exactly in the normal half only
    n = 30
    z = np.cumsum(np.ones(n))
    zd = np.ones(n)
    zd[15:] = 5.0  # inconsistent in the anomalous half
    latent = make_latent([z], [zd])
    labels = np.zeros(n, bool)
    labels[15:] = True
    rows = dg.rho_table([latent], [labels])
    assert rows[0]["normal_mean"] == 0.0
    assert rows[0]["anomalous_mean"] > 1.0


def test_rho_table_rebases_each_segment():
    # backward-difference derivative gives zero rho in both segments even
    # though the anomalous segment starts far from z[0]
    rng = np.random.default_rng(119)
    z = np.cumsum(rng.integers(-8, 9, size=40)).astype(float) + 100.0
    zd = np.empty_like(z)
    zd[1:] = z[1:] - z[:-1]
    zd[0] = 0.0
    labels = np.zeros(40, bool)
    labels[24:] = True
    rows = dg.rho_table([make_latent([z], [zd])], [labels])
    assert rows[0]["normal_mean"] == 0.0
    # segment re-basing: the anomalous window uses its own first sample, so
    # only the boundary step of zd (computed across it) contributes
    assert rows[0]["anomalous_mean"] == 0.0


def test_rho_table_all_normal_engine_leaves_anomalous_nan():
    z = np.arange(20, dtype=float)
    latent = make_latent([z], [np.ones(20)])
    rows = dg.rho_table([latent], [np.zeros(20, bool)])
    assert math.isnan(rows[0]["anomalous_mean"])
    assert math.isfinite(rows[0]["normal_mean"])
