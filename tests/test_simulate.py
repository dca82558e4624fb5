import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from flradapt import functionals, harness, sequences, simulate
from flradapt.estimator import empirical_moments
from flradapt.functionals import Custom, LocalAverage, PointEval
from flradapt.sequences import Regime, SequenceModel
from flradapt.simulate import (
    Covariance,
    Dataset,
    draw_dataset,
    make_slope,
    true_value,
)

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)
EP = SequenceModel(regime=Regime.EP, p=0.5, a=1.0)

E1 = Custom(coeffs=(1.0,))


def default_cov(n, theta=0.0):
    """The covariance a study samples from at sample size n."""
    return Covariance(PP, simulate.default_truncation(n), theta)


def rotate_pairs_reference(x, theta):
    """Slow reference for the pair rotation: one loop step per pair."""
    x = x.copy()
    c, s = math.cos(theta), math.sin(theta)
    for k in range(x.shape[1] // 2):
        i = 2 * k
        a, b = x[:, i].copy(), x[:, i + 1].copy()
        x[:, i] = c * a - s * b
        x[:, i + 1] = s * a + c * b
    return x


def draw_dataset_reference(cov, slope, n, sigma, seed):
    """One-shot sampler: all n x J normals in one draw, scaled as a new
    array, the pair rotation loop, and one matrix-vector product over all
    n rows; ``draw_dataset`` must reproduce it bit for bit."""
    rng = np.random.default_rng(seed)
    lam = sequences.gamma_array(cov.model, cov.dim)
    x = rng.standard_normal((n, cov.dim)) * np.sqrt(lam)
    if cov.theta != 0.0:
        x = rotate_pairs_reference(x, cov.theta)
    y = x @ slope + sigma * rng.standard_normal(n)
    return x, y


def block_rows(J, block):
    """Rows per row block of the sampler at J coefficients with ``block``
    normals per block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "SAMPLE_BLOCK", block)
        return simulate._row_blocks(10 ** 6, J)[0][1]


# the streamed sampler against the one-shot reference, at an even and an odd
# J: short draws, row counts around one and two row blocks of the sampler and
# of blocks of 2^17 normals (one more row would be a one-row last block), and
# long draws
STREAM_THETA = [0.0, 0.3]
STREAM_J = [128, 129]
STREAM_N = sorted({16, 17, 127, 128, 129, 130, 131, 257, 1001, 8003}
                  | {k * rows + d for J in STREAM_J
                     for rows in (block_rows(J, simulate.SAMPLE_BLOCK), 2 ** 17 // J)
                     for k in (1, 2) for d in (0, 1, 2)})

BLOCK_SIZES = [2 ** 13, 2 ** 15, 2 ** 17]
BLOCK_J = [128, 129, 131]


def block_edge_n(block, J):
    """Row counts within two rows of the first two block edges of the
    sampler with ``block`` normals per block."""
    rows = block_rows(J, block)
    return [k * rows + d for k in (1, 2) for d in (-2, -1, 0, 1, 2)]


REFERENCE_CASES = sorted(
    {(n, theta, J) for n in STREAM_N for theta in STREAM_THETA for J in STREAM_J}
    | {(n, theta, J) for block in BLOCK_SIZES for J in BLOCK_J
       for n in block_edge_n(block, J) for theta in STREAM_THETA})


def stream_case(n, theta, J):
    """The arguments of ``draw_dataset`` for one streamed case."""
    return Covariance(PP, J, theta), make_slope(PP, J), n, 0.5, 1000 + n


@pytest.fixture(scope="module")
def one_thread_responses(tmp_path_factory):
    """y of ``draw_dataset_reference`` for every reference case, computed in
    a child interpreter with one BLAS thread.  With more threads OpenBLAS
    splits the rows of one long product between them, which changes the
    last bits of the rows at a split (n = 8003 on two threads): the
    reference is defined at one thread, the setting of CI and the
    benchmark, and the streamed sampler's blocks give its bits."""
    path = tmp_path_factory.mktemp("reference") / "responses.npz"
    code = (
        "import sys, numpy as np, test_simulate as t\n"
        "np.savez(sys.argv[1], **{f'{n}_{theta}_{J}': "
        "t.draw_dataset_reference(*t.stream_case(n, theta, J))[1] "
        "for n, theta, J in t.REFERENCE_CASES})\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.dirname(__file__), *sys.path]))
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
    with np.load(path) as responses:
        return dict(responses)


def unit_slope(J, k):
    slope = np.zeros(J)
    slope[k - 1] = 1.0
    return slope


def weighted_norm_sq(model, slope):
    """sum_j beta_j slope_j^2, with the weights from ``log_beta_array``."""
    beta = np.exp(sequences.log_beta_array(model, len(slope)))
    return math.fsum((beta * slope ** 2).tolist())


class TestMakeSlope:
    def test_single_coefficient_fills_radius(self):
        slope = make_slope(PP, 1)
        assert slope[0] == pytest.approx(math.sqrt(0.9), rel=1e-14)

    def test_norm_hits_scaled_radius(self):
        for model in (PP, EP, SequenceModel(regime=Regime.PE, p=1.0, a=0.5)):
            slope = make_slope(model, 200)
            assert weighted_norm_sq(model, slope) == pytest.approx(
                0.9 * model.r, rel=1e-12
            )

    def test_recomputed_weighted_norm_matches(self):
        slope = make_slope(PP, 100)
        j = np.arange(1, 101, dtype=float)
        direct = float(np.sum(j ** 2 * slope ** 2))
        assert direct == pytest.approx(weighted_norm_sq(PP, slope), rel=1e-12)

    def test_polynomial_shape(self):
        slope = make_slope(PP, 100)
        assert slope[1] / slope[0] == pytest.approx(0.25, rel=1e-13)

    def test_respects_radius_field(self):
        big = SequenceModel(regime=Regime.PP, p=1.0, a=1.0, r=4.0)
        slope = make_slope(big, 50)
        assert weighted_norm_sq(big, slope) == pytest.approx(0.9 * 4.0, rel=1e-12)

    def test_coefficients_are_read_only(self):
        # every sampler thread of a study reads the one slope
        slope = make_slope(PP, 16)
        with pytest.raises(ValueError, match="read-only"):
            slope[0] = 0.0


class TestDrawDataset:
    def test_same_seed_bit_identical(self):
        cov = default_cov(200)
        slope = make_slope(PP, cov.dim)
        d1 = draw_dataset(cov, slope, 200, 1.0, 42)
        d2 = draw_dataset(cov, slope, 200, 1.0, 42)
        assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.x, d2.x)

    def test_noise_variance_with_zero_slope(self):
        n = 10 ** 5
        cov = default_cov(n)
        data = draw_dataset(cov, np.zeros(cov.dim), n, 1.0, 7)
        s2 = float(np.var(data.y, ddof=1))
        se = math.sqrt(2.0 / n)
        assert abs(s2 - 1.0) < 3 * se

    @pytest.mark.parametrize("j", [1, 2, 4, 8])
    def test_column_variances_match_eigenvalues(self, j):
        n = 10 ** 5
        cov = default_cov(n)
        data = draw_dataset(cov, np.zeros(cov.dim), n, 1.0, 11)
        lam = j ** -2.0
        s2 = float(np.var(data.x[:, j - 1], ddof=1))
        assert abs(s2 - lam) < 3 * lam * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("j", [1, 5, 17])
    def test_standardized_columns_look_gaussian(self, j):
        n = 10 ** 5
        cov = default_cov(n)
        data = draw_dataset(cov, np.zeros(cov.dim), n, 1.0, 13)
        z = data.x[:, j - 1] * j
        z = (z - z.mean()) / z.std()
        skew = float(np.mean(z ** 3))
        kurt = float(np.mean(z ** 4) - 3.0)
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1

    def test_noise_uncorrelated_with_regressors(self):
        # fixed-seed smoke test: 128 simultaneous 3-sigma checks
        n = 10 ** 5
        J = simulate.default_truncation(n)
        slope = make_slope(PP, J)
        data = draw_dataset(Covariance(PP, J), slope, n, 1.0, 1)
        resid = data.y - data.x @ slope
        lam = np.arange(1, J + 1) ** -2.0
        cov = resid @ data.x / n
        se = np.sqrt(lam / n)
        assert np.all(np.abs(cov) < 3 * se)

    def test_rotation_preserves_total_variance(self):
        n = 4 * 10 ** 4
        base, mixed = default_cov(n), default_cov(n, 0.7)
        slope = np.zeros(base.dim)
        d0 = draw_dataset(base, slope, n, 1.0, 23)
        d1 = draw_dataset(mixed, slope, n, 1.0, 23)
        # Givens rotations preserve the per-pair sum of squares row by row
        for k in range(3):
            i = 2 * k
            s0 = d0.x[:, i] ** 2 + d0.x[:, i + 1] ** 2
            s1 = d1.x[:, i] ** 2 + d1.x[:, i + 1] ** 2
            np.testing.assert_allclose(s0, s1, rtol=1e-12)

    @pytest.mark.parametrize("J", [None, 129])
    def test_rotation_matches_reference_loop(self, J):
        J = J or simulate.default_truncation(200)
        base, mixed = Covariance(PP, J), Covariance(PP, J, 0.7)
        slope = make_slope(PP, J)
        d0 = draw_dataset(base, slope, 200, 1.0, 31)
        d1 = draw_dataset(mixed, slope, 200, 1.0, 31)
        expected = rotate_pairs_reference(d0.x, 0.7)
        assert np.array_equal(d1.x, expected)
        if J % 2:
            assert np.array_equal(d1.x[:, -1], d0.x[:, -1])

    # n = 1000 is one partial row block of the sampler
    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("J", [128, 129])
    def test_matches_out_of_place_reference(self, theta, J):
        case = Covariance(PP, J, theta), make_slope(PP, J), 1000, 0.5, 41
        data = draw_dataset(*case)
        x, y = draw_dataset_reference(*case)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.y, y)

    @pytest.mark.parametrize("J", STREAM_J)
    @pytest.mark.parametrize("theta", STREAM_THETA)
    @pytest.mark.parametrize("n", STREAM_N)
    def test_streamed_draw_matches_one_shot_reference(self, one_thread_responses,
                                                      n, theta, J):
        case = stream_case(n, theta, J)
        x, _ = draw_dataset_reference(*case)
        y = one_thread_responses[f"{n}_{theta}_{J}"]
        for columns in (1, 2, 3, 4, 9, J, None):
            data = draw_dataset(*case, columns)
            width = J if columns is None else columns
            assert data.x.shape == (n, width)
            assert np.array_equal(data.x, x[:, :width]), columns
            assert np.array_equal(data.y, y), columns

    @pytest.mark.parametrize("J", BLOCK_J)
    @pytest.mark.parametrize("theta", STREAM_THETA)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_stream_does_not_depend_on_the_block_size(self, one_thread_responses,
                                                      monkeypatch, block, theta, J):
        monkeypatch.setattr(simulate, "SAMPLE_BLOCK", block)
        for n in block_edge_n(block, J):
            case = stream_case(n, theta, J)
            data = draw_dataset(*case)
            assert np.array_equal(data.x, draw_dataset_reference(*case)[0]), n
            assert np.array_equal(data.y, one_thread_responses[f"{n}_{theta}_{J}"]), n

    def test_column_count_out_of_range_rejected(self):
        case = stream_case(16, 0.0, 128)
        for columns in (0, 129):
            with pytest.raises(ValueError, match="columns must lie in 1..128"):
                draw_dataset(*case, columns)

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("n", [16, 17, 64, 129, 256])
    def test_kept_columns_give_the_moments_of_the_full_matrix(self, n, theta):
        # the study keeps max(m, 4) columns: a narrower C-contiguous matrix
        # would take another BLAS path for x^T y and can differ in the last bits
        cov = default_cov(n, theta)
        case = cov, make_slope(PP, cov.dim), n, 1.0, 51 + n
        full = draw_dataset(*case)
        for m in (1, 2, 3):
            kept = draw_dataset(*case, max(m, harness.MIN_KEPT_COLUMNS))
            got, want = empirical_moments(kept, m), empirical_moments(full, m)
            assert np.array_equal(got.gammahat, want.gammahat)
            assert np.array_equal(got.ghat, want.ghat)
            assert got.sigma2_y_hat == want.sigma2_y_hat

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_narrow_draw_peaks_at_its_columns_and_two_row_blocks(self, theta):
        # a study's n = 8000 draw keeps 9 columns: beyond them and y it holds
        # one block of normals and, in turn, the workspace of scaling it
        # (numpy's 64 KiB broadcast buffer) or of rotating it (two half-block
        # temporaries); 16 KiB covers the weight vectors and the generator
        import tracemalloc

        cov = default_cov(8000, theta)
        case = cov, make_slope(PP, cov.dim), 8000, 1.0, 3
        draw_dataset(*case, 9)
        tracemalloc.start()
        try:
            data = draw_dataset(*case, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_block = simulate.SAMPLE_BLOCK * 8
        assert data.x.shape == (8000, 9)
        assert peak <= data.x.nbytes + data.y.nbytes + 2 * row_block + 16 * 2 ** 10

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_peak_memory_is_one_regressor_matrix(self, theta):
        import tracemalloc

        cov = default_cov(8000, theta)
        slope = make_slope(PP, cov.dim)
        tracemalloc.start()
        try:
            data = draw_dataset(cov, slope, 8000, 1.0, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * data.x.nbytes

    def test_rotated_sample_covariance_matches_matrix(self, dense):
        # 9 fixed-seed 3-sigma checks on the first three coefficient pairs
        n = 10 ** 5
        cov = Covariance(PP, 68, 0.7)
        data = draw_dataset(cov, np.zeros(cov.dim), n, 1.0, 41)
        x = data.x[:, :6]
        mat, lam = dense(cov)[:6, :6], cov.eigenvalues()
        c, s = math.cos(0.7), math.sin(0.7)
        assert mat[0, 1] == pytest.approx(c * s * (lam[0] - lam[1]), rel=1e-15)
        assert mat[0, 1] > 0
        for k in range(3):
            for i, j in ((2 * k, 2 * k), (2 * k, 2 * k + 1), (2 * k + 1, 2 * k + 1)):
                sample = float(np.mean(x[:, i] * x[:, j]))
                se = math.sqrt((mat[i, i] * mat[j, j] + mat[i, j] ** 2) / n)
                assert abs(sample - mat[i, j]) < 3 * se, (i, j)

    def test_slope_dimension_mismatch_rejected(self):
        cov = default_cov(50)
        with pytest.raises(ValueError, match="slope has 127 coefficients, covariance has 128"):
            draw_dataset(cov, np.zeros(cov.dim - 1), 50, 1.0, 1)


def stream_grids(block, J):
    """Grids of one seed's stream: sizes 7 mod 8 (255, 263, whose last row
    blocks end in the product's remainder rows), the one-row merge at 257
    and at the sampler's first two block edges, close sizes whose noise runs
    past the largest size's rows (1000, 1005), and a one-size grid."""
    rows = block_rows(J, block)
    return [(16, 255, 257, 263, 1000, 1005),
            (rows - 1, rows + 1, 2 * rows + 1),
            (263,)]


class TestGridStream:
    @pytest.mark.parametrize("J", BLOCK_J)
    @pytest.mark.parametrize("theta", STREAM_THETA)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_stream_gives_the_datasets_of_independent_draws(self, monkeypatch,
                                                           block, theta, J):
        monkeypatch.setattr(simulate, "SAMPLE_BLOCK", block)
        cov, slope = Covariance(PP, J, theta), make_slope(PP, J)
        for sizes in stream_grids(block, J):
            seed = 1000 + sizes[-1]
            # sizes keep 4, 5 or 6 columns; those below the stream's 6 get
            # copies, the others views
            columns = [4 + (i % 3) for i in range(len(sizes))]
            stream = simulate.GridStream(cov, slope, seed, sizes, max(columns))
            for n, width in zip(sizes, columns):
                data = draw_dataset(cov, slope, n, 0.5, seed, width, stream=stream)
                alone = draw_dataset(cov, slope, n, 0.5, seed, width)
                assert data.x.shape == (n, width) and data.x.flags.c_contiguous
                assert np.array_equal(data.x, alone.x), (sizes, n)
                assert np.array_equal(data.y, alone.y), (sizes, n)

    def test_merged_last_block_is_multiplied_in_its_own_shape(self):
        # a size one row past a block edge ends in a merged block that
        # starts in the largest size's first row block and ends in its
        # second.  The last row's product there differs from the one in the
        # second block for a few seeds, so the stream carries the block's
        # rows over; the seeds must include such a one
        J = 129
        rows = block_rows(J, simulate.SAMPLE_BLOCK)
        cov, slope = Covariance(PP, J, 0.0), make_slope(PP, J)
        sizes, differ = (rows + 1, 2 * rows), 0
        for seed in range(200):
            stream = simulate.GridStream(cov, slope, seed, sizes, 4)
            data = draw_dataset(cov, slope, rows + 1, 0.0, seed, 4, stream=stream)
            alone = draw_dataset(cov, slope, rows + 1, 0.0, seed, 4)
            assert np.array_equal(data.y, alone.y), seed
            largest = draw_dataset(cov, slope, 2 * rows, 0.0, seed, 4, stream=stream)
            differ += not np.array_equal(largest.y[:rows + 1], alone.y)
        assert differ > 0

    @pytest.mark.parametrize("theta", STREAM_THETA)
    def test_stream_draws_each_normal_once(self, monkeypatch, theta):
        # a grid costs the normals of its largest size's sample, and one
        # size drawn alone those of its own sample
        default_rng, generators = np.random.default_rng, []

        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.normals = default_rng(seed), 0
                generators.append(self)

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn = self.rng.standard_normal(size, dtype, out)
                self.normals += np.size(drawn)
                return drawn

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        J = 128
        cov, slope = Covariance(PP, J, theta), make_slope(PP, J)
        for sizes in [(500, 1000, 2000, 4000, 8000),
                      *stream_grids(simulate.SAMPLE_BLOCK, J)]:
            generators.clear()
            stream = simulate.GridStream(cov, slope, 5, sizes, 6)
            for n in sizes:
                draw_dataset(cov, slope, n, 1.0, 5, 6, stream=stream)
            assert [g.normals for g in generators] == [sizes[-1] * J + sizes[-1]], sizes
        for n in (17, 500, 8003):
            generators.clear()
            draw_dataset(cov, slope, n, 1.0, 5)
            assert [g.normals for g in generators] == [n * J + n], n

    def test_stream_hands_out_its_sizes_in_order(self):
        cov, slope = default_cov(64), make_slope(PP, 128)
        stream = simulate.GridStream(cov, slope, 3, (32, 64), 4)
        with pytest.raises(ValueError, match="next size is not 64"):
            draw_dataset(cov, slope, 64, 1.0, 3, 4, stream=stream)
        with pytest.raises(ValueError, match="seed it was made for"):
            draw_dataset(cov, slope, 32, 1.0, 4, 4, stream=stream)
        with pytest.raises(ValueError, match="keeps 4 columns"):
            draw_dataset(cov, slope, 32, 1.0, 3, 5, stream=stream)
        draw_dataset(cov, slope, 32, 1.0, 3, 4, stream=stream)
        draw_dataset(cov, slope, 64, 1.0, 3, 4, stream=stream)
        with pytest.raises(ValueError, match="next size is not 64"):
            draw_dataset(cov, slope, 64, 1.0, 3, 4, stream=stream)
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate.GridStream(cov, slope, 3, (64, 32), 4)


class TestCovariance:
    def test_diagonal_matrix(self, dense):
        cov = Covariance(PP, 4)
        np.testing.assert_array_equal(dense(cov), np.diag([1, 0.25, 1 / 9, 0.0625]))

    def test_rotated_matrix_has_same_spectrum(self, dense):
        cov = Covariance(PP, 8, theta=0.6)
        lam = np.sort(np.linalg.eigvalsh(dense(cov)))
        np.testing.assert_allclose(lam, np.sort(cov.eigenvalues()), rtol=1e-12)

    @pytest.mark.parametrize("dim", [8, 16, 129])
    @pytest.mark.parametrize("theta", [0.5, 0.6, math.pi / 2])
    def test_rotated_matrix_is_exactly_symmetric(self, dim, theta, dense):
        mat = dense(Covariance(PP, dim, theta))
        assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, math.pi / 2])
    @pytest.mark.parametrize("dim", [16, 17])
    def test_apply_matches_dense_product(self, dim, theta, dense):
        # odd dim ends in an unpaired weight
        cov = Covariance(PP, dim, theta)
        v = np.random.default_rng(dim).standard_normal(dim)
        want = dense(cov) @ v
        if theta == 0.0:
            assert np.array_equal(cov.apply(v), want)
            assert np.array_equal(cov.apply(v), cov.eigenvalues() * v)
        else:
            np.testing.assert_allclose(cov.apply(v), want, rtol=1e-14)
        with pytest.raises(ValueError):
            cov.apply(np.ones(dim + 1))

    def test_draws_compute_the_sampling_scale_once(self, monkeypatch):
        # eigenvalues() computes gamma on every call; the draws of one
        # covariance read one cached, read-only sqrt(gamma)
        calls = []
        gamma_array = sequences.gamma_array

        def counted(model, j_max):
            calls.append(j_max)
            return gamma_array(model, j_max)

        monkeypatch.setattr(simulate.sequences, "gamma_array", counted)
        cov = default_cov(64)
        slope = make_slope(PP, cov.dim)
        first = draw_dataset(cov, slope, 64, 1.0, 5)
        for seed in (6, 7):
            draw_dataset(cov, slope, 64, 1.0, seed)
        assert calls == [cov.dim]
        assert not cov.sampling_scale.flags.writeable
        np.testing.assert_array_equal(cov.sampling_scale, np.sqrt(gamma_array(PP, cov.dim)))
        again = draw_dataset(cov, slope, 64, 1.0, 5)
        assert np.array_equal(first.y, again.y) and np.array_equal(first.x, again.x)

    def test_clamped_weights_warn_on_the_first_draw(self):
        # pe with a = 1: gamma_j is clamped from j = 27 on
        pe = SequenceModel(regime=Regime.PE, p=2.0, a=1.0)
        cov = Covariance(pe, 128, 0.3)
        slope = make_slope(pe, cov.dim)
        with pytest.warns(sequences.UnderflowWarning):
            draw_dataset(cov, slope, 64, 1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw_dataset(cov, slope, 64, 1.0, 2)
        with pytest.warns(sequences.UnderflowWarning):
            cov.eigenvalues()

    def test_rotate_leaves_unrotated_input_alone(self):
        x = np.arange(12.0).reshape(2, 6)
        assert Covariance(PP, 6).rotate(x) is x
        np.testing.assert_array_equal(x, np.arange(12.0).reshape(2, 6))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, math.pi / 2])
    @pytest.mark.parametrize("dim", [16, 17, 32])
    def test_closed_form_quadratic_forms_match_solve(self, dim, theta, dense):
        # odd dim ends in an unpaired weight; m < dim odd cuts a pair
        cov = Covariance(PP, dim, theta)
        mat = dense(cov)
        for spec in (PointEval(t0=0.3), E1):
            ell = functionals.coefficients(spec, dim)
            want = [ell[:m] @ np.linalg.solve(mat[:m, :m], ell[:m])
                    for m in range(1, dim + 1)]
            np.testing.assert_allclose(cov.leading_quadratic_forms(ell), want,
                                       rtol=1e-12)
        with pytest.raises(ValueError, match="len"):
            cov.leading_quadratic_forms(np.ones(dim + 1))

    def test_steep_rotated_weights_give_exact_quadratic_forms(self):
        # the ratios V_m / V_m^gamma of the running maximum V_m of the forms
        # to sum_{j<=m} l_j^2 / gamma_j; each pair solved by hand at 700
        # digits with mpmath.  A solve over the whole leading block read
        # 0.539, 0.539, 8.8e-3, 5.9e-21, 6.5e-6
        pe = SequenceModel(regime=Regime.PE, p=1.0, a=1.0)
        cov = Covariance(pe, 40, theta=0.3)
        ell = functionals.coefficients(PointEval(t0=0.3), 26)
        with pytest.warns(sequences.UnderflowWarning):  # gamma_j from j = 27
            v = np.maximum.accumulate(cov.leading_quadratic_forms(ell))
        v_gamma = np.cumsum(ell ** 2 / sequences.gamma_array(pe, 26))
        at = np.array([20, 21, 22, 24, 26]) - 1
        np.testing.assert_allclose((v / v_gamma)[at],
                                   [1.529, 1.529, 0.913, 1.697, 1.369], rtol=1e-3)


class TestTrueValue:
    def test_point_mass_on_first_coefficient(self):
        assert true_value(PointEval(t0=0.0), unit_slope(50, 1)) == 1.0

    def test_full_average_of_pure_cosine_vanishes(self):
        assert abs(true_value(LocalAverage(b=1.0), unit_slope(50, 2))) < 1e-15

    def test_custom_coordinate_projection(self):
        slope = make_slope(PP, 64)
        spec = Custom(coeffs=(0.0, 0.0, 1.0))
        assert true_value(spec, slope) == pytest.approx(float(slope[2]), rel=1e-15)


class TestConfigValidation:
    def test_default_truncation_floor(self):
        assert simulate.default_truncation(100) == 128

    def test_large_n_truncation_tracks_fourth_root(self):
        assert simulate.default_truncation(2 * 10 ** 6) == 4 * 37

    def test_too_small_truncation_rejected(self):
        with pytest.raises(ValueError, match=r"J = 100 is below 4 \* floor"):
            draw_dataset(Covariance(PP, 100), np.zeros(100), 10 ** 6, 1.0, 0)

    def test_nonpositive_sample_size_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            draw_dataset(default_cov(50), np.zeros(128), 0, 1.0, 0)
        with pytest.raises(ValueError, match="n must be an integer"):
            draw_dataset(default_cov(50), np.zeros(128), 64.5, 1.0, 0)

    def test_degenerate_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma must be a non-negative real"):
            draw_dataset(default_cov(50), np.zeros(128), 50, -1.0, 0)

    @pytest.mark.parametrize("seed", [-3, 2.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            draw_dataset(default_cov(50), np.zeros(128), 50, 1.0, seed)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_mixing_rejected(self, theta):
        with pytest.raises(ValueError, match="mixing angle theta"):
            Covariance(PP, 8, theta)

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            Dataset(y=np.array([1.0, float("nan")]), x=np.ones((2, 4)))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        cov = default_cov(37)
        data = draw_dataset(cov, make_slope(PP, cov.dim), 37, 1.3, 3)
        path = tmp_path / "data.csv"
        simulate.save_dataset_csv(data, path)
        loaded = simulate.load_dataset_csv(path)
        assert np.array_equal(loaded.y, data.y)
        assert np.array_equal(loaded.x, data.x)

    def test_header_shape(self, tmp_path):
        cov = default_cov(5)
        data = draw_dataset(cov, np.zeros(cov.dim), 5, 1.0, 3)
        path = tmp_path / "data.csv"
        simulate.save_dataset_csv(data, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "y" and header[1] == "x1" and header[-1] == f"x{cov.dim}"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            simulate.load_dataset_csv(path)

    def test_empty_file_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv: empty file"):
            simulate.load_dataset_csv(path)

    @pytest.mark.parametrize("row", ["4,5", "4,5,6,7"])
    def test_ragged_row_rejected_with_its_path_and_line(self, tmp_path, row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"y,x1,x2\n1,2,3\n{row}\n")
        fields = len(row.split(","))
        with pytest.raises(ValueError,
                           match=f"ragged.csv, line 3: {fields} fields, the header has 3"):
            simulate.load_dataset_csv(path)

    def test_file_without_x_columns_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "y_only.csv"
        path.write_text("y\n1\n2\n")
        with pytest.raises(ValueError, match="y_only.csv: no x columns"):
            simulate.load_dataset_csv(path)

    def test_header_only_file_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y,x1,x2\n")
        with pytest.raises(ValueError, match="header.csv: no data rows"):
            simulate.load_dataset_csv(path)

    def test_non_numeric_cell_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("y,x1\n1,2\n3,abc\n")
        with pytest.raises(ValueError, match=r"text.csv, line 3: .*'abc'"):
            simulate.load_dataset_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_rejected_with_its_path(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"y,x1\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError,
                           match="nonfinite.csv: dataset entries must all be finite"):
            simulate.load_dataset_csv(path)
