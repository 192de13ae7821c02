import math

import numpy as np
import pytest

from riskbound import bounds, lpsolver, stability
from riskbound.asymptotics import sample_empirical
from riskbound.core import (
    Coupling,
    DomainError,
    InvalidHolderData,
    LossMatrix,
    ProbabilityVector,
    SpectralGrid,
    validate_marginal,
)
from riskbound.losses import build_gaussian_linear_instance
from riskbound.stability import (
    ground_from_labels,
    holder_sensitivity_check,
    lipschitz_estimate,
    perturbation_sweep,
    wasserstein_discrete,
)


def random_ground(rng, n):
    """Random metric from points on the line."""
    x = np.sort(rng.normal(size=n))
    return LossMatrix(np.abs(x[:, None] - x[None, :]))


def quantile_coupling_wr(x, p, q, r):
    """Exact W_r^r of two laws on the points x of the line: the integral over
    t in (0, 1) of |F^-1(t) - G^-1(t)|^r, piecewise constant between the
    breakpoints of the two cumulative sums."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cp = np.cumsum(p[order])
    cq = np.cumsum(q[order])
    t = np.unique(np.concatenate([[0.0, 1.0], cp, cq]))
    t = t[t <= 1.0]
    mid = 0.5 * (t[1:] + t[:-1])
    i = np.minimum(np.searchsorted(cp, mid), x.size - 1)   # F^-1(t) = min{x: F(x) >= t}
    j = np.minimum(np.searchsorted(cq, mid), x.size - 1)
    return float(np.sum(np.diff(t) * np.abs(xs[i] - xs[j]) ** r))


def random_law(rng, n):
    """Dirichlet weights, with one atom set to zero on about half the draws."""
    w = rng.dirichlet(np.ones(n))
    if n > 1 and rng.random() < 0.5:
        w[rng.integers(n)] = 0.0
    return ProbabilityVector(w / w.sum())


def pairwise_lipschitz(lv, dx, dy):
    """The one-coordinate finite-difference constant, one pair at a time."""
    best = 0.0
    for i in range(lv.shape[0]):
        for i2 in range(i + 1, lv.shape[0]):
            if dx[i, i2] > 0.0:
                best = max(best, float(np.abs(lv[i] - lv[i2]).max()) / dx[i, i2])
    for j in range(lv.shape[1]):
        for j2 in range(j + 1, lv.shape[1]):
            if dy[j, j2] > 0.0:
                best = max(best, float(np.abs(lv[:, j] - lv[:, j2]).max()) / dy[j, j2])
    return best


class TestWasserstein:
    def test_identical_laws(self):
        p = validate_marginal([0.3, 0.7])
        g = LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert wasserstein_discrete(p, p, g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_diracs(self):
        p = validate_marginal([1.0, 0.0])
        q = validate_marginal([0.0, 1.0])
        g = LossMatrix(np.array([[0.0, 2.5], [2.5, 0.0]]))
        for r in (1.0, 2.0, 3.0):
            assert wasserstein_discrete(p, q, g, r) == pytest.approx(2.5, abs=1e-9)

    def test_half_mass_move(self):
        p = validate_marginal([1.0, 0.0])
        q = validate_marginal([0.5, 0.5])
        g = LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert wasserstein_discrete(p, q, g, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_order_validation(self):
        p = validate_marginal([0.5, 0.5])
        g = LossMatrix(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            wasserstein_discrete(p, p, g, 0.5)

    def test_identical_laws_give_positive_zero(self):
        p = validate_marginal([0.2, 0.5, 0.3])
        g = random_ground(np.random.default_rng(2), 3)
        for r in (1.0, 2.0):
            assert math.copysign(1.0, wasserstein_discrete(p, p, g, r)) == 1.0

    def test_equal_laws_take_one_round_in_label_order(self, caplog):
        # between equal laws the label-order staircase is the diagonal, whose
        # zero-mass links join adjacent atoms: its tree potentials are
        # Kantorovich potentials, which cover every cell in one round
        mu, nu, _ = build_gaussian_linear_instance(30, 60, 5)
        for p in (mu, nu):
            with caplog.at_level("INFO", logger="riskbound"):
                w = wasserstein_discrete(p, p, ground_from_labels(p))
            line = caplog.records[-1].getMessage()
            assert w == 0.0
            assert line.startswith("MspSolution: 1 round(s), staircase in label order,")

    def test_line_transport_takes_one_round_in_label_order(self, caplog):
        # two Dirichlet laws on 400 line atoms took 22-29 rounds in mean-loss
        # order; the north-west corner in label order is optimal at once
        rng = np.random.default_rng(24)
        x = rng.normal(size=400)
        p, q = (validate_marginal(rng.dirichlet(np.ones(400)), labels=x.tolist())
                for _ in range(2))
        g = ground_from_labels(p)
        for r in (1.0, 2.0, 3.0):
            with caplog.at_level("INFO", logger="riskbound"):
                w = wasserstein_discrete(p, q, g, r)
            line = caplog.records[-1].getMessage()
            assert line.startswith("MspSolution: 1 round(s), staircase in label order,")
            assert ", 0 simplex iteration(s)," in line
            exact = quantile_coupling_wr(x, p.weights, q.weights, r)
            assert w ** r == pytest.approx(exact, rel=1e-12, abs=0.0)
        # W_1 is the area between the two distribution functions
        order = np.argsort(x)
        gaps = np.abs(np.cumsum(p.weights[order]) - np.cumsum(q.weights[order]))[:-1]
        area = float(np.sum(gaps * np.diff(x[order])))
        assert wasserstein_discrete(p, q, g) == pytest.approx(area, rel=1e-12, abs=0.0)

    def test_empirical_laws_take_label_order_over_their_kept_atoms(self, caplog):
        mu, _, _ = build_gaussian_linear_instance(60, 1, 5)
        x = np.asarray(mu.labels)
        rng = np.random.default_rng(8)
        p, q = (sample_empirical(mu, 40, rng) for _ in range(2))
        assert np.any(p.weights == 0.0) and np.any(q.weights == 0.0)
        for r in (1.0, 2.0):
            with caplog.at_level("INFO", logger="riskbound"):
                w = wasserstein_discrete(p, q, ground_from_labels(mu), r)
            line = caplog.records[-1].getMessage()
            assert line.startswith("MspSolution: 1 round(s), staircase in label order,")
            exact = quantile_coupling_wr(x, p.weights, q.weights, r)
            assert w ** r == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_without_a_line_ground_the_staircase_keeps_mean_loss_order(self, caplog):
        # labels that are not all numbers, or a ground that is not Monge in
        # label order: the solve is the one without labels, bit for bit
        rng = np.random.default_rng(12)
        x = np.sort(rng.normal(size=12))
        w1, w2 = rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(12))
        line_ground = LossMatrix(np.abs(x[:, None] - x[None, :]))
        bent = LossMatrix(np.abs(np.sin(3 * x)[:, None] - np.sin(3 * x)[None, :]))
        cases = [([f"a{i}" for i in range(12)], line_ground),
                 ([*x[:-1].tolist(), "last"], line_ground),
                 (x.tolist(), bent)]
        for labels, g in cases:
            for r in (1.0, 2.0):
                bare = wasserstein_discrete(validate_marginal(w1), validate_marginal(w2), g, r)
                with caplog.at_level("INFO", logger="riskbound"):
                    w = wasserstein_discrete(validate_marginal(w1, labels),
                                             validate_marginal(w2, labels), g, r)
                assert "staircase in mean-loss order," in caplog.records[-1].getMessage()
                assert w == bare

    def test_zero_ground_needs_no_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a zero ground must not be solved")

        monkeypatch.setattr(stability, "solve_transport", no_solve)
        p = validate_marginal([0.2, 0.8])
        q = validate_marginal([0.6, 0.1, 0.3])
        w = wasserstein_discrete(p, q, LossMatrix(np.zeros((2, 3))), 2.0)
        assert w == 0.0 and math.copysign(1.0, w) == 1.0

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_exact_on_the_line_at_every_scale(self, scale):
        # 300 square instances: 1-8 atoms, zero atoms, tied labels, r in {1, 2, 3};
        # W_r^r must match the quantile coupling to 1e-12 of max d^r
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n)
            if n > 2 and rng.random() < 0.3:
                x[1] = x[0]
            x *= scale
            p, q = random_law(rng, n), random_law(rng, n)
            r = float(rng.integers(1, 4))
            d = np.abs(x[:, None] - x[None, :])
            top = float((d ** r).max())
            got = wasserstein_discrete(p, q, LossMatrix(d), r) ** r
            exact = quantile_coupling_wr(x, p.weights, q.weights, r)
            assert abs(got - exact) <= 1e-12 * top, (n, r, got, exact)

    def test_rectangular_and_planar_grounds_match_transport(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            n = m + int(rng.integers(1, 4))                      # never square
            r = float(rng.integers(1, 4))
            p, q = random_law(rng, m), random_law(rng, n)
            xs, ys = rng.normal(size=m), rng.normal(size=n)
            line = np.abs(xs[:, None] - ys[None, :])             # rectangular
            pts = rng.normal(size=(m, 2))
            plane = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            pm, qm = random_law(rng, m), random_law(rng, m)
            for a, b, d in ((p, q, line), (pm, qm, plane)):
                ref = lpsolver._Transport(a, b, "min").solve(d ** r)[0].objective
                got = wasserstein_discrete(a, b, LossMatrix(d), r) ** r
                assert got == pytest.approx(max(ref, 0.0), abs=1e-9)

    def test_metric_properties_sampled(self):
        rng = np.random.default_rng(19)
        n = 6
        g = random_ground(rng, n)
        laws = [validate_marginal(rng.dirichlet(np.ones(n))) for _ in range(6)]
        for a in laws:
            assert wasserstein_discrete(a, a, g) <= 1e-10
        for a, b in zip(laws, laws[1:]):
            d1 = wasserstein_discrete(a, b, g)
            d2 = wasserstein_discrete(b, a, g)
            assert abs(d1 - d2) <= 1e-10
        for a, b, c in zip(laws, laws[1:], laws[2:]):
            dab = wasserstein_discrete(a, b, g)
            dbc = wasserstein_discrete(b, c, g)
            dac = wasserstein_discrete(a, c, g)
            assert dac <= dab + dbc + 1e-8


class TestLipschitzEstimate:
    def test_linear_loss(self):
        x = np.array([0.0, 1.0, 3.0])
        y = np.array([-1.0, 2.0])
        loss = LossMatrix(x[:, None] + y[None, :])
        gx = LossMatrix(np.abs(x[:, None] - x[None, :]))
        gy = LossMatrix(np.abs(y[:, None] - y[None, :]))
        assert lipschitz_estimate(loss, gx, gy) == pytest.approx(1.0, abs=1e-12)

    def test_equals_pairwise_loop(self):
        # general grounds with zero off-diagonal distances (repeated points)
        rng = np.random.default_rng(13)
        for _ in range(30):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            lv = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
            grounds = []
            for k in (m, n):
                d = np.abs(rng.normal(size=(k, k)))
                d = d + d.T
                d[rng.random((k, k)) < 0.3] = 0.0
                d = np.triu(d, 1) + np.triu(d, 1).T
                grounds.append(d)
            got = lipschitz_estimate(LossMatrix(lv), LossMatrix(grounds[0]), LossMatrix(grounds[1]))
            assert got == pairwise_lipschitz(lv, *grounds)

    def test_no_positive_distance(self):
        loss = LossMatrix(np.arange(6.0).reshape(2, 3))
        assert lipschitz_estimate(loss, LossMatrix(np.zeros((2, 2))),
                                  LossMatrix(np.zeros((3, 3)))) == 0.0


class TestPerturbationSweep:
    def make_instance(self, rng, n=4):
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n))
        mu = validate_marginal(rng.dirichlet(np.ones(n)), labels=x.tolist())
        nu = validate_marginal(rng.dirichlet(np.ones(n)), labels=y.tolist())
        loss = LossMatrix(x[:, None] + y[None, :])
        return mu, nu, loss

    def test_zero_epsilon_row(self):
        rng = np.random.default_rng(3)
        mu, nu, loss = self.make_instance(rng)
        rep = perturbation_sweep(mu, nu, loss, 0.5, steps=3)
        last = rep.rows[-1]
        assert last.epsilon == 0.0
        assert last.delta_value == 0.0

    def test_full_mixing_step_matches_direct_solves(self):
        from riskbound.bounds import solve_mes
        from riskbound.core import ProbabilityVector
        rng = np.random.default_rng(7)
        mu, nu, loss = self.make_instance(rng, n=2)
        rep = perturbation_sweep(mu, nu, loss, 0.6, steps=1)
        uni_mu = ProbabilityVector(np.full(2, 0.5), labels=mu.labels)
        uni_nu = ProbabilityVector(np.full(2, 0.5), labels=nu.labels)
        direct = abs(solve_mes(uni_mu, uni_nu, loss, 0.6).value
                     - solve_mes(mu, nu, loss, 0.6).value)
        assert rep.rows[0].delta_value == pytest.approx(direct, abs=1e-12)

    def test_bound_holds_on_every_row(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            mu, nu, loss = self.make_instance(rng)
            rep = perturbation_sweep(mu, nu, loss, 0.7, steps=6,
                                     seed=int(rng.integers(2 ** 32)))
            for row in rep.rows:
                assert row.delta_value <= row.bound + 1e-7

    def test_dirac_marginal_perturbation(self):
        # Dirac marginals: mixing moves mass eps to the other atom
        mu = validate_marginal([1.0, 0.0], labels=(0.0, 1.0))
        nu = validate_marginal([1.0, 0.0], labels=(0.0, 2.0))
        loss = LossMatrix(np.array([[0.0, 2.0], [1.0, 3.0]]))
        rep = perturbation_sweep(mu, nu, loss, 0.5, steps=5)
        for row in rep.rows:
            assert row.delta_value <= row.bound + 1e-7

    def test_trend_decays(self):
        rng = np.random.default_rng(23)
        mu, nu, loss = self.make_instance(rng, n=5)
        rep = perturbation_sweep(mu, nu, loss, 0.5, steps=8)
        assert rep.loglog_slope >= 0.5
        deltas = [r.delta_value for r in rep.rows[:-1]]
        assert deltas[-1] <= deltas[0]

    def test_resampling_scheme_runs(self):
        rng = np.random.default_rng(29)
        mu, nu, loss = self.make_instance(rng, n=3)
        rep = perturbation_sweep(mu, nu, loss, 0.5, scheme="resampling",
                                 steps=4, seed=42)
        assert rep.scheme == "resampling"
        assert len(rep.rows) == 5

    def test_grid_argument(self):
        rng = np.random.default_rng(31)
        mu, nu, loss = self.make_instance(rng, n=3)
        grid = SpectralGrid(z0=0.5, levels=np.array([0.5]), weights=np.array([0.5]))
        rep = perturbation_sweep(mu, nu, loss, grid, steps=3)
        assert all(r.delta_value <= r.bound + 1e-7 for r in rep.rows)


class TestHolderCheck:
    def test_equal_couplings(self):
        loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        g = LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pi = Coupling(np.array([[0.5, 0.0], [0.0, 0.5]]))
        lhs, rhs, ok = holder_sensitivity_check(loss, pi, pi, SpectralGrid.dirac(0.5),
                                                c_q=1.0, q=1.0, r=1.0,
                                                ground_x=g, ground_y=g)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-10)
        assert ok

    def test_sum_loss_es_grid(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        loss = LossMatrix(x[:, None] + y[None, :])
        g = LossMatrix(np.abs(x[:, None] - x[None, :]))
        pi_co = Coupling(np.array([[0.5, 0.0], [0.0, 0.5]]))
        pi_anti = Coupling(np.array([[0.0, 0.5], [0.5, 0.0]]))
        lhs, rhs, ok = holder_sensitivity_check(loss, pi_co, pi_anti,
                                                SpectralGrid.dirac(0.5),
                                                c_q=1.0, q=1.0, r=1.0,
                                                ground_x=g, ground_y=g)
        assert ok
        assert lhs <= rhs + 1e-7

    def test_kantorovich_rubinstein_reduction(self):
        # flat spectrum, r = q = 1: |E1[L] - E2[L]| <= C_1 W_1
        rng = np.random.default_rng(5)
        x = np.sort(rng.normal(size=3))
        y = np.sort(rng.normal(size=3))
        loss = LossMatrix(x[:, None] + y[None, :])
        gx = LossMatrix(np.abs(x[:, None] - x[None, :]))
        gy = LossMatrix(np.abs(y[:, None] - y[None, :]))
        grid = SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(3))
        pi1 = Coupling(np.outer(mu, nu))
        pi2 = Coupling(np.diag(mu) @ np.ones((3, 3)) * nu[None, :])  # same marginals
        lhs, rhs, ok = holder_sensitivity_check(loss, pi1, pi2, grid,
                                                c_q=1.0, q=1.0, r=1.0,
                                                ground_x=gx, ground_y=gy)
        e1 = float((loss.values * pi1.matrix).sum())
        e2 = float((loss.values * pi2.matrix).sum())
        assert lhs == pytest.approx(abs(e1 - e2), abs=1e-12)
        assert ok

    def test_invalid_holder_data(self):
        loss = LossMatrix(np.zeros((2, 2)))
        g = LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pi = Coupling(np.full((2, 2), 0.25))
        with pytest.raises(InvalidHolderData):
            holder_sensitivity_check(loss, pi, pi, SpectralGrid.dirac(0.5),
                                     c_q=-1.0, q=1.0, r=1.0, ground_x=g, ground_y=g)
        with pytest.raises(InvalidHolderData):
            holder_sensitivity_check(loss, pi, pi, SpectralGrid.dirac(0.5),
                                     c_q=1.0, q=2.0, r=1.0, ground_x=g, ground_y=g)
        with pytest.raises(InvalidHolderData):
            holder_sensitivity_check(loss, pi, pi, SpectralGrid.dirac(0.5),
                                     c_q=1.0, q=0.5, r=1.0, ground_x=g, ground_y=g,
                                     r_q=1.5)


def test_stability_keeps_the_traced_transport_attribute():
    # the benchmark tracer wraps riskbound.stability.solve_transport by name
    assert stability.solve_transport is bounds.solve_transport


class TestGroundFromLabels:
    def test_numeric_labels(self):
        p = validate_marginal([0.5, 0.5], labels=(0.0, 3.0))
        g = ground_from_labels(p)
        assert g.values[0, 1] == 3.0

    def test_fallback_discrete(self):
        p = validate_marginal([0.5, 0.5], labels=("a", "b"))
        g = ground_from_labels(p)
        assert np.array_equal(g.values, 1.0 - np.eye(2))
