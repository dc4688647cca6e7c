"""Tests for multivariate (covariance) and contingency statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.analysis.statistics.contingency import (
    ContingencyTable,
    global_edges,
)
from repro.analysis.statistics.multivariate import (
    CovarianceAccumulator,
    merge_covariances,
)
from repro.vmpi import BlockDecomposition3D


class TestCovarianceAccumulator:
    def _data(self, n=500, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        return {"x": x, "y": 0.7 * x + 0.3 * rng.normal(size=n),
                "z": rng.normal(size=n)}

    def test_matches_numpy_cov(self):
        cols = self._data()
        acc, names = CovarianceAccumulator.from_data(cols)
        X = np.stack([cols[k] for k in names], axis=1)
        np.testing.assert_allclose(acc.covariance(), np.cov(X.T), rtol=1e-10)

    def test_correlation_matches_numpy(self):
        cols = self._data()
        acc, names = CovarianceAccumulator.from_data(cols)
        X = np.stack([cols[k] for k in names], axis=1)
        np.testing.assert_allclose(acc.correlation(), np.corrcoef(X.T),
                                   rtol=1e-9, atol=1e-12)

    def test_merge_matches_concatenation(self):
        a = self._data(300, seed=1)
        b = {k: v + 2.0 for k, v in self._data(200, seed=2).items()}
        acc_a, names = CovarianceAccumulator.from_data(a)
        acc_b, _ = CovarianceAccumulator.from_data(b)
        merged = acc_a.merge(acc_b)
        whole, _ = CovarianceAccumulator.from_data(
            {k: np.concatenate([a[k], b[k]]) for k in names})
        np.testing.assert_allclose(merged.covariance(), whole.covariance(),
                                   rtol=1e-9)
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)

    def test_merge_with_empty(self):
        acc, _ = CovarianceAccumulator.from_data(self._data(50))
        empty = CovarianceAccumulator(d=3)
        for m in (acc.merge(empty), empty.merge(acc)):
            assert m.n == acc.n
            np.testing.assert_array_equal(m.mean, acc.mean)

    def test_block_decomposed_merge(self):
        """Per-rank accumulators over a 3-D decomposition merge exactly."""
        rng = np.random.default_rng(3)
        t = rng.random((8, 6, 4))
        oh = 0.5 * t + 0.1 * rng.random((8, 6, 4))
        decomp = BlockDecomposition3D((8, 6, 4), (2, 2, 1))
        accs = []
        for b in decomp.blocks():
            acc, _ = CovarianceAccumulator.from_data(
                {"T": t[b.slices].ravel(), "OH": oh[b.slices].ravel()})
            accs.append(acc)
        merged = merge_covariances(accs)
        whole, _ = CovarianceAccumulator.from_data(
            {"T": t.ravel(), "OH": oh.ravel()})
        np.testing.assert_allclose(merged.covariance(), whole.covariance(),
                                   rtol=1e-9)

    def test_pack_unpack_roundtrip(self):
        acc, _ = CovarianceAccumulator.from_data(self._data(100))
        again = CovarianceAccumulator.unpack(acc.pack(), d=3)
        assert again.n == acc.n
        np.testing.assert_allclose(again.comoment, acc.comoment)
        np.testing.assert_allclose(again.covariance(), acc.covariance())

    def test_wire_size(self):
        """d=3: 1 + 3 + 6 = 10 doubles = 80 bytes per rank."""
        acc, _ = CovarianceAccumulator.from_data(self._data(10))
        assert acc.pack().nbytes == 80

    def test_matrix_input(self):
        X = np.random.default_rng(4).random((50, 4))
        acc, names = CovarianceAccumulator.from_data(X)
        assert names == ["v0", "v1", "v2", "v3"]
        np.testing.assert_allclose(acc.covariance(), np.cov(X.T), rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceAccumulator(d=0)
        with pytest.raises(ValueError):
            CovarianceAccumulator.from_data({"a": np.zeros(3), "b": np.zeros(4)})
        with pytest.raises(ValueError):
            CovarianceAccumulator.from_data(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            CovarianceAccumulator.from_data({"a": np.array([1.0, np.nan])})
        acc, _ = CovarianceAccumulator.from_data({"a": np.array([1.0])})
        with pytest.raises(ValueError):
            acc.covariance()
        with pytest.raises(ValueError):
            CovarianceAccumulator.unpack(np.zeros(5), d=3)
        with pytest.raises(ValueError):
            merge_covariances([])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_merge_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        chunks = [rng.normal(size=(rng.integers(2, 30), 2)) for _ in range(4)]
        accs = [CovarianceAccumulator.from_data(c)[0] for c in chunks]
        forward = merge_covariances(accs)
        backward = merge_covariances(accs[::-1])
        np.testing.assert_allclose(forward.covariance(), backward.covariance(),
                                   rtol=1e-8, atol=1e-10)


class TestContingency:
    def _correlated_fields(self, n=4000, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = np.where(rng.random(n) < 0.8, x, rng.random(n))  # dependent
        return x, y

    def test_counts_match_histogram2d(self):
        x, y = self._correlated_fields()
        xe = global_edges(x, 8)
        ye = global_edges(y, 8)
        table = ContingencyTable.from_data(x, y, xe, ye)
        ref, _, _ = np.histogram2d(x, y, bins=[xe, ye])
        # histogram2d treats the last edge as closed; our clamping agrees
        np.testing.assert_array_equal(table.counts, ref.astype(np.int64))
        assert table.n == x.size

    def test_merge_is_addition(self):
        x, y = self._correlated_fields()
        xe, ye = global_edges(x, 6), global_edges(y, 6)
        half = x.size // 2
        a = ContingencyTable.from_data(x[:half], y[:half], xe, ye)
        b = ContingencyTable.from_data(x[half:], y[half:], xe, ye)
        whole = ContingencyTable.from_data(x, y, xe, ye)
        np.testing.assert_array_equal(a.merge(b).counts, whole.counts)

    def test_import_repro_leaves_scipy_stats_unloaded(self):
        """``scipy.stats`` is imported at the chi-square call only: loading
        it would dominate ``import repro``."""
        import repro
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_chi2_matches_scipy(self):
        x, y = self._correlated_fields()
        xe, ye = global_edges(x, 5), global_edges(y, 5)
        table = ContingencyTable.from_data(x, y, xe, ye)
        stats = table.derive()
        chi2, p, dof, _ = scipy_stats.chi2_contingency(table.counts)
        assert stats.chi2 == pytest.approx(chi2)
        assert stats.p_value == pytest.approx(p)
        assert stats.dof == dof

    def test_dependence_detected(self):
        x, y = self._correlated_fields()
        xe, ye = global_edges(x, 6), global_edges(y, 6)
        stats = ContingencyTable.from_data(x, y, xe, ye).derive()
        assert not stats.independent_at_5pct
        assert stats.cramers_v > 0.3
        assert stats.mutual_information > 0.1

    def test_independence_accepted(self):
        rng = np.random.default_rng(6)
        x, y = rng.random(5000), rng.random(5000)
        xe, ye = global_edges(x, 5), global_edges(y, 5)
        stats = ContingencyTable.from_data(x, y, xe, ye).derive()
        assert stats.p_value > 0.001
        assert stats.mutual_information < 0.05

    def test_assess_pmi_sign_structure(self):
        x, y = self._correlated_fields()
        xe, ye = global_edges(x, 6), global_edges(y, 6)
        table = ContingencyTable.from_data(x, y, xe, ye)
        # on-diagonal pairs (x ~ y) over-represented: positive PMI
        pmi_diag = table.assess_pmi(np.array([0.1, 0.9]), np.array([0.1, 0.9]))
        pmi_off = table.assess_pmi(np.array([0.1, 0.9]), np.array([0.9, 0.1]))
        assert pmi_diag.mean() > pmi_off.mean()

    def test_decomposed_learn_matches_global(self):
        rng = np.random.default_rng(7)
        t = rng.random((8, 6, 4))
        oh = t + 0.1 * rng.random((8, 6, 4))
        xe, ye = global_edges(t, 5), global_edges(oh, 5)
        decomp = BlockDecomposition3D((8, 6, 4), (2, 1, 2))
        tables = [ContingencyTable.from_data(t[b.slices], oh[b.slices], xe, ye)
                  for b in decomp.blocks()]
        merged = tables[0]
        for tb in tables[1:]:
            merged = merged.merge(tb)
        whole = ContingencyTable.from_data(t, oh, xe, ye)
        np.testing.assert_array_equal(merged.counts, whole.counts)

    def test_degenerate_table(self):
        """Single occupied row: no evidence, independence by convention."""
        x = np.zeros(100)
        y = np.random.default_rng(8).random(100)
        table = ContingencyTable.from_data(x, y, np.linspace(0, 1, 4),
                                           np.linspace(0, 1, 4))
        stats = table.derive()
        assert stats.chi2 == 0.0 and stats.p_value == 1.0
        assert stats.cramers_v == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ContingencyTable.empty(np.array([1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ContingencyTable.empty(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ContingencyTable.from_data(np.zeros(3), np.zeros(4),
                                       np.array([0, 1.0]), np.array([0, 1.0]))
        t = ContingencyTable.empty(np.array([0, 1.0]), np.array([0, 1.0]))
        with pytest.raises(ValueError):
            t.derive()
        with pytest.raises(ValueError):
            t.assess_pmi(np.zeros(2), np.zeros(2))
        other = ContingencyTable.empty(np.array([0, 0.5, 1.0]),
                                       np.array([0, 1.0]))
        with pytest.raises(ValueError):
            t.merge(other)
        with pytest.raises(ValueError):
            global_edges(np.zeros(3), 0)

    def test_constant_variable_edges(self):
        edges = global_edges(np.full(10, 2.0), 4)
        assert edges[0] == 2.0 and edges[-1] == 3.0
