"""Tests for template set constructors, Gram models, and file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bias_lab import (
    DegenerateTemplateSetError,
    DimensionError,
    DomainError,
    FactorizationError,
    GramModel,
    ParseError,
    SpectrumError,
    TemplateSet,
    templates as tpl,
)


# ---------------------------------------------------------------- make_pair

def test_pair_correlation_and_labels():
    ts = tpl.make_pair(0.3)
    assert ts.L == 2 and ts.d == 2
    assert ts.labels == ("x0", "x1")
    np.testing.assert_allclose(ts.correlation(),
                               [[1.0, 0.3], [0.3, 1.0]], atol=1e-15)
    assert ts.common_norm == pytest.approx(1.0)


def test_pair_norm_scaling():
    ts = tpl.make_pair(0.5, d=4, norm=2.5)
    norms = np.linalg.norm(ts.matrix, axis=0)
    np.testing.assert_allclose(norms, 2.5, rtol=1e-12)
    assert ts.matrix.shape == (4, 2)


def test_pair_antipodal():
    ts = tpl.make_pair(-1.0)
    np.testing.assert_allclose(ts.matrix[:, 1], -ts.matrix[:, 0], atol=1e-15)


def test_pair_rejects_bad_inputs():
    with pytest.raises(DegenerateTemplateSetError):
        tpl.make_pair(1.0)
    with pytest.raises(DomainError):
        tpl.make_pair(1.5)
    with pytest.raises(DomainError):
        tpl.make_pair(float("nan"))
    for d in (1, 2.5):
        with pytest.raises(DimensionError):
            tpl.make_pair(0.3, d=d)
    with pytest.raises(DomainError):
        tpl.make_pair(0.0, norm=0.0)


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(-1.0, 0.999))
def test_pair_correlation_matches_request(rho):
    ts = tpl.make_pair(rho)
    assert abs(ts.correlation()[0, 1] - rho) < 1e-12


# ------------------------------------------------------------- TemplateSet

def test_template_set_validation():
    with pytest.raises(DimensionError):
        TemplateSet(matrix=np.zeros(3))
    with pytest.raises(DimensionError):
        TemplateSet(matrix=np.ones((3, 1)))
    with pytest.raises(DomainError):
        TemplateSet(matrix=np.array([[1.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(DegenerateTemplateSetError):
        TemplateSet(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))
    # unequal column norms
    with pytest.raises(DomainError):
        TemplateSet(matrix=np.array([[1.0, 0.0], [0.0, 2.0]]))
    # two identical columns
    with pytest.raises(DegenerateTemplateSetError):
        TemplateSet(matrix=np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        TemplateSet(matrix=np.eye(2), labels=("just_one",))


def test_template_set_defaults_and_immutability():
    ts = TemplateSet(matrix=np.eye(3))
    assert ts.labels == ("t0", "t1", "t2")
    with pytest.raises(ValueError):
        ts.matrix[0, 0] = 2.0


def test_template_set_gram_round_trip():
    ts = tpl.make_pair(0.4, norm=3.0)
    g = ts.gram()
    assert g.scale == pytest.approx(3.0)
    np.testing.assert_allclose(g.rho, ts.correlation(), atol=1e-12)
    np.testing.assert_allclose(g.covariance(), 9.0 * g.rho, rtol=1e-12)


# --------------------------------------------------------------- GramModel

def test_gram_model_validation():
    with pytest.raises(DomainError):
        GramModel.from_correlation(np.array([[1.0, 2.0], [2.0, 1.0]]) * np.nan)
    with pytest.raises(DomainError):
        GramModel(rho=np.array([[1.0, 0.0], [0.3, 1.0]]), scale=1.0)
    with pytest.raises(DomainError):
        GramModel(rho=np.array([[2.0, 0.0], [0.0, 2.0]]), scale=1.0)
    with pytest.raises(DomainError):
        GramModel(rho=np.eye(2), scale=-1.0)
    with pytest.raises(DimensionError):
        GramModel(rho=np.eye(1), scale=1.0)
    # the factor is derived from rho, so a valid rho has a valid model
    g = GramModel(rho=np.array([[1.0, 0.5], [0.5, 1.0]]), scale=1.0)
    np.testing.assert_allclose(g.factor @ g.factor.T, g.rho, atol=1e-15)
    # rho within 1e-12 of symmetric is stored exactly symmetrized
    near = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
    g = GramModel(rho=near)
    np.testing.assert_array_equal(g.rho, g.rho.T)
    np.testing.assert_array_equal(g.rho, 0.5 * (near + near.T))


def test_gram_model_rejects_indefinite():
    # correlation -1 has a zero eigenvalue, below the acceptance floor
    rho = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(FactorizationError):
        GramModel.from_correlation(rho)


def test_gram_model_factor_reproduces_rho():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    c = a @ a.T
    d = np.sqrt(np.diag(c))
    rho = c / np.outer(d, d)
    g = GramModel.from_correlation(rho, scale=1.7)
    np.testing.assert_allclose(g.factor @ g.factor.T, g.rho, atol=1e-10)
    assert g.L == 4
    with pytest.raises(ValueError):
        g.rho[0, 1] = 0.0


def _with_spectrum(vals, seed=3):
    """Symmetric matrix with the given eigenvalues in a random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(vals), len(vals))))
    c = (q * np.asarray(vals)) @ q.T
    return 0.5 * (c + c.T)


def test_rank_factor_is_cholesky_on_positive_definite_input():
    rng = np.random.default_rng(11)
    mats = [np.eye(6), _with_spectrum([1e-11, 0.5, 1.0, 2.0])]
    mats += [tpl.random_correlation(rng, L) for L in (2, 3, 8, 32)]
    p = rng.uniform(size=(5, 400))
    mats.append(p @ p.T)                    # a full soft run's sum p p^T
    for c in mats:
        np.testing.assert_array_equal(tpl.rank_factor(c),
                                      np.linalg.cholesky(c))


def test_rank_factor_both_sides_of_the_tolerance():
    # lambda_min = 1e-13 lambda_max counts as zero: an L x (L - 1) factor
    c = _with_spectrum([2e-13, 0.5, 1.0, 2.0])
    f = tpl.rank_factor(c)
    assert f.shape == (4, 3)
    assert np.max(np.abs(f @ f.T - c)) <= 1e-12
    # lambda_min = -1e-10 lambda_max is not rounding: refused
    with pytest.raises(FactorizationError):
        tpl.rank_factor(_with_spectrum([-2e-10, 0.5, 1.0, 2.0]))
    # the antipodal pair has rank 1, exactly
    f = tpl.rank_factor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert f.shape == (2, 1)
    np.testing.assert_allclose(f @ f.T, [[1.0, -1.0], [-1.0, 1.0]],
                               atol=1e-15)
    with pytest.raises(DomainError):
        tpl.rank_factor(np.full((2, 2), np.nan))


def test_gram_model_identity_fast_path():
    g = GramModel.from_correlation(np.eye(5))
    np.testing.assert_array_equal(g.factor, np.eye(5))


# --------------------------------------------------------------- circulant

def test_circulant_spectrum_matches_fft():
    seq = np.array([1.0, 0.3, 0.1, 0.1, 0.3])
    lam = tpl.circulant_spectrum(seq)
    np.testing.assert_allclose(lam, np.real(np.fft.fft(seq)), atol=1e-12)
    assert np.all(lam > 0)


def test_circulant_spectrum_rejects_bad_sequences():
    with pytest.raises(DomainError):
        tpl.circulant_spectrum([0.9, 0.1, 0.1])      # diagonal not 1
    with pytest.raises(DomainError):
        tpl.circulant_spectrum([1.0, 0.3, 0.2, 0.1])  # not symmetric
    with pytest.raises(DimensionError):
        tpl.circulant_spectrum([1.0])


def test_make_circulant_gram_is_circulant():
    seq = np.array([1.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4])
    ts = tpl.make_circulant(seq)
    corr = ts.correlation()
    L = seq.size
    for i in range(L):
        for j in range(L):
            assert corr[i, j] == pytest.approx(seq[(j - i) % L], abs=1e-10)
    assert ts.labels[0] == "c0" and ts.L == L


def test_make_circulant_embedding_and_errors():
    ts = tpl.make_circulant([1.0, 0.2, 0.2], d=7, norm=2.0)
    assert ts.d == 7
    np.testing.assert_allclose(np.linalg.norm(ts.matrix, axis=0), 2.0,
                               rtol=1e-12)
    np.testing.assert_allclose(ts.matrix[3:], 0.0, atol=1e-15)
    with pytest.raises(DimensionError):
        tpl.make_circulant([1.0, 0.2, 0.2], d=2)
    # spectrum 1 - 1.8 + 0.6 < 0 for [1, 0.9, 0.6, 0.9]
    with pytest.raises(SpectrumError):
        tpl.make_circulant([1.0, 0.9, 0.6, 0.9])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), L=st.integers(3, 9))
def test_circulant_round_trip_random_spectra(seed, L):
    """A symmetric positive spectrum maps to a sequence and back."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 2.0, size=L)
    lam[1:] = 0.5 * (lam[1:] + lam[1:][::-1])   # enforce lam[k] == lam[L-k]
    lam *= L / lam.sum()                        # seq[0] == mean(lam) == 1
    seq = np.real(np.fft.ifft(lam))
    np.testing.assert_allclose(tpl.circulant_spectrum(seq), lam, atol=1e-10)
    ts = tpl.make_circulant(seq)
    np.testing.assert_allclose(ts.correlation()[0], seq, atol=1e-9)


# ------------------------------------------------------------- exponential

def test_exponential_profile():
    v = tpl.make_exponential(300, 1.0 / 30.0)
    assert v.shape == (300,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(v) < 0)
    assert v[0] == pytest.approx(0.2539547501, abs=1e-9)


def test_exponential_flat_and_errors():
    v = tpl.make_exponential(16, 0.0, norm=4.0)
    np.testing.assert_allclose(v, 1.0, rtol=1e-12)
    for d in (1, 2.5):
        with pytest.raises(DimensionError):
            tpl.make_exponential(d, 0.1)
    with pytest.raises(DomainError):
        tpl.make_exponential(8, -0.5)
    with pytest.raises(DomainError):
        tpl.make_exponential(8, 0.5, norm=-1.0)


# ------------------------------------------------------------ haar family

def test_haar_family_preserves_norm_and_seed():
    x0 = tpl.make_exponential(40, 0.1, norm=3.0)
    ts = tpl.make_haar_family(x0, 5, seed=123)
    assert ts.L == 5 and ts.d == 40
    np.testing.assert_allclose(ts.matrix[:, 0], x0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(ts.matrix, axis=0), 3.0,
                               rtol=1e-10)
    again = tpl.make_haar_family(x0, 5, seed=123)
    np.testing.assert_array_equal(ts.matrix, again.matrix)
    other = tpl.make_haar_family(x0, 5, seed=124)
    assert np.max(np.abs(ts.matrix[:, 1] - other.matrix[:, 1])) > 1e-3


def test_haar_family_errors():
    with pytest.raises(DimensionError):
        tpl.make_haar_family(np.ones(1), 3, seed=0)
    for L in (1, 2.5):
        with pytest.raises(DimensionError):
            tpl.make_haar_family(np.ones(8), L, seed=0)
    with pytest.raises(DomainError):
        tpl.make_haar_family(np.zeros(8), 3, seed=0)
    with pytest.raises(DomainError):
        tpl.make_haar_family(np.ones(8), 3, seed=-1)


# ------------------------------------------------------------- CSV format

def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "set.csv"
    for ts in (tpl.make_haar_family(tpl.make_exponential(10, 0.2), 3, seed=9),
               # one label that is not a number keeps the header a header
               TemplateSet(matrix=np.eye(3)[:, :2], labels=("x1", "2"))):
        tpl.save_csv(ts, path)
        values, labels = tpl.read_csv(path)
        np.testing.assert_array_equal(values, ts.matrix)
        assert tuple(labels) == ts.labels
    # labels that all parse as numbers would read back as a data row
    numeric = TemplateSet(matrix=np.eye(3)[:, :2], labels=("1", "2"))
    with pytest.raises(ParseError, match="labels 1, 2"):
        tpl.save_csv(numeric, tmp_path / "numeric.csv")


def test_csv_refuses_labels_that_would_not_read_back(tmp_path):
    path = tmp_path / "set.csv"
    # read_csv splits the header at commas and lines at line breaks, and
    # strips every cell
    for bad in ("a,b", "x\ny", "x\ry", " x", "x ", "x\t"):
        ts = TemplateSet(matrix=np.eye(3)[:, :2], labels=(bad, "c"))
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
            tpl.save_csv(ts, path)
    assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(labels=st.tuples(st.text(max_size=6), st.text(max_size=6)))
def test_csv_accepted_labels_round_trip(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("labels") / "set.csv"
    ts = TemplateSet(matrix=np.eye(3)[:, :2], labels=labels)
    try:
        tpl.save_csv(ts, path)
    except ParseError:
        return
    assert tpl.load_csv(path).labels == labels


def test_csv_header_modes(tmp_path):
    ts = tpl.make_pair(0.25)
    headed = tmp_path / "headed.csv"
    bare = tmp_path / "bare.csv"
    tpl.save_csv(ts, headed)
    assert headed.read_text(encoding="utf-8").startswith("x0,x1\n")
    bare.write_text("1,0.25\n0,0.96824583655185426\n", encoding="utf-8")
    assert tpl.read_csv(headed)[1] == ["x0", "x1"]
    assert tpl.read_csv(bare)[1] is None
    assert tpl.load_csv(headed).labels == ("x0", "x1")
    assert tpl.load_csv(bare).labels == ("t0", "t1")
    np.testing.assert_array_equal(tpl.read_csv(bare)[0],
                                  tpl.read_csv(headed)[0])


def test_csv_rescale(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("3,0\n0,4\n", encoding="utf-8")
    # the stored columns have unequal norms, which load_csv rescales to 1
    np.testing.assert_array_equal(
        np.linalg.norm(tpl.read_csv(path)[0], axis=0), [3.0, 4.0])
    ts = tpl.load_csv(path)
    np.testing.assert_allclose(np.linalg.norm(ts.matrix, axis=0), 1.0,
                               rtol=1e-12)


def test_csv_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ParseError):
        tpl.load_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        tpl.load_csv(ragged)
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,0\n0,x\n", encoding="utf-8")
    with pytest.raises(ParseError):
        tpl.load_csv(alpha)
    headonly = tmp_path / "headonly.csv"
    headonly.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ParseError):
        tpl.load_csv(headonly)
    badcount = tmp_path / "badcount.csv"
    badcount.write_text("a,b,c\n1,0\n0,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        tpl.load_csv(badcount)


# ------------------------------------------------------------- PGM format

def _write_pgm(path, width, height, payload, magic=b"P5", maxval=255,
               comment=True):
    head = magic + b"\n"
    if comment:
        head += b"# a comment line\n"
    head += b"%d %d\n%d\n" % (width, height, maxval)
    path.write_bytes(head + payload)


def test_render_pgm_constant_maps_to_128(tmp_path):
    path = tmp_path / "flat.pgm"
    tpl.render_pgm(np.full(12, 3.7), 4, 3, str(path))
    v, w, h = tpl.load_pgm(path)
    assert (w, h) == (4, 3)
    np.testing.assert_array_equal(v, 128.0)


def test_render_pgm_affine_and_idempotent(tmp_path):
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(30)
    p1 = tmp_path / "one.pgm"
    p2 = tmp_path / "two.pgm"
    tpl.render_pgm(vec, 6, 5, str(p1))
    v1, _, _ = tpl.load_pgm(p1)
    assert v1.min() == 0.0 and v1.max() == 255.0
    # the rendered bytes are an affine image of the input
    assert np.corrcoef(vec, v1)[0, 1] > 0.999
    tpl.render_pgm(v1, 6, 5, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_render_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(DimensionError):
        tpl.render_pgm(np.ones(10), 4, 3, str(tmp_path / "x.pgm"))
    with pytest.raises(DomainError):
        tpl.render_pgm(np.array([1.0, np.nan, 0.0, 0.0]), 2, 2,
                       str(tmp_path / "x.pgm"))
    for width, height in ((0, 0), (-4, -4), (2.5, 4)):
        with pytest.raises(DimensionError):
            tpl.render_pgm(np.ones(16), width, height,
                           str(tmp_path / "x.pgm"))


def test_load_pgm_reads_p5(tmp_path):
    path = tmp_path / "img.pgm"
    payload = bytes(range(12))
    _write_pgm(path, 4, 3, payload)
    v, w, h = tpl.load_pgm(path)
    assert (w, h) == (4, 3)
    np.testing.assert_array_equal(v, np.arange(12, dtype=np.float64))


def test_load_pgm_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    _write_pgm(p, 2, 2, b"\x00" * 4, magic=b"P2")
    with pytest.raises(ParseError):
        tpl.load_pgm(p)
    _write_pgm(p, 2, 2, b"\x00" * 4, maxval=65535)
    with pytest.raises(ParseError):
        tpl.load_pgm(p)
    _write_pgm(p, 4, 4, b"\x00" * 7)      # truncated raster
    with pytest.raises(ParseError):
        tpl.load_pgm(p)
    for width, height in ((-4, -4), (0, 3)):  # sizes are at least 1
        _write_pgm(p, width, height, b"\x00" * 16)
        with pytest.raises(ParseError):
            tpl.load_pgm(p)
    p.write_bytes(b"P5\n4")
    with pytest.raises(ParseError):
        tpl.load_pgm(p)


def test_load_pgm_dir(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("a.pgm", "b.pgm", "c.pgm"):
        _write_pgm(tmp_path / name, 4, 3,
                   rng.integers(0, 256, size=12).astype(np.uint8).tobytes())
    ts, shape = tpl.load_pgm_dir(tmp_path)
    assert shape == (4, 3)
    assert ts.labels == ("a", "b", "c")
    np.testing.assert_allclose(np.linalg.norm(ts.matrix, axis=0), 1.0,
                               rtol=1e-12)
    # mean subtraction centers every column
    np.testing.assert_allclose(ts.matrix.sum(axis=0), 0.0, atol=1e-9)


def test_load_pgm_dir_errors(tmp_path):
    _write_pgm(tmp_path / "a.pgm", 4, 3, bytes(range(12)))
    with pytest.raises(ParseError):
        tpl.load_pgm_dir(tmp_path)          # needs at least two images
    _write_pgm(tmp_path / "b.pgm", 3, 4, bytes(range(12)))
    with pytest.raises(DimensionError):
        tpl.load_pgm_dir(tmp_path)          # size mismatch
    sub = tmp_path / "flat"
    sub.mkdir()
    _write_pgm(sub / "a.pgm", 2, 2, b"\x10" * 4)
    _write_pgm(sub / "b.pgm", 2, 2, bytes(range(4)))
    with pytest.raises(DegenerateTemplateSetError):
        tpl.load_pgm_dir(sub)               # constant image
