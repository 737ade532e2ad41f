import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nestedflow.datasets import (
    _BLOCK_VALUES,
    Dataset,
    DatasetFormatError,
    gen_synthetic_gaussian,
    gen_toy_hierarchical,
    load_dataset,
    save_dataset,
    spec_dim,
    write_csv,
)
from nestedflow.linalg import random_rotation
from nestedflow.pca import pca_fit, pca_mse


def test_synthetic_gaussian_shape_and_splits():
    ds = gen_synthetic_gaussian(100, 40, seed=0)
    assert ds.points.shape == (140, 3)
    assert ds.split == {"train": (0, 100), "test": (100, 140)}
    assert ds.get_split("train").shape == (100, 3)
    assert ds.get_split("test").shape == (40, 3)
    assert not ds.has_split("val")


def test_synthetic_gaussian_moments():
    ds = gen_synthetic_gaussian(60_000, 1, seed=1)
    x = ds.get_split("train")
    assert np.max(np.abs(x.mean(axis=0))) < 0.02
    cov = np.cov(x.T)
    eigenvalues = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert_allclose(eigenvalues, [1.0, 0.1, 0.01], rtol=0.05)
    # log det of the target covariance is log(0.001)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign == 1.0
    assert logdet == pytest.approx(np.log(0.001), abs=0.1)


def test_synthetic_gaussian_is_rotated():
    # covariance should not be diagonal: the generator mixes coordinates
    ds = gen_synthetic_gaussian(50_000, 1, seed=2)
    cov = np.cov(ds.get_split("train").T)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) > 0.01


def test_synthetic_gaussian_determinism():
    a = gen_synthetic_gaussian(50, 10, seed=3)
    b = gen_synthetic_gaussian(50, 10, seed=3)
    c = gen_synthetic_gaussian(50, 10, seed=4)
    assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.provenance == b.provenance


def test_toy_hierarchical_spectrum():
    ds = gen_toy_hierarchical(8, 60_000, seed=0)
    m = pca_fit(ds.get_split("train"))
    ratios = m.eigenvalues[1:] / m.eigenvalues[:-1]
    assert_allclose(ratios, 0.6, rtol=0.2)


def test_toy_hierarchical_split_fractions():
    ds = gen_toy_hierarchical(4, 1000, seed=1)
    assert ds.split == {"train": (0, 800), "test": (800, 1000)}


def test_toy_hierarchical_pca_curve_decreases():
    ds = gen_toy_hierarchical(8, 4000, seed=2)
    m = pca_fit(ds.get_split("train"))
    x = ds.get_split("test")
    curve = [pca_mse(m, x, k) for k in range(1, 9)]
    assert all(a > b for a, b in zip(curve, curve[1:]))


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_synthetic_gaussian(0, 10, seed=0)
    with pytest.raises(ValueError):
        gen_toy_hierarchical(6, 100, seed=0)
    with pytest.raises(ValueError):
        gen_toy_hierarchical(68, 100, seed=0)
    with pytest.raises(ValueError):
        gen_toy_hierarchical(8, 4, seed=0)


def test_save_load_round_trip(tmp_path):
    ds = gen_synthetic_gaussian(30, 10, seed=5)
    path = tmp_path / "points.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert_array_equal(loaded.points, ds.points)
    assert loaded.split == ds.split
    assert loaded.provenance["generator"] == "synthetic-gaussian"
    assert loaded.provenance["seed"] == 5


def test_sidecar_preserves_rotation(tmp_path):
    ds = gen_synthetic_gaussian(10, 5, seed=6)
    path = tmp_path / "points.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    rotation = np.array(loaded.provenance["parameters"]["rotation"])
    assert_array_equal(rotation,
                       np.array(ds.provenance["parameters"]["rotation"]))


def test_missing_sidecar_warns_and_defaults(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.warns(UserWarning, match="sidecar"):
        ds = load_dataset(path)
    assert ds.split == {"train": (0, 2)}
    assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1.0,2.0\n\xff3.0,4.0\n")
    with pytest.raises(DatasetFormatError, match="latin.csv: line 2 is not UTF-8"):
        load_dataset(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(points=np.ones(3))
    with pytest.raises(ValueError):
        Dataset(points=np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(points=np.ones((4, 2)), split={"holdout": (0, 4)})
    with pytest.raises(ValueError):
        Dataset(points=np.ones((4, 2)), split={"train": (0, 5)})
    with pytest.raises(ValueError):
        Dataset(points=np.ones((4, 2)),
                split={"train": (0, 3), "test": (2, 4)})


def test_round_trip_is_bit_exact_through_text(tmp_path):
    # 17 significant digits reproduce any double exactly
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-8, 8, (20, 3))
    ds = Dataset(points=pts, split={"train": (0, 20)})
    path = tmp_path / "precise.csv"
    save_dataset(ds, path)
    assert_array_equal(load_dataset(path).points, pts)


@pytest.mark.parametrize("dim", [1, 16])
def test_csv_bytes_match_per_value_format(tmp_path, dim):
    """The CSV holds each value as format(v, ".17g"), comma-joined per row,
    for signed zeros, subnormals, the extremes and exponents -300..300."""
    rng = np.random.default_rng(dim)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16,
               1e17, 1.0, -2.5]
    spread = rng.standard_normal(40 * dim) * 10.0 ** rng.integers(-300, 301, 40 * dim)
    values = np.concatenate([np.resize(special, 12 * dim), spread])
    points = values.reshape(-1, dim)
    path = tmp_path / "points.csv"
    save_dataset(Dataset(points=points), path)
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in points)
    assert path.read_bytes() == want.encode()


def per_value_bytes(table) -> bytes:
    """The reference text: each value as format(v, ".17g"), one loop per value."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table).encode()


def written_bytes(path, values, dim) -> tuple[bytes, bytes]:
    """The writer's bytes and the reference's for ``values``, repeated to
    at least 256, the fewest the array encoder takes."""
    values = np.asarray(values, dtype=np.float64)
    table = np.resize(values, dim * max(-(-256 // dim), -(-values.size // dim))).reshape(-1, dim)
    write_csv(path, table)
    return path.read_bytes(), per_value_bytes(table)


# significands of 52-53 bits scaled into 2**-31 .. 2**46: inside the exact range
EXACT_RANGE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.integers(2**52, 2**53 - 1) | st.integers(-(2**53) + 1, -(2**52)),
              st.integers(-83, -7)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([1, 3, 16]),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=48)
       | st.lists(EXACT_RANGE, min_size=1, max_size=48))
def test_writer_bytes_match_per_value_format(tmp_path, dim, values):
    got, want = written_bytes(tmp_path / "t.csv", values, dim)
    assert got == want


def test_writer_rounds_dyadic_ties_half_to_even(tmp_path):
    """n / 2**18 in [0.1, 1) has 18 significant digits: odd n end in a 5, a
    tie at the 18th digit that rounds to the even 17th."""
    got, want = written_bytes(tmp_path / "t.csv", np.arange(26215, 2**18) / 2**18, 1)
    assert got == want


@pytest.mark.parametrize("j", range(-12, 17))
def test_writer_matches_next_to_powers_of_ten(tmp_path, j):
    """Near 10**j, log10 may put the decimal exponent one off; the nearest
    doubles below 10**n for -10 <= n <= 14 are the closest the exact range
    comes to rounding up to a power of ten at 17 digits."""
    below, above = [float(f"1e{j}")], [float(f"1e{j}")]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    values = below + above[1:]
    values += [-v for v in values] + [0.0, -0.0]
    got, want = written_bytes(tmp_path / "t.csv", values, 1)
    assert got == want


def spread_values(n, seed):
    """Signed values from 5e-7 to 500: all inside the exact range."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 5.0, n) * 10.0 ** rng.integers(-6, 3, n)


@pytest.mark.parametrize("dim", [1, 3, 16])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_writer_matches_around_a_block(tmp_path, dim, extra_rows):
    rows = _BLOCK_VALUES // dim + extra_rows
    got, want = written_bytes(tmp_path / "t.csv", spread_values(rows * dim, dim), dim)
    assert got == want


@pytest.mark.parametrize("odd", [5e-324, -2.5e-310, 1e300, 1e-12, 1e14])
def test_one_value_outside_the_exact_range_moves_its_block_alone(tmp_path, odd):
    """Three blocks: the middle one holds the odd value and goes through %."""
    values = spread_values(3 * _BLOCK_VALUES, 3)
    values[_BLOCK_VALUES + 17] = odd
    got, want = written_bytes(tmp_path / "t.csv", values, 16)
    assert got == want


def test_writer_raises_no_numpy_warning(tmp_path):
    """save_dataset runs outside the CLI's np.errstate."""
    values = np.concatenate([[0.0, -0.0], spread_values(_BLOCK_VALUES, 4),
                             [5e-324, 1e300, -1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_dataset(Dataset(points=values.reshape(-1, 1)), tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == per_value_bytes(values.reshape(-1, 1))


def reference_load_points(path):
    """The loader's per-line loop as it was before it named non-finite cells:
    the points and each row's line number, or the error it raised; the
    finite check is the one ``Dataset`` made."""
    rows, linenos = [], []
    width = None
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DatasetFormatError(
                    f"{path}: line {lineno} is not UTF-8 ({e.reason})") from None
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno} has {len(cells)} columns, expected {width}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric cell at line {lineno}") from None
            linenos.append(lineno)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.array(rows), linenos


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.one_of(
    FINITE.map(lambda v: "%.17g" % v), FINITE.map(repr),
    st.sampled_from([" 2 ", "1_0", "Infinity", "-inf", "nan", "1e400", "١٢", "-0", "+.5",
                     "\t3\x0c", "", "oops", "1__0", "0x10", "1 2", " ", "7 8"]))
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", " \n", " \n"])
BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])


@st.composite
def csv_bytes(draw):
    """CSV bytes that are mostly one width of numbers, with blank and padded
    lines, other line endings, and now and then a ragged row, a bad cell or
    bytes that are not UTF-8."""
    width = draw(st.integers(1, 4))
    out = b""
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged", "utf8"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\r", "\x0c"]))
        else:
            n = width if kind != "ragged" else draw(st.integers(1, 5))
            cells = draw(st.lists(CELLS, min_size=n, max_size=n))
            line = draw(st.sampled_from(["", " "])) + ",".join(cells)
        raw = (line + draw(LINE_ENDS)).encode()
        if kind == "utf8":
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw(BAD_UTF8) + raw[at:]
        out += raw
    return out[:-1] if draw(st.booleans()) else out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_bytes())
def test_loader_matches_the_per_line_reference(tmp_path, raw):
    """Same points bit for bit, or the same error text; a non-finite cell,
    which ``Dataset`` rejected without a file or line, names both."""
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    try:
        want, linenos = reference_load_points(path)
    except DatasetFormatError as e:
        with pytest.raises(DatasetFormatError) as got:
            load_dataset(path)
        assert str(got.value) == str(e)
        return
    finite = np.isfinite(want).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no sidecar
        if not finite.all():
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(path)
            line = linenos[np.argmin(finite)]
            assert str(got.value) == f"{path}: non-finite cell at line {line}"
            return
        got = load_dataset(path).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_synthetic_gaussian(n_train, n_test, seed):
    """gen_synthetic_gaussian before the generators shared one core."""
    eigenvalues = np.array([1.0, 0.1, 0.01])
    rng = np.random.default_rng(seed)
    rotation = random_rotation(3, rng)
    n = n_train + n_test
    points = (rng.standard_normal((n, 3)) * np.sqrt(eigenvalues)) @ rotation.T
    return Dataset(
        points=points,
        split={"train": (0, n_train), "test": (n_train, n)},
        provenance={
            "generator": "synthetic-gaussian",
            "seed": int(seed),
            "parameters": {
                "n_train": n_train,
                "n_test": n_test,
                "eigenvalues": eigenvalues.tolist(),
                "rotation": rotation.tolist(),
            },
        },
    )


def reference_toy_hierarchical(dim, n, seed):
    """gen_toy_hierarchical before the generators shared one core."""
    eigenvalues = 0.6 ** np.arange(dim)
    rng = np.random.default_rng(seed)
    rotation = random_rotation(dim, rng)
    points = (rng.standard_normal((n, dim)) * np.sqrt(eigenvalues)) @ rotation.T
    n_train = (4 * n) // 5
    return Dataset(
        points=points,
        split={"train": (0, n_train), "test": (n_train, n)},
        provenance={
            "generator": "toy-hierarchical",
            "seed": int(seed),
            "parameters": {
                "dim": dim,
                "n": n,
                "spectrum_ratio": 0.6,
                "rotation": rotation.tolist(),
            },
        },
    )


def saved_bytes(d, path):
    save_dataset(d, path)
    return path.read_bytes(), path.with_name(path.name + ".meta.json").read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("generator, reference, sizes", [
    (gen_synthetic_gaussian, reference_synthetic_gaussian, [(1, 1), (7, 3), (400, 90), (10_000, 10_000)]),
    (gen_toy_hierarchical, reference_toy_hierarchical, [(4, 5), (8, 101), (16, 5_000), (64, 300)]),
], ids=["synthetic-gaussian", "toy-hierarchical"])
def test_generators_write_the_reference_bytes(tmp_path, generator, reference, sizes, seed):
    for size in sizes:
        data = generator(*size, seed)
        assert saved_bytes(data, tmp_path / "new.csv") == \
            saved_bytes(reference(*size, seed), tmp_path / "ref.csv"), size
        # the dimension a config spec gives, known before the data is made
        spec = {"generator": data.provenance["generator"], **data.provenance["parameters"]}
        assert spec_dim(spec) == data.dim, size
