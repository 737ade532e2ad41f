"""Fuzz test of the CLI exit-code contract over malformed inputs.

Each example damages one input of a tiny run (the config, a checkpoint, the
data CSV or its sidecar) and calls ``cli.main`` in-process.  Whatever the
damage, the exit code is 0, 1 or 2, and a failure prints exactly one line
on stderr, with no traceback, and an input error from a damaged CSV or
sidecar names that file.  Damage is random bytes, a truncated or
byte-flipped valid document, deep nesting, one JSON value replaced by a
number too large, non-finite, integral-but-float, or of the wrong type, or
one JSON list replaced by two copies of itself, the shape a seed stack
gives a per-seed field such as an LU permutation.
Numbers stay out of the range where a valid size would make a run long.
Sweep examples grid over a key that is a dotted path through a base config
plus one more segment, which may pass through a number, a string or a list.
Sweep children drawn over the keys that size a run (a drop order, the model's
levels, the data's dimension) fail the sweep where ``train`` fails on them.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestedflow.cli import main

CONFIG = {
    "dataset": {"generator": "synthetic-gaussian", "n_train": 24, "n_test": 8},
    "model": {"kind": "qr-linear", "offset": True},
    "train": {"iterations": 2, "batch_size": 4, "lr_initial": 0.01},
    "nd": {"lambda": 1.0, "p": 0.5, "order": [2, 0, 1]},
    "eval": {"orders": ["identity", "random", [1, 0, 2]]},
    "seed": 0,
}
LU = dict(CONFIG, model={"kind": "lu-linear", "offset": True})
COUPLING = {
    "dataset": {"generator": "toy-hierarchical", "dim": 4, "n": 30},
    "model": {"kind": "coupling-multiscale", "levels": 2,
              "couplings_per_level": 1, "hidden_width": 3},
    "train": {"iterations": 1, "batch_size": 4, "lr_initial": 0.01},
    "eval": {"orders": ["depth-reversed", "reversed"]},
}

# Text spliced in place of one JSON value or CSV cell: numbers too large
# for int64 or for a float, too long to parse, non-finite, integral floats,
# and (JSON only) values of the wrong type.
NUMBERS = ["1e400", "-1e400", "NaN", "Infinity", "-Infinity", str(2 ** 64),
           str(-2 ** 63 - 1), "9" * 5000, "1.7976931348623157e308",
           "-1.7976931348623157e308", "5e-324", "2.0", "-1", "0"]
ODD_VALUES = NUMBERS + ["true", "null", '"x"', "[]", "{}", "[[[0]]]",
                        "[" * 990 + "]" * 990]
DEPTHS = [2, 500, 990, 5_000, 100_000]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A trained run's config, checkpoint, dataset CSV and sidecar, for the
    3-D QR and LU configs and the 4-D multi-scale config."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, cfg in (("linear", CONFIG), ("lu", LU), ("coupling", COUPLING)):
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg))
        run = root / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(path), "--output", str(run)]) == 0
        files[name] = {"config": path.read_bytes(),
                       "checkpoint": (run / "checkpoint.json").read_bytes(),
                       "csv": (run / "dataset.csv").read_bytes(),
                       "sidecar": (run / "dataset.csv.meta.json").read_bytes()}
    return files


def json_paths(doc, path=()):
    """Every path to a value in a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def value_at(doc, path):
    """The value at ``path`` in a JSON document."""
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` after one kind of damage."""
    kind = draw(st.sampled_from(["bytes", "truncate", "flip", "nest", "value", "stack"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    if kind == "nest":
        return b"[" * draw(st.sampled_from(DEPTHS))
    try:
        doc = json.loads(raw)
    except ValueError:  # a CSV: replace one cell
        lines = raw.split(b"\n")
        row = draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = \
            draw(st.sampled_from(NUMBERS)).encode()
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    lists = [path for path in json_paths(doc) if isinstance(value_at(doc, path), list)]
    if kind == "stack" and lists:
        path = draw(st.sampled_from(lists))
        stacked = [value_at(doc, path)] * 2
        if not path:
            return json.dumps(stacked).encode()
        value_at(doc, path[:-1])[path[-1]] = stacked
        return json.dumps(doc).encode()
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return draw(st.sampled_from(ODD_VALUES)).encode()
    value_at(doc, path[:-1])[path[-1]] = "\0fuzz\0"
    return json.dumps(doc).replace('"\\u0000fuzz\\u0000"', draw(
        st.sampled_from(ODD_VALUES))).encode()


# (damaged input, the command run on it)
COMMANDS = {
    "config": [["generate"], ["train"], ["eval"], ["eval", "--checkpoint"]],
    "checkpoint": [["eval", "--checkpoint"]],
    "csv": [["train"], ["eval"]],
    "sidecar": [["train"], ["eval", "--checkpoint"]],
}


@st.composite
def cases(draw, files):
    model = draw(st.sampled_from(sorted(files)))
    target = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[target]))
    return model, target, command, draw(damaged(files[model][target]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_contract_under_damaged_inputs(valid_files, data):
    model, target, command, damage = data.draw(cases(valid_files))
    inputs = dict(valid_files[model], **{target: damage})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dataset.csv").write_bytes(inputs["csv"])
        (tmp / "dataset.csv.meta.json").write_bytes(inputs["sidecar"])
        (tmp / "checkpoint.json").write_bytes(inputs["checkpoint"])
        config = inputs["config"]
        if target in ("csv", "sidecar"):
            doc = json.loads(config)
            doc["dataset"] = {"path": str(tmp / "dataset.csv")}
            config = json.dumps(doc).encode()
        (tmp / "config.json").write_bytes(config)
        argv = [command[0], "--config", str(tmp / "config.json"),
                "--output", str(tmp / "out")]
        if "--checkpoint" in command:
            argv += ["--checkpoint", str(tmp / "checkpoint.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), text[:500]
        assert "Traceback" not in text
    if code == 1 and target in ("csv", "sidecar"):
        # a damaged CSV may also show in its sidecar's splits, as when rows are cut
        named = {"csv": "dataset.csv", "sidecar": "dataset.csv.meta.json"}[target]
        assert str(tmp / named) in text, text[:500]


def grid_keys(doc):
    """Dotted paths through the objects of a config, the root included."""
    return [".".join(path) for path in json_paths(doc)
            if all(isinstance(key, str) for key in path)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=st.sampled_from([CONFIG, COUPLING]), data=st.data())
def test_sweep_exit_contract_under_grid_keys_through_the_base(base, data):
    path = data.draw(st.sampled_from(grid_keys(base)))
    extra = data.draw(st.sampled_from(["x", "0", "lambda", "p", "dim", ""]))
    key = f"{path}.{extra}" if path else extra
    sweep = json.dumps({"base": base, "grid": {key: ["\0fuzz\0"]}, "seeds": [0]})
    sweep = sweep.replace('"\\u0000fuzz\\u0000"', data.draw(st.sampled_from(ODD_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sweep.json").write_text(sweep)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["sweep", "--config", str(tmp / "sweep.json"),
                         "--output", str(tmp / "out")])
    assert code in (0, 1, 2)
    if code:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), text[:500]
        assert "Traceback" not in text


ORDER_NAMES = ["identity", "reversed", "random", "depth-reversed", "depth-forward"]
# permutations for the 3-D and the 4-D base, and lists of length 1-5
INDEX_LISTS = st.one_of(st.permutations(range(3)), st.permutations(range(4)),
                        st.lists(st.integers(0, 4), min_size=1, max_size=5))
# The grid values of the base configs' keys that size a run.
SIZING_VALUES = {
    "nd.order": INDEX_LISTS,
    "eval.orders": st.lists(st.one_of(st.sampled_from(ORDER_NAMES), INDEX_LISTS),
                            min_size=1, max_size=2),
    "model.levels": st.integers(1, 4),
    "model.couplings_per_level": st.integers(1, 3),
    "dataset.dim": st.sampled_from([4, 6, 8]),
}
VALUE_ERRORS = {"ValueError", "ConfigError", "CheckpointError", "DatasetFormatError"}


@st.composite
def sweep_children(draw):
    """A base config, one of its keys that size a run, and a grid value."""
    base = draw(st.sampled_from([CONFIG, COUPLING]))
    key = draw(st.sampled_from([k for k in SIZING_VALUES if k in grid_keys(base)]))
    return base, key, draw(SIZING_VALUES[key])


def run_cli(argv):
    """``cli.main`` on ``argv``: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(child=sweep_children())
@example(child=(CONFIG, "nd.order", [0, 1]))  # an order of the wrong length
@example(child=(COUPLING, "model.levels", 3))  # more levels than 4 variables support
def test_a_sweep_child_fails_where_train_fails(child):
    """A child that ``train`` rejects fails the sweep before its directory
    exists, with ``train``'s message; any other child's row fails, if at
    all, only numerically.  Two seeds per child, so that at two threads the
    children run in a process pool."""
    base, key, value = child
    cfg = json.loads(json.dumps(base))
    *heads, last = key.split(".")
    value_at(cfg, heads)[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "child.json").write_text(json.dumps(cfg))
        (tmp / "sweep.json").write_text(
            json.dumps({"base": base, "grid": {key: [value]}, "seeds": [0, 1]}))
        train_code, train_err = run_cli(["train", "--config", str(tmp / "child.json"),
                                         "--output", str(tmp / "train")])
        code, err = run_cli(["sweep", "--config", str(tmp / "sweep.json"),
                             "--output", str(tmp / "sweep")])
        if train_code == 1:
            assert code == 1 and err.count("\n") == 1, err[:500]
            assert err.startswith("error: sweep child ") and \
                err.endswith(f" seed 0: {train_err.removeprefix('error: ')}"), (err, train_err)
            assert not (tmp / "sweep").exists()
            return
        assert code == 0, err[:500]
        with open(tmp / "sweep" / "aggregate.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok" or row["error"].split(":")[0] not in VALUE_ERRORS, row
