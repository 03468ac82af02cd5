"""Property tests: bad files and flag values end in an exit code and one message.

`cli.main` runs on tiny inputs (at most 8 samples, iterations and hidden
neurons, grids of at most 4096 points) with mutated or random-byte CSV,
memory and config files and with random flag values.  Each run must return
0, 1 or 2, or stop in argparse with `SystemExit(2)`.  A nonzero return
writes exactly one stderr line, the `error:` line, and never a traceback.
No run may raise a RuntimeWarning: a numpy warning means a value overflowed
or went NaN and the run went on with it.
"""
import contextlib
import io
import os
import tempfile
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnnae import cli, mlp, pqm

GOOD_CSV = ("f1,f2,label\n" + "".join(
    f"{i % 2}.{i},{i // 2 % 2}.5,{'ab'[i % 2 ^ i // 2 % 2]}\n" for i in range(24)
)).encode()
GOOD_MEMORY = b"0110\n1010\n# comment\n\n0001\n"
GOOD_CONFIG = b"alpha=0.001\nlearning_rate=0.5\nactivation=tanh\ntrain_fraction=0.3\nseed=2\n"

BAD = st.sampled_from(["nan", "inf", "-inf", "-0", "1e-320", "0.5", "abc", ""])
# ints small enough that any count flag keeps the run tiny
INTS = st.one_of(st.integers(1, 4).map(str), st.integers(-3, 8).map(str), BAD)
FLOATS = st.one_of(st.floats(0.05, 0.95).map(repr), st.floats().map(repr), BAD)
SEEDS = st.one_of(INTS, st.integers(-2**70, 2**70).map(str))


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(i + 3, len(data))))
        data[i:j] = draw(st.binary(max_size=3))
    return bytes(data)


def file_bytes(base: bytes):
    return st.one_of(st.just(base), mutated(base), st.binary(max_size=40))


@st.composite
def flags(draw, options):
    """Each option either absent (most often) or `--name=value` with a drawn value."""
    argv = []
    for name, values in options:
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--{name}={draw(values)}")
    return argv


@st.composite
def cases(draw):
    command = draw(st.sampled_from(["evaluate", "exhaustive", "sweep", "pqm"]))
    oom = draw(st.integers(0, 9)) == 0
    if command == "pqm":
        files = {"memory.txt": draw(file_bytes(GOOD_MEMORY))}
        bits = draw(st.one_of(st.just("0110"), st.text("01x", max_size=6)))
        argv = ["pqm", "memory.txt", bits] + draw(flags([
            ("shots", st.one_of(INTS, st.integers(1, 50).map(str))), ("seed", SEEDS),
        ]))
        if draw(st.booleans()):
            argv.append("--circuit")
        return {"argv": argv, "files": files, "oom": oom}
    csv_name = draw(st.sampled_from(["data.csv", "a&<b>.csv"]))
    files = {csv_name: draw(file_bytes(GOOD_CSV))}
    shared = [("seed", SEEDS), ("train-fraction", FLOATS), ("max-iter", INTS),
              ("alpha", FLOATS), ("learning-rate", FLOATS), ("tolerance", FLOATS),
              ("threads", INTS)]
    argv = [command, csv_name]
    if command == "sweep":
        valid_range = st.integers(1, 4).map(lambda lo: (str(lo), str(lo + 2)))
        argv += ["--hidden-range", *draw(st.one_of(valid_range, st.tuples(INTS, INTS)))]
        argv += draw(flags(shared + [("samples", INTS)]))
        argv += ["--plot", "plot.svg"] if draw(st.booleans()) else []
    elif command == "evaluate":
        argv += draw(flags(shared + [("samples", INTS), ("hidden", INTS),
                                     ("activation", st.sampled_from(["relu", "softplus"]))]))
    else:
        argv = ["evaluate", csv_name, "--exhaustive", f"--budget={draw(st.integers(-3, 4096))}"]
        argv += draw(flags(shared + [("hidden", INTS),
                                     ("levels", st.lists(FLOATS, min_size=1, max_size=4)
                                      .map(",".join))]))
        argv += ["--train-grid"] if draw(st.booleans()) else []
    if not any(a.startswith(("--max-iter", "--samples")) for a in argv):
        argv += ["--max-iter=1"] + (["--samples=1"] if command != "exhaustive" else [])
    if not any(a.startswith("--hidden") for a in argv):
        argv += ["--hidden=1"]
    if draw(st.booleans()):
        files["run.cfg"] = draw(file_bytes(GOOD_CONFIG))
        argv += ["--config", "run.cfg"]
    return {"argv": argv, "files": files, "oom": oom}


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 21.8 TiB")


def csv_case(argv, data=GOOD_CSV, name="data.csv"):
    return {"argv": [argv[0], name, *argv[1:], "--max-iter=1"], "files": {name: data},
            "oom": False}


@settings(max_examples=400, deadline=None)
@given(cases())
# the bugs found so far, one run each
@example(csv_case(["sweep", "--hidden-range", "1", "3", "--samples=2", "--plot", "plot.svg"],
                  name="a&<b>.csv"))
@example({**csv_case(["sweep", "--hidden-range", "1", "2", "--samples=1",
                      "--config", "run.cfg"]),
          "files": {"data.csv": GOOD_CSV, "run.cfg": b"seed=1\nactivation=softplus\n"}})
@example(csv_case(["sweep", "--hidden-range", "3", "3", "--samples=1"]))
@example(csv_case(["evaluate", "--hidden=1", "--samples=1", "--tolerance=nan"]))
@example(csv_case(["evaluate", "--hidden=1", "--samples=1", "--train-fraction=nan"]))
@example(csv_case(["evaluate", "--hidden=1", "--exhaustive", "--levels=-1,nan"]))
@example(csv_case(["sweep", "--hidden-range", "1", "2", "--samples=1", "--seed=-1"]))
@example({"argv": ["pqm", "memory.txt", "0110", "--seed=-1", "--shots=3"],
          "files": {"memory.txt": GOOD_MEMORY}, "oom": False})
@example(csv_case(["evaluate", "--hidden=1", "--samples=1"], data=b"label\na\nb\n"))
@example(csv_case(["evaluate", "--hidden=1", "--samples=1"], data=GOOD_CSV + b"\xff,1,a\n"))
@example({"argv": ["pqm", "memory.txt", "0110"], "files": {"memory.txt": b"0110\n\xe9\n"},
          "oom": False})
@example({**csv_case(["evaluate", "--hidden=1", "--samples=1"]), "oom": True})
@example(csv_case(["evaluate", "--hidden=1", "--exhaustive", "--levels=1e308,-1e308"]))
@example(csv_case(["evaluate", "--hidden=2", "--exhaustive", "--levels=1e308,-1e308",
                   "--activation=relu"]))
@example(csv_case(["evaluate", "--hidden=2", "--samples=3", "--alpha=1e300"]))
# a field over the csv module's size limit, and a NUL character, which
# Python 3.10's csv reader refuses
@example(csv_case(["evaluate", "--hidden=1", "--samples=1"],
                  data=GOOD_CSV + b"1,2," + b"a" * 200_000 + b"\n"))
@example(csv_case(["evaluate", "--hidden=1", "--samples=1"], data=GOOD_CSV + b"1,2\x00,a\n"))
def test_bad_input_ends_in_an_exit_code_and_one_error_line(case):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in case["files"].items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        # file names in argv name files of the run's own directory
        argv = [os.path.join(tmp, a) if a in case["files"] or a == "plot.svg" else a
                for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if case["oom"]:
                stack.enter_context(mock.patch.object(mlp, "classify", out_of_memory))
                stack.enter_context(mock.patch.object(pqm, "retrieve_analytic", out_of_memory))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2  # argparse rejected the command line
                return
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:")
        if case["oom"]:
            assert code != 0  # every successful run classifies or retrieves
        plot = os.path.join(tmp, "plot.svg")
        if code == 0 and os.path.exists(plot):
            ET.parse(plot)  # the dataset name in the title is escaped
