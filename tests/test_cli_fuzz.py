"""The command line under generated argv: every run ends in exit 0, 1 or 2, never a traceback."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from conetorsion.cli import main


def _pick(good, bad):
    """One of the well-formed values four times as often as one of the malformed ones."""
    return st.sampled_from(good * 4 + bad)


# spheres stay at n <= 5 and tori at n <= 3 so that a run is quick
BAD = ["abc", "", "1/0", "-1", "0", "2.5"]
SPHERE = st.tuples(st.just("sphere"), _pick(["1", "3", "5"], ["2", "-3"] + BAD),
                   _pick([None, "1", "2"], ["0", "x"]))
TORUS = st.tuples(st.just("torus"), _pick(["1", "3"], ["2"] + BAD),
                  _pick([None, "1", "2"], ["-1"]),
                  _pick([None, "1", "1/4", "1e-30", "1e100"], ["0", "-2", "1/0", "x"]))
OTHER = st.tuples(st.sampled_from(["klein", "", "sphere", "torus"]))
BASE = st.one_of(SPHERE, SPHERE, TORUS, TORUS, OTHER).map(
    lambda fields: ":".join(f for f in fields if f is not None))

EPS = st.lists(_pick(["1/2", "1/4", "2/3", "1/7", "0.5000001"],
                     ["0", "1", "-1/2", "3/2", "abc", "1/0", ""]),
               min_size=2, max_size=3).map(",".join)
PRECISION = _pick(["20", "31", "40"], ["19", "0", "-5", "abc", "1e3", ""])
CUTOFF = _pick(["1", "7/2", "20"], ["0", "-3", "abc", "1/0", "1e400", "nan"])

HEAD = _pick(["dim=3 rank=1\nbetti=1,0,0,1", "dim=1 rank=2\nbetti=2,2"],
             ["dim=3 rank=1\nbetti=2,2", "dim=3 rank=1\nbetti=-1,0,0,1",
              "dim=2 rank=1\nbetti=1,1,1", "dim=x rank=1\nbetti=1,1", "rank=1\nbetti=a",
              "dim=3 rank=1"])
DATA = st.tuples(_pick(["0", "1", "2"], ["-1", "9", "k"]),
                 _pick(["3", "8", "1/2", "15"], ["3/0", "-3", "0", "1e400", "1e-250", "x"]),
                 _pick(["1", "4", "9"], ["0", "-2", "y"])).map(",".join)
JUNK = st.sampled_from(["# comment", "1,2", "1,2,3,4", "garbage"])
LINE = st.one_of(DATA, DATA, DATA, DATA, JUNK)
SPECTRUM_FILE = st.tuples(HEAD, st.lists(LINE, max_size=5)).map(
    lambda parts: "\n".join([parts[0], *parts[1]]) + "\n")


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


SOURCE = st.one_of(BASE.map(lambda b: ["--base", b]), SPECTRUM_FILE.map(lambda t: ("file", t)))
TORSION = st.tuples(st.just(["torsion"]), SOURCE, _option("--precision", PRECISION),
                    _option("--eps", EPS), _option("--format", st.sampled_from(["json", "table"])))
SPECTRUM = st.tuples(st.just(["spectrum"]), SOURCE, CUTOFF.map(lambda c: ["--cutoff", c]))
# only the dm suite reads --rmax; the well-formed values stay small so that a run is quick
RMAX = _pick(["1", "9", "18"], ["0", "-4", "51", "99999999999999999999", "1e3", "abc", ""])
VERIFY = st.tuples(st.just(["verify"]), st.sampled_from([["--suite", "dm"], ["--suite", "scaling"]]),
                   _option("--rmax", RMAX))


def test_generated_argv_never_ends_in_a_traceback(tmp_path):
    spec = tmp_path / "fuzz.spec"

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.one_of(TORSION, SPECTRUM, VERIFY))
    def inner(parts):
        argv = []
        for part in parts:
            if isinstance(part, tuple):  # a spectrum-file text, written for this run
                spec.write_text(part[1])
                part = ["--spectrum-file", str(spec)]
            argv += part
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        assert code != 1 or err.getvalue().startswith("error: "), (argv, err.getvalue())

    inner()
