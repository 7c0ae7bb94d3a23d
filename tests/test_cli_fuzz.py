"""Fuzz the command line: drawn subcommands, flag values and small malformed files.

Whatever the arguments, ``main`` must end in exit status 0, 1 or 2 with no
exception escaping it (a traceback), and under ``-q`` a failure (status 1)
must print exactly one ``error:`` line on stderr, warnings included.
"""

import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stemts.cli import main

SPEC_YAML = """\
classes:
  - label: a
    motif:
      - [[up, 2], [down, 2]]
  - label: b
    motif:
      - [[up, 3], [down, 3]]
samples_per_class: 3
length: 8
noise_amplitude: 0.2
seed: 3
"""

NUMBERS = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1.5", "1e308",
    str(2**64), str(-(2**64)), "abc", "",
]
CHOICES = {"--metric": ["euclidean", "cosine", "knn", ""], "--classifier": ["knn", "centroid", "x"]}
SWITCHES = ["--pad", "--no-pad", "--baseline", "--resubstitution", "--no-stratified"]
FLAGS = {
    "synth": [],
    "convert": ["--delta"],
    "mine": ["--min-support", "--max-len", "--gain-gamma"],
    "eval": [
        "--delta", "--min-support", "--max-len", "--gain-gamma", "--k", "--metric",
        "--classifier", "--train-frac", "--seed",
    ],
    "explain": ["--code", "--dims"],
}
# the input each command reads, by name in the valid-files fixture
INPUT = {"synth": "spec", "convert": "data", "eval": "data", "mine": "events", "explain": "features"}
# no digits in a spec: an inserted run of them would ask synth for a huge dataset
NOISE = {
    "text": st.text(st.sampled_from(list(',\n"#-.019ae :[]{}\xe9\t')), max_size=12),
    "spec": st.text(st.sampled_from(list(',\n"#-.ae :[]{}\xe9\t')), max_size=12),
}
# spec keys whose value a draw from NUMBERS may replace; a drawn samples_per_class
# or length could ask for a huge dataset
SPEC_NUMBERS = ["seed", "noise_amplitude", "step_size"]


class _Texts(dict):
    def __repr__(self):  # keeps hypothesis' falsifying examples short
        return "<valid file texts>"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Texts of one valid file of each kind, made by the CLI itself."""
    base = tmp_path_factory.mktemp("valid")
    (base / "spec.yaml").write_text(SPEC_YAML)
    quiet = contextlib.redirect_stderr(io.StringIO())
    with quiet, contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(base / "spec.yaml"), "--out", str(base / "d.csv")]) == 0
        assert main(["convert", "--in", str(base / "d.csv"), "--out", str(base / "e.csv")]) == 0
        argv = ["mine", "--in", str(base / "e.csv"), "--min-support", "2", "--out"]
        assert main(argv + [str(base / "f.json")]) == 0
    return _Texts({
        "spec": (base / "spec.yaml").read_text(),
        "data": (base / "d.csv").read_text(),
        "events": (base / "e.csv").read_text(),
        "meta": (base / "e.csv.meta.json").read_text(),
        "features": (base / "f.json").read_text(),
    })


@st.composite
def file_text(draw, text, noise):
    """The valid text, or one small edit of it: a cut, a deletion or an insertion."""
    edit = draw(st.sampled_from(["keep", "keep", "cut", "delete", "insert", "noise"]))
    i = draw(st.integers(0, len(text)))
    if edit == "cut":
        return text[:i]
    if edit == "delete":
        return text[:i] + text[i + draw(st.integers(1, 20)):]
    if edit == "insert":
        return text[:i] + draw(noise) + text[i:]
    if edit == "noise":
        return draw(noise)
    return text


@st.composite
def spec_text(draw, text):
    """The valid spec with some SPEC_NUMBERS values drawn from NUMBERS, kept or edited once."""
    for key in SPEC_NUMBERS:
        if draw(st.booleans()):
            lines = [line for line in text.splitlines() if not line.startswith(f"{key}:")]
            text = "\n".join([*lines, f"{key}: {draw(st.sampled_from(NUMBERS))}"]) + "\n"
    return draw(file_text(text, NOISE["spec"]))


@st.composite
def runs(draw, valid):
    """(argv, files to write, whether to write them as Latin-1) for one command line."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    files = {}
    source = draw(st.sampled_from(["file", "file", "missing", "directory"]))
    path = {"file": "{tmp}/input", "missing": "{tmp}/absent", "directory": "{tmp}"}[source]
    if source == "file":
        kind = INPUT[command]
        text = spec_text(valid[kind]) if kind == "spec" else file_text(valid[kind], NOISE["text"])
        files["input"] = draw(text)
        if kind == "events":
            files["input.meta.json"] = draw(file_text(valid["meta"], NOISE["text"]))
    argv = ["-q"] if draw(st.booleans()) else []
    argv.append(command)
    if command == "synth":
        argv.append(path)
    elif command == "explain" and draw(st.booleans()):
        argv += ["--code", draw(st.sampled_from(NUMBERS))]
    else:
        argv += ["--features" if command == "explain" else "--in", path]
    flags = st.lists(st.sampled_from(FLAGS[command]), max_size=4, unique=True)
    for flag in draw(flags) if FLAGS[command] else []:
        argv += [flag, draw(st.sampled_from(CHOICES.get(flag, NUMBERS)))]
    if command == "eval":
        argv += draw(st.lists(st.sampled_from(SWITCHES), max_size=3, unique=True))
    elif command == "convert" and draw(st.booleans()):
        argv.append("--pad")
    if command != "explain":
        out = draw(st.sampled_from(["{tmp}/out", "{tmp}/no/such/dir/out", "{tmp}"]))
        argv += ["--out", out]
    latin1 = draw(st.booleans())
    return argv, files, latin1


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # what an interpreter prints for an uncaught warning
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_main(argv):
    """(status, stderr) of ``main(argv)`` as a fresh process would show them."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse rejects a flag with status 2
                status = exc.code
    return status, err.getvalue()


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_ends_cleanly(valid, data):
    argv, files, latin1 = data.draw(runs(valid))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            encoded = text.encode("latin-1", "replace") if latin1 else text.encode()
            Path(tmp, name).write_bytes(encoded)
        status, err = run_main([arg.format(tmp=tmp) for arg in argv])
    assert status in (0, 1, 2), (argv, status, err)
    if status == 1 and argv[0] == "-q":
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
